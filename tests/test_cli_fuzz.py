"""Seeded fuzzing of the command-line front end.

Valid, mutated and ill-typed puzzle files and graph specs, plus random
well-typed flag values, go through ``cli.main``.  Whatever the input, no
exception may escape, the exit code is 0, 1 or 2, and nothing reaches
stdout when stderr reports an input error or a precondition violation.
``puzzle validate`` and ``coupled build`` are the two commands that print
their report before exiting non-zero on a bad puzzle.  Uses ``random``
with fixed seeds, so it needs nothing beyond pytest.
"""

import copy
import json
import random

import pytest

from qfpuzzles.cli import main
from qfpuzzles.constructions import (
    full_shift_puzzle,
    golden_mean_puzzle,
    periodic_orbit_tower_puzzle,
    undetermined_puzzle,
)
from qfpuzzles.puzzle import dual

from test_fuzz import random_puzzle

SPECS = [
    {"kind": "complete", "d": 3},
    {"kind": "adjacency", "matrix": [[1, 1], [1, 0]]},
    {"kind": "loop_graph", "f": [0, 2, 1]},
    {"kind": "two_hub", "a": [1], "b": [0, 1], "s": [1], "t": [1], "bound": 10},
    {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"], ["a", "a", 2, 3]]},
]


def junk(rng: random.Random, depth: int = 0):
    """A random JSON value of random type."""
    kinds = ["int", "str", "null", "bool", "float"] + (["list", "dict"] if depth < 2 else [])
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-3, 5)
    if kind == "str":
        return rng.choice(["", "0", "a", "ε", "p1.0", "01", "-1", "x" * 5])
    if kind == "null":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "float":
        return rng.choice([0.5, -1.0, 1e300])
    if kind == "list":
        return [junk(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(["a", "b", "kind", "d"]): junk(rng, depth + 1) for _ in range(rng.randint(0, 2))}


def mutate(rng: random.Random, data):
    """Replace, drop or insert one value somewhere inside a JSON structure."""
    data = copy.deepcopy(data)
    node = data
    for _ in range(rng.randint(0, 3)):
        children = list(node.items()) if isinstance(node, dict) else list(enumerate(node)) if isinstance(node, list) else []
        children = [(k, v) for k, v in children if isinstance(v, (dict, list)) and v]
        if not children:
            break
        node = rng.choice(children)[1]
    if isinstance(node, dict) and node:
        key = rng.choice(sorted(node, key=str))
        move = rng.randrange(3)
        if move == 0:
            del node[key]
        elif move == 1:
            node[key] = junk(rng)
        else:
            node[rng.choice(sorted(node, key=str))] = copy.deepcopy(node[key])
    elif isinstance(node, list) and node:
        k = rng.randrange(len(node))
        move = rng.randrange(3)
        if move == 0:
            del node[k]
        elif move == 1:
            node[k] = junk(rng)
        else:
            node.insert(k, copy.deepcopy(node[k]))
    return data


def puzzle_data(rng: random.Random):
    p = rng.choice([
        lambda: full_shift_puzzle(3),
        lambda: golden_mean_puzzle(4),
        lambda: periodic_orbit_tower_puzzle([2, 3, 2], 3),
        undetermined_puzzle,
        lambda: random_puzzle(rng, rng.randint(2, 4), max_width=3),
    ])()
    return (dual(p) if rng.random() < 0.3 else p).to_json()


def file_text(rng: random.Random, data) -> str:
    """Valid, mutated, ill-typed or malformed JSON text around ``data``."""
    kind = rng.randrange(7)
    if kind < 3:
        return json.dumps(data)
    if kind < 5:
        for _ in range(kind - 2):
            data = mutate(rng, data)
        return json.dumps(data)
    if kind == 5:
        return json.dumps(junk(rng))
    text = json.dumps(data)
    return text[: rng.randrange(len(text))]


def labels_of(data) -> list[str]:
    if isinstance(data, dict) and isinstance(data.get("levels"), list):
        return [x for level in data["levels"] if isinstance(level, list) for x in level if isinstance(x, str)]
    if isinstance(data, dict) and isinstance(data.get("vertices"), list):
        return [x for x in data["vertices"] if isinstance(x, str)]
    return ["0", "1", "a", "b", "hub_a"]


def random_argv(rng: random.Random, tmp_path) -> list[str]:
    n = lambda lo, hi: str(rng.randint(lo, hi))
    out = rng.choice([[], [], [], ["--out", str(tmp_path / "o.json")], ["--out", str(tmp_path)],
                      ["--out", str(tmp_path / "missing" / "o.json")]])
    group = rng.choice(["puzzle"] * 3 + ["graph"] * 2 + ["coupled"])
    if group == "coupled":
        rational = lambda: rng.choice(["1", "9/10", "1/20", "0", "-1", "3", "1/0", "x", "0.5"])
        params = ["--a", rational(), "--b", rational(), "--c", rational()]
        if rng.random() < 0.5:
            gap = ["--gap", rational()] if rng.random() < 0.5 else []
            return ["coupled", "build", *params, "--depth", n(-1, 2), "--res", n(-1, 4), *gap, *out]
        return ["coupled", "resultant", *params, "--n", n(-1, 3), "--m", n(-1, 3), *out]
    data = puzzle_data(rng) if group == "puzzle" else rng.choice(SPECS)
    path = tmp_path / "in.json"
    path.write_text(file_text(rng, data))
    labels = labels_of(data) + ["", "zz", "ε"]
    pick = lambda: rng.choice(labels)
    subset = lambda: ",".join(pick() for _ in range(rng.randint(1, 3)))
    dot = rng.choice([[], ["--dot", str(tmp_path / "d.dot")], ["--dot", str(tmp_path)]])
    if group == "puzzle":
        op, extra = rng.choice([
            ("validate", []),
            ("irreducibles", ["--level", n(-1, 5)]),
            ("verdict", ["--piece", pick()]),
            ("determined", []),
            ("diagram", ["--cutoff", n(-1, 4), *dot]),
            ("zeta", ["--level", n(-1, 4), "--cert", n(-1, 5), "--trunc", n(-2, 6)]),
        ])
        return ["puzzle", op, "--in", str(path), *extra, *out]
    op, extra = rng.choice([
        ("build", dot),
        ("zeta", ["--subset", subset(), "--method", rng.choice(["det", "brute"]), "--trunc", n(-2, 8)]),
        ("zeta", ["--order", n(-2, 8)]),
        ("entropy", ["--base", pick(), "--length", n(-2, 8)]),
        ("hinf", ["--subset", subset(), "--length", n(-2, 8)]),
    ])
    return ["graph", op, "--spec", str(path), *extra, *out]


@pytest.mark.parametrize("seed", range(8))
def test_cli_never_crashes_and_keeps_stdout_clean_on_failure(capsys, tmp_path, seed):
    rng = random.Random(5000 + seed)
    statuses = set()
    for _ in range(40):
        argv = random_argv(rng, tmp_path)
        status = main(argv)
        captured = capsys.readouterr()
        assert status in (0, 1, 2), argv
        assert "Traceback" not in captured.err, argv
        if "input error:" in captured.err or "precondition violation:" in captured.err:
            assert captured.out == "", argv
        if status != 0 and captured.out:
            assert argv[:2] in (["puzzle", "validate"], ["coupled", "build"]), argv
        statuses.add(status)
    assert statuses == {0, 1, 2}
