"""No float in retained data: floats appear only in the documented estimate fields.

Results are exact (``int`` and ``Fraction``) except the sampled estimates:
the ``rate`` and ``ratio`` of a rate-table row, the ``rate`` of a covering
cell, the ``gap`` of recurrence evidence and ``EntropyTable.estimate``.
These tests walk every field of what the library returns and retains
(with the attributes that a ``CouplingParams`` keeps beside its fields), and
every value the README's CLI commands print (where the CSV columns
``rate_estimate`` and ``ratio_estimate`` are the estimates).
"""

import csv
import json
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping

from qfpuzzles.constructions import (
    golden_mean_puzzle,
    layered_full_shifts_puzzle,
    periodic_orbit_tower_puzzle,
    words_avoiding,
)
from qfpuzzles.coupled import CouplingParams, boundary_entropy_estimate, build_puzzle, multiplicity_estimate
from qfpuzzles.diagram import build_diagram, gurevich_entropy_estimate, recurrence_evidence, scc_decomposition
from qfpuzzles.graphs import two_hub_graph
from qfpuzzles.puzzle import DyadicDistance, from_subshift, sequence_entropy
from qfpuzzles.reducibility import ReducibilityAnalyzer
from qfpuzzles.zeta import puzzle_zeta_n

from test_cli_pinned import run_all

ESTIMATE_FIELDS = {"rate", "ratio", "gap", "estimate"}
ESTIMATE_COLUMNS = {"rate_estimate", "ratio_estimate"}


def stray_floats(value, path: str = "", seen: set | None = None) -> list[str]:
    """Paths to the floats held anywhere in ``value`` outside an estimate field:
    dataclass fields, mapping keys and values, sequence items and the
    attributes of other objects, each object visited once."""
    seen = set() if seen is None else seen
    if isinstance(value, float):
        return [path]
    if value is None or isinstance(value, (str, bytes, int, Fraction, Enum)) or callable(value):
        return []
    if id(value) in seen:
        return []
    seen.add(id(value))
    if is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in fields(value)]
    elif isinstance(value, Mapping):
        items = [(f"key {k!r}", k) for k in value] + [(str(k), v) for k, v in value.items()]
    elif isinstance(value, (list, tuple, set, frozenset, range)):
        items = list(enumerate(value))
    elif hasattr(value, "__dict__"):
        items = list(vars(value).items())
    else:
        items = [(name, getattr(value, name)) for name in getattr(type(value), "__slots__", ())]
    out = []
    for key, item in items:
        if key not in ESTIMATE_FIELDS:
            out += stray_floats(item, f"{path}.{key}", seen)
    return out


def test_stray_floats_finds_floats_outside_the_estimate_fields():
    table = sequence_entropy(golden_mean_puzzle(4), lambda n: golden_mean_puzzle(4).level(n),
                             [DyadicDistance(1)], range(1, 4))
    assert all(isinstance(c.rate, float) for c in table.cells)
    assert stray_floats(table) == []
    assert stray_floats({"a": [1, (2, 0.5)], 1.5: "k", "rate": 0.1}) == [".key 1.5", ".a.1.1"]
    p, d = golden_mean_puzzle(3), DyadicDistance(1)
    p._i, d.exponent = (*p._i, 0.5), 0.25  # a plain object's attributes and a slot
    assert stray_floats([p, d]) == [f".0._i.{len(p._i) - 1}", ".1.exponent"]


def library_results():
    """What the library returns and keeps, over the stages of a shift job,
    the constructions and a coupled build."""
    words = words_avoiding("01", [("1", "1", "0"), ("0", "0", "0", "0")], 8)
    puzzles = [
        from_subshift(words, 8, name="shift"),
        from_subshift({w for w in words if len(w) <= 5}, 5, name="shift5"),
        golden_mean_puzzle(6),
        periodic_orbit_tower_puzzle([2, 3, 2, 3], 4),
        layered_full_shifts_puzzle(2, 5),
    ]
    for p in puzzles:
        an = ReducibilityAnalyzer(p)
        verdicts = [an.verdict(v) for v in p.pieces() if p.order(v)]
        chains = [an.reduction_chain(v) for v in p.pieces() if p.order(v)]
        levels = [an.irreducible_pieces(n) for n in range(1, p.depth + 1)]
        d = build_diagram(p, 3, an)
        yield p.name, (p, an, verdicts, chains, levels, an.is_determined(), d, scc_decomposition(d))
        yield p.name + " zeta", puzzle_zeta_n(p, 1, 6, min(p.depth, 4), an)
        yield p.name + " entropy", an.constraint_entropy([DyadicDistance(1), DyadicDistance.zero()], range(1, 4))
    g = two_hub_graph([1], [0, 1], [1], [1])
    yield "gurevich", gurevich_entropy_estimate(g, g.vertices[0], 10)
    yield "recurrence", recurrence_evidence(g, g.vertices[0], [g.vertices[0]], 10)
    params = CouplingParams(Fraction(1), Fraction(1), Fraction(0))
    yield "build_puzzle", build_puzzle(params, 2, 5)
    yield "coupled estimates", (boundary_entropy_estimate(params, [1, 2], 5), multiplicity_estimate(params, [1, 2], 5))
    # stray_floats walks a dataclass's fields only: the mask table the params keep is not one
    assert params._table is not None
    yield "coupling params", vars(params)


def test_library_results_hold_floats_only_in_estimate_fields():
    for name, result in library_results():
        assert stray_floats(result) == [], name


def output_floats(text: str) -> list[str]:
    """Floats in one CLI output: JSON anywhere outside an estimate key, or
    CSV cells outside the estimate columns after the manifest line."""
    if text.startswith("{"):
        return stray_floats(json.loads(text))
    head, _, body = text.partition("\n")
    out = stray_floats(json.loads(head.split("manifest: ", 1)[1]), "manifest")
    if head.startswith("# manifest: "):
        rows = list(csv.reader(body.splitlines()))
        for row in rows[1:]:
            for column, cell in zip(rows[0], row):
                if column not in ESTIMATE_COLUMNS and is_float_literal(cell):
                    out.append(f"{column}={cell}")
    return out


def is_float_literal(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        try:
            float(cell)
        except ValueError:
            return False
        return True
    return False


def test_cli_outputs_hold_floats_only_in_estimate_fields():
    estimates = 0
    for command, result in run_all().items():
        assert result["status"] == 0, command
        for text in [result["stdout"], *result["files"].values()]:
            if text:
                assert output_floats(text) == [], command
        estimates += "rate_estimate" in result["stdout"]
    assert estimates == 2  # graph entropy and graph hinf print estimate columns
