"""The README's CLI commands give pinned output on fixed fixtures.

Each command runs in process, in a fresh directory that holds the fixtures
under relative names, so the manifests are stable.  Its exit status,
stdout, stderr and every file it writes are compared with
``cli_pinned.json``.  ``coupled build`` writes to ``coupled.json`` instead
of ``puzzle.json`` so that the other commands keep their input.  Three
extra commands run ``puzzle diagram`` on diagrams with several strongly
connected components and periods 2 and 3, and ``graph zeta`` past a
completeness bound.

To regenerate the expected file (only when an output change is intended
and documented):

    PYTHONPATH=src python tests/test_cli_pinned.py tests/cli_pinned.json
"""

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from qfpuzzles.cli import main
from qfpuzzles.constructions import golden_mean_puzzle, layered_full_shifts_puzzle, periodic_orbit_tower_puzzle

HERE = Path(__file__).resolve().parent
README = HERE.parent / "README.md"
EXPECTED = HERE / "cli_pinned.json"
TWO_HUB = {"kind": "two_hub", "a": [1], "b": [0, 1], "s": [1], "t": [1]}
EXTRA = [
    "puzzle diagram --in tower.json --cutoff 3 --dot tower.dot",
    "puzzle diagram --in layered.json --cutoff 3",
    "graph zeta --spec g.json --subset a --order 12",
]


def fixtures() -> dict[str, str]:
    return {
        "k3.json": json.dumps({"kind": "complete", "d": 3}),
        "g.json": json.dumps(TWO_HUB),
        "puzzle.json": golden_mean_puzzle(6).dumps(),
        "tower.json": periodic_orbit_tower_puzzle([2, 3] * 3, 6).dumps(),
        "layered.json": layered_full_shifts_puzzle(2, 6).dumps(),
    }


def readme_commands() -> list[str]:
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line.removeprefix("qfpuzzles ").replace("--out puzzle.json", "--out coupled.json")
            for line in lines if line]


def run_all() -> dict[str, dict]:
    """Every command's status, streams and written files, run in order in one directory."""
    results = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            inputs = fixtures()
            for name, text in inputs.items():
                Path(name).write_text(text)
            for command in readme_commands() + EXTRA:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = main(shlex.split(command))
                written = {}
                for path in sorted(Path(".").iterdir()):
                    if path.name not in inputs:
                        written[path.name] = path.read_text()
                        path.unlink()
                results[command] = {"status": status, "stdout": out.getvalue(),
                                    "stderr": err.getvalue(), "files": written}
        finally:
            os.chdir(cwd)
    return results


def test_cli_output_is_pinned():
    assert len(readme_commands()) == 11
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    actual = run_all()
    assert list(actual) == list(expected)
    for command, want in expected.items():
        assert actual[command] == want, command
    assert all(r["status"] == 0 for r in actual.values())


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(run_all(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
