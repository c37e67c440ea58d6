"""Rerun the recorded mutation checks: each mutation must make its tests fail.

Usage, from the root of a checkout::

    python3 scripts/mutate.py

Reads ``tests/mutations.json``, a list of entries, each with

- ``name``: what the mutation breaks;
- ``file``: the file it edits, relative to the repository root;
- ``old``: text that must occur in that file exactly once;
- ``new``: the text that replaces it;
- ``selector``: the pytest arguments (test files or node ids, ``-k``
  expressions) whose tests should fail under the mutation.

The working tree is copied to a temporary directory.  Each selector must
pass there unmutated first.  Then each mutation is applied alone, its
selector runs with ``-x``, and the file is restored.  A mutation is killed
when a selected test fails (pytest exits 1) and survives when they pass.
An entry whose ``old`` text does not occur exactly once, or whose selector
does not run cleanly, is an error, so the list cannot rot silently.  One
line is printed per mutation and a summary at the end; the exit status is
0 only when every mutation is killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST = ROOT / "tests" / "mutations.json"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench", ".bench_build", "*.egg-info")


def pytest(tree: Path, selector: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")  # no stale .pyc
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selector]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def tail(run: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((run.stdout + run.stderr).splitlines()[-lines:])


def main() -> int:
    entries = json.loads(LIST.read_text())
    results = {"killed": 0, "SURVIVED": 0, "ERROR": 0}
    with tempfile.TemporaryDirectory(prefix="qfpuzzles-mutate-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        clean: dict[tuple[str, ...], subprocess.CompletedProcess] = {}
        for entry in entries:
            name, path = entry["name"], tree / entry["file"]
            selector = tuple(entry["selector"])
            original = path.read_text() if path.is_file() else ""
            if original.count(entry["old"]) != 1:
                outcome, detail = "ERROR", f"old text occurs {original.count(entry['old'])} times in {entry['file']}"
            else:
                if selector not in clean:
                    clean[selector] = pytest(tree, list(selector))
                if clean[selector].returncode != 0:
                    outcome, detail = "ERROR", "selector fails unmutated:\n" + tail(clean[selector])
                else:
                    path.write_text(original.replace(entry["old"], entry["new"]))
                    try:
                        run = pytest(tree, list(selector))
                    finally:
                        path.write_text(original)
                    outcome = {0: "SURVIVED", 1: "killed"}.get(run.returncode, "ERROR")
                    detail = "" if outcome != "ERROR" else f"pytest exited {run.returncode}:\n" + tail(run)
            results[outcome] += 1
            print(f"{outcome:9} {name}  [{' '.join(selector)}]" + (f"\n{detail}" if detail else ""), flush=True)
    print(f"mutations: {results['killed']} killed, {results['SURVIVED']} survived, "
          f"{results['ERROR']} errors, of {len(entries)}")
    return 0 if results["killed"] == len(entries) else 1


if __name__ == "__main__":
    sys.exit(main())
