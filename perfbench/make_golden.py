"""Write the golden files: one entry per input a workload can draw.

Run from the root of a checkout, at the commit whose results are the
reference::

    python3 perfbench/make_golden.py [--jobs 2] [workload ...]

Each job's exact record is reduced to a digest (and its cover cells kept
as numbers, see ``workloads.verify``).  An input whose job raises or
fails a check aborts the run: the golden files only hold inputs on which
the program succeeds.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _init() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _init_worker() -> None:
    """Give each worker its own directory: CLI jobs write fixed file names."""
    _init()
    os.chdir(tempfile.mkdtemp(dir=os.getcwd()))


def _entry(args):
    name, item = args
    import workloads

    wl = workloads.WORKLOADS[name]
    if name == "cli-readme":
        workloads.write_inputs([item])
    record, _counters = wl.job(item)
    return wl.key(item), workloads.golden_entry(record)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("workloads", nargs="*", default=["shift-pipeline", "coupled-sweep", "cli-readme"])
    args = ap.parse_args(argv)
    _init()
    import workloads

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    for name in args.workloads:
        items = list(workloads.WORKLOADS[name].universe())
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            os.chdir(tmp)
            ctx = multiprocessing.get_context("spawn")
            with ctx.Pool(args.jobs, initializer=_init_worker) as pool:
                entries = dict(pool.imap(_entry, [(name, item) for item in items], chunksize=4))
            os.chdir(ROOT)
        with open(HERE / "golden" / f"{name}.json", "w") as fh:
            json.dump(entries, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(entries)} golden entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
