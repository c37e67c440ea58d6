"""Benchmark of the qfpuzzles pipeline: one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload shift-pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 [--record perfbench/baseline.json]

Load is a closed loop: one client, one thread, jobs taken in a fixed
seeded order from the workload's input pool, round and round the pool
until at least ``--seconds`` have passed (and, untraced, at least three
whole passes).  Times are in reference seconds (see ``Gauge``).  Every
job is checked (see ``workloads.py``); a failed job counts in ``failed``
and makes the command exit 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
job twice, untraced and then traced, and reports the per-layer metrics
and ``trace.overhead``; spans go to ``.perfbench/spans-<workload>.jsonl``.
``--all`` runs every workload in its own process, both ways, and prints
every metric; ``--record`` also writes them, with the layer map, to a
JSON file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 3  # a job's time is the median of its passes (see measure)
# The probe's time (``_probe``) on an uncontended CPU of the host where the
# benchmark was written (Intel Xeon KVM guest, 2 vCPUs, Python 3.11); the
# unit of the reference seconds that every time metric is given in.
PROBE_REF_S = 7.0e-4
WORKLOAD_NAMES = ("shift-pipeline", "graph-zeta", "coupled-sweep", "cli-readme")

# Which end-to-end metric each layer metric should move (on the other
# workloads the prediction is no change).
LAYER_MAP = [
    {"layer_metrics": ["coupled.self_s", "coupled.cells"], "moves": ["jobs_per_s", "job_s.p50"],
     "on": ["coupled-sweep"], "bypassed_on": ["shift-pipeline", "graph-zeta"]},
    {"layer_metrics": ["reducibility.self_s", "reducibility.verdicts"], "moves": ["job_s.p50"],
     "on": ["shift-pipeline"], "bypassed_on": ["graph-zeta"]},
    {"layer_metrics": ["zeta.self_s", "zeta.words_total"], "moves": ["job_s.p50", "job_s.tail"],
     "on": ["shift-pipeline", "graph-zeta"], "bypassed_on": ["coupled-sweep"]},
    {"layer_metrics": ["graphs.self_s", "series.self_s", "polys.self_s"], "moves": ["jobs_per_s"],
     "on": ["graph-zeta"], "bypassed_on": ["coupled-sweep"]},
    {"layer_metrics": ["puzzle.self_s", "puzzle.cover_inexact", "constructions.self_s"],
     "moves": ["job_s.p50"], "on": ["shift-pipeline", "cli-readme"], "bypassed_on": ["graph-zeta"]},
    {"layer_metrics": ["diagram.self_s", "diagram.arrows"], "moves": ["job_s.p50"],
     "on": ["shift-pipeline"], "bypassed_on": ["coupled-sweep"]},
    {"layer_metrics": ["cli.self_s", "cli.exit.0", "cli.exit.1", "cli.exit.2"],
     "moves": ["job_s.p50", "jobs_per_s"], "on": ["cli-readme"],
     "bypassed_on": ["shift-pipeline", "graph-zeta", "coupled-sweep"]},
]

COUNTERS = (
    "puzzle.pieces", "puzzle.cover_cells", "puzzle.cover_inexact",
    "reducibility.verdicts", "reducibility.status.Reducible",
    "reducibility.status.Irreducible_R1", "reducibility.status.Irreducible_R2",
    "reducibility.status.UnknownBeyondDepth",
    "diagram.vertices", "diagram.arrows",
    "diagram.frontier.unknown-verdict", "diagram.frontier.target-beyond-cutoff",
    "zeta.words_total", "zeta.words_certified",
    "coupled.cells", "coupled.pieces", "coupled.ambiguous",
    "cli.requests", "cli.exit.0", "cli.exit.1", "cli.exit.2", "cli.bytes_out",
)


def load_library():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qfpuzzles" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qfpuzzles package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import qfpuzzles

    if Path(qfpuzzles.__file__).resolve().parent != (src / "qfpuzzles").resolve():
        raise SystemExit(f"perfbench: imported qfpuzzles from {qfpuzzles.__file__}, not {src}")
    import workloads

    return workloads


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Gauge:
    """Runs the process on the faster of its CPUs and gauges that CPU's speed.

    On a shared host each CPU runs at full speed or, while other tenants
    load the host, up to about 1.9 times slower, in phases of seconds that
    come and go independently per CPU; the full speed itself drifts by
    some 15% over minutes.  Before a job (at most every PICK_EVERY
    seconds) a fixed loop (``_probe``) is timed on each CPU and the
    process is pinned to the faster one.  A timed section is reported in
    reference seconds: its wall time times PROBE_REF_S over the mean of
    the probe times just before and just after it, i.e. its time on a CPU
    where the probe takes PROBE_REF_S.  The probe is benchmark code, so a
    change to the program moves the reference seconds as it moves the
    wall time.  With one CPU nothing is pinned; the probe still runs.
    """

    PICK_EVERY = 0.1

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = -math.inf
        self.probe_s = math.nan

    def pick(self, force: bool = False) -> float:
        """Probe every CPU, pin the process to the faster one and return its
        probe time; within PICK_EVERY of the last probe, unless ``force``,
        return that probe's time."""
        if force or time.perf_counter() - self.last >= self.PICK_EVERY:
            speed = {}
            gc.disable()  # garbage the program left must not slow the probe
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    speed[cpu] = min(_probe() for _ in range(3))
            finally:
                gc.enable()
            cpu = min(speed, key=speed.get)
            os.sched_setaffinity(0, {cpu})
            self.probe_s = speed[cpu]
            self.last = time.perf_counter()
        return self.probe_s

    @staticmethod
    def scale(wall: float, before: float, after: float) -> float:
        """Wall seconds to reference seconds, by the probes around them."""
        return wall * PROBE_REF_S * 2 / (before + after)

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


def _probe() -> float:
    """Time a fixed interpreter loop of rational and dict work (~1 ms)."""
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for k in range(1, 300):
        acc += Fraction(k % 7, k % 97 + 1)
        seen[k % 64] = seen.get(k % 64, 0) + k
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it, and its value."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 11, 0)
    return 100.0 * (k + 1) / n, ordered[k]


class Runner:
    """Runs and checks the jobs of one workload."""

    def __init__(self, workloads, name: str, seed: int):
        self.w = workloads
        self.wl = workloads.WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.golden = {}
        if self.wl.key is not None:
            with open(HERE / "golden" / f"{name}.json") as fh:
                self.golden = json.load(fh)
        self.errors: list[str] = []
        self.note: str | None = None
        self.gauge = Gauge()

    def setup(self) -> list:
        pool = self.wl.generate(self.seed)
        if self.name == "cli-readme":
            self.w.write_inputs(pool)
        self.run_one(self.wl.warmup(pool) if self.wl.warmup else pool[0])
        return pool

    def run_one(self, item) -> tuple[bool, dict]:
        """Run and check one job: ``(passed, counters)``.  The counters of a
        job that raised are empty; those of a job that failed a check count."""
        counters: dict = {}
        try:
            record, counters = self.wl.job(item)
            golden = None
            if self.wl.key is not None:
                golden = self.golden.get(self.wl.key(item))
                self.w.check(golden is not None, "input has no golden entry")
            self.w.verify(record, golden)
            return True, counters
        except Exception as exc:  # a job that raises is a failed job, not a crash
            if len(self.errors) < 5:
                self.errors.append(f"{self.name} {item!r:.200}: {type(exc).__name__}: {exc}\n"
                                   + traceback.format_exc(limit=3))
            return False, counters


def add(total: dict, part: dict) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0) + v


def run(name: str, seed: int, seconds: float, traced: bool):
    """Set up and measure one workload; returns metrics, attempted, failed,
    error messages and a note on the tail percentile."""
    t_import = time.perf_counter()
    workloads = load_library()
    import_s = time.perf_counter() - t_import

    runner = Runner(workloads, name, seed)
    probe = runner.gauge.pick(force=True)  # the import is gauged by the probe after it
    import_s = runner.gauge.scale(import_s, probe, probe)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = runner.gauge.pick(force=True)
            t0 = time.perf_counter()
            pool = runner.setup()
            wall = time.perf_counter() - t0
            setups.append(runner.gauge.scale(wall, before, runner.gauge.pick(force=True)))
        setup_s = import_s + statistics.median(setups)
        warmup_errors = list(runner.errors)
        runner.errors.clear()
        if traced:
            metrics, attempted, failed = measure_traced(runner, pool, seconds)
        else:
            metrics, attempted, failed = measure(runner, pool, seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        if warmup_errors:
            failed += 1
            attempted += 1
        return metrics, attempted, failed, warmup_errors + runner.errors, runner.note
    finally:
        runner.gauge.release()
        os.chdir(home)
        for leftover in workdir.iterdir():
            leftover.unlink()
        workdir.rmdir()


def _loop(pool, seconds: float, min_passes: int):
    """Yield ``(index, item)`` in pool order, round and round, until at
    least ``min_passes`` whole passes are done and ``seconds`` have passed.
    Every input is timed at least ``min_passes`` times, and the metrics
    are taken over per-input figures, so every run times the same mix."""
    start = time.perf_counter()
    k = 0
    while True:
        yield k, pool[k % len(pool)]
        k += 1
        if k >= min_passes * len(pool) and time.perf_counter() - start >= seconds:
            return


def measure(runner: Runner, pool, seconds: float):
    """End-to-end metrics over the pool's inputs.

    Each job is timed in reference seconds (see :class:`Gauge`) and an
    input's time is the median over its passes.  Throughput and the median
    over every run in plain wall seconds, and the median probe time, are
    printed too.
    """
    gauge = runner.gauge
    runs: list[tuple[int, float, float]] = []  # input, wall seconds, probe before
    failed = 0
    broken = set()
    start = time.perf_counter()
    for k, item in _loop(pool, seconds, MIN_PASSES):
        probe = gauge.pick()
        t0 = time.perf_counter()
        ok, _counters = runner.run_one(item)
        elapsed = time.perf_counter() - t0
        i = k % len(pool)
        runs.append((i, elapsed, probe))
        if not ok:
            failed += 1
            broken.add(i)
    wall = time.perf_counter() - start
    probes = [probe for _, _, probe in runs] + [gauge.pick(force=True)]
    times: list[list[float]] = [[] for _ in pool]
    for j, (i, elapsed, probe) in enumerate(runs):
        times[i].append(gauge.scale(elapsed, probe, probes[j + 1]))
    per_input = [statistics.median(t) for t in times]
    pct, tail_s = tail(per_input)
    metrics = {
        "jobs_per_s": ((len(pool) - len(broken)) / sum(per_input), "1/s"),
        "job_s.p50": (statistics.median(per_input), "s"),
        "job_s.tail": (tail_s, "s"),
        "fail_rate": (failed / len(runs), "ratio"),
    }
    runner.note = (
        f"times in reference seconds (probe {PROBE_REF_S * 1e3:.2f} ms; median probe here "
        f"{statistics.median(probes) * 1e3:.3g} ms); job_s.tail is p{pct:.1f} of {len(pool)} inputs, "
        f"each the median of {min(map(len, times))}-{max(map(len, times))} passes; over all {len(runs)} runs "
        f"in wall seconds: {(len(runs) - failed) / wall:.4g} jobs/s, "
        f"p50 {statistics.median(e for _, e, _ in runs):.4g} s"
    )
    return metrics, len(runs), failed


def measure_traced(runner: Runner, pool, seconds: float):
    from spans import BENCH, LAYERS, Tracer, self_times

    tracer = Tracer()
    plain_s = traced_s = 0.0
    counters: dict = {}
    attempted = failed = 0
    kept_spans = 0
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    job_s = 0.0

    def fold(spans, first: int) -> float:
        part_self, part_calls, part_job = self_times(spans, first)
        add(self_s, part_self)
        add(calls, part_calls)
        return part_job

    for k, item in _loop(pool, seconds, 1):
        runner.gauge.pick()
        t0 = time.perf_counter()
        ok, _counters = runner.run_one(item)
        t1 = time.perf_counter()
        tracer.install()
        try:
            ok_traced, job_counters = tracer.run_job(k, runner.run_one, item)
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        plain_s += t1 - t0
        traced_s += t2 - t1
        attempted += 2
        failed += (not ok) + (not ok_traced)
        if k < len(pool):
            add(counters, job_counters)
            kept_spans = len(tracer.spans)  # the written trace covers the first pass
        else:
            # Fold later passes into the totals so memory stays bounded.
            job_s += fold(tracer.spans, kept_spans)
            del tracer.spans[kept_spans:]
    job_s += fold(tracer.spans, 0)
    traced_jobs = attempted // 2
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{runner.name}.jsonl")

    metrics = {}
    for layer in (*LAYERS, BENCH):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / traced_jobs, "s")
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / traced_jobs, "count")
        metrics[f"{layer}.share"] = (self_s.get(layer, 0.0) / job_s, "ratio")
    for name in COUNTERS:
        unit = "bytes" if name == "cli.bytes_out" else "count"
        metrics[name] = (counters.get(name, 0), unit)
    words = counters.get("zeta.words_total", 0)
    metrics["zeta.certified_ratio"] = (counters.get("zeta.words_certified", 0) / words if words else 0.0,
                                       "ratio")
    pieces = counters.get("coupled.pieces", 0)
    metrics["coupled.ambiguous_ratio"] = (counters.get("coupled.ambiguous", 0) / pieces if pieces else 0.0,
                                          "ratio")
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    return metrics, attempted, failed


def report(name: str, metrics: dict, attempted: int, failed: int, note: str | None) -> dict:
    for metric, (value, unit) in metrics.items():
        print(f"{name:16s} {metric:42s} {value:>16.6g} {unit}")
    print(f"{name:16s} {'attempted':42s} {attempted:>16d} jobs")
    print(f"{name:16s} {'failed':42s} {failed:>16d} jobs")
    if note:
        print(f"{name:16s} {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        for trace_flag in ("0", "1"):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", trace_flag]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            results.setdefault(name, {})["trace" if trace_flag == "1" else "end_to_end"] = json.loads(last)
    if args.record:
        record = {
            "seed": args.seed,
            "seconds": args.seconds,
            "python": sys.version.split()[0],
            "layer_map": LAYER_MAP,
            "results": results,
        }
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, help="with --all: write the results to this JSON file")
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    metrics, attempted, failed, errors, note = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for err in errors:
        print(err, file=sys.stderr)
    result = report(args.workload, metrics, attempted, failed, note)
    if not args.trace:
        # fail_rate is printed above; it is 0 on a correct run, so the
        # result line carries it as attempted/failed instead.
        del result["metrics"]["fail_rate"]
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
