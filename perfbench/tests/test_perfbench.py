"""Tests of the benchmark itself: seeded inputs, counters, fault detection."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run.load_library()
import spans  # noqa: E402


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    generate = workloads.WORKLOADS[name].generate
    assert generate(5) == generate(5)
    assert generate(5) != generate(6)


@pytest.mark.parametrize("name", ["shift-pipeline", "coupled-sweep"])
def test_every_draw_has_a_golden_entry(name):
    wl = workloads.WORKLOADS[name]
    golden = json.loads((BENCH / "golden" / f"{name}.json").read_text())
    universe = {wl.key(item) for item in wl.universe()}
    assert universe == set(golden)
    for seed in range(5):
        assert {wl.key(item) for item in wl.generate(seed)} <= universe


def test_shift_pool_is_stratified():
    pool = workloads.shift_generate(3)
    strata = [workloads.shift_stratum(f) for f in pool]
    count = len(workloads.SHIFT_STRATA) + 1
    assert sorted(strata) == sorted(list(range(count)) * workloads.SHIFT_PER_STRATUM)


def test_coupled_pool_has_decoupled_draws():
    pool = workloads.coupled_generate(3)
    assert sum(c == "0" for _a, _b, c in pool) == workloads.COUPLED_DECOUPLED


def test_same_seed_gives_same_counters(capsys):
    counters = []
    for _ in range(2):
        assert run.main(["--workload", "cli-readme", "--seed", "4", "--seconds", "0", "--trace", "1"]) == 0
        metrics = _result(capsys)["metrics"]
        counters.append({m: v["value"] for m, v in metrics.items() if m in run.COUNTERS})
    assert counters[0] == counters[1]
    assert counters[0]["cli.requests"] == len(workloads.cli_generate(4))
    assert counters[0]["cli.exit.0"] == counters[0]["cli.requests"]


def test_planted_wrong_cli_output_fails_the_run(monkeypatch, capsys):
    real = workloads.cli.Path.write_text

    def corrupt(self, text, *args, **kwargs):
        return real(self, text + " ", *args, **kwargs)

    monkeypatch.setattr(workloads.cli.Path, "write_text", corrupt)
    assert run.main(["--workload", "cli-readme", "--seed", "4", "--seconds", "0", "--trace", "0"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert [line.split()[2] for line in out if line.split()[1:2] == ["fail_rate"]] == ["1"]


def test_planted_wrong_zeta_fails_the_independent_check(monkeypatch):
    real = workloads.zt.semi_local_zeta_det

    def off_by_one(g, subset, order):
        series = real(g, subset, order)
        return series + workloads.sr.PowerSeries([0, 0, 1], order=order)

    monkeypatch.setattr(workloads.zt, "semi_local_zeta_det", off_by_one)
    runner = run.Runner(workloads, "graph-zeta", 1)
    ok, _counters = runner.run_one(workloads.graph_generate(1)[0])
    assert not ok
    assert "determinant route differs" in runner.errors[0]


def test_greedy_cover_cells_may_only_fall():
    golden = {"digest": workloads.digest({"a": 1}), "cells": [3, 5], "inexact": [1]}
    workloads.verify({"exact": {"a": 1}, "cells": [[3, True], [4, True]]}, golden)
    with pytest.raises(workloads.CheckFailed):
        workloads.verify({"exact": {"a": 1}, "cells": [[3, True], [6, False]]}, golden)
    with pytest.raises(workloads.CheckFailed):
        workloads.verify({"exact": {"a": 1}, "cells": [[2, True], [5, False]]}, golden)


def test_self_time_subtracts_child_spans():
    trace = [
        ["job", 0.0, 10.0, -1, 0],
        ["zeta.puzzle_zeta_n", 1.0, 7.0, 0, 0],
        ["graphs.gamma_n", 2.0, 3.0, 1, 0],
        ["reducibility.ReducibilityAnalyzer.verdict", 4.0, 6.0, 1, 0],
    ]
    self_s, calls, total = spans.self_times(trace)
    assert self_s == {"bench": 4.0, "zeta": 3.0, "graphs": 1.0, "reducibility": 2.0}
    assert calls["zeta"] == 1 and total == 10.0


def test_tracer_catches_calls_through_other_namespaces():
    tracer = spans.Tracer()
    tracer.install()
    try:
        g = workloads.gr.sft_graph([[1, 1], [1, 0]])
        tracer.run_job(0, workloads.zt.semi_local_zeta_det, g, ["0"], 4)
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"zeta.semi_local_zeta_det", "graphs.avoiding_path_counts"} <= names
    assert workloads.zt.avoiding_path_counts is workloads.gr.avoiding_path_counts  # restored


def test_run_without_the_library_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "graph-zeta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
