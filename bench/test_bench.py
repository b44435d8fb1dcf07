"""Tests of the benchmark harness itself (``pytest bench/ -q``).

Every workload runs at ``--smoke`` size, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] != 0, metric["name"]


def test_traced_run_nests_spans_and_restores_every_wrapper():
    probe = tracing.Tracer()
    tracing.install_repro(probe)
    originals = probe.originals
    probe.restore()
    assert all(vars(owner)[attr] is original
               for owner, attr, original in originals)

    with workloads.Bench("gp-adaptec3", 0, 0.5, True,
                         workloads.SMOKE) as bench:
        workloads.run_gp(bench)

    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    spans = bench.tracer.spans
    index = tracing.SpanIndex(spans)
    names = {span.name for span in spans}
    assert {"XPlacer.run", "GradientEngine.compute", "WirelengthOp.__call__",
            "DensitySystem.evaluate", "ElectrostaticSolver.solve",
            "DreamPlaceStyleBaseline.run", "make_design"} <= names
    for span in spans:
        assert index.self_time(span) >= 0.0
        if span.parent is not None:
            parent = index.by_id[span.parent]
            assert parent.tid == span.tid
            assert parent.start <= span.start <= span.end <= parent.end
    # Self times within a GP run add up to the whole run: no gap.
    groups = index.under(("XPlacer.run",))
    for run in (s for s in spans if s.name == "XPlacer.run"):
        total = sum(index.self_time(s) for s in groups[run.id])
        assert total == pytest.approx(run.duration, rel=1e-9, abs=1e-9)

    layers = workloads.layer_metrics(bench)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(layers) == declared


def test_chrome_trace_round_trips(tmp_path):
    tracer = tracing.Tracer()

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Box.__dict__["outer"]
    tracer.wrap(Box, "outer", "Box.outer")
    tracer.wrap(Box, "inner", "Box.inner")
    try:
        assert Box().outer() == 2
    finally:
        tracer.restore()
    assert Box.__dict__["outer"] is original
    path = tracing.write_chrome_trace(tracer.spans, str(tmp_path / "t.json"))
    with open(path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    by_name = {event["name"]: event for event in events}
    assert by_name["Box.inner"]["args"]["parent"] == \
        by_name["Box.outer"]["args"]["id"]
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)


def test_speed_monitor_samples_every_core_and_stops(tmp_path):
    with speed.SpeedMonitor(str(tmp_path)) as monitor:
        began = time.perf_counter()
        while time.perf_counter() - began < 0.3:
            pass
        ended = time.perf_counter()
        for core in monitor.cores:
            assert 0 < monitor.factor(began, ended, [core]) < 10
        assert monitor.calibrate(began, ended) > 0
        procs = list(monitor._procs)
    assert procs and all(proc.poll() is not None for proc in procs)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "gp-adaptec3", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("base, new, better, expected", [
    ([10.0] * 10, [10.05] * 10, "lower", "same"),
    ([10.0] * 10, [12.0] * 10, "lower", "worse"),
    ([10.0] * 10, [8.0] * 10, "lower", "better"),
    ([10.0] * 10, [8.0] * 10, "higher", "worse"),
    ([10.0] * 10, [12.0] * 10, "higher", "better"),
    # 9 wins of 10, but a gap inside the base side's own spread.
    ([10.0, 10.5] * 5, [9.9, 10.4] * 4 + [9.9, 10.6], "lower", "same"),
    ([10.0, 20.0] * 5, [10.0, 20.0] * 5, "lower", "unresolved"),
    ([10.0, 20.0] * 5, [1.0, 2.0] * 5, "lower", "better"),
])
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, better, 0.1) == expected


def test_compare_refuses_runs_of_two_speed_modes():
    def runs(mode):
        values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        metrics = {name: {"value": v, "unit": "s"}
                   for name, v in values.items()}
        return {("gp-adaptec3", 0): {
            seed: {"metrics": metrics, "raw_values": values,
                   "speed_mode": mode} for seed in range(4)}}

    out = io.StringIO()
    assert compare.compare(runs("real-time"), runs("real-time"), SPEC,
                           out) == 0
    assert "raw 1 -> 1 (+0.0%)" in out.getvalue()
    assert compare.compare(runs("real-time"), runs("normal"), SPEC,
                           io.StringIO()) == 2
