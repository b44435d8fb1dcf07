"""Submit-to-first-iteration latency bench: cold vs warm workers.

The number the warm-worker layer exists for: how long after submitting
a job does its GP loop actually start?  A cold executor pays process
spawn + interpreter/numpy import (fork amortizes most of that) + design
generation/parsing + CSR building on *every* job; a warm worker with
the design resident pays only the task-message hop.

``cold`` is a fresh single-worker
:class:`~repro.service.warm.WarmPool` per job, so every submission
spawns a process and publishes and attaches its design.  ``warm``
submits the same stream of jobs to one persistent pool: the first job
attaches the shared-memory design (reported separately as ``attach``),
the rest find it resident.  Latency is measured submit → ``loop_start`` arrival at
the parent, the same observation point in both modes.

Run it via ``repro bench --warm`` (writes ``BENCH_service.json``).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Dict, List, Optional

from repro.runtime.job import PlacementJob
from repro.service.warm import WarmPool


def _await_loop_start(pool: WarmPool, submitted: float,
                      timeout: float = 120.0) -> Dict[str, float]:
    """Poll until loop_start (latency) and _result (total) arrive."""
    deadline = time.perf_counter() + timeout
    latency = None
    while time.perf_counter() < deadline:
        for message in pool.poll(0.02):
            now = time.perf_counter()
            if message.get("event") == "loop_start" and latency is None:
                latency = now - submitted
            if message.get("event") == "_result":
                if message.get("status") != "done":
                    raise RuntimeError(
                        f"bench job failed: {message.get('error')}"
                    )
                if latency is None:
                    # Degenerate pipeline without a GP loop: fall back
                    # to completion time so the bench still reports.
                    latency = now - submitted
                return {"latency": latency, "total": now - submitted}
    raise RuntimeError("bench job timed out")


def warm_latency_bench(
    design: str = "fft_1",
    cells: int = 120,
    repeats: int = 5,
    max_iterations: int = 20,
    start_method: Optional[str] = None,
) -> Dict[str, Any]:
    """Measure cold vs warm submit→first-iteration latency.

    Returns a JSON-able report; ``repeats`` is the number of *measured*
    samples per mode (the warm mode runs one extra unmeasured job that
    pays the shared-memory attach, reported as ``attach_latency_s``).
    """
    def job_for(seed: int) -> PlacementJob:
        return PlacementJob(
            design=design, cells=cells, seed=seed,
            params={"max_iterations": max_iterations},
        )

    cold_samples: List[float] = []
    for i in range(repeats):
        pool = WarmPool(workers=1, start_method=start_method)
        try:
            submitted = time.perf_counter()
            pool.submit(f"cold-{i}", job_for(seed=i))
            sample = _await_loop_start(pool, submitted)
            cold_samples.append(sample["latency"])
        finally:
            pool.shutdown()

    warm_samples: List[float] = []
    pool = WarmPool(workers=1, start_method=start_method)
    try:
        submitted = time.perf_counter()
        pool.submit("attach", job_for(seed=1000))
        attach_latency = _await_loop_start(pool, submitted)["latency"]
        for i in range(repeats):
            submitted = time.perf_counter()
            pool.submit(f"warm-{i}", job_for(seed=2000 + i))
            warm_samples.append(
                _await_loop_start(pool, submitted)["latency"]
            )
        inline = pool.inline
    finally:
        pool.shutdown()

    cold_median = statistics.median(cold_samples)
    warm_median = statistics.median(warm_samples)
    return {
        "bench": "service-warm-latency",
        "design": design,
        "cells": cells,
        "max_iterations": max_iterations,
        "repeats": repeats,
        "inline_fallback": inline,
        "cold_latency_s": {
            "median": cold_median,
            "min": min(cold_samples),
            "samples": cold_samples,
        },
        "warm_latency_s": {
            "median": warm_median,
            "min": min(warm_samples),
            "samples": warm_samples,
        },
        "attach_latency_s": attach_latency,
        "speedup_median": (cold_median / warm_median
                           if warm_median > 0 else float("inf")),
    }


def format_warm_report(report: Dict[str, Any]) -> str:
    lines = [
        f"service warm-worker latency bench "
        f"({report['design']}, {report['cells']} cells, "
        f"{report['repeats']} repeats)",
        f"  cold  (fresh worker per job) : "
        f"{report['cold_latency_s']['median'] * 1e3:8.1f} ms median "
        f"({report['cold_latency_s']['min'] * 1e3:.1f} ms min)",
        f"  warm  (design resident)      : "
        f"{report['warm_latency_s']['median'] * 1e3:8.1f} ms median "
        f"({report['warm_latency_s']['min'] * 1e3:.1f} ms min)",
        f"  attach (first warm job)      : "
        f"{report['attach_latency_s'] * 1e3:8.1f} ms",
        f"  submit-to-first-iteration speedup: "
        f"{report['speedup_median']:.1f}x",
    ]
    if report.get("inline_fallback"):
        lines.append("  (thread fallback — no process isolation; "
                     "numbers understate the warm win)")
    return "\n".join(lines)


def write_warm_report(report: Dict[str, Any],
                      path: str = "BENCH_service.json") -> str:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
