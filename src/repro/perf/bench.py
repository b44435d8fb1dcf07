"""Operator benchmark harness behind ``repro bench``.

Runs the combined wirelength + density gradient step (the hot loop of
global placement) on a sized synthetic design and reports per operator:

* **launches** — vectorised-kernel dispatch counts (``profiled``),
* **seconds** — wall time inside the ``timed(...)`` operator spans,
* **peak temporary bytes** — ``tracemalloc`` peak of one isolated
  operator invocation,

plus the :class:`~repro.perf.workspace.Workspace` arena's steady-state
hit/miss counters and resident bytes per operator namespace.

The report is JSON-friendly and written to ``BENCH_operator.json`` at
the repo root by the CLI; ``--compare`` diffs a fresh run against a
saved report and flags per-operator and per-step slowdowns beyond a
threshold, which is what the CI ``bench-smoke`` step gates on.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from typing import Any, Dict, List, Optional

import numpy as np

from repro.ops import KernelProfiler, use_profiler

DEFAULT_REPORT = "BENCH_operator.json"
#: v2: one mode (the arena path); timings moved from ``modes.workspace``
#: to the top level and the workspace-vs-fallback keys were dropped.
SCHEMA_VERSION = 2

EXPLORE_REPORT = "BENCH_explore.json"
EXPLORE_SCHEMA_VERSION = 1

#: size name -> (suite design, scale factor, default measured iterations)
SIZES: Dict[str, tuple] = {
    "tiny": ("adaptec1", 0.01, 30),
    "small": ("adaptec1", 0.05, 15),
    "medium": ("adaptec3", 0.05, 10),
}

#: the timed operator spans, in hot-loop order
OPERATORS = ("wirelength", "density_scatter", "field_solve", "density_gather")


# ----------------------------------------------------------------------
def _build(netlist, seed: int):
    """One (engine, pos_x, pos_y, gamma, lam) harness.

    ``operator_skipping`` is off so every measured iteration pays the
    full wirelength + density cost.
    """
    from repro.core.gradient_engine import GradientEngine
    from repro.core.initializer import initial_positions
    from repro.core.params import PlacementParams
    from repro.density.system import DensitySystem

    params = PlacementParams(operator_skipping=False, seed=seed)
    density = DensitySystem(
        netlist,
        target_density=params.target_density,
        extraction=params.density_extraction,
        rng=np.random.default_rng(seed + 1),
    )
    engine = GradientEngine(netlist, density, params)
    x0, y0 = initial_positions(netlist, rng=np.random.default_rng(seed))
    mov = netlist.movable_index
    pos_x = np.concatenate([x0[mov], density.fillers.x])
    pos_y = np.concatenate([y0[mov], density.fillers.y])
    bin_size = min(density.grid.bin_w, density.grid.bin_h)
    gamma = params.gamma(1.0, bin_size)  # iteration-0 smoothing
    lam = 1e-4
    return engine, pos_x, pos_y, gamma, lam


def _step(engine, pos_x, pos_y, gamma, lam, iteration):
    """One combined gradient step: compute + assemble."""
    result = engine.compute(iteration, pos_x, pos_y, gamma, lam)
    grad_x, grad_y = engine.assemble(result, pos_x, pos_y, lam)
    return result, grad_x, grad_y


def _operator_peaks(engine, pos_x, pos_y, gamma) -> Dict[str, int]:
    """tracemalloc peak bytes of one isolated call per hot operator."""
    density = engine.density
    full_x, full_y = engine.full_positions(pos_x, pos_y)
    mov_idx = density._mov_idx
    mov_x, mov_y = full_x[mov_idx], full_y[mov_idx]
    mov_w, mov_h = density._mov_w, density._mov_h
    total = density.scatter.scatter(mov_x, mov_y, mov_w, mov_h)
    total = total / density.grid.bin_area + density._fixed_density
    field = density.solver.solve(total)

    calls = {
        "wirelength": lambda: engine.wirelength(full_x, full_y, gamma),
        "density_scatter": lambda: density.scatter.scatter(
            mov_x, mov_y, mov_w, mov_h),
        "field_solve": lambda: density.solver.solve(total),
        "density_gather": lambda: density.scatter.gather(
            field.field_x, mov_x, mov_y, mov_w, mov_h),
    }
    peaks = {}
    for name, call in calls.items():
        call()  # warm the arena/caches so the peak is steady-state
        tracemalloc.start()
        call()
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[name] = int(peak)
    return peaks


def _measure(netlist, iters: int, warmup: int, seed: int) -> Dict[str, Any]:
    """Time ``iters`` steady-state gradient steps after ``warmup`` ones."""
    engine, pos_x, pos_y, gamma, lam = _build(netlist, seed)
    profiler = KernelProfiler(timed=True)
    step_seconds: List[float] = []
    with use_profiler(profiler):
        for i in range(warmup):
            _step(engine, pos_x, pos_y, gamma, lam, i)
        profiler.reset()
        engine.workspace.reset_counters()
        for i in range(iters):
            start = time.perf_counter()
            _step(engine, pos_x, pos_y, gamma, lam, warmup + i)
            step_seconds.append(time.perf_counter() - start)

    # Steady-state arena stats before the probes below touch buffers
    # outside the hot loop.
    arena_stats = engine.workspace.stats()
    # Outside the profiler context: the peaks probe re-invokes the
    # operators and must not pollute the measured launch/span totals.
    peaks = _operator_peaks(engine, pos_x, pos_y, gamma)
    return {
        "step_seconds_mean": float(np.mean(step_seconds)),
        "step_seconds_median": float(np.median(step_seconds)),
        "step_seconds_min": float(np.min(step_seconds)),
        "step_seconds_total": float(np.sum(step_seconds)),
        "operator_seconds": {
            op: float(profiler.seconds.get(op, 0.0)) for op in OPERATORS
        },
        "operator_launches": {
            op: int(profiler.counts.get(op, 0))
            for op in sorted(profiler.counts)
        },
        "operator_peak_temp_bytes": peaks,
        "total_launches": int(profiler.total),
        "arena": arena_stats,
    }


# ----------------------------------------------------------------------
def run_bench(
    size: str = "tiny",
    iters: Optional[int] = None,
    warmup: int = 3,
    seed: int = 0,
) -> Dict[str, Any]:
    """Benchmark the gradient step; return the report dict."""
    if size not in SIZES:
        raise ValueError(f"unknown bench size {size!r}; pick from "
                         f"{sorted(SIZES)}")
    from repro.benchgen import make_design

    design, scale, default_iters = SIZES[size]
    if iters is None:
        iters = default_iters
    netlist = make_design(design, scale=scale)

    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "size": size,
        "design": design,
        "scale": scale,
        "num_cells": int(netlist.num_cells),
        "num_nets": int(netlist.num_nets),
        "num_pins": int(netlist.num_pins),
        "iters": int(iters),
        "warmup": int(warmup),
        "seed": int(seed),
    }
    report.update(_measure(netlist, iters, warmup, seed))
    return report


# ----------------------------------------------------------------------
def run_explore_bench(
    design: Optional[str] = "fft_1",
    aux: Optional[str] = None,
    cells: Optional[int] = None,
    scale: float = 0.01,
    population: int = 4,
    rounds: int = 2,
    survivors: int = 2,
    seed: int = 0,
    cohort_seed: int = 0,
    max_iterations: int = 200,
    min_iterations: int = 20,
    segment_iters: Optional[int] = None,
    workers: int = 1,
    workdir: Optional[str] = None,
) -> Dict[str, Any]:
    """Equal-core-seconds comparison: one GP run vs an exploration cohort.

    Both sides run the *same* design, params and GP-only pipeline.  The
    single run is the do-nothing-clever baseline: one trajectory from
    ``seed``, terminating at convergence (or the iteration wall) — once
    converged it cannot productively spend another core-second.  The
    cohort spends its surplus budget on forked search instead; the
    ledger records exactly how many core-seconds each side consumed so
    the comparison is honest about cost, and the gate —
    ``beats_single_run`` (strict) / ``matches_single_run`` (≤) — is
    guaranteed never to read false on ``matches``: the elite lineage
    replays the baseline bit-for-bit, so the cohort's best final HPWL
    is at most the single run's.
    """
    from repro.core.params import PlacementParams
    from repro.explore import ExploreConfig, PopulationController
    from repro.explore.controller import PIPELINE_FACTORY
    from repro.runtime.job import PlacementJob, execute_job

    if aux is not None:
        design = None
    params = PlacementParams(max_iterations=max_iterations,
                             min_iterations=min_iterations, seed=seed)
    base = PlacementJob(design=design, aux=aux, cells=cells, scale=scale,
                        params=params)

    single_job = PlacementJob(design=design, aux=aux, cells=cells,
                              scale=scale, params=params,
                              pipeline=PIPELINE_FACTORY)
    single = execute_job(single_job)
    single_metrics = single.report.metrics if single.report else {}

    config = ExploreConfig(
        population=population, rounds=rounds, survivors=survivors,
        seed=cohort_seed, segment_iters=segment_iters, workers=workers,
    )
    controller = PopulationController(base, config, workdir=workdir)
    cohort = controller.run()

    best = cohort.best_hpwl
    improvement = (
        (single.hpwl - best) / single.hpwl * 100.0
        if best is not None and single.hpwl else None
    )
    return {
        "schema": EXPLORE_SCHEMA_VERSION,
        "design": design or os.path.basename(aux or "?"),
        "cells": cells,
        "scale": scale,
        "seed": seed,
        "cohort_seed": cohort_seed,
        "max_iterations": max_iterations,
        "single_run": {
            "hpwl": single.hpwl,
            "core_seconds": single.seconds,
            "iterations": single_metrics.get("gp_iterations"),
            "converged": single_metrics.get("gp_converged"),
            "job_id": single.job_id,
        },
        "population": {
            "config": cohort.config,
            "best_hpwl": best,
            "best_slot": cohort.best_slot,
            "best_job_id": cohort.best_job_id,
            "total_core_seconds": cohort.total_core_seconds,
            "cached_core_seconds": cohort.cached_core_seconds,
            "forks": cohort.forks,
            "culls": cohort.culls,
            "rounds": cohort.rounds,
            "lineage": cohort.lineage,
            "budget_stopped": cohort.budget_stopped,
        },
        "improvement_pct": improvement,
        "beats_single_run": (best is not None and single.hpwl is not None
                             and best < single.hpwl),
        "matches_single_run": (best is not None and single.hpwl is not None
                               and best <= single.hpwl),
    }


def format_explore_report(report: Dict[str, Any]) -> str:
    """Console rendering of one exploration benchmark report."""
    single = report["single_run"]
    pop = report["population"]
    config = pop["config"]
    lines = [
        f"explore bench {report['design']} (cells={report['cells']}, "
        f"max_iterations={report['max_iterations']}, seed={report['seed']})",
        f"  single run:  hpwl={single['hpwl']:.6g}  "
        f"{single['core_seconds']:.2f} core-seconds  "
        f"({single['iterations']} iters, converged={single['converged']})",
        f"  population:  best hpwl={pop['best_hpwl']:.6g} "
        f"(slot {pop['best_slot']})  "
        f"{pop['total_core_seconds']:.2f} core-seconds  "
        f"(population {config['population']} × {len(pop['rounds'])} rounds, "
        f"{pop['forks']} forks, {pop['culls']} culls)",
        f"  improvement: {report['improvement_pct']:.3f}%  "
        f"beats={report['beats_single_run']} "
        f"matches={report['matches_single_run']}",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
def write_report(report: Dict[str, Any], path: str = DEFAULT_REPORT) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare_reports(
    new: Dict[str, Any],
    old: Dict[str, Any],
    threshold: float = 0.25,
) -> List[str]:
    """Regressions of ``new`` vs ``old``: list of human-readable strings.

    A regression is a per-operator or per-step time more than
    ``threshold`` (fractional) slower than the saved report.  Wall
    time is noisy across hosts, so the default tolerance is generous —
    this gate is for order-of-magnitude breakage (a lost fast path),
    not micro-variance.
    """
    for key in ("schema", "size"):
        if new.get(key) != old.get(key):
            return [
                f"{key} mismatch: new={new.get(key)!r} old={old.get(key)!r}"
                " — reports are only comparable at the same schema and size"
            ]
    problems: List[str] = []
    limit = 1.0 + threshold
    new_step = new["step_seconds_median"]
    old_step = old["step_seconds_median"]
    if old_step > 0 and new_step > old_step * limit:
        problems.append(
            f"step seconds (median) regressed: {new_step:.6f}s vs "
            f"{old_step:.6f}s (+{(new_step / old_step - 1) * 100:.1f}%, "
            f"threshold {threshold * 100:.0f}%)"
        )
    for op in OPERATORS:
        new_sec = new["operator_seconds"].get(op, 0.0)
        old_sec = old["operator_seconds"].get(op, 0.0)
        if old_sec > 0 and new_sec > old_sec * limit:
            problems.append(
                f"{op} regressed: {new_sec:.6f}s vs {old_sec:.6f}s "
                f"(+{(new_sec / old_sec - 1) * 100:.1f}%, "
                f"threshold {threshold * 100:.0f}%)"
            )
    return problems


def format_report(report: Dict[str, Any]) -> str:
    """Console rendering of one benchmark report."""
    lines = [
        f"bench {report['size']} ({report['design']} scale="
        f"{report['scale']}, {report['num_cells']} cells, "
        f"{report['num_nets']} nets), {report['iters']} iters",
        f"  step median: {report['step_seconds_median'] * 1e3:.2f}ms  "
        f"mean: {report['step_seconds_mean'] * 1e3:.2f}ms",
        f"  {'operator':<18s} {'seconds':>9s} {'peak temp B':>12s}",
    ]
    for op in OPERATORS:
        lines.append(
            f"  {op:<18s} {report['operator_seconds'][op]:>9.4f} "
            f"{report['operator_peak_temp_bytes'].get(op, 0):>12d}"
        )
    arena = report["arena"]
    per_op = ", ".join(
        f"{k}={v}" for k, v in sorted(arena["nbytes_by_operator"].items())
    )
    lines.append(
        f"  arena: {arena['buffers']} buffers, {arena['nbytes']} B "
        f"(hit rate {arena['hit_rate'] * 100:.1f}%, "
        f"{arena['misses']} misses), by ns: {per_op}"
    )
    return "\n".join(lines)
