"""The cohort record an exploration run leaves behind.

An :class:`ExploreReport` is the full, JSON-serializable account of one
:class:`~repro.explore.controller.PopulationController` run: the
configuration, every synchronization round (scores, survivors, culls,
fork assignments with their drawn perturbations), the per-slot lineage
(which segment jobs each lineage ran, and who forked whom), the
core-seconds ledger, and the winning member.  The equal-core-seconds
bench (:func:`run_explore_bench`, behind ``repro explore --bench``)
embeds it next to the single-run baseline in ``BENCH_explore.json``;
the determinism CI check re-runs a cohort and asserts two reports'
trajectories are identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Bump when the report layout changes meaning.
SCHEMA_VERSION = 1
#: Likewise for the :func:`run_explore_bench` layout.
BENCH_SCHEMA_VERSION = 1


@dataclass
class ExploreReport:
    """Everything one cohort run decided and measured."""

    design: str
    config: Dict[str, Any]
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    lineage: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    best_slot: Optional[int] = None
    best_hpwl: Optional[float] = None
    best_job_id: Optional[str] = None
    total_core_seconds: float = 0.0
    cached_core_seconds: float = 0.0     # served by the result cache
    forks: int = 0
    culls: int = 0
    budget_stopped: bool = False         # --budget-core-seconds tripped

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "design": self.design,
            "config": self.config,
            "rounds": self.rounds,
            "lineage": self.lineage,
            "best_slot": self.best_slot,
            "best_hpwl": self.best_hpwl,
            "best_job_id": self.best_job_id,
            "total_core_seconds": self.total_core_seconds,
            "cached_core_seconds": self.cached_core_seconds,
            "forks": self.forks,
            "culls": self.culls,
            "budget_stopped": self.budget_stopped,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExploreReport":
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported explore report schema {data.get('schema')!r}"
            )
        return cls(
            design=data["design"],
            config=dict(data.get("config") or {}),
            rounds=list(data.get("rounds") or []),
            lineage=dict(data.get("lineage") or {}),
            best_slot=data.get("best_slot"),
            best_hpwl=data.get("best_hpwl"),
            best_job_id=data.get("best_job_id"),
            total_core_seconds=float(data.get("total_core_seconds", 0.0)),
            cached_core_seconds=float(data.get("cached_core_seconds", 0.0)),
            forks=int(data.get("forks", 0)),
            culls=int(data.get("culls", 0)),
            budget_stopped=bool(data.get("budget_stopped", False)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExploreReport":
        return cls.from_dict(json.loads(text))

    def trajectory(self) -> List[Dict[str, Any]]:
        """The decision trace a determinism check compares.

        Everything the controller *decided* — rankings, survivor sets,
        fork assignments and their perturbations, per-segment job
        hashes — with the measurements stripped out (two identical
        runs differ in seconds and cache hits, never in decisions).
        """
        _measured = ("core_seconds", "wall_seconds", "respill_seconds",
                     "cached")
        trace: List[Dict[str, Any]] = []
        for rnd in self.rounds:
            entry = {k: v for k, v in rnd.items() if k not in _measured}
            trace.append(entry)
        return trace

    def summary(self) -> str:
        lines = [
            f"explore[{self.design}] population="
            f"{self.config.get('population')} rounds={len(self.rounds)} "
            f"survivors={self.config.get('survivors')}"
        ]
        for rnd in self.rounds:
            scores = rnd.get("scores") or []
            best = scores[0] if scores else None
            lines.append(
                f"  round {rnd.get('round')}: through iteration "
                f"{rnd.get('segment_end')}, "
                f"best hpwl={best['hpwl']:.6g} (slot {best['slot']}), "
                f"culled {len(rnd.get('culled') or [])}, "
                f"forked {len(rnd.get('forks') or [])}"
                if best is not None else
                f"  round {rnd.get('round')}: no finishers"
            )
        if self.best_hpwl is not None:
            lines.append(
                f"  winner: slot {self.best_slot} "
                f"hpwl={self.best_hpwl:.6g} "
                f"({self.total_core_seconds:.2f} core-seconds"
                + (", budget-stopped" if self.budget_stopped else "")
                + ")"
            )
        return "\n".join(lines)


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
    from repro.explore.controller import (
        PIPELINE_FACTORY,
        ExploreConfig,
        PopulationController,
    )
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
        "schema": BENCH_SCHEMA_VERSION,
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


def _num(value: Optional[float], spec: str) -> str:
    """``value`` formatted by ``spec``, or ``n/a`` when it is missing."""
    return "n/a" if value is None else format(value, spec)


def format_explore_report(report: Dict[str, Any]) -> str:
    """Console rendering of one exploration benchmark report.

    A cohort in which no member finished has no best HPWL and no
    improvement; those print as ``n/a``.
    """
    single = report["single_run"]
    pop = report["population"]
    config = pop["config"]
    lines = [
        f"explore bench {report['design']} (cells={report['cells']}, "
        f"max_iterations={report['max_iterations']}, seed={report['seed']})",
        f"  single run:  hpwl={_num(single['hpwl'], '.6g')}  "
        f"{single['core_seconds']:.2f} core-seconds  "
        f"({single['iterations']} iters, converged={single['converged']})",
        f"  population:  best hpwl={_num(pop['best_hpwl'], '.6g')} "
        f"(slot {pop['best_slot']})  "
        f"{pop['total_core_seconds']:.2f} core-seconds  "
        f"(population {config['population']} × {len(pop['rounds'])} rounds, "
        f"{pop['forks']} forks, {pop['culls']} culls)",
        f"  improvement: {_num(report['improvement_pct'], '.3f')}%  "
        f"beats={report['beats_single_run']} "
        f"matches={report['matches_single_run']}",
    ]
    return "\n".join(lines)
