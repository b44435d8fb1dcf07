"""repro.explore — population-based global exploration over checkpoint forks.

Analytical global placement is a non-convex descent: a single Nesterov
trajectory converges to one basin, and "Escaping Local Optima in Global
Placement" (PAPERS.md) shows meaningful HPWL is left on the table there.
This package is the search-orchestration layer that treats whole
placement runs as schedulable, forkable, comparable units:

:class:`PopulationController`
    Runs a cohort of GP trajectories in *segments* (bounded
    ``max_iterations`` windows whose boundary state is pinned by the
    GP loop's ``final_checkpoint`` mode).  At each synchronization
    round it ranks members on ``(HPWL, overflow)``, continues the
    top-k survivors via identity forks (bit-for-bit, as if their
    ``max_iterations`` had simply been larger), replaces the culled
    laggards with *perturbed* forks of the survivors (bounded position
    jitter + density-weight re-annealing, drawn from a seeded RNG that
    joins the fork job's content hash), and dispatches every segment
    through the :class:`~repro.service.scheduler.Scheduler` — so
    exploration respects tenant quotas, the result cache, and
    cohort-scoped cancellation (``cancel_group``).

:mod:`repro.explore.perturb`
    The deterministic perturbation model: ``(cohort seed, round, slot)``
    seeds the jitter radius, λ scale and fork seed, so a fixed cohort
    seed reproduces every fork point and cull bit-for-bit.

:mod:`repro.explore.policy`
    Ranking and survivor selection.  The *elite* member — the base-seed
    lineage, slot 0 — is never perturbed and never culled, so the
    cohort's best final HPWL is ≤ the single-run baseline by
    construction (its identity-fork chain replays the baseline
    exactly).

:mod:`repro.explore.report`
    The :class:`~repro.explore.report.ExploreReport` cohort record:
    per-round scores, lineage (who forked whom, with which
    perturbation), culls, and the core-seconds ledger used by the
    equal-compute comparison in
    :func:`~repro.explore.report.run_explore_bench`.
"""

from repro.explore.controller import ExploreConfig, PopulationController
from repro.explore.perturb import Perturbation, draw_perturbation
from repro.explore.policy import MemberScore, rank_members, select_survivors
from repro.explore.report import ExploreReport

__all__ = [
    "ExploreConfig",
    "ExploreReport",
    "MemberScore",
    "Perturbation",
    "PopulationController",
    "draw_perturbation",
    "rank_members",
    "select_survivors",
]
