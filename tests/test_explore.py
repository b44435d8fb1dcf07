"""Population-based exploration: perturbation model, policy, controller.

The integration tests run real (small) GP cohorts — they pin down the
three properties the exploration layer is built on:

* determinism — a fixed cohort seed reproduces the full trajectory
  bit-for-bit, including fork points and culls;
* elitism — the slot-0 lineage replays the single-run baseline exactly,
  so the cohort can never end worse than it;
* cross-process forking — a fork materialized from a spilled npz inside
  a worker process continues bit-for-bit identical to an uninterrupted
  run with the larger iteration budget.
"""

import dataclasses
import json
import os

import pytest

from repro.explore import (
    ExploreConfig,
    ExploreReport,
    MemberScore,
    Perturbation,
    PopulationController,
    draw_perturbation,
    rank_members,
    select_survivors,
)
from repro.explore import report as report_mod
from repro.explore.controller import PIPELINE_FACTORY, segment_schedule
from repro.explore.perturb import (
    DEFAULT_JITTER_RANGE,
    DEFAULT_LAMBDA_RANGE,
    IDENTITY,
)
from repro.explore.policy import assign_parents
from repro.recovery.fork import ForkSpec
from repro.runtime import (
    PlacementJob,
    ResultCache,
    WorkerPool,
    execute_job,
    job_checkpoint_dir,
)

#: Small enough to keep the suite fast, large enough that GP does not
#: converge inside 40 iterations (segment boundaries must be reachable).
BASE_SPEC = dict(
    design="fft_1",
    cells=200,
    seed=3,
    params={"max_iterations": 40, "min_iterations": 10},
    pipeline=PIPELINE_FACTORY,
)


def make_base(**overrides):
    spec = dict(BASE_SPEC)
    spec.update(overrides)
    return PlacementJob(**spec)


def run_cohort(tmp_path, name, cache=None, **cfg_overrides):
    cfg_kwargs = dict(population=3, rounds=2, survivors=2, seed=3)
    cfg_kwargs.update(cfg_overrides)
    config = ExploreConfig(**cfg_kwargs)
    controller = PopulationController(
        make_base(), config, cache=cache, workdir=str(tmp_path / name)
    )
    return controller.run()


# ---------------------------------------------------------------------
# units: segment schedule
# ---------------------------------------------------------------------

class TestSegmentSchedule:
    def test_even_split_ends_at_budget(self):
        assert segment_schedule(40, 3) == [13, 26, 40]

    def test_single_round_is_whole_budget(self):
        assert segment_schedule(40, 1) == [40]

    def test_fixed_segment_length(self):
        assert segment_schedule(40, 3, segment_iters=15) == [15, 30, 40]

    def test_strictly_increasing_when_budget_is_tight(self):
        ends = segment_schedule(5, 10)
        assert ends == sorted(set(ends))
        assert ends[-1] == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            segment_schedule(40, 0)
        with pytest.raises(ValueError, match="segment_iters"):
            segment_schedule(40, 2, segment_iters=0)


class TestExploreConfig:
    def test_defaults_valid(self):
        cfg = ExploreConfig()
        assert cfg.population == 4 and cfg.survivors == 2

    @pytest.mark.parametrize("bad", [
        dict(population=0),
        dict(survivors=0),
        dict(survivors=5, population=4),
        dict(rounds=0),
        dict(budget_core_seconds=0.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExploreConfig(**bad)

    def test_to_dict_json_clean(self):
        data = ExploreConfig(seed=9).to_dict()
        assert json.loads(json.dumps(data)) == data


# ---------------------------------------------------------------------
# units: perturbation model
# ---------------------------------------------------------------------

class TestPerturb:
    def test_draw_is_deterministic(self):
        assert draw_perturbation(7, 2, 3) == draw_perturbation(7, 2, 3)

    def test_distinct_coordinates_draw_distinct_values(self):
        base = draw_perturbation(7, 2, 3)
        assert draw_perturbation(7, 2, 4) != base
        assert draw_perturbation(7, 3, 3) != base
        assert draw_perturbation(8, 2, 3) != base

    def test_draw_respects_ranges(self):
        for slot in range(16):
            p = draw_perturbation(1, 1, slot)
            assert DEFAULT_JITTER_RANGE[0] <= p.jitter <= DEFAULT_JITTER_RANGE[1]
            assert DEFAULT_LAMBDA_RANGE[0] <= p.lambda_scale <= DEFAULT_LAMBDA_RANGE[1]
            assert p.fresh_momentum

    def test_identity_maps_to_identity_fork(self):
        spec = ForkSpec(parent="ab" * 20, iteration=9, seed=IDENTITY.seed,
                        jitter=IDENTITY.jitter,
                        lambda_scale=IDENTITY.lambda_scale,
                        fresh_momentum=IDENTITY.fresh_momentum)
        assert spec.is_identity

    def test_to_dict_round_trip_types(self):
        data = Perturbation(seed=5, jitter=1.25, lambda_scale=0.5).to_dict()
        assert data == {"seed": 5, "jitter": 1.25, "lambda_scale": 0.5,
                        "fresh_momentum": True}


# ---------------------------------------------------------------------
# units: ranking / selection policy
# ---------------------------------------------------------------------

class TestPolicy:
    def test_rank_orders_on_hpwl_then_overflow_then_slot(self):
        scores = [
            MemberScore(slot=2, hpwl=10.0, overflow=0.5),
            MemberScore(slot=1, hpwl=10.0, overflow=0.2),
            MemberScore(slot=0, hpwl=12.0, overflow=0.1),
            MemberScore(slot=3, hpwl=10.0, overflow=0.2),
        ]
        assert [s.slot for s in rank_members(scores)] == [1, 3, 2, 0]

    def test_elite_always_survives(self):
        ranked = rank_members([
            MemberScore(slot=0, hpwl=30.0, overflow=0.9),   # worst
            MemberScore(slot=1, hpwl=10.0, overflow=0.1),
            MemberScore(slot=2, hpwl=20.0, overflow=0.1),
        ])
        survivors, culled = select_survivors(ranked, 2, elite_slot=0)
        assert 0 in survivors
        assert survivors == [1, 0] and culled == [2]

    def test_selection_without_elite_in_field(self):
        ranked = rank_members([
            MemberScore(slot=4, hpwl=1.0, overflow=0.0),
            MemberScore(slot=5, hpwl=2.0, overflow=0.0),
        ])
        survivors, culled = select_survivors(ranked, 1, elite_slot=0)
        assert survivors == [4] and culled == [5]

    def test_assign_parents_round_robin_by_rank(self):
        pairs = assign_parents([1, 0], [2, 3, 4])
        assert pairs == [(2, 1), (3, 0), (4, 1)]

    def test_assign_parents_needs_survivors(self):
        with pytest.raises(ValueError, match="survivors"):
            assign_parents([], [1])

    def test_select_survivors_validation(self):
        with pytest.raises(ValueError, match="survivors"):
            select_survivors([], 0)


# ---------------------------------------------------------------------
# units: report
# ---------------------------------------------------------------------

class TestExploreReport:
    def make_report(self):
        return ExploreReport(
            design="fft_1",
            config={"population": 2},
            rounds=[{"round": 0, "segment_end": 10,
                     "scores": [{"slot": 0, "hpwl": 5.0, "overflow": 0.3}],
                     "culled": [], "forks": [],
                     "core_seconds": 1.25, "wall_seconds": 0.7,
                     "respill_seconds": 0.1, "cached": 1}],
            best_slot=0, best_hpwl=5.0, best_job_id="j0",
            total_core_seconds=1.25, forks=1, culls=1,
        )

    def test_json_round_trip(self):
        report = self.make_report()
        back = ExploreReport.from_json(report.to_json())
        assert back == report

    def test_schema_mismatch_rejected(self):
        data = self.make_report().to_dict()
        data["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            ExploreReport.from_dict(data)

    def test_trajectory_strips_measurements(self):
        trace = self.make_report().trajectory()
        assert len(trace) == 1
        for key in ("core_seconds", "wall_seconds", "respill_seconds",
                    "cached"):
            assert key not in trace[0]
        assert trace[0]["scores"][0]["hpwl"] == 5.0

    def test_summary_mentions_winner(self):
        text = self.make_report().summary()
        assert "winner: slot 0" in text and "fft_1" in text


def all_failed_bench_report():
    """An explore-bench report whose cohort had no finisher."""
    return {
        "schema": 1, "design": "fft_1", "cells": 64, "scale": 0.01,
        "seed": 0, "cohort_seed": 0, "max_iterations": 30,
        "single_run": {"hpwl": 5.0, "core_seconds": 0.5, "iterations": 30,
                       "converged": False, "job_id": "j0"},
        "population": {
            "config": {"population": 2}, "best_hpwl": None,
            "best_slot": None, "best_job_id": None,
            "total_core_seconds": 0.0, "cached_core_seconds": 0.0,
            "forks": 0, "culls": 0, "rounds": [], "lineage": {},
            "budget_stopped": False,
        },
        "improvement_pct": None,
        "beats_single_run": False,
        "matches_single_run": False,
    }


class TestExploreBenchReport:
    def test_format_all_failed_cohort(self):
        text = report_mod.format_explore_report(all_failed_bench_report())
        assert "best hpwl=n/a" in text
        assert "improvement: n/a%" in text
        assert "matches=False" in text


# ---------------------------------------------------------------------
# integration: real GP cohorts
# ---------------------------------------------------------------------

def elite_final_hpwl(report):
    """Slot 0's HPWL at the last round it was scored in."""
    final = None
    for rnd in report.rounds:
        for score in rnd["scores"]:
            if score["slot"] == 0:
                final = score["hpwl"]
    assert final is not None
    return final


@pytest.fixture(scope="module")
def cohort_report(tmp_path_factory):
    """One shared cohort run — several tests assert on it."""
    return run_cohort(tmp_path_factory.mktemp("explore"), "shared")


class TestPopulationController:
    def test_cohort_completes_with_forks_and_culls(self, cohort_report):
        report = cohort_report
        assert len(report.rounds) == 2
        assert report.best_hpwl is not None and report.best_hpwl > 0
        assert report.best_slot is not None
        assert report.forks >= 1 and report.culls >= 1
        # Every round's score list is already in rank order.
        for rnd in report.rounds:
            ranked = rank_members([MemberScore(**s) for s in rnd["scores"]])
            assert [s["slot"] for s in rnd["scores"]] == \
                [m.slot for m in ranked]
            assert len(rnd["scores"]) <= 3
        # Lineage covers all slots, each entry names its segment job.
        assert set(report.lineage) == {"0", "1", "2"}
        for entries in report.lineage.values():
            assert all(e["job_id"] and e["hash"] for e in entries)
        # Perturbed-fork lineage entries carry their drawn perturbation
        # and their parent's checkpoint hash.
        perturbed = [e for entries in report.lineage.values()
                     for e in entries if e.get("perturbation")]
        assert len(perturbed) == report.forks
        assert all(e["parent_hash"] for e in perturbed)

    def test_fixed_seed_reproduces_cohort_bit_for_bit(self, cohort_report,
                                                      tmp_path):
        rerun = run_cohort(tmp_path, "rerun")
        assert rerun.trajectory() == cohort_report.trajectory()
        assert rerun.lineage == cohort_report.lineage
        assert rerun.best_hpwl == cohort_report.best_hpwl
        assert rerun.best_slot == cohort_report.best_slot

    def test_cohort_never_worse_than_single_run(self, cohort_report):
        """Elitism: slot 0 replays the baseline, so best ≤ baseline."""
        single = execute_job(make_base())
        assert single.ok
        assert elite_final_hpwl(cohort_report) == single.hpwl
        assert cohort_report.best_hpwl <= single.hpwl

    def test_process_mode_matches_inline(self, cohort_report, tmp_path):
        """Workers fork from spilled npz files; decisions are identical."""
        procs = run_cohort(tmp_path, "procs", workers=2)
        assert procs.trajectory() == cohort_report.trajectory()
        assert procs.lineage == cohort_report.lineage

    def test_cached_rerun_replays_decisions(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_cohort(tmp_path, "cold", cache=cache)
        second = run_cohort(tmp_path, "warm", cache=cache)
        assert second.trajectory() == first.trajectory()
        assert second.cached_core_seconds > 0.0
        # The warm run's fresh compute is only spill regeneration.
        assert second.total_core_seconds < first.total_core_seconds

    def test_budget_collapses_schedule(self, tmp_path):
        report = run_cohort(tmp_path, "budget", population=2, survivors=1,
                            rounds=3, budget_core_seconds=1e-6)
        assert report.budget_stopped
        # rounds=3 on a 40-iteration budget is [13, 26, 40]; the budget
        # trips after round 0 and the rest collapses to one final
        # segment.
        assert len(report.rounds) == 2
        assert report.rounds[-1]["segment_end"] == 40
        assert report.best_hpwl is not None

    def test_cohort_events_emitted(self, tmp_path):
        from repro.runtime import EventLog

        log = EventLog()
        config = ExploreConfig(population=2, rounds=2, survivors=1, seed=3)
        controller = PopulationController(
            make_base(), config, events=log,
            workdir=str(tmp_path / "events"),
        )
        controller.run()
        actions = [e.payload.get("action") for e in log.events
                   if e.kind == "explore"]
        assert "round" in actions and "done" in actions


class TestCrossProcessFork:
    """Satellite: forking across process boundaries (spilled npz)."""

    def test_worker_fork_from_spill_bit_identical(self, tmp_path):
        ckroot = str(tmp_path / "ck")
        parent = make_base(
            params={"max_iterations": 20, "min_iterations": 10},
            final_checkpoint=True,
        )
        [pres] = WorkerPool(max_workers=2, checkpoint_dir=ckroot).run([parent])
        assert pres.ok
        # The parent's boundary state was spilled to disk by the worker.
        spill_dir = job_checkpoint_dir(ckroot, parent)
        assert os.path.exists(os.path.join(spill_dir, "checkpoint.json"))

        # An identity fork resumed *inside another worker process* must
        # equal an uninterrupted 40-iteration run, bit for bit.
        fork = dataclasses.replace(
            parent,
            params=dataclasses.replace(parent.params, max_iterations=40),
            final_checkpoint=False,
            fork=ForkSpec(parent=parent.content_hash(), iteration=19,
                          seed=0).to_dict(),
        )
        [fres] = WorkerPool(max_workers=2, checkpoint_dir=ckroot).run([fork])
        assert fres.ok

        straight = execute_job(make_base())
        assert fres.hpwl == straight.hpwl
        assert fres.report.metrics["gp_iterations"] == \
            straight.report.metrics["gp_iterations"]

    def test_fork_job_hash_differs_from_parent(self):
        parent = make_base(final_checkpoint=True)
        child = dataclasses.replace(
            parent, final_checkpoint=False,
            fork=ForkSpec(parent=parent.content_hash(), iteration=19,
                          seed=1, jitter=1.0).to_dict(),
        )
        identity = dataclasses.replace(
            parent, final_checkpoint=False,
            fork=ForkSpec(parent=parent.content_hash(), iteration=19,
                          seed=0).to_dict(),
        )
        hashes = {parent.content_hash(), child.content_hash(),
                  identity.content_hash()}
        assert len(hashes) == 3


class TestCheckpointTelemetry:
    """Satellite: CheckpointManager ring/spill stats ride FlowReport."""

    def test_checkpoint_stats_surface_in_flow_report(self, tmp_path):
        job = make_base(
            params={"max_iterations": 12, "min_iterations": 5},
            final_checkpoint=True,
        )
        result = execute_job(job, checkpoint_dir=str(tmp_path))
        assert result.ok
        stats = result.report.metrics["gp_checkpoint_stats"]
        assert stats["saved"] >= 1
        assert stats["spills"] >= 1
        assert stats["spill_bytes"] > 0
        assert 0 <= stats["kept"] <= stats["keep"]

    def test_no_checkpoint_stats_without_recovery(self):
        result = execute_job(make_base())
        assert result.ok
        assert "gp_checkpoint_stats" not in result.report.metrics


class TestExploreBenchCLI:
    ARGS = ["explore", "fft_1", "--cells", "64", "--population", "2",
            "--rounds", "1", "--survivors", "1", "--max-iterations", "30",
            "--no-cache", "--bench"]

    def test_bench_writes_report(self, tmp_path):
        from repro.cli import main

        out = str(tmp_path / "BENCH_explore.json")
        assert main(self.ARGS + [out]) == 0
        with open(out, encoding="utf-8") as fh:
            bench = json.load(fh)
        assert bench["matches_single_run"] is True
        assert {"single_run", "population"} <= set(bench)

    def test_all_failed_cohort_exits_1(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(report_mod, "run_explore_bench",
                            lambda **_: all_failed_bench_report())
        assert main(self.ARGS + [str(tmp_path / "b.json")]) == 1
        assert "worse than the single-run baseline" in capsys.readouterr().err
