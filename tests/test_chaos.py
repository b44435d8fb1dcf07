"""The seeded chaos schedule and the deterministic chaos soak."""

import sys

import pytest

import repro.faults.inject as inject
from repro.faults import FaultPlan, FaultSpec, crash_on_attach
from repro.faults.plan import JOB_BOUND_KINDS, seed_for_run
from repro.supervision import ChaosConfig, chaos_fingerprint, run_chaos
from repro.supervision.chaos import soak_jobs


class TestServiceFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="gremlins")

    def test_round_trip(self):
        spec = FaultSpec(kind="slow-io", target="cache-put",
                         seconds=0.5, count=3)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestServiceFaultPlan:
    def test_same_run_id_same_schedule(self):
        one = FaultPlan.sample("chaos-42", jobs=8)
        two = FaultPlan.sample("chaos-42", jobs=8)
        assert one.to_dict() == two.to_dict()
        assert one.seed == seed_for_run("chaos-42")

    def test_different_run_id_different_schedule(self):
        one = FaultPlan.sample("chaos-1", jobs=8)
        two = FaultPlan.sample("chaos-2", jobs=8)
        assert one.to_dict() != two.to_dict()

    def test_job_bound_kinds_get_distinct_indices(self):
        plan = FaultPlan.sample("chaos-0", jobs=20)
        bound = [spec.job_id for spec in plan.faults
                 if spec.kind in JOB_BOUND_KINDS]
        assert len(bound) == len(JOB_BOUND_KINDS)
        assert len(set(bound)) == len(bound)
        assert all(job_id.startswith("chaos-") and job_id.endswith(":")
                   and 0 <= int(job_id[6:-1]) < 20 for job_id in bound)

    def test_iterations_land_mid_run(self):
        plan = FaultPlan.sample("chaos-0", jobs=20, max_iteration=30)
        for spec in plan.specs_of("hang", "crash"):
            assert 15 <= spec.iteration < 29

    def test_soak_job_embeds_only_its_worker_faults(self):
        plan = FaultPlan.sample("chaos-0", jobs=20)
        config = ChaosConfig(seed=0, jobs=20)
        jobs, twins = soak_jobs(config, plan, inline=False)
        carried = {j.tag: [f.kind for f in j.fault_plan().faults]
                   for j in jobs if j.faults}
        bound = {s.job_id[:-1]: s.kind for s in plan.faults if s.job_id}
        # cache-corrupt is applied by the harness, not by the worker.
        assert carried == {tag: [kind] for tag, kind in bound.items()
                           if kind != "cache-corrupt"}
        assert all(t.faults is None for t in twins.values())
        # Inline soaks carry no worker faults and have no twins.
        inline_jobs, inline_twins = soak_jobs(config, plan, inline=True)
        assert not any(j.faults for j in inline_jobs) and not inline_twins

    def test_io_hook_budget_exhausts(self):
        plan = FaultPlan.sample("chaos-0", jobs=4,
                                slow_io_seconds=0.0, slow_io_ops=2)
        for _ in range(5):
            plan.io_hook("cache-put")
            plan.io_hook("cache-get")     # no slow-io spec targets it
        plan.io_hook("journal-append")
        slow = [e["target"] for e in plan.injection_log()
                if e["kind"] == "slow-io"]
        assert slow == ["cache-put", "cache-put", "journal-append"]

    def test_crash_on_attach_covers_first_count_attempts(self, monkeypatch):
        monkeypatch.setattr(inject.os, "_exit", sys.exit)
        plan = FaultPlan(faults=[FaultSpec("crash-on-attach", count=2,
                                           job_id="victim")])
        for attempt in (1, 2):
            with pytest.raises(SystemExit, match="173"):
                crash_on_attach(plan, "victim:xplace:s1:ab", attempt)
        crash_on_attach(plan, "victim:xplace:s1:ab", 3)      # runs clean
        crash_on_attach(plan, "other:xplace:s1:ab", 1)       # not bound
        crash_on_attach(plan, "victim:xplace:s1:ab", None)   # canary
        crash_on_attach(None, "victim:xplace:s1:ab", 1)

    def test_round_trip(self):
        plan = FaultPlan.sample("chaos-9", jobs=6)
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()


def _bound(kind, index, iteration, seconds=0.0, count=None):
    spec = {"kind": kind, "iteration": iteration, "job_id": f"chaos-{index}:",
            "seconds": seconds, "exitcode": 173}
    if count is not None:
        spec["count"] = count
    return spec


def _service_tail(unlink_after):
    return [
        {"kind": "slow-io", "iteration": 0, "seconds": 0.25, "count": 3,
         "target": "cache-put", "exitcode": 173},
        {"kind": "slow-io", "iteration": 0, "seconds": 0.25, "count": 3,
         "target": "journal-append", "exitcode": 173},
        {"kind": "shm-unlink", "iteration": 0, "seconds": 0.0,
         "exitcode": 173, **({"count": unlink_after}
                             if unlink_after != 1 else {})},
    ]


def _journal_tail():
    return [{"kind": kind, "iteration": 0, "seconds": 0.0, "exitcode": 173}
            for kind in ("journal-truncate", "journal-corrupt")]


#: The schedules drawn before the two plan types were merged (the draw
#: order, including the unused iteration drawn for crash-on-attach, is
#: part of the seed's contract).
PINNED_SCHEDULES = {
    ("chaos-7", 20): {
        "seed": 2962914550,
        "faults": [
            _bound("hang", 17, 12, seconds=120.0),
            _bound("crash", 15, 8),
            *_service_tail(5),
            _bound("cache-corrupt", 8, 14),
            _bound("crash-on-attach", 2, 8, count=2),
            *_journal_tail(),
        ],
    },
    ("chaos-3", 6): {
        "seed": 88543952,
        "faults": [
            _bound("hang", 5, 11, seconds=120.0),
            _bound("crash", 0, 13),
            *_service_tail(1),
            _bound("cache-corrupt", 2, 13),
            _bound("crash-on-attach", 1, 8, count=2),
            *_journal_tail(),
        ],
    },
    ("chaos-7", 4): {
        "seed": 2962914550,
        "faults": [
            _bound("hang", 2, 11, seconds=120.0),
            _bound("crash", 1, 10),
            *_service_tail(1),
            _bound("cache-corrupt", 3, 9),
            _bound("crash-on-attach", 0, 14, count=2),
            *_journal_tail(),
        ],
    },
}


class TestPinnedSchedule:
    @pytest.mark.parametrize("run_id,jobs", sorted(PINNED_SCHEDULES))
    def test_sample_matches_pinned(self, run_id, jobs):
        plan = FaultPlan.sample(run_id, jobs, max_iteration=16)
        assert plan.to_dict() == PINNED_SCHEDULES[(run_id, jobs)]

    def test_hang_and_crash_jobs_keep_their_plans_and_ids(self):
        """The worker plan riding the hang and crash jobs, and with it
        their job ids (cache keys, checkpoint paths), is what it was
        before crash-on-attach joined the job spec."""
        plan = FaultPlan.sample("chaos-7", 20, max_iteration=16)
        config = ChaosConfig(seed=7, jobs=20, cells=64, iterations=16)
        jobs, twins = soak_jobs(config, plan, inline=False)
        assert jobs[17].faults == {
            "seed": 2962914550,
            "faults": [{"kind": "hang", "iteration": 12, "seconds": 120.0,
                        "exitcode": 173}]}
        assert jobs[15].faults == {
            "seed": 2962914550,
            "faults": [{"kind": "crash", "iteration": 8, "seconds": 0.0,
                        "exitcode": 173}]}
        assert jobs[17].job_id == "chaos-17:xplace:s117:99dbc8f6"
        assert jobs[15].job_id == "chaos-15:xplace:s115:da46f77a"
        assert sorted(twins) == [15, 17]
        assert jobs[2].fault_plan().faults == [
            FaultSpec("crash-on-attach", iteration=8, count=2)]


@pytest.mark.slow
class TestChaosSoak:
    def test_small_soak_is_clean(self, tmp_path):
        config = ChaosConfig(
            seed=7, jobs=4, workers=2, cells=64, iterations=16,
            checkpoint_every=4, deadline=25.0, hang_timeout=2.0,
            soak_timeout=150.0, state_dir=str(tmp_path / "chaos"),
        )
        report = run_chaos(config)
        assert report.ok, report.violations
        assert len(report.tickets) >= config.jobs
        assert all(state in ("done", "cancelled")
                   for state in report.tickets.values())
        # Resume identity: every faulted/twin pair bit-identical.
        assert report.pairs and all(p["identical"] for p in report.pairs)
        if not report.inline:
            # The hung job was preempted well inside the deadline.
            assert report.preemption["latency_s"] < config.deadline
            assert report.quarantine["restored"]
            assert report.restart.get("resumed", 0) >= 1
        assert report.cache_check.get("recovered")
        assert report.shed.get("raised")
        assert chaos_fingerprint(report)
