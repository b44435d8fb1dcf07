"""Deterministic fault injection: plans, specs, and the loop injector."""

import time

import pytest

from repro.analysis.sanitizer import NumericalFault
from repro.faults import (
    FAULT_KINDS,
    LOOP_KINDS,
    FaultCallback,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    loop_fault_callback,
)
from repro.faults.plan import WORKER_KINDS
from repro.runtime.job import PlacementJob


class FakeRecord:
    def __init__(self, iteration):
        self.iteration = iteration


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor-strike")

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("nan-grad", iteration=-1)
        with pytest.raises(ValueError):
            FaultSpec("slow", seconds=-0.1)
        with pytest.raises(ValueError):
            FaultSpec("slow-io", count=0)

    def test_applies_to_is_a_prefix_match(self):
        spec = FaultSpec("nan-grad", job_id="fft_1:s1")
        assert spec.applies_to("fft_1:s1:abc123")
        assert not spec.applies_to("fft_2:s1:abc123")
        assert FaultSpec("nan-grad").applies_to("anything")

    def test_dict_round_trip(self):
        spec = FaultSpec("crash", iteration=42, job_id="j", exitcode=99)
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        # Unset optional fields stay out of the dict, so adding one does
        # not move the content hash of a job carrying the plan.
        assert sorted(FaultSpec("hang", iteration=3).to_dict()) == [
            "exitcode", "iteration", "kind", "seconds"]


class TestFaultPlan:
    def test_coerces_dict_entries(self):
        plan = FaultPlan(faults=[{"kind": "nan-grad", "iteration": 5}])
        assert isinstance(plan.faults[0], FaultSpec)
        assert len(plan) == 1

    def test_for_job_filters(self):
        plan = FaultPlan(faults=[
            FaultSpec("nan-grad", job_id="a"),
            FaultSpec("abort", job_id="b"),
            FaultSpec("slow"),
        ])
        kinds = [f.kind for f in plan.for_job("a:1")]
        assert kinds == ["nan-grad", "slow"]

    def test_loop_faults_excludes_cache_corruption(self):
        plan = FaultPlan(faults=[FaultSpec("cache-corrupt"),
                                 FaultSpec("nan-grad")])
        assert [f.kind for f in plan.loop_faults("x")] == ["nan-grad"]

    def test_json_round_trip(self):
        plan = FaultPlan(faults=[FaultSpec("slow", iteration=3, seconds=0.5)],
                         seed=7)
        again = FaultPlan.from_json(plan.to_json())
        assert again.seed == 7
        assert again.faults == plan.faults

    def test_kind_tuples(self):
        assert set(LOOP_KINDS) < set(WORKER_KINDS) < set(FAULT_KINDS)
        assert "cache-corrupt" in FAULT_KINDS


class TestJobPlan:
    """A job's own plan holds only the kinds the worker delivers."""

    def job(self, *specs):
        return PlacementJob(design="fft_1", cells=64,
                            faults=FaultPlan(list(specs)))

    def test_worker_kinds_accepted(self):
        job = self.job(FaultSpec("crash", iteration=3),
                       FaultSpec("crash-on-attach", count=2))
        assert [f.kind for f in job.fault_plan().faults] == [
            "crash", "crash-on-attach"]

    @pytest.mark.parametrize("kind", sorted(
        set(FAULT_KINDS) - set(WORKER_KINDS)))
    def test_service_kinds_rejected(self, kind):
        with pytest.raises(ValueError, match="do not fire inside a job"):
            self.job(FaultSpec(kind))

    def test_malformed_plan_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="bad fault plan"):
            PlacementJob(design="fft_1", faults={"faults": [{"kind": "x"}]})


class TestFaultCallback:
    def test_nan_grad_raises_numerical_fault_once(self):
        cb = FaultCallback([FaultSpec("nan-grad", iteration=5)])
        cb.on_iteration(FakeRecord(4))  # not yet
        with pytest.raises(NumericalFault):
            cb.on_iteration(FakeRecord(5))
        cb.on_iteration(FakeRecord(5))  # replayed iteration: no re-fire
        assert len(cb.fired) == 1

    def test_abort_raises_injected_fault(self):
        cb = FaultCallback([FaultSpec("abort", iteration=2)])
        with pytest.raises(InjectedFault):
            cb.on_iteration(FakeRecord(2))
        # InjectedFault must NOT be self-healable.
        assert not issubclass(InjectedFault, NumericalFault)

    def test_crash_inline_raises(self):
        cb = FaultCallback([FaultSpec("crash", iteration=2)], hard_exit=False)
        with pytest.raises(InjectedFault, match="exitcode 173"):
            cb.on_iteration(FakeRecord(2))

    def test_crash_skipped_after_resume(self):
        cb = FaultCallback([FaultSpec("crash", iteration=2)], resumed=True)
        cb.on_iteration(FakeRecord(2))  # must not raise
        assert cb.fired == []

    def test_slow_sleeps(self):
        cb = FaultCallback([FaultSpec("slow", iteration=1, seconds=0.05)])
        start = time.perf_counter()
        cb.on_iteration(FakeRecord(1))
        assert time.perf_counter() - start >= 0.05
        assert len(cb.fired) == 1

    def test_multiple_specs_fire_independently(self):
        cb = FaultCallback([FaultSpec("slow", iteration=1),
                            FaultSpec("slow", iteration=3)])
        cb.on_iteration(FakeRecord(1))
        cb.on_iteration(FakeRecord(3))
        assert len(cb.fired) == 2


class TestLoopFaultCallback:
    def test_none_plan_is_none(self):
        assert loop_fault_callback(None, "j") is None

    def test_no_applicable_faults_is_none(self):
        plan = FaultPlan(faults=[FaultSpec("nan-grad", job_id="other")])
        assert loop_fault_callback(plan, "mine") is None

    def test_builds_callback_with_flags(self):
        plan = FaultPlan(faults=[FaultSpec("crash", iteration=9)])
        cb = loop_fault_callback(plan, "j", hard_exit=True, resumed=True)
        assert cb.hard_exit and cb.resumed
        assert [s.iteration for s in cb.specs] == [9]
