"""PlacementJob specs, content hashing and the in-process executor."""

import json

import numpy as np
import pytest

from repro.core import PlacementParams
from repro.core.callbacks import QueueCallback
from repro.core.recorder import IterationRecord
from repro.flow import run_job
from repro.runtime import EventLog, JobResult, PlacementJob, execute_job
from repro.runtime.events import read_event_log


def small_job(**overrides):
    base = dict(
        design="fft_1",
        cells=250,
        params={"max_iterations": 30, "min_iterations": 20},
        seed=1,
    )
    base.update(overrides)
    return PlacementJob(**base)


def fake_job(**overrides):
    return small_job(pipeline="tests.runtime_helpers:fake_pipeline",
                     **overrides)


class TestJobSpec:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            PlacementJob()
        with pytest.raises(ValueError, match="exactly one"):
            PlacementJob(design="fft_1", aux="x.aux")

    def test_params_dict_coerced(self):
        job = small_job()
        assert isinstance(job.params, PlacementParams)
        assert job.params.max_iterations == 30

    def test_bad_param_key_rejected(self):
        with pytest.raises(ValueError, match="bad job params"):
            small_job(params={"not_a_knob": 1})

    def test_manifest_with_removed_workspace_param_rejected(self, tmp_path):
        from repro.runtime.batch import load_manifest

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(
            [{"design": "fft_1", "params": {"workspace": True}}]
        ))
        with pytest.raises(ValueError, match="bad job params"):
            load_manifest(str(path))

    def test_unknown_manifest_key_rejected(self):
        with pytest.raises(ValueError, match="unknown job manifest keys"):
            PlacementJob.from_dict({"design": "fft_1", "turbo": True})

    def test_json_round_trip(self):
        job = small_job(timeout=12.5, retries=2, tag="demo")
        restored = PlacementJob.from_json(job.to_json())
        assert restored == job
        assert restored.content_hash() == job.content_hash()

    def test_seed_overrides_params(self):
        job = small_job(seed=7)
        assert job.effective_seed() == 7
        assert job.effective_params().seed == 7
        assert job.params.seed == 0  # the shared params object is untouched

    def test_job_id_readable(self):
        job = small_job(seed=5)
        assert job.job_id.startswith("fft_1:xplace:s5:")


class TestContentHash:
    def test_stable_across_instances(self):
        assert small_job().content_hash() == small_job().content_hash()

    def test_semantic_knobs_change_hash(self):
        base = small_job().content_hash()
        assert small_job(seed=2).content_hash() != base
        assert small_job(placer="baseline").content_hash() != base
        assert small_job(dp_passes=2).content_hash() != base
        assert small_job(cells=260).content_hash() != base
        changed = small_job(
            params={"max_iterations": 31, "min_iterations": 20}
        )
        assert changed.content_hash() != base

    def test_non_semantic_knobs_keep_hash(self):
        base = small_job().content_hash()
        assert small_job(timeout=99.0).content_hash() == base
        assert small_job(retries=3).content_hash() == base
        assert small_job(tag="other").content_hash() == base
        verbose = small_job(
            params={"max_iterations": 30, "min_iterations": 20,
                    "verbose": True}
        )
        assert verbose.content_hash() == base

    def test_bookshelf_digest_tracks_file_bytes(self, tmp_path):
        from repro.benchgen import make_design
        from repro.bookshelf import write_bookshelf

        netlist = make_design("fft_1", num_cells=100)
        aux = write_bookshelf(netlist, str(tmp_path / "bench"))
        job = PlacementJob(aux=str(aux))
        before = job.content_hash()
        nodes = next(tmp_path.glob("bench/*.nodes"))
        nodes.write_text(nodes.read_text() + "\n# tweaked\n")
        assert PlacementJob(aux=str(aux)).content_hash() != before


class TestVariants:
    def test_with_seed(self):
        job = small_job()
        variant = job.with_seed(9)
        assert variant.effective_seed() == 9
        assert variant.content_hash() != job.content_hash()
        assert variant.design == job.design

    def test_with_params(self):
        job = small_job()
        variant = job.with_params(target_density=0.8)
        assert variant.params.target_density == 0.8
        assert job.params.target_density == 0.9
        assert variant.content_hash() != job.content_hash()


class TestExecuteJob:
    def test_fake_pipeline_executes(self):
        result = execute_job(fake_job())
        assert result.ok and result.status == "done"
        assert result.hpwl is not None and result.hpwl > 0
        assert np.isfinite(result.x).all() and np.isfinite(result.y).all()
        assert result.report.stage("gp").metrics["gp_hpwl"] > 0

    def test_runtime_stage_carries_profiler_totals(self):
        result = execute_job(small_job())
        runtime = result.report.stage("runtime")
        assert runtime.metrics["seed"] == 1
        assert runtime.metrics["kernel_launches"] > 0
        assert runtime.metrics["kernel_counts"]
        assert runtime.metrics["final_hpwl"] == result.hpwl
        # Stage list is the real flow plus the synthetic runtime stage.
        assert [s.name for s in result.report.stages] == \
            ["gp", "lg", "dp", "runtime"]

    def test_deterministic_given_seed(self):
        first = execute_job(small_job())
        second = execute_job(small_job())
        assert first.hpwl == second.hpwl
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.y, second.y)

    def test_loop_events_bridged(self):
        log = EventLog()
        job = small_job()
        execute_job(job, emit=log, heartbeat_every=5)
        kinds = [e.kind for e in log.events]
        assert kinds[0] == "loop_start"
        assert kinds[-1] == "loop_stop"
        assert log.count("heartbeat") >= 2
        assert all(e.job_id == job.job_id for e in log.events)

    def test_custom_factory_must_be_module_colon_function(self):
        with pytest.raises(ValueError, match="module:function"):
            execute_job(small_job(pipeline="tests.runtime_helpers"))

    def test_result_dict_round_trip(self):
        result = execute_job(fake_job())
        restored = JobResult.from_dict(result.to_dict())
        assert restored.job_id == result.job_id
        assert restored.hpwl == result.hpwl
        assert restored.report.to_dict() == result.report.to_dict()


class TestRunJobEntryPoint:
    def test_run_job_uses_cache(self, tmp_path):
        from repro.runtime import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        job = fake_job()
        first = run_job(job, cache=cache)
        assert not first.cached
        second = run_job(job, cache=cache)
        assert second.cached
        assert second.hpwl == first.hpwl
        assert np.array_equal(second.x, first.x)


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit("queued", "j1")
        log.emit("started", "j1", pid=42)
        log.emit("failed", "j2", reason="error", error="boom")
        assert len(log) == 3
        assert log.count("queued") == 1
        assert [e.job_id for e in log.of_kind("queued", "started")] == \
            ["j1", "j1"]
        assert log.failures[0].payload["error"] == "boom"
        assert log.for_job("j2")[0].kind == "failed"

    def test_queries_safe_during_concurrent_emit(self):
        """Query methods snapshot under the lock: pool-drain and HTTP
        threads emit while stats/tests iterate concurrently."""
        import threading
        import time

        log = EventLog()
        errors = []
        stop = threading.Event()

        def emitter():
            i = 0
            while not stop.is_set():
                log.emit("heartbeat", f"j{i % 3}", iteration=i)
                i += 1

        def reader():
            while not stop.is_set():
                try:
                    log.of_kind("heartbeat")
                    log.count("heartbeat")
                    log.for_job("j0")
                    len(log)
                except Exception as err:  # noqa: BLE001 — the assertion
                    errors.append(err)
                    return

        threads = [threading.Thread(target=emitter, daemon=True),
                   threading.Thread(target=reader, daemon=True)]
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert errors == []
        assert log.count("heartbeat") == len(log)

    def test_put_adapter(self):
        log = EventLog()
        log.put({"event": "heartbeat", "job_id": "j1", "iteration": 5,
                 "hpwl": 1.0})
        assert log.events[0].kind == "heartbeat"
        assert log.events[0].payload["iteration"] == 5

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path=path) as log:
            log.emit("queued", "j1", seed=3)
            log.emit("finished", "j1", hpwl=12.5)
        events = read_event_log(path)
        assert [e.kind for e in events] == ["queued", "finished"]
        assert events[0].payload["seed"] == 3
        assert events[1].payload["hpwl"] == 12.5
        assert events[0].ts > 0

    def test_queue_callback_rate_limits(self):
        log = EventLog()
        callback = QueueCallback(log, label="j9", every=2)
        for i in range(5):
            callback.on_iteration(IterationRecord(
                iteration=i, hpwl=1.0, wa=1.0, overflow=0.5, gamma=1.0,
                lam=1.0, omega=0.1, grad_ratio=1.0, density_computed=True,
                step_length=0.1,
            ))
        # iterations 0, 2, 4
        assert log.count("heartbeat") == 3
        assert all(e.job_id == "j9" for e in log.events)


class TestFaultedJobs:
    def test_faults_join_the_content_hash(self):
        base = small_job().content_hash()
        faulty = small_job(
            faults={"faults": [{"kind": "nan-grad", "iteration": 5}]}
        )
        assert faulty.content_hash() != base

    def test_timeout_retries_is_non_semantic(self):
        assert small_job(timeout_retries=3).content_hash() == \
            small_job().content_hash()

    def test_negative_timeout_retries_rejected(self):
        with pytest.raises(ValueError):
            small_job(timeout_retries=-1)

    def test_fault_plan_coercion_and_round_trip(self):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(faults=[FaultSpec("slow", iteration=3)], seed=9)
        job = small_job(faults=plan)
        assert isinstance(job.faults, dict)  # stored serialized
        again = PlacementJob.from_dict(job.to_dict())
        assert again.fault_plan().faults == plan.faults
        assert small_job().fault_plan() is None

    def test_job_checkpoint_dir_mirrors_cache_layout(self, tmp_path):
        from repro.runtime import job_checkpoint_dir

        job = small_job()
        path = job_checkpoint_dir(str(tmp_path), job)
        key = job.content_hash()
        assert path == str(tmp_path / key[:2] / key)

    def test_execute_job_reports_resumed_flag(self, tmp_path):
        job = small_job(params={"max_iterations": 40,
                                "checkpoint_every": 10})
        result = execute_job(job, checkpoint_dir=str(tmp_path))
        assert result.status == "done"
        runtime = result.report.stage("runtime")
        assert runtime.metrics["resumed"] is False
