"""WorkerPool scheduling: parallelism, crash/timeout/kill recovery.

The fault-injection pipelines live in ``tests/runtime_helpers.py`` so
worker subprocesses can import them by dotted name.
"""

import time

import numpy as np
import pytest

from repro.runtime import (
    EventLog,
    PlacementJob,
    ResultCache,
    WorkerPool,
)
from repro.runtime.pool import backoff_delay

FAKE = "tests.runtime_helpers:fake_pipeline"
SLEEPY = "tests.runtime_helpers:sleepy_pipeline"
CRASHY = "tests.runtime_helpers:crashy_pipeline"
KILLER = "tests.runtime_helpers:killer_pipeline"


def make_job(seed=1, **overrides):
    base = dict(
        design="fft_1",
        cells=250,
        seed=seed,
        params={"max_iterations": 30, "min_iterations": 20},
        pipeline=FAKE,
    )
    base.update(overrides)
    return PlacementJob(**base)


class TestInlinePool:
    def test_max_workers_one_is_inline(self):
        assert WorkerPool(max_workers=1).inline
        assert not WorkerPool(max_workers=2).inline

    def test_unknown_start_method_degrades_to_inline(self):
        assert WorkerPool(max_workers=4, start_method="no-such-method").inline

    def test_runs_jobs_in_order(self):
        log = EventLog()
        jobs = [make_job(seed=s) for s in (1, 2, 3)]
        results = WorkerPool(max_workers=1).run(jobs, events=log)
        assert [r.status for r in results] == ["done"] * 3
        assert [r.seed for r in results] == [1, 2, 3]
        assert log.count("queued") == 3
        assert log.count("started") == 3
        assert log.count("finished") == 3
        assert not log.failures

    def test_stage_error_surfaces_and_pool_stays_healthy(self):
        log = EventLog()
        jobs = [make_job(seed=1, pipeline=CRASHY), make_job(seed=2)]
        results = WorkerPool(max_workers=1).run(jobs, events=log)
        assert results[0].status == "failed"
        assert "injected stage crash" in results[0].error
        # The partial FlowReport of the failed pipeline is preserved.
        assert results[0].report is not None
        assert results[0].report.stage("crash").error is not None
        assert results[1].status == "done"
        failed = log.failures
        assert len(failed) == 1
        assert failed[0].payload["reason"] == "error"
        assert "injected stage crash" in failed[0].payload["error"]

    def test_cooperative_timeout(self):
        # A real GP loop that cannot converge, with a tiny budget: the
        # thread worker must be stopped from inside the iteration seam.
        log = EventLog()
        hog = PlacementJob(
            design="fft_1",
            cells=250,
            seed=1,
            params={"max_iterations": 100000, "min_iterations": 20,
                    "stop_overflow": 1e-9},
            timeout=0.3,
        )
        results = WorkerPool(max_workers=1).run([hog, make_job(seed=2)],
                                                events=log)
        assert results[0].status == "timeout"
        assert "timeout" in results[0].error
        assert results[1].status == "done"
        assert log.failures[0].payload["reason"] == "timeout"

    def test_cache_short_circuits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        job = make_job()
        pool = WorkerPool(max_workers=1, cache=cache)
        first = pool.run([job])[0]
        log = EventLog()
        second = pool.run([job], events=log)[0]
        assert not first.cached and second.cached
        assert second.hpwl == first.hpwl
        assert log.count("cached") == 1
        assert log.count("started") == 0


class TestProcessPool:
    def test_parallel_jobs_all_finish(self):
        log = EventLog()
        jobs = [make_job(seed=s) for s in (1, 2, 3)]
        pool = WorkerPool(max_workers=2)
        results = pool.run(jobs, events=log)
        assert [r.status for r in results] == ["done"] * 3
        # Deterministic content regardless of scheduling.
        assert results[0].hpwl != results[1].hpwl
        for result in results:
            assert np.isfinite(result.x).all()
        started = log.of_kind("started")
        assert len(started) == 3
        assert all("pid" in e.payload for e in started)

    def test_worker_bridges_loop_events(self):
        # A real (tiny) GP run in a worker process: heartbeats must
        # cross the process boundary through the queue bridge.
        log = EventLog()
        job = make_job(pipeline=None)
        results = WorkerPool(max_workers=2, heartbeat_every=5).run(
            [job], events=log
        )
        assert results[0].status == "done"
        assert log.count("loop_start") == 1
        assert log.count("loop_stop") == 1
        assert log.count("heartbeat") >= 2
        runtime = results[0].report.stage("runtime")
        assert runtime.metrics["kernel_launches"] > 0

    def test_crash_in_stage_reports_failed(self):
        log = EventLog()
        jobs = [make_job(seed=1, pipeline=CRASHY), make_job(seed=2)]
        results = WorkerPool(max_workers=2).run(jobs, events=log)
        assert results[0].status == "failed"
        assert "injected stage crash" in results[0].error
        assert results[1].status == "done"
        assert len(log.failures) == 1

    def test_timeout_kills_worker(self):
        log = EventLog()
        jobs = [make_job(seed=1, pipeline=SLEEPY, timeout=1.0),
                make_job(seed=2)]
        results = WorkerPool(max_workers=2).run(jobs, events=log)
        assert results[0].status == "timeout"
        assert "timeout" in results[0].error
        assert results[1].status == "done"
        failed = log.failures
        assert failed[0].payload["reason"] == "timeout"

    def test_killed_worker_reports_crash(self):
        log = EventLog()
        jobs = [make_job(seed=1, pipeline=KILLER), make_job(seed=2)]
        results = WorkerPool(max_workers=2).run(jobs, events=log)
        assert results[0].status == "failed"
        assert "crashed" in results[0].error
        assert results[0].attempts == 1
        assert results[1].status == "done"
        assert log.failures[0].payload["reason"] == "crash"

    def test_crashed_worker_retried(self):
        log = EventLog()
        job = make_job(seed=1, pipeline=KILLER, retries=1)
        results = WorkerPool(max_workers=2).run([job], events=log)
        assert results[0].status == "failed"
        assert results[0].attempts == 2
        assert log.count("retry") == 1
        assert log.count("started") == 2

    def test_stop_when_cancels_the_field(self):
        log = EventLog()
        jobs = [make_job(seed=1), make_job(seed=2, pipeline=SLEEPY)]
        pool = WorkerPool(max_workers=2)
        results = pool.run(jobs, events=log,
                           stop_when=lambda r: r.ok)
        statuses = sorted(r.status for r in results)
        assert statuses == ["cancelled", "done"]
        assert log.count("cancelled") == 1

    def test_cache_shared_across_modes(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        job = make_job()
        inline = WorkerPool(max_workers=1, cache=cache).run([job])[0]
        hit = WorkerPool(max_workers=2, cache=cache).run([job])[0]
        assert not inline.cached and hit.cached
        assert hit.hpwl == inline.hpwl


class TestRetryBackoff:
    def test_backoff_is_deterministic_per_job_and_attempt(self):
        first = backoff_delay("job-a", 1, 0.25)
        assert first == backoff_delay("job-a", 1, 0.25)
        assert first != backoff_delay("job-b", 1, 0.25)

    def test_backoff_grows_exponentially_with_bounded_jitter(self):
        for n in (1, 2, 3):
            base = 0.25 * 2 ** (n - 1)
            delay = backoff_delay("j", n, 0.25)
            assert base <= delay <= base * 1.5

    def test_crash_retry_event_carries_backoff_and_reason(self):
        log = EventLog()
        job = make_job(seed=1, pipeline=KILLER, retries=1)
        results = WorkerPool(max_workers=2, retry_backoff=0.01).run(
            [job], events=log
        )
        assert results[0].status == "failed"
        retries = log.of_kind("retry")
        assert len(retries) == 1
        assert retries[0].payload["reason"] == "crash"
        assert retries[0].payload["backoff"] > 0
        assert retries[0].payload["crashes"] == 1
        failed = log.failures[0].payload
        assert failed["reason"] == "crash"
        assert failed["crashes"] == 2 and failed["timeouts"] == 0


class TestTimeoutRetries:
    def test_inline_timeout_retry_then_exhaustion(self):
        log = EventLog()
        hog = PlacementJob(
            design="fft_1",
            cells=250,
            seed=1,
            params={"max_iterations": 100000, "min_iterations": 20,
                    "stop_overflow": 1e-9},
            timeout=0.3,
            timeout_retries=1,
        )
        results = WorkerPool(max_workers=1).run([hog], events=log)
        assert results[0].status == "timeout"
        assert results[0].attempts == 2
        retries = log.of_kind("retry")
        assert len(retries) == 1
        assert retries[0].payload["reason"] == "timeout"
        assert log.failures[0].payload["timeouts"] == 2

    def test_process_timeout_retry_then_exhaustion(self):
        log = EventLog()
        job = make_job(seed=1, pipeline=SLEEPY, timeout=0.5,
                       timeout_retries=1)
        results = WorkerPool(max_workers=2, retry_backoff=0.01).run(
            [job], events=log
        )
        assert results[0].status == "timeout"
        retries = log.of_kind("retry")
        assert len(retries) == 1
        assert retries[0].payload["reason"] == "timeout"
        failed = log.failures[0].payload
        assert failed["reason"] == "timeout"
        assert failed["timeouts"] == 2 and failed["crashes"] == 0


class TestCheckpointedRetries:
    def test_crashed_worker_resumes_from_checkpoint(self, tmp_path):
        """A worker killed mid-GP must finish on retry — from mid-run,
        not iteration 0 — with the fault-free HPWL."""
        log = EventLog()
        base_params = {"max_iterations": 60, "checkpoint_every": 10}
        job = PlacementJob(
            design="fft_1", cells=120, seed=1, tag="chaos",
            params=base_params, retries=1,
            faults={"faults": [{"kind": "crash", "iteration": 35}]},
        )
        pool = WorkerPool(max_workers=2, retry_backoff=0.01,
                          checkpoint_dir=str(tmp_path / "ckpt"))
        results = pool.run([job], events=log)
        assert results[0].status == "done"
        assert results[0].attempts == 2
        retries = log.of_kind("retry")
        assert retries and retries[0].payload["reason"] == "crash"
        assert retries[0].payload["resume"] is True
        resumed = [e for e in log.of_kind("recovery")
                   if e.payload["action"] == "resumed"]
        assert len(resumed) == 1
        assert resumed[0].payload["snapshot_iteration"] == 30
        # Same trajectory as an uninterrupted run of the same job.
        clean_job = PlacementJob(design="fft_1", cells=120, seed=1,
                                 params=base_params)
        clean = WorkerPool(max_workers=1).run([clean_job])[0]
        assert results[0].hpwl == clean.hpwl

    def test_first_attempt_resumes_with_resume_flag(self, tmp_path):
        """repro batch --resume: a killed batch's spill is picked up by
        the *first* attempt of the rerun."""
        from repro.faults import InjectedFault  # noqa: F401 — doc import

        ckpt = str(tmp_path / "ckpt")
        params = {"max_iterations": 60, "checkpoint_every": 10}
        dying = PlacementJob(design="fft_1", cells=120, seed=1, tag="kill",
                             params=params,
                             faults={"faults": [
                                 {"kind": "abort", "iteration": 35}]})
        log = EventLog()
        first = WorkerPool(max_workers=1, checkpoint_dir=ckpt).run(
            [dying], events=log
        )[0]
        assert first.status == "failed"
        assert "injected abort" in first.error
        # Rerun without the fault, resuming: picks up at the checkpoint.
        rerun = PlacementJob(design="fft_1", cells=120, seed=1, tag="kill",
                             params=params,
                             faults={"faults": [
                                 {"kind": "abort", "iteration": 35}]})
        log2 = EventLog()
        second = WorkerPool(max_workers=1, checkpoint_dir=ckpt,
                            resume=True).run([rerun], events=log2)[0]
        assert second.status == "failed"  # abort re-fires on resume...
        resumed = [e for e in log2.of_kind("recovery")
                   if e.payload["action"] == "resumed"]
        assert len(resumed) == 1  # ...but the run DID resume from spill
        assert resumed[0].payload["snapshot_iteration"] == 30


class TestGracefulShutdown:
    """SIGINT/SIGTERM during a run: drain, mark resumable, flush."""

    def hog(self, seed=1, **overrides):
        base = dict(
            design="fft_1", cells=250, seed=seed,
            params={"max_iterations": 100000, "min_iterations": 20,
                    "stop_overflow": 1e-9, "checkpoint_every": 10},
        )
        base.update(overrides)
        return PlacementJob(**base)

    def send_signal_soon(self, signum, delay=0.6):
        import os
        import signal as signal_mod
        import threading

        timer = threading.Timer(
            delay, lambda: os.kill(os.getpid(), signum))
        timer.start()
        return timer

    def test_inline_sigterm_interrupts_resumably(self, tmp_path):
        import signal as signal_mod

        log = EventLog()
        pool = WorkerPool(max_workers=1,
                          checkpoint_dir=str(tmp_path / "ckpt"))
        timer = self.send_signal_soon(signal_mod.SIGTERM)
        try:
            results = pool.run([self.hog(seed=1), self.hog(seed=2)],
                               events=log)
        finally:
            timer.cancel()
        assert results[0].status == "interrupted"
        assert "resumable" in results[0].error
        assert results[1].status == "interrupted"
        interrupted = log.of_kind("interrupted")
        assert len(interrupted) == 2
        assert interrupted[0].payload["resumable"] is True
        # The queued job never started; the running one spilled state.
        assert any(e.payload.get("pending") for e in interrupted)

    def test_inline_sigterm_without_checkpoints_not_resumable(self):
        import signal as signal_mod

        log = EventLog()
        pool = WorkerPool(max_workers=1)       # no checkpoint_dir
        timer = self.send_signal_soon(signal_mod.SIGTERM)
        try:
            results = pool.run([self.hog(seed=1)], events=log)
        finally:
            timer.cancel()
        assert results[0].status == "interrupted"
        assert "not resumable" in results[0].error
        assert log.of_kind("interrupted")[0].payload["resumable"] is False

    def test_process_sigint_drains_and_interrupts(self, tmp_path):
        import signal as signal_mod

        log = EventLog()
        pool = WorkerPool(max_workers=2,
                          checkpoint_dir=str(tmp_path / "ckpt"),
                          drain_grace=0.3)
        timer = self.send_signal_soon(signal_mod.SIGINT, delay=1.2)
        try:
            results = pool.run(
                [self.hog(seed=s) for s in (1, 2, 3)], events=log)
        finally:
            timer.cancel()
        assert all(r.status == "interrupted" for r in results)
        assert all(r.error and "resumable" in r.error for r in results)
        assert log.count("interrupted") == 3

    def test_handlers_restored_after_run(self):
        import signal as signal_mod

        before_term = signal_mod.getsignal(signal_mod.SIGTERM)
        before_int = signal_mod.getsignal(signal_mod.SIGINT)
        WorkerPool(max_workers=1).run([make_job(seed=1)])
        assert signal_mod.getsignal(signal_mod.SIGTERM) is before_term
        assert signal_mod.getsignal(signal_mod.SIGINT) is before_int

    def test_interrupted_run_resumes_from_checkpoint(self, tmp_path):
        import signal as signal_mod

        ckpt = str(tmp_path / "ckpt")
        job = PlacementJob(
            design="fft_1", cells=250, seed=1,
            params={"max_iterations": 100000, "min_iterations": 20,
                    "stop_overflow": 1e-9, "checkpoint_every": 10})
        pool = WorkerPool(max_workers=1, checkpoint_dir=ckpt)
        timer = self.send_signal_soon(signal_mod.SIGTERM)
        try:
            first = pool.run([job])[0]
        finally:
            timer.cancel()
        assert first.status == "interrupted"
        # Rerun with --resume and a sane budget: picks up the spill.
        rerun = PlacementJob(
            design="fft_1", cells=250, seed=1,
            params={"max_iterations": 100000, "min_iterations": 20,
                    "stop_overflow": 1e-9, "checkpoint_every": 10},
            timeout=10.0)
        log = EventLog()
        second = WorkerPool(max_workers=1, checkpoint_dir=ckpt,
                            resume=True).run([rerun], events=log)[0]
        resumed = [e for e in log.of_kind("recovery")
                   if e.payload["action"] == "resumed"]
        assert len(resumed) == 1
        assert resumed[0].payload["snapshot_iteration"] > 0


class TestStaleAttempts:
    def test_late_result_of_a_timed_out_attempt_is_dropped(self):
        """With no backoff, attempt 2 reaches the worker thread before
        attempt 1 has answered; attempt 1's late cancelled result must
        not resolve attempt 2."""
        log = EventLog()
        hog = PlacementJob(
            design="fft_1", cells=250, seed=1,
            params={"max_iterations": 100000, "min_iterations": 20,
                    "stop_overflow": 1e-9},
            timeout=0.3, timeout_retries=1,
        )
        results = WorkerPool(max_workers=1, retry_backoff=0.0).run(
            [hog], events=log)
        assert results[0].status == "timeout"
        assert results[0].attempts == 2
        assert log.count("started") == 2
        assert log.count("cancelled") == 0


def _supervision(**overrides):
    """A SupervisionConfig factory the pool module can call with no
    arguments, with some defaults replaced."""
    import functools

    from repro.supervision.supervisor import SupervisionConfig

    return functools.partial(SupervisionConfig, **overrides)


class TestSupervisedBatch:
    """Batch runs inherit the daemon's supervision: quarantine with
    canary probes, hang preemption with checkpoint resume."""

    def test_flapping_worker_quarantined_and_probed(self, monkeypatch):
        import repro.runtime.pool as pool_module

        monkeypatch.setattr(pool_module, "SupervisionConfig",
                            _supervision(canary_delay=0.0))
        log = EventLog()
        # The killer's design is one no worker has resident, so its
        # immediate retry lands on the replacement of the worker it
        # killed: that worker fails twice in a row.
        killer = make_job(seed=1, cells=100, pipeline=KILLER, retries=1)
        real = [make_job(seed=s, pipeline=None,
                         params={"max_iterations": 60, "min_iterations": 20})
                for s in (2, 3, 4, 5)]
        results = WorkerPool(max_workers=2, retry_backoff=0.0).run(
            [killer] + real, events=log)
        assert results[0].status == "failed"
        assert results[0].attempts == 2
        assert "exitcode" in results[0].error
        assert [r.status for r in results[1:]] == ["done"] * 4
        actions = [(e.payload["action"], e.payload["worker"])
                   for e in log.of_kind("quarantine")]
        assert ("enter", 0) in actions
        assert ("probe", 0) in actions
        assert ("restore", 0) in actions or ("replace", 0) in actions

    def test_hung_job_preempted_then_resumes(self, monkeypatch, tmp_path):
        import repro.runtime.pool as pool_module

        monkeypatch.setattr(pool_module, "SupervisionConfig",
                            _supervision(hang_timeout=2.0))
        params = {"max_iterations": 60, "checkpoint_every": 10}
        job = PlacementJob(
            design="fft_1", cells=120, seed=1, tag="hang", params=params,
            timeout=60.0,
            faults={"faults": [{"kind": "hang", "iteration": 35,
                                "seconds": 120.0}]},
        )
        log = EventLog()
        pool = WorkerPool(max_workers=2, retry_backoff=0.01,
                          checkpoint_dir=str(tmp_path / "ckpt"))
        began = time.time()
        results = pool.run([job], events=log)
        assert results[0].status == "done"
        assert results[0].attempts == 2
        preempted = log.of_kind("preempted")
        assert len(preempted) == 1
        assert preempted[0].ts - began < job.timeout
        retries = log.of_kind("retry")
        assert [r.payload["reason"] for r in retries] == ["hung"]
        clean = WorkerPool(max_workers=1).run([PlacementJob(
            design="fft_1", cells=120, seed=1, params=params)])[0]
        assert results[0].hpwl == clean.hpwl


class TestNothingLeftBehind:
    """After ``run()`` returns no worker process is alive and no
    shared-memory design segment is still linked."""

    @pytest.fixture
    def segments(self, monkeypatch):
        import repro.service.warm as warm

        names = []
        publish = warm.publish_design

        def recording(netlist, key):
            manifest, created = publish(netlist, key)
            names.extend(shm.name for shm in created)
            return manifest, created

        monkeypatch.setattr(warm, "publish_design", recording)
        return names

    def assert_clean(self, segments):
        import multiprocessing
        from multiprocessing import shared_memory

        children = multiprocessing.active_children()
        assert children == [], "live children: " + ", ".join(
            f"pid={c.pid} name={c.name} exitcode={c.exitcode}"
            for c in children)
        assert segments
        linked = []
        for name in segments:
            try:
                shared_memory.SharedMemory(name=name).close()
            except FileNotFoundError:
                continue
            linked.append(name)
        assert linked == [], f"still-linked segments: {linked}"

    def test_after_normal_run(self, segments):
        results = WorkerPool(max_workers=2).run(
            [make_job(seed=s) for s in (1, 2, 3)])
        assert all(r.ok for r in results)
        self.assert_clean(segments)

    def test_after_crashes(self, segments):
        results = WorkerPool(max_workers=2, retry_backoff=0.01).run(
            [make_job(seed=1, pipeline=KILLER, retries=1),
             make_job(seed=2)])
        assert [r.status for r in results] == ["failed", "done"]
        self.assert_clean(segments)

    def test_after_sigint_drain(self, segments, tmp_path):
        import os
        import signal as signal_mod
        import threading

        hog = dict(design="fft_1", cells=250,
                   params={"max_iterations": 100000, "min_iterations": 20,
                           "stop_overflow": 1e-9, "checkpoint_every": 10})
        pool = WorkerPool(max_workers=2, drain_grace=0.3,
                          checkpoint_dir=str(tmp_path / "ckpt"))
        timer = threading.Timer(
            1.2, lambda: os.kill(os.getpid(), signal_mod.SIGINT))
        timer.start()
        try:
            results = pool.run(
                [PlacementJob(seed=s, **hog) for s in (1, 2, 3)])
        finally:
            timer.cancel()
        assert all(r.status == "interrupted" for r in results)
        self.assert_clean(segments)

    def test_worker_ignoring_sigterm_is_killed(self, monkeypatch):
        """A worker forked while the parent's SIGTERM handler is armed
        runs that handler until ``_warm_worker_main`` restores the
        default; ``kill_worker`` and ``shutdown`` must escalate past a
        ``terminate()`` it ignores instead of leaving it running."""
        import multiprocessing

        import repro.service.warm as warm

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        monkeypatch.setattr(warm, "_warm_worker_main", _ignore_sigterm)
        pool = warm.WarmPool(workers=2, start_method="fork")
        handles = [pool._spawn(0), pool._spawn(1)]
        try:
            for handle in handles:     # SIGTERM is ignored from here on
                assert handle.inbox.poll(10), "worker never started"
                assert handle.inbox.recv() == "ready"
            pool.kill_worker(0, respawn=False)
            assert not handles[0].runner.is_alive()
            pool.shutdown(timeout=0.2)
            assert not handles[1].runner.is_alive()
        finally:
            for handle in handles:
                if handle.runner.is_alive():
                    handle.runner.kill()
                handle.runner.join(timeout=5)


def _ignore_sigterm(worker_id, tasks, out, *_):
    """A warm-worker stand-in that ignores SIGTERM (and exits once
    orphaned, or after a minute, so a failing run leaves nothing)."""
    import os
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    parent = os.getppid()
    out.send("ready")
    deadline = time.monotonic() + 60
    while os.getppid() == parent and time.monotonic() < deadline:
        time.sleep(0.05)


class TestCrashOnAttach:
    """``crash-on-attach`` rides the job's own plan, so a batch runs it
    through the same worker pickup path as the daemon."""

    def job(self):
        return make_job(seed=1, retries=3, faults={"faults": [
            {"kind": "crash-on-attach", "count": 2}]})

    def test_process_worker_crashes_count_attempts_then_runs(self):
        log = EventLog()
        results = WorkerPool(max_workers=2, retry_backoff=0.01).run(
            [self.job()], events=log)
        assert results[0].status == "done"
        assert results[0].attempts == 3
        retries = log.of_kind("retry")
        assert [r.payload["reason"] for r in retries] == ["crash", "crash"]

    def test_thread_worker_ignores_it(self):
        results = WorkerPool(max_workers=1).run([self.job()])
        assert results[0].status == "done"
        assert results[0].attempts == 1


class TestOneEventSchema:
    """``started``/``finished``/``failed``/``retry`` carry the same
    payload keys whether the batch pool or the daemon ran the job."""

    KINDS = ("started", "finished", "failed", "retry")

    def keys(self, events, job_ids):
        found = {}
        for event in events:
            if event.kind in self.KINDS and event.job_id in job_ids:
                found.setdefault(event.kind, set()).update(event.payload)
        return found

    def test_batch_and_daemon_agree(self, tmp_path):
        from repro.service import PlacementService

        jobs = [make_job(seed=1),
                make_job(seed=2, pipeline=KILLER, retries=1)]
        job_ids = {job.job_id for job in jobs}
        log = EventLog()
        WorkerPool(max_workers=2, retry_backoff=0.01,
                   cache=ResultCache(str(tmp_path / "cache"))).run(
            jobs, events=log)
        batch = self.keys(log.snapshot(), job_ids)

        service = PlacementService(str(tmp_path / "state"), workers=2,
                                   retry_backoff=0.01).start()
        try:
            tickets = [service.submit(job.to_dict()).ticket for job in jobs]
            assert service.wait(tickets, timeout=120)
            daemon = self.keys(service.events.snapshot(), job_ids)
        finally:
            service.stop()
        assert set(batch) == set(self.KINDS)
        assert batch == daemon
