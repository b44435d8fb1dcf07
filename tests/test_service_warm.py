"""Warm workers: shared-memory designs, resident dispatch, kills."""

import os
import threading
import time

import numpy as np
import pytest

from repro.runtime import PlacementJob
from repro.service.warm import (
    DesignStore,
    WarmPool,
    attach_design,
    design_key,
    publish_design,
)

FAKE = "tests.runtime_helpers:fake_pipeline"
SLEEPY = "tests.runtime_helpers:sleepy_pipeline"


def make_job(seed=1, **overrides):
    base = dict(
        design="fft_1",
        cells=120,
        seed=seed,
        params={"max_iterations": 30, "min_iterations": 20},
        pipeline=FAKE,
    )
    base.update(overrides)
    return PlacementJob(**base)


def drain_until_result(pool, ticket, timeout=90.0):
    """Collect messages until the ticket's terminal ``_result``."""
    deadline = time.monotonic() + timeout
    messages = []
    while time.monotonic() < deadline:
        for message in pool.poll(0.05):
            messages.append(message)
            if (message.get("event") == "_result"
                    and message.get("ticket") == ticket):
                return message, messages
    raise AssertionError(f"no result for {ticket!r} within {timeout}s")


class TestSharedMemoryDesigns:
    def test_publish_attach_round_trip(self):
        job = make_job()
        netlist = job.load_netlist()
        key = design_key(job)
        manifest, segments = publish_design(netlist, key)
        try:
            attached, views = attach_design(manifest)
            try:
                assert attached.num_cells == netlist.num_cells
                assert attached.num_nets == netlist.num_nets
                for name in ("cell_w", "cell_h", "pin2cell", "pin2net",
                             "net_start", "fixed_x", "fixed_y"):
                    np.testing.assert_array_equal(
                        getattr(attached, name), getattr(netlist, name))
                # Derived CSR structures are rebuilt, not shipped.
                np.testing.assert_array_equal(
                    attached.cell_start, netlist.cell_start)
                assert attached.region.xl == netlist.region.xl
                assert (len(attached.region.rows)
                        == len(netlist.region.rows))
            finally:
                for shm in views:
                    shm.close()
        finally:
            for shm in segments:
                shm.close()
                shm.unlink()

    def test_attached_arrays_are_read_only(self):
        job = make_job()
        manifest, segments = publish_design(job.load_netlist(),
                                            design_key(job))
        try:
            attached, views = attach_design(manifest)
            try:
                with pytest.raises(ValueError):
                    attached.cell_w[0] = 1.0
            finally:
                for shm in views:
                    shm.close()
        finally:
            for shm in segments:
                shm.close()
                shm.unlink()

    def test_design_key_tracks_design_not_seed(self):
        assert design_key(make_job(seed=1)) == design_key(make_job(seed=7))
        assert design_key(make_job(cells=120)) != design_key(
            make_job(cells=121))

    def test_publish_failure_unlinks_partial_segments(self, monkeypatch):
        """A create that fails mid-loop must not leak the segments
        already published — named shared memory outlives the process."""
        from multiprocessing import shared_memory as shm_mod

        real = shm_mod.SharedMemory
        created = []
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            if kwargs.get("create"):
                calls["n"] += 1
                if calls["n"] > 2:
                    raise OSError("synthetic: out of segments")
            segment = real(*args, **kwargs)
            created.append(segment.name)
            return segment

        monkeypatch.setattr(shm_mod, "SharedMemory", flaky)
        job = make_job()
        with pytest.raises(OSError, match="synthetic"):
            publish_design(job.load_netlist(), design_key(job))
        assert len(created) == 2
        for name in created:
            with pytest.raises(FileNotFoundError):
                real(name=name)

    def test_store_publishes_once_and_evicts_lru(self):
        store = DesignStore(max_designs=1)
        try:
            first = store.manifest_for(make_job(cells=100))
            again = store.manifest_for(make_job(cells=100, seed=9))
            assert first["key"] == again["key"]
            assert first["arrays"] == again["arrays"]
            other = store.manifest_for(make_job(cells=110))
            assert other["key"] != first["key"]
            # capacity 1: the first design was unlinked.
            with pytest.raises(FileNotFoundError):
                attach_design(first)
        finally:
            store.close()


class TestWarmPool:
    def test_job_round_trip_and_warm_paths(self):
        pool = WarmPool(workers=1)
        try:
            pool.submit("a", make_job(seed=1))
            first, _ = drain_until_result(pool, "a")
            assert first["status"] == "done"
            result_metrics = first["result"]["report"]["stages"][-1]
            warm_a = result_metrics["metrics"]["warm"]
            pool.submit("b", make_job(seed=2))
            second, _ = drain_until_result(pool, "b")
            assert second["status"] == "done"
            warm_b = second["result"]["report"]["stages"][-1]["metrics"]["warm"]
            if pool.inline:
                assert warm_b in ("cold", "resident")
            else:
                assert warm_a == "attached"
                assert warm_b == "resident"
        finally:
            pool.shutdown()

    def test_results_match_cold_execution(self):
        from repro.runtime import execute_job

        job = make_job(seed=3)
        baseline = execute_job(job)
        pool = WarmPool(workers=1)
        try:
            pool.submit("t", job)
            message, _ = drain_until_result(pool, "t")
        finally:
            pool.shutdown()
        assert message["status"] == "done"
        assert message["result"]["hpwl"] == baseline.hpwl
        np.testing.assert_array_equal(np.asarray(message["x"]), baseline.x)
        np.testing.assert_array_equal(np.asarray(message["y"]), baseline.y)

    def test_picked_announcement_precedes_result(self):
        pool = WarmPool(workers=1)
        try:
            pool.submit("t", make_job(seed=1))
            message, all_messages = drain_until_result(pool, "t")
            kinds = [m.get("event") for m in all_messages]
            assert kinds.index("_picked") < kinds.index("_result")
        finally:
            pool.shutdown()

    def test_kill_worker_respawns_and_pool_survives(self):
        pool = WarmPool(workers=1)
        try:
            pool.submit("sleepy", make_job(seed=1, pipeline=SLEEPY))
            # let the worker pick it up
            deadline = time.monotonic() + 10
            picked = False
            while time.monotonic() < deadline and not picked:
                picked = any(m.get("event") == "_picked"
                             for m in pool.poll(0.05))
            assert picked
            worker = pool.worker_for("sleepy")
            assert worker is not None
            pool.kill_worker(worker)
            if pool.inline:
                # threads cancel cooperatively: the sleepy stage ignores
                # the flag, so only check the pool stays usable later.
                pytest.skip("thread fallback cannot kill a sleeping stage")
            assert pool.idle_workers()      # respawned replacement
            pool.submit("next", make_job(seed=2))
            message, _ = drain_until_result(pool, "next")
            assert message["status"] == "done"
        finally:
            pool.shutdown()

    def test_worker_listings_safe_during_respawn_churn(self):
        """/stats readers walk the worker table from HTTP threads while
        the drive loop kills and respawns handles."""
        pool = WarmPool(workers=2)
        if pool.inline:
            pool.shutdown()
            pytest.skip("respawn churn requires process workers")
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    pool.workers
                    pool.idle_workers()
                    pool.worker_for("nope")
                    pool.worker_alive(0)
                except Exception as err:  # noqa: BLE001 — the assertion
                    errors.append(err)
                    return

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            for _ in range(6):
                pool.kill_worker(0)
        finally:
            stop.set()
            thread.join(timeout=10)
            pool.shutdown()
        assert errors == []

    def test_two_workers_run_concurrently(self):
        pool = WarmPool(workers=2)
        try:
            pool.submit("a", make_job(seed=1), worker_id=pool.workers[0])
            pool.submit("b", make_job(seed=2), worker_id=pool.workers[1])
            results = {}
            deadline = time.monotonic() + 90
            while len(results) < 2 and time.monotonic() < deadline:
                for message in pool.poll(0.05):
                    if message.get("event") == "_result":
                        results[message["ticket"]] = message
            first, second = results["a"], results["b"]
            assert first["status"] == second["status"] == "done"
            if not pool.inline:
                assert first["result"]["report"]["stages"][-1]["metrics"][
                    "worker_pid"] != second["result"]["report"]["stages"][
                    -1]["metrics"]["worker_pid"]
        finally:
            pool.shutdown()


def open_fds():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("start_method", [None, "thread"],
                         ids=["process", "thread"])
class TestWake:
    def test_wake_ends_a_wakeable_poll_only(self, start_method):
        pool = WarmPool(workers=1, start_method=start_method)
        try:
            timer = threading.Timer(0.1, pool.wake)
            timer.start()
            began = time.monotonic()
            assert pool.poll(10.0, wakeable=True) == []
            assert time.monotonic() - began < 5.0
            timer.join()
            # Wakes coalesce, and a plain poll waits them out.
            pool.wake()
            pool.wake()
            began = time.monotonic()
            assert pool.poll(0.2) == []
            assert time.monotonic() - began >= 0.15
            assert pool.poll(10.0, wakeable=True) == []
            began = time.monotonic()
            assert pool.poll(0.2, wakeable=True) == []
            assert time.monotonic() - began >= 0.15
        finally:
            pool.shutdown()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_wake_after_shutdown_is_a_noop(self, start_method):
        # A first pool starts what outlives every pool (the resource
        # tracker of process pools).
        WarmPool(workers=1, start_method=start_method).shutdown()
        before = open_fds()
        pool = WarmPool(workers=1, start_method=start_method)
        pool.submit("t", make_job(seed=1))
        message, _ = drain_until_result(pool, "t")
        assert message["status"] == "done"
        pool.wake()
        pool.shutdown()
        pool.wake()
        pool.wake()
        assert open_fds() == before
