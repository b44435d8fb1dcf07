"""The ``repro serve`` daemon: HTTP API, streaming, crash recovery."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service import PlacementService, ServiceClient, ServiceError
from repro.service.daemon import make_server

FAKE = "tests.runtime_helpers:fake_pipeline"
SLEEPY = "tests.runtime_helpers:sleepy_pipeline"
CRASHY = "tests.runtime_helpers:crashy_pipeline"
KILLER = "tests.runtime_helpers:killer_pipeline"


def make_spec(seed=1, **overrides):
    spec = dict(
        design="fft_1",
        cells=120,
        seed=seed,
        params={"max_iterations": 30, "min_iterations": 20},
        pipeline=FAKE,
    )
    spec.update(overrides)
    return spec


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on an ephemeral port + a client talking to it."""
    service = PlacementService(str(tmp_path / "state"), workers=2).start()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", server.server_address[1])
    try:
        yield service, client
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


class TestHttpApi:
    def test_health_and_stats(self, daemon):
        _, client = daemon
        health = client.healthz()
        assert health["ok"]
        assert health["status"] == "ok"
        assert health["breakers"] == {"cache": "closed",
                                      "design-store": "closed",
                                      "journal": "closed"}
        assert health["quarantined"] == []
        stats = client.stats()
        assert stats["jobs"] == 0
        assert stats["workers"]["total"] == 2
        for key in ("hits", "misses", "evictions", "bypassed"):
            assert stats["cache"][key] == 0
        assert stats["cache"]["breaker"]["state"] == "closed"
        assert stats["supervisor"]["state"] == "ok"

    def test_submit_wait_report_round_trip(self, daemon):
        _, client = daemon
        entry = client.submit(make_spec(seed=1))
        assert entry["state"] == "queued"
        assert re.match(r"t\d{4}-[0-9a-f]{8}", entry["ticket"])
        final = client.wait(entry["ticket"], timeout=90)
        assert final["state"] == "done"
        assert final["result"]["hpwl"] > 0
        report = client.report(entry["ticket"])
        stage_names = [s["name"]
                       for s in report["result"]["report"]["stages"]]
        assert stage_names[-1] == "runtime"

    def test_served_hpwl_identical_to_direct_execution(self, daemon):
        from repro.runtime import PlacementJob, execute_job

        _, client = daemon
        spec = make_spec(seed=42)
        baseline = execute_job(PlacementJob.from_dict(spec))
        entry = client.submit(spec)
        final = client.wait(entry["ticket"], timeout=90)
        assert final["result"]["hpwl"] == baseline.hpwl

    def test_bad_spec_rejected_with_400(self, daemon):
        _, client = daemon
        with pytest.raises(ServiceError) as err:
            client.submit({"design": "fft_1", "aux": "also-set.aux"})
        assert err.value.status == 400

    def test_unknown_ticket_is_404(self, daemon):
        _, client = daemon
        with pytest.raises(ServiceError) as err:
            client.job("t9999-deadbeef")
        assert err.value.status == 404

    def test_priority_and_tenant_wrapper(self, daemon):
        _, client = daemon
        entry = client.submit(make_spec(seed=1), priority=4, tenant="ci")
        assert entry["priority"] == 4
        assert entry["tenant"] == "ci"

    def test_four_concurrent_jobs_with_live_streams(self, daemon):
        _, client = daemon
        specs = [make_spec(seed=s) for s in (1, 2, 3, 4)]
        tickets = [client.submit(spec)["ticket"] for spec in specs]
        streams = {}

        def follow(ticket):
            streams[ticket] = [ev["kind"] for ev
                               in client.stream_events(ticket)]

        followers = [threading.Thread(target=follow, args=(t,))
                     for t in tickets]
        for thread in followers:
            thread.start()
        finals = [client.wait(t, timeout=120) for t in tickets]
        for thread in followers:
            thread.join(timeout=30)
        assert [f["state"] for f in finals] == ["done"] * 4
        hpwls = {f["result"]["hpwl"] for f in finals}
        assert len(hpwls) == 4          # four seeds, four placements
        for ticket in tickets:
            kinds = streams[ticket]
            assert "queued" in kinds
            assert "started" in kinds
            assert "finished" in kinds

    def test_dedupe_and_cache_hit_paths(self, daemon):
        _, client = daemon
        spec = make_spec(seed=7)
        leader = client.submit(spec)
        follower = client.submit(spec)          # identical, in flight
        assert follower["deduped_onto"] == leader["ticket"]
        a = client.wait(leader["ticket"], timeout=90)
        b = client.wait(follower["ticket"], timeout=90)
        assert a["result"]["hpwl"] == b["result"]["hpwl"]
        assert not b["result"]["cached"]        # shared execution
        # terminal now: a resubmission is served by the result cache.
        third = client.submit(spec)
        c = client.wait(third["ticket"], timeout=30)
        assert c["result"]["cached"]
        assert c["result"]["hpwl"] == a["result"]["hpwl"]
        assert client.stats()["cache"]["hits"] >= 1

    def test_cancel_queued_job(self, daemon):
        service, client = daemon
        # saturate both workers so a third submission stays queued
        blockers = [client.submit(make_spec(seed=s, pipeline=SLEEPY))
                    for s in (1, 2)]
        queued = client.submit(make_spec(seed=3))
        out = client.cancel(queued["ticket"])
        assert out["cancel"] in ("cancelled", "requested")
        final = client.wait(queued["ticket"], timeout=15)
        assert final["state"] == "cancelled"
        for blocker in blockers:
            client.cancel(blocker["ticket"])

    def test_cancel_running_job_kills_worker(self, daemon):
        service, client = daemon
        if service.pool.inline:
            pytest.skip("thread fallback cannot kill a sleeping stage")
        entry = client.submit(make_spec(seed=1, pipeline=SLEEPY))
        deadline = time.monotonic() + 30
        while (client.job(entry["ticket"])["state"] != "running"
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert client.cancel(entry["ticket"])["cancel"] == "requested"
        final = client.wait(entry["ticket"], timeout=30)
        assert final["state"] == "cancelled"
        # the pool respawned: new work still completes
        after = client.submit(make_spec(seed=9))
        assert client.wait(after["ticket"], timeout=90)["state"] == "done"

    def test_stage_failure_reported(self, daemon):
        _, client = daemon
        entry = client.submit(make_spec(seed=1, pipeline=CRASHY))
        final = client.wait(entry["ticket"], timeout=90)
        assert final["state"] == "failed"
        assert "injected stage crash" in final["result"]["error"]

    def test_event_snapshot_without_follow(self, daemon):
        _, client = daemon
        entry = client.submit(make_spec(seed=1))
        client.wait(entry["ticket"], timeout=90)
        events = client.events(entry["ticket"])
        kinds = [ev["kind"] for ev in events]
        assert kinds[0] == "queued"
        assert "finished" in kinds
        assert all(ev["ticket"] == entry["ticket"] for ev in events)


class TestSupervisionApi:
    def test_draining_healthz_503_and_shed(self, daemon):
        service, client = daemon
        service.supervisor.drain()
        with pytest.raises(ServiceError) as err:
            client.healthz()
        assert err.value.status == 503
        assert err.value.body["status"] == "draining"
        assert not err.value.body["ok"]
        with pytest.raises(ServiceError) as err:
            client.submit(make_spec(seed=31), priority=5)
        assert err.value.status == 503
        assert err.value.body["state"] == "draining"
        assert err.value.retry_after is not None \
            and err.value.retry_after >= 1

    def test_degraded_sheds_low_priority_only(self, daemon):
        service, client = daemon
        breaker = service.supervisor.breakers["cache"]
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        health = client.healthz()               # degraded still answers 200
        assert health["status"] == "degraded" and not health["ok"]
        assert health["breakers"]["cache"] == "open"
        assert "last_fsync_age_s" in health["journal"]
        with pytest.raises(ServiceError) as err:
            client.submit(make_spec(seed=32), priority=0)
        assert err.value.status == 503
        assert err.value.body["state"] == "degraded"
        entry = client.submit(make_spec(seed=32), priority=1)
        assert client.wait(entry["ticket"], timeout=90)["state"] == "done"
        assert client.stats()["supervisor"]["counters"]["shed"] == 1

    def test_crash_retry_event_surfaces_backoff(self, daemon):
        _, client = daemon
        entry = client.submit(make_spec(seed=33, pipeline=KILLER,
                                        retries=1))
        final = client.wait(entry["ticket"], timeout=90)
        assert final["state"] == "failed"       # both attempts die
        retries = [ev for ev in client.events(entry["ticket"])
                   if ev["kind"] == "retry"]
        assert retries, "worker crash produced no retry event"
        for ev in retries:
            assert ev["reason"] == "crash"
            assert ev["backoff"] >= 0
            assert ev["max_backoff"] is None or ev["max_backoff"] > 0
            assert ev["attempt"] >= 1


class TestStaleAttempts:
    def test_late_result_of_a_timed_out_attempt_is_dropped(self, tmp_path):
        """Thread workers answer a timed-out attempt late: with no
        backoff, attempt 2 is already running when attempt 1's
        cancelled result arrives, and it must not resolve attempt 2."""
        service = PlacementService(str(tmp_path / "state"), workers=1,
                                   start_method="no-such-method",
                                   retry_backoff=0.0).start()
        try:
            entry = service.submit(dict(
                design="fft_1", cells=250, seed=1,
                params={"max_iterations": 100000, "min_iterations": 20,
                        "stop_overflow": 1e-9},
                timeout=0.3, timeout_retries=1,
            ))
            assert service.wait([entry.ticket], timeout=60)
            result = service.get(entry.ticket).result
            assert result.status == "timeout"
            assert result.attempts == 2
            started = [e for e in service.events.job_events(entry.job.job_id)
                       if e.kind == "started"]
            assert len(started) == 2
        finally:
            service.stop()


class TestJournal:
    def test_concurrent_terminal_sweeps_journal_once(self, tmp_path):
        """The terminal sweep runs from the drive loop and from HTTP
        cancel threads; racing sweeps must not double-journal a
        ticket."""
        from types import SimpleNamespace

        service = PlacementService(str(tmp_path / "state"))
        entries = [
            SimpleNamespace(terminal=True, ticket=f"t{i}", state="done",
                            job=SimpleNamespace(job_id=f"j{i}"))
            for i in range(16)
        ]
        service.scheduler.entries = lambda: entries
        threads = [
            threading.Thread(target=service._journal_terminals)
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        with open(service._journal_path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        terminal = [r["ticket"] for r in records if r["op"] == "terminal"]
        assert sorted(terminal) == sorted(e.ticket for e in entries)


class TestRecovery:
    def test_graceful_stop_resumes_on_restart(self, tmp_path):
        state = str(tmp_path / "state")
        service = PlacementService(state, workers=1).start()
        spec = make_spec(seed=1, pipeline=SLEEPY)
        entry = service.submit(spec)
        deadline = time.monotonic() + 30
        while (service.get(entry.ticket).state != "running"
               and time.monotonic() < deadline):
            time.sleep(0.05)
        service.stop()                      # job never reached terminal
        revived = PlacementService(state, workers=1)
        revived._replay_journal()
        try:
            assert entry.ticket in revived.recovered
            recovered = revived.scheduler.get(entry.ticket)
            assert recovered.resume
            assert recovered.state == "queued"
            kinds = [e.kind for e in revived.events.events]
            assert "recovery" in kinds
        finally:
            revived.scheduler.close()

    def test_terminal_jobs_not_resubmitted(self, tmp_path):
        state = str(tmp_path / "state")
        service = PlacementService(state, workers=1).start()
        entry = service.submit(make_spec(seed=1))
        assert service.wait([entry.ticket], timeout=90)
        service.stop()
        revived = PlacementService(state, workers=1)
        revived._replay_journal()
        try:
            assert revived.recovered == []
            assert revived.scheduler.get(entry.ticket) is None
        finally:
            revived.scheduler.close()

    def test_torn_journal_tail_is_ignored(self, tmp_path):
        state = str(tmp_path / "state")
        service = PlacementService(state, workers=1).start()
        entry = service.submit(make_spec(seed=1, pipeline=SLEEPY))
        service.stop()
        with open(os.path.join(state, "journal.jsonl"), "a") as fh:
            fh.write('{"op": "submit", "ticket": "t9')    # torn write
        revived = PlacementService(state, workers=1)
        revived._replay_journal()
        try:
            assert revived.recovered == [entry.ticket]
        finally:
            revived.scheduler.close()


def _alive(pid):
    """Whether ``pid`` still runs (an unreaped zombie counts as gone)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return True                     # no procfs: trust kill(0)
    return state != "Z"


class TestKillDashNine:
    """The full crash story: SIGKILL the daemon process mid-job, restart
    it on the same state dir, and watch the job finish from checkpoint."""

    def _start(self, state):
        existing = os.environ.get("PYTHONPATH")
        parts = ["src", "."] + ([existing] if existing else [])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(parts)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--state-dir", state, "--port", "0", "--workers", "1"],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        banner = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        assert match, f"no port announced: {banner!r}"
        return proc, int(match.group(1))

    def test_sigkill_restart_resumes_from_checkpoint(self, tmp_path):
        state = str(tmp_path / "state")
        proc, port = self._start(state)
        try:
            client = ServiceClient("127.0.0.1", port)
            # a real GP run, long enough to checkpoint before the kill
            entry = client.submit({
                "design": "fft_1", "cells": 150, "seed": 11,
                "params": {"min_iterations": 2, "max_iterations": 3000},
            })
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                events = client.events(entry["ticket"])
                if any(ev["kind"] == "recovery"
                       and ev.get("action") == "checkpoint"
                       for ev in events):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("job never checkpointed")
            worker_pid = [ev["pid"] for ev in events
                          if ev["kind"] == "started"][-1]
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        # The orphaned worker notices its parent is gone and exits.
        deadline = time.monotonic() + 5.0
        while _alive(worker_pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _alive(worker_pid), "worker outlived the killed daemon"
        proc2, port2 = self._start(state)
        try:
            client2 = ServiceClient("127.0.0.1", port2)
            jobs = client2.jobs()
            assert [j["ticket"] for j in jobs] == [entry["ticket"]]
            final = client2.wait(entry["ticket"], timeout=300, poll=0.25)
            assert final["state"] == "done"
            assert final["result"]["hpwl"] > 0
            events = client2.events(entry["ticket"])
            kinds = [ev["kind"] for ev in events]
            assert "recovery" in kinds          # resubmitted + resumed
            resumed = [ev for ev in events
                       if ev["kind"] == "recovery"
                       and ev.get("action") == "resubmitted"]
            assert resumed and resumed[0].get("resume")
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc2.kill()


@pytest.fixture
def throttled_daemon(tmp_path):
    """A daemon with one worker and a per-tenant queue depth of 1."""
    service = PlacementService(str(tmp_path / "state"), workers=1,
                               max_queue_depth=1).start()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", server.server_address[1])
    try:
        yield service, client
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


class TestBackpressureHttp:
    def saturate(self, client):
        """One running sleeper + one queued job fills the depth-1 queue."""
        running = client.submit(make_spec(seed=1, pipeline=SLEEPY))
        deadline = time.monotonic() + 30
        while (client.job(running["ticket"])["state"] != "running"
               and time.monotonic() < deadline):
            time.sleep(0.05)
        queued = client.submit(make_spec(seed=2, pipeline=SLEEPY))
        return running, queued

    def test_full_queue_returns_429_with_retry_after(self, throttled_daemon):
        _, client = throttled_daemon
        running, queued = self.saturate(client)
        with pytest.raises(ServiceError) as exc:
            client.submit(make_spec(seed=3))
        err = exc.value
        assert err.status == 429
        assert err.body["tenant"] == "default"
        assert err.body["queue_depth"] == 1
        assert err.body["queue_limit"] == 1
        assert err.body["retry_after_s"] > 0
        assert err.retry_after is not None and err.retry_after >= 1
        for entry in (queued, running):
            client.cancel(entry["ticket"])

    def test_rejected_submission_not_journaled(self, throttled_daemon):
        service, client = throttled_daemon
        running, queued = self.saturate(client)
        with pytest.raises(ServiceError):
            client.submit(make_spec(seed=3))
        tickets = {j["ticket"] for j in client.jobs()}
        assert tickets == {running["ticket"], queued["ticket"]}
        for entry in (queued, running):
            client.cancel(entry["ticket"])

    def test_queue_depth_in_stats(self, throttled_daemon):
        _, client = throttled_daemon
        running, queued = self.saturate(client)
        stats = client.stats()
        assert stats["queued_per_tenant"] == {"default": 1}
        assert stats["queue_limits"]["default"] == 1
        for entry in (queued, running):
            client.cancel(entry["ticket"])


class TestGroupCancelHttp:
    def test_cancel_group_route(self, daemon):
        service, client = daemon
        # Two sleepers occupy both workers; two more queue behind them.
        jobs = [client.submit(make_spec(seed=s, pipeline=SLEEPY),
                              group="cohort-a")
                for s in (1, 2, 3, 4)]
        loose = client.submit(make_spec(seed=9, pipeline=SLEEPY),
                              group="cohort-b")
        out = client.cancel_group("cohort-a")
        assert out["group"] == "cohort-a"
        assert out["cancelled"] + out["requested"] == 4
        for entry in jobs:
            final = client.wait(entry["ticket"], timeout=30)
            assert final["state"] == "cancelled"
        # The other cohort is untouched.
        assert not client.job(loose["ticket"])["terminal"]
        client.cancel(loose["ticket"])

    def test_group_round_trips_through_journal(self, tmp_path):
        state = str(tmp_path / "state")
        service = PlacementService(state, workers=1).start()
        entry = service.submit({"job": make_spec(seed=1, pipeline=SLEEPY),
                                "group": "cohort-r"})
        assert entry.group == "cohort-r"
        service.stop()
        revived = PlacementService(state, workers=1).start()
        try:
            again = revived.get(entry.ticket)
            assert again is not None and again.group == "cohort-r"
            revived.cancel_group("cohort-r")
            deadline = time.monotonic() + 30
            while (not revived.get(entry.ticket).terminal
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert revived.get(entry.ticket).state == "cancelled"
        finally:
            revived.stop()
