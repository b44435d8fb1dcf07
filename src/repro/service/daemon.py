"""``repro serve``: the placement daemon and its HTTP API.

:class:`PlacementService` glues the service layers together — a
:class:`~repro.service.scheduler.Scheduler` (dedupe on, per-tenant
quotas), a :class:`~repro.service.warm.WarmPool` of warm workers, an
:class:`EventRouter` that fans runtime events out to streaming clients,
a shared :class:`~repro.runtime.cache.ResultCache`, and a write-ahead
*journal* that makes the daemon restartable: every submission and every
terminal transition is appended to ``<state>/journal.jsonl`` (flush +
fsync), so a killed daemon replays the journal on start and resubmits
every in-flight ticket with ``resume=True`` — the GP loop picks each
job up from its spilled checkpoint under ``<state>/checkpoints``.

The HTTP face is stdlib-only (``http.server.ThreadingHTTPServer``):

====== ============================== ===================================
POST   ``/jobs``                      submit a job spec → lifecycle entry
GET    ``/jobs``                      list entries (submission order)
GET    ``/jobs/<ticket>``             one entry (state, attempts, result)
GET    ``/jobs/<ticket>/report``      the full FlowReport of a done job
GET    ``/jobs/<ticket>/events``      the job's JSONL event stream;
                                      ``?follow=1`` keeps the connection
                                      open and streams live events until
                                      the job is terminal
POST   ``/jobs/<ticket>/cancel``      cancel (queued: immediate;
                                      running: worker killed)
POST   ``/groups/<group>/cancel``     cancel every non-terminal job of a
                                      submission group (cohort scope)
GET    ``/stats``                     scheduler + cache + worker counts,
                                      per-tenant queue depths and limits
GET    ``/healthz``                   liveness probe
====== ============================== ===================================

Job specs are the ``repro batch`` manifest schema (see
:meth:`~repro.runtime.job.PlacementJob.from_dict`), optionally wrapped
as ``{"job": {...}, "priority": 3, "tenant": "ci", "group": "cohort-1"}``.
A resubmission of an identical spec dedupes onto the in-flight run
(shared execution, own ticket); a spec already in the result cache
resolves instantly with ``cached=True`` and HPWL/metrics identical to a
``repro place`` of the same spec.

Backpressure: with ``max_queue_depth`` set, a tenant whose *queued*
backlog (running jobs don't count) is at the cap gets HTTP 429 with a
``Retry-After`` header estimated from recent job durations.  Dedupe
followers are exempt — they cost nothing to queue — as are the
daemon's internal retries.

Execution policy — dispatch, deadlines, retries, hang preemption and
worker quarantine — is the :class:`~repro.service.lifecycle.Lifecycle`
loop the batch pool runs too; the daemon steps it forever and adds the
journal, the HTTP face, brownout, the breakers and the fault-plan seams.

Supervision (see :mod:`repro.supervision`): a
:class:`~repro.supervision.supervisor.Supervisor` watches the fleet —
hung jobs (no heartbeat within the hang timeout while iterations
stopped advancing) are preempted early and resumed from their
checkpoint instead of waiting out the wall-clock deadline; flapping
workers (crash/hang/timeout EWMA below threshold) are quarantined out
of rotation, probed with a canary job and restored or replaced; the
ResultCache, the shared-memory DesignStore and the journal fsync path
sit behind circuit breakers whose open states select degraded modes
(cache-bypass, cold-attach, buffered journaling with a bounded loss
window).  While any breaker is open or a worker quarantined the
service is *degraded*: ``/healthz`` says so and the brownout
controller sheds low-priority submits with HTTP 503 + ``Retry-After``.
A draining daemon answers 503 on ``/healthz`` so load balancers fail
over before the socket goes away.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.runtime.cache import ResultCache
from repro.runtime.events import EventLog, RuntimeEvent
from repro.runtime.job import PlacementJob
from repro.service.journal import Journal, read_journal
from repro.service.lifecycle import Lifecycle
from repro.service.scheduler import QueueFull, ScheduledJob, Scheduler
from repro.service.warm import WarmPool
from repro.supervision.breakers import GuardedResultCache
from repro.supervision.brownout import BrownoutShed
from repro.supervision.supervisor import SupervisionConfig, Supervisor


class EventRouter(EventLog):
    """An :class:`EventLog` that also indexes events per job for
    streaming: followers block on :meth:`wait_job_events` and wake on
    every append to their job's stream."""

    def __init__(self, path: Optional[str] = None) -> None:
        super().__init__(path=path)
        self._stream_cond = threading.Condition()
        self._per_job: Dict[str, List[RuntimeEvent]] = {}

    def emit(self, kind: str, job_id: str, **payload: Any) -> RuntimeEvent:
        event = super().emit(kind, job_id, **payload)
        with self._stream_cond:
            self._per_job.setdefault(job_id, []).append(event)
            self._stream_cond.notify_all()
        return event

    def job_events(self, job_id: str, start: int = 0) -> List[RuntimeEvent]:
        with self._stream_cond:
            return list(self._per_job.get(job_id, ())[start:])

    def wait_job_events(self, job_id: str, start: int,
                        timeout: float = 0.5) -> List[RuntimeEvent]:
        """Events past ``start``, blocking up to ``timeout`` for one."""
        deadline = time.monotonic() + timeout
        with self._stream_cond:
            while True:
                stream = self._per_job.get(job_id, ())
                if len(stream) > start:
                    return list(stream[start:])
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._stream_cond.wait(timeout=remaining)


class PlacementService:
    """The daemon core (usable in-process, without HTTP, for tests).

    ``state_dir`` is the daemon's durable root::

        <state_dir>/journal.jsonl   # submissions + terminal transitions
        <state_dir>/events.jsonl    # the full runtime event mirror
        <state_dir>/cache/          # shared ResultCache
        <state_dir>/checkpoints/    # GP checkpoint spills (crash resume)

    Call :meth:`start` to begin executing (journal replay happens
    there), :meth:`stop` for a graceful drain.  All public methods are
    thread-safe — the HTTP handlers call straight into them.
    """

    def __init__(
        self,
        state_dir: str,
        workers: int = 2,
        start_method: Optional[str] = None,
        heartbeat_every: int = 25,
        retry_backoff: float = 0.25,
        retry_backoff_max: float = 30.0,
        quotas: Optional[Dict[str, int]] = None,
        default_quota: Optional[int] = None,
        max_resident: int = 8,
        max_queue_depth: Optional[int] = None,
        queue_limits: Optional[Dict[str, int]] = None,
        supervision: Optional[SupervisionConfig] = None,
        fault_plan=None,
    ) -> None:
        self.state_dir = os.path.abspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.checkpoint_dir = os.path.join(self.state_dir, "checkpoints")
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.events = EventRouter(
            path=os.path.join(self.state_dir, "events.jsonl")
        )
        self.supervision = supervision or SupervisionConfig()
        self.supervisor = Supervisor(self.supervision,
                                     on_event=self.events.emit)
        self.cache = GuardedResultCache(
            ResultCache(os.path.join(self.state_dir, "cache")),
            breaker=self.supervisor.breakers["cache"],
            slow_op_seconds=self.supervision.slow_op_seconds,
            fault_hook=fault_plan.io_hook if fault_plan is not None else None,
        )
        self.scheduler = Scheduler(cache=self.cache, events=self.events,
                                   quotas=quotas,
                                   default_quota=default_quota,
                                   dedupe=True,
                                   max_queue_depth=max_queue_depth,
                                   queue_limits=queue_limits)
        self.workers = max(1, int(workers))
        self.start_method = start_method
        self.heartbeat_every = heartbeat_every
        self.retry_backoff = float(retry_backoff)
        self.retry_backoff_max = float(retry_backoff_max)
        self.max_resident = max_resident
        self.started_ts = time.time()
        self.pool: Optional[WarmPool] = None
        self.lifecycle: Optional[Lifecycle] = None
        self._journal_path = os.path.join(self.state_dir, "journal.jsonl")
        self.journal = Journal(
            self._journal_path,
            breaker=self.supervisor.breakers["journal"],
            fault_hook=fault_plan.io_hook if fault_plan is not None else None,
            slow_op_seconds=self.supervision.slow_op_seconds,
            max_buffered=self.supervision.journal_buffer,
        )
        self._stop = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self.recovered: List[str] = []       # tickets resumed on start
        self.journal_dropped = 0             # unreadable journal records
        self.journal_duplicates = 0          # duplicated terminal records

    # -- journal ------------------------------------------------------

    def _journal(self, record: Dict[str, Any]) -> None:
        self.journal.append(record)

    def _journal_terminals(self) -> None:
        """Append a ``terminal`` op for every ticket that turned terminal
        since the last sweep, followers included.

        The sweep runs from the drive loop *and* from HTTP cancel
        threads; :meth:`Scheduler.take_terminal` hands each ticket to one
        sweep only, so racing sweeps never journal a ticket twice, and a
        sweep costs the new terminals, not the daemon's history.
        """
        for entry in self.scheduler.take_terminal():
            self.journal.append(
                {"op": "terminal", "ticket": entry.ticket,
                 "state": entry.state, "job_id": entry.job.job_id})

    def _replay_journal(self) -> None:
        """Resubmit every ticket the previous life left in flight.

        Parsing (:func:`~repro.service.journal.read_journal`) survives
        torn tail lines, interleaved partial records and duplicated
        terminal records — all fold into one consistent ticket table.
        """
        replay = read_journal(self._journal_path)
        self.journal_dropped += replay.dropped
        self.journal_duplicates += replay.duplicate_terminals
        for ticket in replay.pending():
            record = replay.submitted[ticket]
            try:
                job = PlacementJob.from_dict(record["job"])
            except (ValueError, TypeError):  # spec no longer parses
                self.journal_dropped += 1
                continue
            entry = self.scheduler.submit(
                job,
                priority=int(record.get("priority", 0)),
                tenant=record.get("tenant", "default"),
                ticket=ticket,
                resume=True,
                group=record.get("group"),
                enforce_limit=False,
            )
            self.recovered.append(entry.ticket)
            self.events.emit("recovery", job.job_id,
                             action="resubmitted", ticket=entry.ticket,
                             resume=True)

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "PlacementService":
        """Replay the journal, spawn the warm pool and the drive loop."""
        self._replay_journal()
        self.pool = WarmPool(
            workers=self.workers,
            start_method=self.start_method,
            heartbeat_every=self.heartbeat_every,
            checkpoint_dir=self.checkpoint_dir,
            max_resident=self.max_resident,
        )
        if self.pool.store is not None:
            # Shared-memory publishes degrade to cold-attach when the
            # design-store breaker is open.
            self.pool.store_guard = self.supervisor.breakers["design-store"]
        self.lifecycle = Lifecycle(
            self.scheduler, self.pool, self.supervisor, self.events,
            retry_backoff=self.retry_backoff,
            retry_backoff_max=self.retry_backoff_max,
        )
        self._loop_thread = threading.Thread(
            target=self._loop, daemon=True, name="placement-service-loop"
        )
        self._loop_thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful stop: the loop exits, workers shut down, unfinished
        tickets stay un-journaled so the next start resumes them.

        Draining starts immediately: new submissions are refused and
        ``/healthz`` answers 503 so a load balancer can fail over
        before the socket disappears."""
        self.supervisor.drain()
        self._stop.set()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=timeout)
        if self.pool is not None:
            self.pool.shutdown()
        self.scheduler.close()
        self.events.flush()
        self.journal.flush()     # drain any buffered (degraded) records

    # -- client surface ------------------------------------------------

    def submit(self, spec: Dict[str, Any]) -> ScheduledJob:
        """Submit one job spec (manifest schema, optionally wrapped in
        ``{"job": ..., "priority": ..., "tenant": ..., "group": ...}``).

        Raises :class:`~repro.service.scheduler.QueueFull` when the
        tenant's queued backlog is at its depth limit, and
        :class:`~repro.supervision.brownout.BrownoutShed` when the
        brownout controller refuses the submission (degraded service
        shedding low priorities, or draining) — nothing is journaled
        for a rejected submission.
        """
        return self._submit(spec)[0]

    def accept(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """:meth:`submit`, answered with the entry's JSON view as it was
        accepted (``POST /jobs``): the drive loop may lease the job
        before the caller could look at the entry."""
        return self._submit(spec)[1]

    def _submit(self, spec: Dict[str, Any]
                ) -> Tuple[ScheduledJob, Dict[str, Any]]:
        priority = 0
        tenant = "default"
        group = None
        if "job" in spec and isinstance(spec["job"], dict):
            priority = int(spec.get("priority", 0))
            tenant = str(spec.get("tenant", "default"))
            group = spec.get("group")
            spec = spec["job"]
        job = PlacementJob.from_dict(spec)
        self.supervisor.admit(priority, job_id=job.job_id, tenant=tenant)
        # The view is taken before the woken loop can lease the entry.
        # Replay does not depend on the order of a ticket's records, so
        # the loop may run the job while its submit record is written.
        entry = self.scheduler.submit(job, priority=priority, tenant=tenant,
                                      group=group, notify=False)
        accepted = entry.to_dict()
        self.scheduler.notify()
        self._journal({"op": "submit", "ticket": entry.ticket,
                       "job": job.to_dict(), "priority": priority,
                       "tenant": tenant, "group": group})
        return entry, accepted

    def cancel(self, ticket: str) -> Optional[str]:
        outcome = self.scheduler.cancel(ticket)
        if outcome == "cancelled":
            self._journal_terminals()
        return outcome

    def cancel_group(self, group: str) -> Dict[str, int]:
        """Cancel every non-terminal entry of a submission group.

        Queued entries resolve immediately; running ones are killed by
        the drive loop on its next sweep (it polls
        ``cancel_requested``).
        """
        counts = self.scheduler.cancel_group(group)
        if counts["cancelled"]:
            self._journal_terminals()
        return counts

    def get(self, ticket: str) -> Optional[ScheduledJob]:
        return self.scheduler.get(ticket)

    def entries(self) -> List[ScheduledJob]:
        return self.scheduler.entries()

    def stats(self) -> Dict[str, Any]:
        stats = self.scheduler.stats()
        stats["cache"] = self.cache.stats()
        stats["uptime_s"] = time.time() - self.started_ts
        stats["recovered"] = list(self.recovered)
        stats["journal_dropped"] = self.journal_dropped
        stats["journal_duplicates"] = self.journal_duplicates
        stats["journal"] = self.journal.stats()
        stats["supervisor"] = self.supervisor.snapshot()
        if self.pool is not None:
            stats["workers"] = {
                "total": len(self.pool.workers),
                "idle": len(self.pool.idle_workers()),
                "quarantined": self.pool.quarantined(),
                "inline": self.pool.inline,
            }
        return stats

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """The ``/healthz`` answer: ``(http_status, payload)``.

        ``ok`` while everything is closed and in rotation; ``degraded``
        (still 200 — the instance serves, just worse) while a breaker
        is open or a worker quarantined; ``draining`` answers 503 so
        load balancers pull the instance before shutdown completes.
        """
        snapshot = self.supervisor.snapshot()
        state = snapshot["state"]
        journal = self.journal.stats()
        journal.pop("breaker", None)   # already under breakers
        payload = {
            "ok": state == "ok",
            "status": state,
            "uptime_s": time.time() - self.started_ts,
            "breakers": {name: info["state"]
                         for name, info in snapshot["breakers"].items()},
            "quarantined": snapshot["quarantined"],
            "journal": journal,
            "counters": snapshot["counters"],
        }
        return (503 if state == "draining" else 200), payload

    def wait(self, tickets: Optional[List[str]] = None,
             timeout: Optional[float] = None) -> bool:
        return self.scheduler.wait(tickets, timeout=timeout)

    # -- the drive loop ------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.lifecycle.step()
            self._journal_terminals()
        # Graceful drain: kill running workers; their tickets stay
        # non-terminal in the journal, so the next start resumes them
        # from checkpoints.
        for active in self.lifecycle.release():
            self.events.emit("interrupted", active.entry.job.job_id,
                             ticket=active.entry.ticket,
                             attempt=active.attempt, resumable=True)


# -- HTTP layer --------------------------------------------------------

class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the shared :class:`PlacementService`."""

    service: PlacementService = None     # installed by make_server
    protocol_version = "HTTP/1.1"

    # Silence per-request stderr logging (the event log is the record).
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- helpers ------------------------------------------------------

    def _json(self, status: int, payload: Dict[str, Any],
              headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    def _read_body(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length else b"{}"
            data = json.loads(raw.decode() or "{}")
        except (ValueError, OSError):
            return None
        return data if isinstance(data, dict) else None

    def _route(self) -> Tuple[str, List[str], Dict[str, List[str]]]:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        return parsed.path, parts, parse_qs(parsed.query)

    # -- verbs --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        _, parts, query = self._route()
        service = self.service
        if parts == ["healthz"]:
            status, payload = service.health()
            self._json(status, payload)
        elif parts == ["stats"]:
            self._json(200, service.stats())
        elif parts == ["jobs"]:
            self._json(200, {"jobs": [e.to_dict()
                                      for e in service.entries()]})
        elif len(parts) == 2 and parts[0] == "jobs":
            entry = service.get(parts[1])
            if entry is None:
                self._error(404, f"unknown ticket {parts[1]!r}")
            else:
                self._json(200, entry.to_dict())
        elif len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "report":
            entry = service.get(parts[1])
            if entry is None:
                self._error(404, f"unknown ticket {parts[1]!r}")
            elif entry.result is None or entry.result.report is None:
                self._error(404, "no report (job not done yet?)")
            else:
                self._json(200, entry.to_dict(with_report=True))
        elif len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "events":
            self._stream_events(parts[1], query)
        else:
            self._error(404, f"no route for {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        _, parts, _ = self._route()
        service = self.service
        if parts == ["jobs"]:
            spec = self._read_body()
            if spec is None:
                self._error(400, "body must be a JSON object")
                return
            try:
                accepted = service.accept(spec)
            except BrownoutShed as err:
                # Brownout: the service is degraded (shedding
                # low-priority work) or draining (shedding everything).
                retry_after = max(1, int(round(err.retry_after)))
                self._json(
                    503,
                    {"error": str(err), "state": err.state,
                     "priority": err.priority,
                     "retry_after_s": err.retry_after},
                    headers={"Retry-After": str(retry_after)},
                )
                return
            except QueueFull as err:
                # Backpressure: the tenant's queued backlog is at its
                # cap.  Retry-After is the scheduler's estimate of when
                # a slot frees up, from recent job durations.
                retry_after = max(1, int(round(err.retry_after)))
                self._json(
                    429,
                    {"error": str(err), "tenant": err.tenant,
                     "queue_depth": err.depth, "queue_limit": err.limit,
                     "retry_after_s": err.retry_after},
                    headers={"Retry-After": str(retry_after)},
                )
                return
            except (ValueError, TypeError) as err:
                self._error(400, f"bad job spec: {err}")
                return
            self._json(201, accepted)
        elif len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "cancel":
            outcome = service.cancel(parts[1])
            if outcome is None:
                self._error(409, "unknown ticket or already terminal")
            else:
                self._json(200, {"ticket": parts[1], "cancel": outcome})
        elif len(parts) == 3 and parts[0] == "groups" \
                and parts[2] == "cancel":
            counts = service.cancel_group(parts[1])
            self._json(200, {"group": parts[1], **counts})
        else:
            self._error(404, f"no route for {self.path!r}")

    # -- event streaming ----------------------------------------------

    def _stream_events(self, ticket: str,
                       query: Dict[str, List[str]]) -> None:
        service = self.service
        entry = service.get(ticket)
        if entry is None:
            self._error(404, f"unknown ticket {ticket!r}")
            return
        follow = query.get("follow", ["0"])[0] not in ("0", "", "false")
        job_id = entry.job.job_id
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        # Stream length is unknown: close the connection to delimit.
        self.send_header("Connection", "close")
        self.end_headers()
        sent = 0
        try:
            while True:
                events = service.events.job_events(job_id, start=sent)
                if not events and follow and not entry.terminal:
                    events = service.events.wait_job_events(
                        job_id, start=sent, timeout=0.5
                    )
                for event in events:
                    line = json.dumps(
                        {"ticket": ticket, **event.to_dict()},
                        sort_keys=True,
                    )
                    self.wfile.write(line.encode() + b"\n")
                sent += len(events)
                self.wfile.flush()
                if not follow:
                    break
                if entry.terminal and not service.events.job_events(
                        job_id, start=sent):
                    break
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client went away mid-stream
        self.close_connection = True


def make_server(service: PlacementService, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """An HTTP server bound to ``host:port`` (0 = ephemeral) serving
    the given service.  Call ``serve_forever()`` to run."""
    handler = type("BoundServiceHandler", (_ServiceHandler,),
                   {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(
    state_dir: str,
    host: str = "127.0.0.1",
    port: int = 8787,
    workers: int = 2,
    start_method: Optional[str] = None,
    heartbeat_every: int = 25,
    default_quota: Optional[int] = None,
    max_queue_depth: Optional[int] = None,
    announce=print,
) -> int:
    """Run the daemon until SIGINT/SIGTERM (the ``repro serve`` body)."""
    import signal

    service = PlacementService(
        state_dir=state_dir,
        workers=workers,
        start_method=start_method,
        heartbeat_every=heartbeat_every,
        default_quota=default_quota,
        max_queue_depth=max_queue_depth,
    ).start()
    server = make_server(service, host=host, port=port)
    actual_host, actual_port = server.server_address[:2]
    announce(f"repro serve: listening on http://{actual_host}:{actual_port} "
             f"(state: {service.state_dir}, workers: {workers}"
             f"{', recovered: ' + str(len(service.recovered)) + ' job(s)' if service.recovered else ''})",
             flush=True)

    stop_requested = threading.Event()

    def _signal_handler(signum, frame):  # noqa: ARG001 — signal API
        stop_requested.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(ValueError, OSError):  # platform-dependent
            previous[sig] = signal.signal(sig, _signal_handler)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for sig, old in previous.items():
            with contextlib.suppress(ValueError, OSError):
                signal.signal(sig, old)
        server.server_close()
        service.stop()
    announce("repro serve: stopped (unfinished jobs resume on restart)",
             flush=True)
    return 0
