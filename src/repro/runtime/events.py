"""The runtime's progress-event stream.

Every observable moment in a batch run — a job entering the queue, a
worker picking it up, a GP-loop heartbeat, a result or a failure — is
one :class:`RuntimeEvent`.  Events are produced by the scheduler and
the :class:`~repro.service.lifecycle.Lifecycle` loop that batch and
daemon share (scheduling and execution events) and by the
workers themselves (loop events, bridged from the
:class:`~repro.core.callbacks.IterationCallback` seam through each
worker's result pipe via
:class:`~repro.core.callbacks.QueueCallback`), and collected by an
:class:`EventLog` which keeps them in memory and optionally appends
them to a JSONL run log — the durable record a dashboard or a CI gate
tails.

Event kinds
-----------
``queued``      job accepted by the pool
``started``     a worker began one attempt of the job
``loop_start``  the GP loop is about to run (from the worker)
``heartbeat``   periodic GP-iteration progress (from the worker)
``loop_stop``   the GP loop ended (from the worker)
``finished``    job completed with a result
``cached``      job short-circuited by the result cache
``retry``       worker crashed, job re-queued
``failed``      job gave up (stage error, timeout or crash) — the
                payload carries ``reason`` and ``error``
``cancelled``   job abandoned because a race was already decided
``diagnostic``  a numerical fault aborted the GP loop (from the worker)
                — the payload names the iteration, stage and op
``recovery``    the GP loop self-healed (from the worker) — the payload
                carries the ``action`` (``checkpoint`` / ``rollback`` /
                ``resumed`` / ``degraded``), the iteration, the snapshot
                iteration involved and the rollback count
``cache-evicted``  the result cache detected a corrupt entry and
                removed it (the lookup then proceeds as a miss)
``deduped``     an identical in-flight job (same content hash) already
                covers this submission; the follower resolves with the
                leader's result (service scheduler only)
``interrupted`` a shutdown signal stopped the pool before the job could
                finish — the payload says whether the job is resumable
                from its spilled checkpoint
``explore``     population-controller telemetry (from
                :mod:`repro.explore`) — the payload carries the
                ``action`` (``round`` / ``fork`` / ``cull`` / ``done``),
                the cohort round and the members involved
``preempted``   the LivenessMonitor killed a hung worker early (no
                progress within the hang timeout) and requeued the job
                with checkpoint resume — the payload carries the
                worker, the silent interval and the last iteration seen
``quarantine``  worker-health state change (service supervisor) — the
                payload carries the ``action`` (``enter`` / ``probe`` /
                ``restore`` / ``replace``), the worker and its score
``breaker``     a circuit breaker transitioned (service supervisor) —
                the payload names the breaker and the old/new states
``shed``        the brownout controller refused a submission (service
                degraded or draining) — the payload carries the state,
                priority and the Retry-After hint
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional

EVENT_KINDS = (
    "queued",
    "started",
    "loop_start",
    "heartbeat",
    "loop_stop",
    "finished",
    "cached",
    "retry",
    "failed",
    "cancelled",
    "diagnostic",
    "recovery",
    "cache-evicted",
    "deduped",
    "interrupted",
    "explore",
    "preempted",
    "quarantine",
    "breaker",
    "shed",
)


@dataclass
class RuntimeEvent:
    """One timestamped progress event of one job."""

    kind: str
    job_id: str
    ts: float = field(default_factory=time.time)
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "job_id": self.job_id, "ts": self.ts,
                **self.payload}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RuntimeEvent":
        payload = {k: v for k, v in data.items()
                   if k not in ("kind", "job_id", "ts")}
        return cls(kind=data["kind"], job_id=data.get("job_id", "?"),
                   ts=float(data.get("ts", 0.0)), payload=payload)


class EventLog:
    """Collects :class:`RuntimeEvent`\\ s, optionally mirrored to JSONL.

    Doubles as a queue-like sink (it has :meth:`put`), so the same
    object can be handed to :class:`~repro.core.callbacks.QueueCallback`
    for in-process runs and used by the pool to route worker messages.
    Thread-safe: the pool's drain loop and inline callbacks may emit
    concurrently.
    """

    def __init__(self, path: Optional[str] = None, echo: bool = False) -> None:
        self.events: List[RuntimeEvent] = []
        self.echo = echo
        self.path = path
        self._fh: Optional[IO[str]] = open(path, "a") if path else None
        self._lock = threading.Lock()

    # -- producing ---------------------------------------------------

    def emit(self, kind: str, job_id: str, **payload: Any) -> RuntimeEvent:
        event = RuntimeEvent(kind=kind, job_id=job_id, payload=payload)
        with self._lock:
            self.events.append(event)
            if self._fh is not None:
                self._fh.write(event.to_json() + "\n")
                self._fh.flush()
        if self.echo:
            print(f"[{event.kind}] {event.job_id} "
                  + " ".join(f"{k}={v}" for k, v in payload.items()))
        return event

    def put(self, message: Dict[str, Any]) -> None:
        """Queue-style adapter: accepts the worker/callback dict schema.

        The message must carry an ``"event"`` key (the kind); a
        ``"job_id"`` key and any further keys become the event payload.
        """
        message = dict(message)
        kind = message.pop("event")
        job_id = message.pop("job_id", "?")
        self.emit(kind, job_id, **message)

    # -- querying ----------------------------------------------------
    # Queries snapshot the list under the lock: emitters append from
    # worker-drain and HTTP threads while tests/stats iterate.

    def snapshot(self) -> List[RuntimeEvent]:
        with self._lock:
            return list(self.events)

    def of_kind(self, *kinds: str) -> List[RuntimeEvent]:
        return [e for e in self.snapshot() if e.kind in kinds]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.snapshot() if e.kind == kind)

    @property
    def failures(self) -> List[RuntimeEvent]:
        return self.of_kind("failed")

    def for_job(self, job_id: str) -> List[RuntimeEvent]:
        return [e for e in self.snapshot() if e.job_id == job_id]

    # -- lifecycle ---------------------------------------------------

    def flush(self) -> None:
        """Force the JSONL mirror to disk (no-op for in-memory logs)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)


def read_event_log(path: str) -> List[RuntimeEvent]:
    """Parse a JSONL run log back into events."""
    events: List[RuntimeEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(RuntimeEvent.from_dict(json.loads(line)))
    return events
