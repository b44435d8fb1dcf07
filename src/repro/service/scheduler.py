"""The scheduler core: job lifecycle management for every executor.

This module owns what :class:`~repro.runtime.pool.WorkerPool` used to
mix in with process management — which job runs next, and what state
each job is in.  Executors (the batch pool, the daemon's warm pool)
*lease* runnable entries, run them however they like, and report the
outcome back; everything queue-shaped lives here:

* a priority queue (higher ``priority`` first, FIFO within a priority,
  retries jump to the front like the old pool's ``pending.insert(0)``),
* per-tenant quotas on concurrently *running* jobs,
* job states: ``queued → running → done | failed | cancelled``,
* cancellation (immediate for queued entries, a cooperative flag the
  executor observes for running ones),
* backoff gates (``not_before``) for retry scheduling, and
* dedupe — against the content-addressed
  :class:`~repro.runtime.cache.ResultCache` via :meth:`cache_lookup`,
  and against identical in-flight submissions (same
  :meth:`~repro.runtime.job.PlacementJob.content_hash`): a duplicate
  submit becomes a *follower* that resolves with the leader's result
  without running anything.

The scheduler emits the queue-side runtime events (``queued``,
``cached``, ``cache-evicted``, ``deduped``, ``cancelled``); executors
emit the execution-side ones (``started``, ``finished``, ``failed``,
``retry``, ``interrupted``) so event payloads stay exactly what the
batch runtime produced before the split.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.runtime.events import EventLog
from repro.runtime.job import JobResult, PlacementJob

#: The five job states of the service layer.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED))


class QueueFull(RuntimeError):
    """A tenant's submit was rejected: its queued backlog is at the cap.

    ``retry_after`` is a best-effort hint (seconds) derived from recent
    job durations — the HTTP layer surfaces it as a ``Retry-After``
    header with a 429 status.
    """

    def __init__(self, tenant: str, depth: int, limit: int,
                 retry_after: float) -> None:
        super().__init__(
            f"queue full for tenant {tenant!r}: {depth} queued >= "
            f"limit {limit}"
        )
        self.tenant = tenant
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after

#: JobResult.status → terminal scheduler state.
_STATUS_STATE = {
    "done": DONE,
    "failed": FAILED,
    "timeout": FAILED,
    "cancelled": CANCELLED,
    "interrupted": FAILED,
}


@dataclass
class ScheduledJob:
    """One submission's lifecycle record (the scheduler's unit of work).

    A *ticket* identifies the submission (two submissions of the same
    spec get two tickets but may share one execution via dedupe);
    ``job.job_id`` identifies the content.  ``not_before`` gates
    leasing (retry backoff); ``resume`` tells the executor to start the
    attempt from the job's spilled checkpoint.  ``cancel_requested``
    is the cooperative cancel flag for running entries — the executor
    that holds the lease observes it and calls :meth:`Scheduler.finish`
    with a cancelled result.
    """

    ticket: str
    job: PlacementJob
    priority: int = 0
    tenant: str = "default"
    group: Optional[str] = None          # cohort label (cancel_group)
    state: str = QUEUED
    attempts: int = 0
    submitted_ts: float = field(default_factory=time.time)
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    not_before: float = 0.0              # perf_counter gate for leasing
    resume: bool = False
    preemptions: int = 0                 # hung-worker early kills
    cancel_requested: bool = False
    deduped_onto: Optional[str] = None   # leader ticket, for followers
    result: Optional[JobResult] = None
    queued_counted: bool = field(default=False, repr=False)  # depth flag

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, with_report: bool = False) -> Dict[str, Any]:
        """JSON view for the HTTP API and the journal."""
        data: Dict[str, Any] = {
            "ticket": self.ticket,
            "job_id": self.job.job_id,
            "content_hash": self.job.content_hash(),
            "state": self.state,
            "terminal": self.terminal,
            "priority": self.priority,
            "tenant": self.tenant,
            "group": self.group,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "cancel_requested": self.cancel_requested,
            "deduped_onto": self.deduped_onto,
        }
        if self.result is not None:
            data["result"] = {
                "status": self.result.status,
                "hpwl": self.result.hpwl,
                "seconds": self.result.seconds,
                "cached": self.result.cached,
                "attempts": self.result.attempts,
                "error": self.result.error,
            }
            if with_report and self.result.report is not None:
                data["result"]["report"] = self.result.report.to_dict()
        return data


class Scheduler:
    """Async-friendly job queue + lifecycle tracker.

    Thread-safe: submitters, executors and HTTP handlers may call in
    concurrently; :meth:`lease` and :meth:`wait` block on an internal
    condition.  Listeners (:meth:`add_listener`) are called, outside the
    lock, after every submission and cancellation: an executor that
    blocks elsewhere (the warm pool's poll) wakes up through them.
    ``quotas`` maps tenant → max concurrently running entries
    (``default_quota`` applies to unlisted tenants; ``None`` means
    unbounded).  ``dedupe=False`` (the batch pool) disables
    in-flight coalescing so a manifest behaves exactly as before the
    layer split; the cache path is always available but only consulted
    when an executor calls :meth:`cache_lookup`.
    """

    def __init__(
        self,
        cache=None,
        events: Optional[EventLog] = None,
        quotas: Optional[Dict[str, int]] = None,
        default_quota: Optional[int] = None,
        dedupe: bool = True,
        max_queue_depth: Optional[int] = None,
        queue_limits: Optional[Dict[str, int]] = None,
    ) -> None:
        self.cache = cache
        self.events = events if events is not None else EventLog()
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self.dedupe = dedupe
        self.max_queue_depth = max_queue_depth
        self.queue_limits = dict(queue_limits or {})
        self._cond = threading.Condition()
        self._entries: Dict[str, ScheduledJob] = {}
        self._order: List[str] = []          # submission order (results)
        self._heap: List[tuple] = []         # (-priority, seq, ticket)
        self._seq = itertools.count(1)
        self._front = itertools.count(0, -1)  # retries jump the queue
        self._running_per_tenant: Dict[str, int] = {}
        self._queued_per_tenant: Dict[str, int] = {}
        self._recent_seconds: List[float] = []  # retry_after estimator
        self._inflight: Dict[str, str] = {}  # content_hash → leader ticket
        self._followers: Dict[str, List[ScheduledJob]] = {}  # by leader
        self._newly_terminal: List[ScheduledJob] = []  # see take_terminal
        self._listeners: List[Callable[[], None]] = []
        self._ticket_seq = itertools.count(1)
        self._closed = False

    # -- submission ---------------------------------------------------

    def submit(
        self,
        job: PlacementJob,
        priority: int = 0,
        tenant: str = "default",
        ticket: Optional[str] = None,
        resume: bool = False,
        group: Optional[str] = None,
        enforce_limit: bool = True,
        notify: bool = True,
    ) -> ScheduledJob:
        """Queue one job; returns its lifecycle entry.

        Emits ``queued``.  With dedupe on, a submission whose content
        hash is already in flight becomes a follower of the in-flight
        leader (emits ``deduped``) and never reaches the queue.

        ``group`` labels the entry for :meth:`cancel_group` (cohort
        cancellation).  When a queue-depth limit applies to the tenant
        (``queue_limits``/``max_queue_depth``) and its queued backlog is
        at the cap, raises :class:`QueueFull` — dedupe followers are
        exempt (they cost nothing to queue), as are internal requeues
        (retries must never be dropped by backpressure) and
        ``enforce_limit=False`` submissions (journal replay: already-
        accepted work must not be dropped on restart).

        ``notify=False`` leaves the listeners to a later :meth:`notify`,
        so the caller can record the entry as accepted before an
        executor leases it.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if ticket is None:
                ticket = f"t{next(self._ticket_seq):04d}-" \
                         f"{job.content_hash()[:8]}"
            if ticket in self._entries:
                raise ValueError(f"duplicate ticket {ticket!r}")
            key = job.content_hash()
            leader = self._inflight.get(key) if self.dedupe else None
            is_follower = (leader is not None
                           and not self._entries[leader].terminal)
            if not is_follower and enforce_limit:
                limit = self.queue_limits.get(tenant, self.max_queue_depth)
                depth = self._queued_per_tenant.get(tenant, 0)
                if limit is not None and depth >= limit:
                    raise QueueFull(tenant, depth, limit,
                                    self._retry_after_hint())
            entry = ScheduledJob(ticket=ticket, job=job, priority=priority,
                                 tenant=tenant, group=group, resume=resume)
            self._entries[ticket] = entry
            self._order.append(ticket)
            self.events.emit("queued", job.job_id,
                             seed=job.effective_seed(), placer=job.placer)
            if is_follower:
                entry.deduped_onto = leader
                self._followers.setdefault(leader, []).append(entry)
                self.events.emit("deduped", job.job_id, ticket=ticket,
                                 leader=leader, key=key)
            else:
                self._inflight[key] = ticket
                heapq.heappush(self._heap,
                               (-priority, next(self._seq), ticket))
                self._count_queued(entry)
            self._cond.notify_all()
        if notify:
            self.notify()
        return entry

    def add_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` after every submission and cancellation."""
        with self._cond:
            self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[], None]) -> None:
        with self._cond:
            self._listeners.remove(listener)

    def notify(self) -> None:
        """Call every listener (outside the lock)."""
        with self._cond:
            listeners = list(self._listeners)
        for listener in listeners:
            listener()

    def _count_queued(self, entry: ScheduledJob) -> None:
        entry.queued_counted = True
        self._queued_per_tenant[entry.tenant] = (
            self._queued_per_tenant.get(entry.tenant, 0) + 1
        )

    def _uncount_queued(self, entry: ScheduledJob) -> None:
        if not entry.queued_counted:
            return
        entry.queued_counted = False
        count = self._queued_per_tenant.get(entry.tenant, 0) - 1
        if count > 0:
            self._queued_per_tenant[entry.tenant] = count
        else:
            self._queued_per_tenant.pop(entry.tenant, None)

    def _retry_after_hint(self) -> float:
        """Seconds until a queue slot plausibly frees up."""
        if not self._recent_seconds:
            return 5.0
        mean = sum(self._recent_seconds) / len(self._recent_seconds)
        return max(1.0, round(mean, 1))

    # -- executor side ------------------------------------------------

    def lease(self, timeout: Optional[float] = 0.0) -> Optional[ScheduledJob]:
        """Claim the next runnable entry, or None.

        Runnable = queued, past its ``not_before`` gate, tenant under
        quota, not a dedupe follower, not cancel-requested.  ``timeout``
        is how long to block waiting for one (0 = poll, None = forever
        — returns None once the scheduler is closed and drained).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                entry = self._pop_runnable()
                if entry is not None:
                    self._uncount_queued(entry)
                    entry.state = RUNNING
                    entry.attempts += 1
                    entry.started_ts = entry.started_ts or time.time()
                    tenant = entry.tenant
                    self._running_per_tenant[tenant] = (
                        self._running_per_tenant.get(tenant, 0) + 1
                    )
                    return entry
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait(timeout=0.1)
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(timeout=min(remaining, 0.1))

    def _pop_runnable(self) -> Optional[ScheduledJob]:
        """Highest-priority runnable entry; skipped entries stay queued."""
        now = time.perf_counter()
        skipped: List[tuple] = []
        found = None
        while self._heap:
            item = heapq.heappop(self._heap)
            entry = self._entries.get(item[2])
            if entry is None or entry.state != QUEUED:
                continue                      # cancelled / resolved entry
            if entry.not_before > now or self._at_quota(entry.tenant):
                skipped.append(item)
                continue
            found = entry
            break
        for item in skipped:
            heapq.heappush(self._heap, item)
        return found

    def _at_quota(self, tenant: str) -> bool:
        quota = self.quotas.get(tenant, self.default_quota)
        if quota is None:
            return False
        return self._running_per_tenant.get(tenant, 0) >= quota

    def cache_lookup(self, entry: ScheduledJob) -> Optional[JobResult]:
        """Short-circuit a leased entry through the result cache.

        Called by executors at dispatch time (first attempt only, like
        the pre-split pool).  On a hit the entry resolves ``done`` with
        the cached result and ``cached``/``cache-evicted`` events fire;
        on a miss the executor proceeds to run the lease.
        """
        if self.cache is None:
            return None
        job = entry.job
        hit = self.cache.get(
            job,
            on_evict=lambda key, reason: self.events.emit(
                "cache-evicted", job.job_id, key=key, reason=reason
            ),
        )
        if hit is not None:
            self.events.emit("cached", job.job_id, hpwl=hit.hpwl,
                             key=job.content_hash())
            self.finish(entry, hit, store=False)
        return hit

    def finish(self, entry: ScheduledJob, result: JobResult,
               store: bool = True) -> None:
        """Resolve an entry with its terminal result.

        ``result.status`` maps to the terminal state (``timeout`` and
        ``interrupted`` count as failed).  Successful fresh results are
        stored in the cache when ``store``; followers deduped onto this
        entry resolve with the same result.
        """
        if store and result.ok and not result.cached \
                and self.cache is not None:
            self.cache.put(entry.job, result)
        with self._cond:
            self._resolve(entry, result)
            self._cond.notify_all()

    def requeue(self, entry: ScheduledJob, delay: float = 0.0,
                resume: bool = True) -> None:
        """Put a running entry back in the queue (retry with backoff).

        The entry re-enters at the *front* of its priority class —
        matching the old pool's retry-first dispatch — gated by
        ``not_before = now + delay``.
        """
        with self._cond:
            self._release_running(entry)
            entry.state = QUEUED
            entry.not_before = time.perf_counter() + max(0.0, delay)
            entry.resume = resume
            heapq.heappush(self._heap,
                           (-entry.priority, next(self._front), entry.ticket))
            self._count_queued(entry)
            self._cond.notify_all()

    # -- cancellation -------------------------------------------------

    def cancel(self, ticket: str,
               reason: str = "cancelled by request") -> Optional[str]:
        """Cancel a submission.

        Returns ``"cancelled"`` (it was queued: resolved immediately),
        ``"requested"`` (it is running: the executor holding the lease
        must observe ``cancel_requested`` and finish it), or ``None``
        (unknown ticket or already terminal).
        """
        with self._cond:
            entry = self._entries.get(ticket)
            if entry is None or entry.terminal:
                return None
            if entry.state == QUEUED:
                self._resolve(entry, cancelled_result(entry.job, reason))
                self.events.emit("cancelled", entry.job.job_id)
                outcome = "cancelled"
            else:
                entry.cancel_requested = True
                outcome = "requested"
            self._cond.notify_all()
        self.notify()
        return outcome

    def cancel_group(self, group: str,
                     reason: str = "group cancelled") -> Dict[str, int]:
        """Cancel every non-terminal entry labelled ``group``.

        Queued entries resolve immediately; running ones get the
        cooperative ``cancel_requested`` flag (their executor finishes
        them).  Returns ``{"cancelled": n, "requested": m}``.
        """
        counts = {"cancelled": 0, "requested": 0}
        with self._cond:
            for ticket in self._order:
                entry = self._entries[ticket]
                if entry.group != group or entry.terminal:
                    continue
                if entry.state == QUEUED:
                    self._resolve(entry, cancelled_result(entry.job, reason))
                    self.events.emit("cancelled", entry.job.job_id)
                    counts["cancelled"] += 1
                else:
                    entry.cancel_requested = True
                    counts["requested"] += 1
            self._cond.notify_all()
        self.notify()
        return counts

    def mark_cancelled(self, entry: ScheduledJob,
                       reason: str = "cancelled by request",
                       emit: bool = True,
                       seconds: float = 0.0) -> None:
        """Resolve a (terminated) running entry as cancelled.

        ``seconds`` records the partial runtime the cancelled attempt
        consumed before it was stopped — the batch summary counts it as
        *reclaimed* core-seconds (what running to completion would have
        wasted).
        """
        with self._cond:
            if entry.terminal:
                return
            self._resolve(entry,
                          cancelled_result(entry.job, reason, seconds))
            if emit:
                self.events.emit("cancelled", entry.job.job_id)
            self._cond.notify_all()

    # -- bookkeeping --------------------------------------------------

    def _release_running(self, entry: ScheduledJob) -> None:
        if entry.state == RUNNING:
            tenant = entry.tenant
            count = self._running_per_tenant.get(tenant, 0) - 1
            if count > 0:
                self._running_per_tenant[tenant] = count
            else:
                self._running_per_tenant.pop(tenant, None)

    def _resolve(self, entry: ScheduledJob, result: JobResult) -> None:
        """Terminal transition + follower fan-out (lock held)."""
        self._release_running(entry)
        self._uncount_queued(entry)
        if result.status == "done" and result.seconds > 0 \
                and not result.cached:
            self._recent_seconds.append(result.seconds)
            del self._recent_seconds[:-32]
        if not entry.terminal:
            self._newly_terminal.append(entry)
        entry.result = result
        entry.state = _STATUS_STATE.get(result.status, FAILED)
        entry.finished_ts = time.time()
        key = entry.job.content_hash()
        if self._inflight.get(key) == entry.ticket:
            del self._inflight[key]
        for other in self._followers.pop(entry.ticket, ()):
            if not other.terminal:
                self._newly_terminal.append(other)
                other.result = result
                other.state = entry.state
                other.finished_ts = entry.finished_ts

    def take_terminal(self) -> List[ScheduledJob]:
        """The entries that turned terminal since the last call, in the
        order they did (followers included)."""
        with self._cond:
            taken, self._newly_terminal = self._newly_terminal, []
            return taken

    # -- querying -----------------------------------------------------

    def get(self, ticket: str) -> Optional[ScheduledJob]:
        with self._cond:
            return self._entries.get(ticket)

    def entries(self) -> List[ScheduledJob]:
        """All entries, in submission order."""
        with self._cond:
            return [self._entries[t] for t in self._order]

    def results(self) -> List[Optional[JobResult]]:
        """Results aligned with submission order (None = unresolved)."""
        with self._cond:
            return [self._entries[t].result for t in self._order]

    def pending(self) -> List[ScheduledJob]:
        """Non-terminal entries, in submission order."""
        with self._cond:
            return [self._entries[t] for t in self._order
                    if not self._entries[t].terminal]

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            by_state: Dict[str, int] = {state: 0 for state in JOB_STATES}
            for entry in self._entries.values():
                by_state[entry.state] += 1
            return {
                "jobs": len(self._entries),
                "states": by_state,
                "running_per_tenant": dict(self._running_per_tenant),
                "queue_depth": by_state[QUEUED],
                "queued_per_tenant": dict(self._queued_per_tenant),
                "queue_limits": {
                    "default": self.max_queue_depth,
                    **self.queue_limits,
                },
            }

    def wait(self, tickets: Optional[List[str]] = None,
             timeout: Optional[float] = None) -> bool:
        """Block until the given tickets (default: all) are terminal."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                watch = tickets if tickets is not None else list(self._order)
                if all(self._entries[t].terminal for t in watch
                       if t in self._entries):
                    return True
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._cond.wait(timeout=min(remaining, 0.1))
                else:
                    self._cond.wait(timeout=0.1)

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Stop accepting submissions and wake every blocked lease."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed


def cancelled_result(job: PlacementJob,
                     reason: str = "cancelled by request",
                     seconds: float = 0.0) -> JobResult:
    """The terminal result of a job that never (fully) ran.

    ``seconds`` is the partial runtime a terminated attempt consumed —
    zero for jobs cancelled while still queued.
    """
    return JobResult(
        job_id=job.job_id,
        status="cancelled",
        seed=job.effective_seed(),
        seconds=seconds,
        error=f"cancelled: {reason}",
        attempts=0,
    )


def interrupted_result(job: PlacementJob, resumable: bool,
                       seconds: float = 0.0,
                       attempts: int = 0) -> JobResult:
    """The terminal result of a job stopped by a shutdown signal."""
    hint = ("resumable from checkpoint" if resumable
            else "not resumable (no checkpoint dir)")
    return JobResult(
        job_id=job.job_id,
        status="interrupted",
        seed=job.effective_seed(),
        seconds=seconds,
        error=f"interrupted: shutdown requested — {hint}",
        attempts=attempts,
    )
