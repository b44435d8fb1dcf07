"""The batch executor: a job list run to completion on warm workers.

A :class:`WorkerPool` is the *batch face* of the one executor the
service layer owns.  Job lifecycle (who runs next, states,
cancellation, retry queues) lives in the
:class:`~repro.service.scheduler.Scheduler` core; the execution policy
(dispatch, per-job wall-clock deadlines, crash/timeout retries up to
``job.retries`` / ``job.timeout_retries`` with jittered exponential
backoff and checkpoint resume, hang preemption, worker quarantine with
canary probes) lives in :class:`~repro.service.lifecycle.Lifecycle`,
the same loop the ``repro serve`` daemon runs; the transport is a
:class:`~repro.service.warm.WarmPool`, whose workers keep designs
resident and attach them through shared memory.  :meth:`WorkerPool.execute`
spawns its workers when it starts, steps the lifecycle until its entries
are terminal and shuts the workers down before it returns — no process
outlives the call.

Thread mode: with ``max_workers=1``, or on platforms where neither
``fork`` nor ``spawn`` contexts are available, the job runs on a single
worker *thread* of this process.  Deadlines are still enforced by the
lifecycle's clock, but a thread cannot be killed: the stop is
cooperative, raised from the GP loop's iteration-callback seam (a stage
that never yields to that seam cannot be preempted without a process
boundary — the documented trade-off).

``stop_when`` turns the pool into a race: the first resolved result
satisfying the predicate cancels every pending and running job (used by
:func:`repro.runtime.race.race_seeds` in first-past-the-post mode).

Graceful shutdown: during :meth:`WorkerPool.run` the pool traps
SIGINT/SIGTERM (main thread only).  On a signal it stops dispatching,
gives in-flight jobs ``drain_grace`` seconds to finish, stops the
stragglers, marks every undrained job ``interrupted`` (resumable from
its spilled checkpoint when a ``checkpoint_dir`` is armed — a rerun
with ``resume=True`` picks it up mid-run), flushes the JSONL event
stream and returns.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
from typing import Any, Callable, List, Optional

from repro.runtime.events import EventLog
from repro.runtime.job import JobResult, PlacementJob
from repro.service.lifecycle import Lifecycle, backoff_delay
from repro.service.scheduler import Scheduler, interrupted_result
from repro.service.warm import JobInterruptedError, WarmPool, _resolve_context
from repro.supervision.supervisor import SupervisionConfig, Supervisor

__all__ = ["JobInterruptedError", "WorkerPool", "backoff_delay"]

StopPredicate = Callable[[JobResult], bool]

#: Reason string used when a race winner cancels the remaining field.
_RACE_DECIDED = "race already decided"


class WorkerPool:
    """Executes placement jobs on warm worker processes (or a thread).

    Parameters
    ----------
    max_workers : parallel worker processes; ``1`` selects thread mode.
    start_method : ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default
        prefers ``fork`` (cheap on Linux), falling back to ``spawn``,
        falling back to thread mode when neither exists.
    cache : optional :class:`ResultCache` consulted before dispatch and
        updated with every finished result (via the scheduler).
    heartbeat_every : GP iterations between heartbeat events.
    checkpoint_dir : spill root for GP-loop checkpoints; arms recovery
        in every job and lets crash/timeout/hang retries (and
        ``resume=True`` reruns) pick runs up from their last checkpoint.
    resume : start even *first* attempts with ``resume`` semantics —
        the ``repro batch --resume`` path after a killed batch.
    retry_backoff : base seconds of the jittered exponential backoff
        between retry attempts (attempt n waits
        ``retry_backoff · 2^(n−1) · (1 + jitter)``, jitter ∈ [0, 0.5)
        deterministic per (job, n)).
    retry_backoff_max : ceiling on any single computed backoff delay —
        the exponential stops growing here instead of unboundedly.
        Every ``retry`` event carries the computed ``backoff`` and the
        ``attempt`` ordinal it gates.
    drain_grace : seconds in-flight jobs get to finish after a
        SIGINT/SIGTERM before they are stopped and marked
        ``interrupted``.
    """

    def __init__(
        self,
        max_workers: int = 1,
        start_method: Optional[str] = None,
        cache=None,
        heartbeat_every: int = 25,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        retry_backoff: float = 0.25,
        retry_backoff_max: float = 30.0,
        drain_grace: float = 5.0,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.start_method = start_method
        self.cache = cache
        self.heartbeat_every = heartbeat_every
        self.checkpoint_dir = checkpoint_dir
        self.resume = bool(resume)
        self.retry_backoff = float(retry_backoff)
        self.retry_backoff_max = float(retry_backoff_max)
        self.drain_grace = float(drain_grace)
        self._shutdown = False
        self._mp_context = None
        if self.max_workers > 1:
            self._mp_context = _resolve_context(start_method)

    @property
    def inline(self) -> bool:
        """True when jobs run on one worker thread of this process."""
        return self._mp_context is None

    # -- shutdown signalling -----------------------------------------

    def request_shutdown(self) -> None:
        """Ask a running :meth:`run` to drain and stop (signal-safe)."""
        self._shutdown = True

    def _install_signal_handlers(self):
        """Trap SIGINT/SIGTERM for the duration of a run (main thread
        only — executors driven from daemon threads keep the process
        handlers and use :meth:`request_shutdown` instead)."""
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}
        def handler(signum, frame):  # noqa: ARG001 — signal signature
            self._shutdown = True
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(ValueError, OSError):  # platform-dependent
                previous[sig] = signal.signal(sig, handler)
        return previous

    @staticmethod
    def _restore_signal_handlers(previous) -> None:
        for sig, old in (previous or {}).items():
            with contextlib.suppress(ValueError, OSError):  # platform-dependent
                signal.signal(sig, old)

    # -- public API --------------------------------------------------

    def run(
        self,
        jobs: List[PlacementJob],
        events: Optional[EventLog] = None,
        stop_when: Optional[StopPredicate] = None,
    ) -> List[JobResult]:
        """Run all jobs; returns results in submission order."""
        jobs = list(jobs)
        events = events if events is not None else EventLog()
        # Dedupe stays off for batch parity: a manifest that lists the
        # same spec twice runs it twice (modulo the result cache).
        scheduler = Scheduler(cache=self.cache, events=events, dedupe=False)
        entries = [scheduler.submit(job, resume=self.resume) for job in jobs]
        try:
            self.execute(scheduler, entries, events, stop_when)
        finally:
            scheduler.close()
        return [entry.result for entry in entries]

    def execute(
        self,
        scheduler,
        entries: List[Any],
        events: Optional[EventLog] = None,
        stop_when: Optional[StopPredicate] = None,
    ) -> List[JobResult]:
        """Execute already-submitted scheduler entries to completion.

        The caller owns the scheduler — it is *not* closed here, so a
        long-lived scheduler (the exploration controller runs one per
        cohort) can dispatch successive waves of entries through the
        same pool.  Returns the entries' results in order.
        """
        events = events if events is not None else scheduler.events
        self._shutdown = False
        previous = self._install_signal_handlers()
        workers = None
        try:
            workers = WarmPool(
                workers=1 if self.inline else self.max_workers,
                start_method="thread" if self.inline else self.start_method,
                heartbeat_every=self.heartbeat_every,
                checkpoint_dir=self.checkpoint_dir,
            )
            supervisor = Supervisor(SupervisionConfig(),
                                    on_event=events.emit)
            if workers.store is not None:
                workers.store_guard = supervisor.breakers["design-store"]
            lifecycle = Lifecycle(
                scheduler, workers, supervisor, events,
                retry_backoff=self.retry_backoff,
                retry_backoff_max=self.retry_backoff_max,
                stop_when=stop_when,
            )
            while not all(entry.terminal for entry in entries):
                if self._shutdown:
                    self._drain(lifecycle, scheduler, events)
                    break
                lifecycle.step()
                if lifecycle.halted:
                    self._cut_race(lifecycle, scheduler)
                    break
        finally:
            if workers is not None:
                workers.shutdown()
            self._restore_signal_handlers(previous)
        return [entry.result for entry in entries]

    # -- race cut / shutdown drain ------------------------------------

    def _cut_race(self, lifecycle: Lifecycle, scheduler) -> None:
        """A result satisfied ``stop_when``: cancel the running field
        and everything still queued."""
        now = time.perf_counter()
        for active in lifecycle.release():
            # The loser's partial runtime is what first-past-the-post
            # *reclaimed* — the batch summary adds these up as saved
            # core-seconds.
            scheduler.mark_cancelled(active.entry, reason=_RACE_DECIDED,
                                     seconds=now - active.started)
        self._cancel_pending(scheduler)

    def _drain(self, lifecycle: Lifecycle, scheduler,
               events: EventLog) -> None:
        """SIGINT/SIGTERM path: drain in-flight jobs for ``drain_grace``
        seconds, stop the stragglers, mark everything undrained
        ``interrupted`` (resumable when checkpoints are armed), flush
        the event stream."""
        deadline = time.perf_counter() + self.drain_grace
        while lifecycle.active and time.perf_counter() < deadline:
            lifecycle.step(dispatch=False)
        resumable = self.checkpoint_dir is not None
        now = time.perf_counter()
        for active in lifecycle.release():
            job = active.entry.job
            events.emit("interrupted", job.job_id, ticket=active.entry.ticket,
                        attempt=active.attempt, resumable=resumable)
            scheduler.finish(active.entry, interrupted_result(
                job, resumable, seconds=now - active.started,
                attempts=active.attempt))
        self._interrupt_pending(scheduler, events)

    def _cancel_pending(self, scheduler) -> None:
        """Cancel every still-queued entry (race decided / stop)."""
        for entry in scheduler.pending():
            if entry.state == "queued":
                scheduler.cancel(entry.ticket, reason=_RACE_DECIDED)
            else:
                scheduler.mark_cancelled(entry, reason=_RACE_DECIDED)

    def _interrupt_pending(self, scheduler, events: EventLog) -> None:
        """Mark every unresolved entry interrupted (never dispatched,
        or backing off before a retry)."""
        resumable = self.checkpoint_dir is not None
        for entry in scheduler.pending():
            events.emit("interrupted", entry.job.job_id,
                        resumable=resumable, pending=True)
            scheduler.finish(entry, interrupted_result(
                entry.job, resumable, attempts=entry.attempts))
        events.flush()
