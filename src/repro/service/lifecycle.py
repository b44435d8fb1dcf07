"""The job lifecycle loop: one policy for every executor.

:class:`Lifecycle` drives :class:`~repro.service.scheduler.Scheduler`
entries through a :class:`~repro.service.warm.WarmPool` under a
:class:`~repro.supervision.supervisor.Supervisor`.  Each
:meth:`Lifecycle.step` is one poll window:

1. *dispatch* — lease runnable entries onto idle workers (first
   attempts short-circuit through the result cache; cancel-requested
   leases resolve at once);
2. *messages* — ``_picked`` emits ``started``, ``_result`` finishes the
   attempt, loop events feed the liveness monitor and the event stream.
   A message of an earlier attempt of the same ticket (a worker that
   answered after it was given up on) is dropped;
3. *police* — cancellations, hung jobs (preempted early and resumed
   from their checkpoint), wall-clock deadlines and crashed workers,
   each with its own retry budget and jittered exponential backoff.
   Workers whose health EWMA flaps are quarantined, probed with a canary
   job and restored or replaced.

The daemon (:class:`~repro.service.daemon.PlacementService`) steps it
forever; the batch pool (:class:`~repro.runtime.pool.WorkerPool`) steps
it until its entries are terminal.  Both therefore emit one event
schema: ``started``, ``finished``, ``failed`` and ``retry`` carry the
same payload keys whichever executor ran the job.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.pipeline import FlowReport
from repro.runtime.events import EventLog
from repro.runtime.job import JobResult, PlacementJob
from repro.service.scheduler import ScheduledJob, Scheduler
from repro.service.warm import WarmPool
from repro.supervision.supervisor import Supervisor

#: Seconds one :meth:`Lifecycle.step` waits for worker messages.
POLL_SECONDS = 0.05


def backoff_delay(job_id: str, retry_number: int, base: float,
                  max_delay: Optional[float] = None) -> float:
    """Jittered exponential backoff before retry ``retry_number``.

    Deterministic in (job, retry ordinal): reruns of the same batch
    wait the same amounts, so chaos tests can assert on schedules.

    ``max_delay`` caps the result *after* jitter — without it the
    exponential grows unboundedly (retry 20 of a flapping job would
    wait days), which is exactly wrong for a job that only needs its
    worker replaced.
    """
    scaled = base * (2 ** max(0, retry_number - 1))
    jitter = random.Random(f"{job_id}:{retry_number}").uniform(0.0, 0.5)
    delay = scaled * (1.0 + jitter)
    if max_delay is not None:
        delay = min(delay, float(max_delay))
    return delay


@dataclass
class Attempt:
    """One attempt of a ticket, leased to a worker."""

    entry: ScheduledJob
    worker: int
    attempt: int
    started: float
    deadline: Optional[float]
    picked: bool = False


@dataclass
class _Budget:
    """Retry budgets a ticket has used up, across its attempts."""

    crashes: int = 0
    timeouts: int = 0
    preemptions: int = 0


class Lifecycle:
    """Dispatch, message, finish, police, preempt, retry, quarantine
    and canary policy over one warm pool.

    ``stop_when`` (a race) halts dispatch as soon as a resolved result
    satisfies it — :attr:`halted` tells the caller to cut the field.
    ``chaos_for(entry)`` is the fault harness's dispatch seam: the dict
    it returns rides the task message to the worker.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        pool: WarmPool,
        supervisor: Supervisor,
        events: EventLog,
        retry_backoff: float = 0.25,
        retry_backoff_max: float = 30.0,
        stop_when: Optional[Callable[[JobResult], bool]] = None,
        chaos_for: Optional[Callable[[ScheduledJob], Optional[dict]]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.pool = pool
        self.supervisor = supervisor
        self.events = events
        self.retry_backoff = float(retry_backoff)
        self.retry_backoff_max = float(retry_backoff_max)
        self.stop_when = stop_when
        self.chaos_for = chaos_for
        self.active: Dict[str, Attempt] = {}
        self.halted = False
        self._budgets: Dict[str, _Budget] = {}

    def step(self, dispatch: bool = True) -> None:
        """One poll window; ``dispatch=False`` only finishes and
        polices what already runs (a draining executor)."""
        if dispatch:
            self._dispatch()
        for message in self.pool.poll(POLL_SECONDS):
            self._handle_message(message)
        self._police()
        if dispatch:
            self._dispatch_probes()

    def release(self) -> List[Attempt]:
        """Stop every running attempt *without* resolving it and return
        them; the caller decides what they become (interrupted,
        cancelled, or left for journal replay)."""
        released = list(self.active.values())
        for active in released:
            self._stop(active, respawn=False)
        return released

    # -- dispatch ------------------------------------------------------

    def _dispatch(self) -> None:
        pool = self.pool
        while not self.halted and pool.idle_workers():
            entry = self.scheduler.lease(timeout=0.0)
            if entry is None:
                return
            if entry.cancel_requested:
                self.scheduler.mark_cancelled(entry)
                continue
            if entry.attempts == 1:
                hit = self.scheduler.cache_lookup(entry)
                if hit is not None:
                    self._check_stop(hit)
                    continue
            chaos = self.chaos_for(entry) if self.chaos_for else None
            worker = pool.submit(entry.ticket, entry.job,
                                 resume=entry.resume, chaos=chaos,
                                 attempt=entry.attempts)
            timeout = entry.job.timeout
            now = time.perf_counter()
            self.active[entry.ticket] = Attempt(
                entry=entry, worker=worker, attempt=entry.attempts,
                started=now, deadline=(now + timeout) if timeout else None,
            )
            self.supervisor.liveness.track(entry.ticket,
                                           entry.job.job_id, worker)

    # -- worker messages -----------------------------------------------

    def _handle_message(self, message: Dict[str, Any]) -> None:
        kind = message.get("event")
        if kind not in ("_picked", "_result"):
            self.supervisor.liveness.observe(message)
            self.events.put(message)     # loop_start / heartbeat / ...
            return
        ticket = message.get("ticket")
        if self.supervisor.canary_worker(ticket) is not None:
            if kind == "_result":
                self._resolve_canary(ticket, message)
            return
        active = self.active.get(ticket)
        if active is None or message.get("attempt") != active.attempt:
            return                       # late message of a given-up attempt
        if kind == "_picked":
            self._started(active, message)
        else:
            self._finish(active, message)

    def _started(self, active: Attempt, message: Dict[str, Any]) -> None:
        if active.picked:
            return
        active.picked = True
        entry = active.entry
        if entry.job.timeout:
            # The wall clock runs from pickup: a thread worker may still
            # be finishing an attempt the loop already gave up on.
            active.deadline = time.perf_counter() + entry.job.timeout
        self.supervisor.liveness.touch(entry.ticket)
        self.events.emit("started", entry.job.job_id,
                         pid=message.get("pid"), attempt=active.attempt,
                         resume=entry.resume, ticket=entry.ticket)

    def _finish(self, active: Attempt, message: Dict[str, Any]) -> None:
        entry = active.entry
        ticket = entry.ticket
        job = entry.job
        del self.active[ticket]
        self.supervisor.liveness.forget(ticket)
        self._note_attach(ticket, message)
        # done / cancelled / failed all mean the worker itself worked;
        # only crashes, timeouts and preemptions count against health.
        self.note_worker(active.worker, True)
        status = message.get("status")
        if status == "done":
            result = JobResult.from_dict(message["result"])
            result.x = message.get("x")
            result.y = message.get("y")
            result.attempts = active.attempt
            budget = self._budgets.pop(ticket, _Budget())
            if budget.preemptions and result.report is not None:
                for stage in result.report.stages:
                    if stage.name == "runtime":
                        stage.metrics["preemptions"] = budget.preemptions
            self.events.emit("finished", job.job_id, hpwl=result.hpwl,
                             seconds=result.seconds, attempt=active.attempt,
                             ticket=ticket,
                             kernel_seconds=_kernel_seconds(result),
                             **self._cache_counters())
            self._resolve(entry, result)
        elif status == "cancelled":
            self._budgets.pop(ticket, None)
            self.scheduler.mark_cancelled(
                entry, seconds=time.perf_counter() - active.started)
        else:
            report = message.get("report")
            self._fail(active, "error",
                       message.get("error", "worker failure"),
                       report=FlowReport.from_dict(report) if report else None)

    # -- police ----------------------------------------------------------

    def _police(self) -> None:
        """Cancellations, hangs, timeouts and crashed workers."""
        now = time.perf_counter()
        hung = {ledger.ticket for ledger in self.supervisor.liveness.hung()}
        for ticket in list(self.active):
            active = self.active.get(ticket)
            if active is None:
                continue                 # a crash drain below finished it
            entry = active.entry
            job = entry.job
            if entry.cancel_requested:
                self._stop(active)
                self._budgets.pop(ticket, None)
                self.scheduler.mark_cancelled(
                    entry, seconds=now - active.started)
            elif ticket in hung:
                # A hung worker is preempted as soon as its heartbeat
                # goes silent — strictly earlier than the wall-clock
                # deadline would catch it.
                self._preempt(active)
            elif active.deadline is not None and now > active.deadline:
                self._stop(active)
                self.note_worker(active.worker, False)
                budget = self._budgets.setdefault(ticket, _Budget())
                budget.timeouts += 1
                if budget.timeouts <= job.timeout_retries:
                    self._retry(active, "timeout")
                else:
                    self._fail(active, "timeout", (
                        f"timeout after {job.timeout:g}s (killed); "
                        f"budget exhausted ({budget.timeouts} timeout(s), "
                        f"{job.timeout_retries} retry(ies) allowed)"
                    ), status="timeout")
            elif not self.pool.worker_alive(active.worker):
                # Crashed worker: one generous drain for a result that
                # beat the crash into the queue, then retry policy.
                for message in self.pool.poll(0.2):
                    self._handle_message(message)
                if ticket not in self.active:
                    continue             # the drain finished it
                exitcode = self.pool.exitcode(active.worker)
                self._stop(active)
                self.note_worker(active.worker, False)
                budget = self._budgets.setdefault(ticket, _Budget())
                budget.crashes += 1
                if budget.crashes <= job.retries:
                    self._retry(active, "crash")
                else:
                    self._fail(active, "crash", (
                        f"worker crashed (exitcode {exitcode}); "
                        f"budget exhausted ({budget.crashes} crash(es), "
                        f"{job.retries} retry(ies) allowed)"
                    ))
        # Canary probes whose worker died mid-probe: replace outright.
        for ticket, worker in self.supervisor.outstanding_canaries().items():
            if not self.pool.worker_alive(worker):
                self._resolve_canary(ticket, {}, dead=True)

    def _preempt(self, active: Attempt) -> None:
        """Kill a hung worker early and requeue with checkpoint resume
        (or fail the job once the preemption budget is spent)."""
        entry = active.entry
        ticket = entry.ticket
        snap = self.supervisor.liveness.snapshot().get(ticket, {})
        idle = snap.get("idle_s")
        self._stop(active)
        budget = self._budgets.setdefault(ticket, _Budget())
        budget.preemptions += 1
        entry.preemptions = budget.preemptions
        self.supervisor.note_preemption()
        self.events.emit(
            "preempted", entry.job.job_id, ticket=ticket,
            worker=active.worker, attempt=active.attempt,
            idle_s=round(idle, 3) if idle is not None else None,
            iteration=snap.get("iteration", -1),
            preemptions=budget.preemptions,
        )
        self.note_worker(active.worker, False)
        config = self.supervisor.config
        if budget.preemptions <= config.preempt_retries:
            self._retry(active, "hung")
        else:
            self._fail(active, "hung", (
                f"worker hung (no progress for {config.hang_timeout:g}s); "
                f"preemption budget exhausted ({budget.preemptions} "
                f"preemption(s), {config.preempt_retries} retry(ies) "
                f"allowed)"
            ))

    def _stop(self, active: Attempt, respawn: bool = True) -> None:
        """Take an attempt off the books and kill (or cancel) its
        worker; ``respawn`` replaces the worker."""
        ticket = active.entry.ticket
        self.active.pop(ticket, None)
        self.supervisor.liveness.forget(ticket)
        self.pool.kill_worker(active.worker, respawn=respawn)
        self.pool.consume_manifest_flag(ticket)

    def _retry(self, active: Attempt, reason: str) -> None:
        entry = active.entry
        budget = self._budgets[entry.ticket]
        delay = backoff_delay(entry.job.job_id, active.attempt,
                              self.retry_backoff,
                              max_delay=self.retry_backoff_max)
        self.events.emit(
            "retry", entry.job.job_id, reason=reason,
            attempt=active.attempt + 1, backoff=round(delay, 4),
            max_backoff=self.retry_backoff_max,
            resume=self.pool.checkpoint_dir is not None,
            crashes=budget.crashes, timeouts=budget.timeouts,
            ticket=entry.ticket,
        )
        self.scheduler.requeue(entry, delay=delay, resume=True)

    def _fail(self, active: Attempt, reason: str, error: str,
              status: str = "failed",
              report: Optional[FlowReport] = None) -> None:
        entry = active.entry
        job = entry.job
        budget = self._budgets.pop(entry.ticket, _Budget())
        self.events.emit("failed", job.job_id, reason=reason, error=error,
                         attempt=active.attempt, ticket=entry.ticket,
                         crashes=budget.crashes, timeouts=budget.timeouts,
                         preemptions=budget.preemptions)
        self._resolve(entry, JobResult(
            job_id=job.job_id, status=status, seed=job.effective_seed(),
            seconds=time.perf_counter() - active.started, error=error,
            attempts=active.attempt, report=report,
        ))

    def _resolve(self, entry: ScheduledJob, result: JobResult) -> None:
        self.scheduler.finish(entry, result)
        self._check_stop(result)

    def _check_stop(self, result: JobResult) -> None:
        if self.stop_when is not None and self.stop_when(result):
            self.halted = True

    # -- supervision -----------------------------------------------------

    def note_worker(self, worker: int, ok: bool) -> None:
        """Fold one worker outcome into its health EWMA; quarantine on
        flapping (two consecutive failures at the default alpha)."""
        if self.supervisor.note_outcome(worker, ok):
            self.pool.quarantine(worker)
            self.supervisor.begin_quarantine(worker)

    def _note_attach(self, ticket: str, message: Dict[str, Any]) -> None:
        """Design-store breaker feedback: a cold load despite a shm
        manifest means the worker failed to attach (unlinked segment).
        """
        sent = self.pool.consume_manifest_flag(ticket)
        report = message.get("report") or (
            message.get("result", {}) or {}).get("report")
        warm = None
        if isinstance(report, dict):
            for stage in report.get("stages", []):
                if stage.get("name") == "runtime":
                    warm = stage.get("metrics", {}).get("warm")
        breaker = self.supervisor.breakers["design-store"]
        if sent and warm == "cold":
            breaker.record_failure()
        elif warm in ("attached", "resident"):
            breaker.record_success()

    def _canary_job(self, worker: int) -> PlacementJob:
        """A tiny deterministic probe job for a quarantined worker."""
        return PlacementJob(
            design="fft_1", cells=48, seed=1 + worker,
            params={"max_iterations": 4, "min_iterations": 2},
            tag="canary",
        )

    def _resolve_canary(self, ticket: str, message: Dict[str, Any],
                        dead: bool = False) -> None:
        """Judge a canary probe: restore the worker or replace it."""
        worker = self.supervisor.canary_worker(ticket)
        if worker is None:
            return
        self.pool.consume_manifest_flag(ticket)
        healthy = (not dead) and message.get("status") == "done"
        if not healthy:
            self.pool.kill_worker(worker, respawn=True)
        self.pool.unquarantine(worker)
        self.supervisor.end_quarantine(ticket, worker, healthy)

    def _dispatch_probes(self) -> None:
        """Send canary probes to quarantined workers whose cool-down
        elapsed.  A dead quarantined worker skips the probe and goes
        straight to replacement."""
        pool = self.pool
        for worker in self.supervisor.probe_due():
            if not pool.worker_alive(worker):
                pool.kill_worker(worker, respawn=True)
                pool.unquarantine(worker)
                self.supervisor.end_quarantine(None, worker, healthy=False)
                continue
            if pool.worker_busy(worker) is not None:
                continue                 # probe next sweep
            ordinal = self.supervisor.next_canary_ordinal()
            ticket = f"canary:{worker}:{ordinal}"
            self.supervisor.begin_probe(ticket, worker)
            pool.submit(ticket, self._canary_job(worker), worker_id=worker)

    def _cache_counters(self) -> Dict[str, Optional[int]]:
        """Cache hit/miss/eviction counters for ``finished`` events
        (``None`` when the scheduler runs uncached)."""
        cache = self.scheduler.cache
        return {name: getattr(cache, attr, None) for name, attr in (
            ("cache_hits", "hits"), ("cache_misses", "misses"),
            ("cache_evictions", "evictions"))}


def _kernel_seconds(result: JobResult) -> Optional[float]:
    """Total in-kernel wall time from the job's runtime stage metrics.

    ``None`` when the worker ran without a timed profiler — the event
    payload stays honest instead of reporting 0.0 for "not measured".
    """
    if result.report is None:
        return None
    for stage in result.report.stages:
        if stage.name == "runtime":
            value = stage.metrics.get("kernel_seconds_total")
            return float(value) if value is not None else None
    return None
