"""Fault injectors: turn a :class:`~repro.faults.plan.FaultPlan` into
actual failures at the seams the real system fails through.

Loop faults ride the :class:`~repro.core.callbacks.IterationCallback`
protocol (:class:`FaultCallback`), so they hit exactly the surface a
real NaN, hang or crash would — no special hooks inside the engine.
``crash-on-attach`` fires earlier, at pickup (:func:`crash_on_attach`).
Cache corruption (:func:`corrupt_cache_entry`) writes garbage over a
stored entry the way a torn disk write would.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional

from repro.analysis.sanitizer import NumericalFault
from repro.core.callbacks import IterationCallback
from repro.faults.plan import FaultPlan, FaultSpec


class InjectedFault(RuntimeError):
    """An injected failure that must *not* be self-healed.

    Deliberately not a :class:`NumericalFault` subclass: the recovery
    controller lets it propagate, so ``abort`` faults kill the run the
    way an external SIGKILL would — leaving any on-disk checkpoint
    behind for a resume test to pick up.
    """


class FaultCallback(IterationCallback):
    """Fires a plan's loop faults at their pinned iterations.

    Each spec fires at most once per callback instance (one instance
    per process/attempt), so a ``nan-grad`` answered by a rollback does
    not re-fire when the loop replays its iteration — one fault, one
    recovery, exactly as a transient numerical glitch behaves.

    ``hard_exit`` selects the worker-process behaviour for ``crash``
    (``os._exit``); inline runs raise :class:`InjectedFault` instead so
    the test process survives.  ``resumed`` marks a run restored from a
    checkpoint: crash faults are skipped then, because the crash
    "already happened" to the previous attempt — without this a
    crash-retry would die at the same iteration forever.
    """

    def __init__(
        self,
        specs: List[FaultSpec],
        hard_exit: bool = False,
        resumed: bool = False,
    ) -> None:
        self.specs = list(specs)
        self.hard_exit = hard_exit
        self.resumed = resumed
        self.fired: List[FaultSpec] = []
        self._armed = set(range(len(self.specs)))

    def on_iteration(self, record) -> None:
        for index in sorted(self._armed):
            spec = self.specs[index]
            if record.iteration != spec.iteration:
                continue
            if spec.kind in ("crash", "hang") and self.resumed:
                continue  # the previous attempt already took this hit
            self._armed.discard(index)
            self.fired.append(spec)
            self._fire(spec, record.iteration)

    def _fire(self, spec: FaultSpec, iteration: int) -> None:
        if spec.kind in ("slow", "hang"):
            # Both hold the GP loop mid-iteration; "hang" is typically
            # sized past the liveness timeout so the supervisor must
            # preempt, while "slow" stays under it (deadline territory).
            time.sleep(spec.seconds)
        elif spec.kind == "nan-grad":
            raise NumericalFault(
                op="fault.nan-grad",
                stage="fault-injection",
                detail="injected non-finite gradient",
                iteration=iteration,
            )
        elif spec.kind == "abort":
            raise InjectedFault(
                f"injected abort at iteration {iteration} "
                f"(simulated external kill)"
            )
        elif spec.kind == "crash":
            if self.hard_exit:
                # A real crash gives no chance to flush or clean up.
                os._exit(spec.exitcode)
            raise InjectedFault(
                f"injected worker crash at iteration {iteration} "
                f"(exitcode {spec.exitcode})"
            )


def loop_fault_callback(
    plan: Optional[FaultPlan],
    job_id: str,
    hard_exit: bool = False,
    resumed: bool = False,
) -> Optional[FaultCallback]:
    """A :class:`FaultCallback` for this job, or None (nothing to do)."""
    if plan is None:
        return None
    specs = plan.loop_faults(job_id)
    if not specs:
        return None
    return FaultCallback(specs, hard_exit=hard_exit, resumed=resumed)


def crash_on_attach(plan: Optional[FaultPlan], job_id: str,
                    attempt: Optional[int]) -> None:
    """Hard-exit this worker process at pickup if a ``crash-on-attach``
    spec for ``job_id`` covers ``attempt`` (1-based): the parent sees a
    dead worker holding the ticket and retries it as a crash."""
    if plan is None or attempt is None:
        return
    for spec in plan.for_job(job_id):
        if spec.kind == "crash-on-attach" and attempt <= spec.count:
            os._exit(spec.exitcode)


def corrupt_cache_entry(cache, job) -> Optional[str]:
    """Overwrite a cached result's positions file with garbage.

    Simulates a torn write / bit rot on the stored entry; returns the
    corrupted path, or None when the job has no cache entry.  The next
    :meth:`~repro.runtime.cache.ResultCache.get` detects the damage,
    evicts the entry and reports a miss.
    """
    entry = cache.path_for(job.content_hash())
    path = os.path.join(entry, "positions.npy")
    if not os.path.isfile(path):
        return None
    with open(path, "wb") as fh:
        fh.write(b"\x00corrupt\x00")
    return path
