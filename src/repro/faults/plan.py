"""Declarative fault plans: what breaks, where, and when.

A :class:`FaultSpec` names one deterministic fault — *the* point of this
harness is that a chaos run is exactly reproducible, so faults are
pinned to a kind, an iteration and (optionally) a job rather than drawn
at runtime.  A :class:`FaultPlan` is an ordered collection of specs plus
the seed that generated it; it serializes to a flat JSON dict
(``{"seed", "faults"}``) so it can ride inside a
:class:`~repro.runtime.job.PlacementJob` manifest across the worker
process boundary.  The same type is the ``repro chaos`` schedule:
:meth:`FaultPlan.sample` deals one from a run id, :meth:`FaultPlan.io_hook`
delivers its I/O faults, and the plan journals every fault injected on
its behalf (:meth:`FaultPlan.record`).

Worker faults (ride a job's plan, fire inside the worker)
---------------------------------------------------------
``nan-grad``         raise a :class:`~repro.analysis.sanitizer.NumericalFault`
                     from the GP loop at the given iteration — the signal
                     a real NaN gradient produces.  Fires once per process.
``abort``            raise :class:`~repro.faults.inject.InjectedFault`, which
                     recovery does not catch: an external kill (SIGKILL,
                     OOM) for resume-determinism tests.
``crash``            hard-exit the worker process (``os._exit``) at the
                     given iteration; inline runs raise ``InjectedFault``.
``slow``             sleep ``seconds`` at the given iteration (exercises
                     timeout enforcement, cooperative and hard).
``hang``             sleep ``seconds`` *without heartbeating* — the
                     straggler the
                     :class:`~repro.supervision.liveness.LivenessMonitor`
                     exists to preempt.
``crash-on-attach``  hard-exit the worker process when it picks the job
                     up, while the task's attempt number is at most
                     ``count`` (process workers only).  Attempts count
                     per ticket, so every resubmission of the job (a
                     fresh ticket, or one re-run after journal replay)
                     crashes ``count`` more times.

``crash`` and ``hang`` are skipped when the run resumed from a
checkpoint: the fault "already happened" to the previous attempt, so a
retry cannot loop forever and the resumed run is bit-identical to a
fault-free one.

Service faults (applied by the chaos harness around the runs)
-------------------------------------------------------------
A job plan cannot carry these: :class:`~repro.runtime.job.PlacementJob`
rejects any kind outside :data:`WORKER_KINDS`, since nothing in a batch,
race or explore run would apply it.

``slow-io``          delay the first ``count`` cache/journal operations
                     named by ``target`` (``cache-put``, ``cache-get``,
                     ``journal-append``), enough to trip their breaker.
``shm-unlink``       unlink the published designs' shared-memory segments
                     once ``count`` jobs finished.
``cache-corrupt``    overwrite a stored result entry with garbage via
                     :func:`repro.faults.inject.corrupt_cache_entry`.
``journal-truncate`` at a mid-soak restart, tear the journal's tail line.
``journal-corrupt``  at a mid-soak restart, duplicate a terminal record
                     and interleave a partial one.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

#: Kinds injected through the GP loop's iteration-callback seam.
LOOP_KINDS = ("nan-grad", "abort", "crash", "slow", "hang")

#: The ``repro chaos`` schedule, in the order :meth:`FaultPlan.sample`
#: draws it (the order is part of the seeded schedule).
SOAK_KINDS = ("hang", "crash", "slow-io", "shm-unlink", "cache-corrupt",
              "crash-on-attach", "journal-truncate", "journal-corrupt")

FAULT_KINDS = LOOP_KINDS + tuple(k for k in SOAK_KINDS
                                 if k not in LOOP_KINDS)

#: Kinds the sampler deals to one soak job each.
JOB_BOUND_KINDS = ("hang", "crash", "cache-corrupt", "crash-on-attach")

#: Kinds a job's own plan delivers inside the worker; every other kind
#: in a job plan is inert (only the ``repro chaos`` harness applies it).
WORKER_KINDS = LOOP_KINDS + ("crash-on-attach",)

#: Kinds that need a killable worker process — the thread-fallback pool
#: cannot express them, so inline soaks skip (and report) them.
PROCESS_ONLY_KINDS = ("hang", "crash", "crash-on-attach", "shm-unlink")


def seed_for_run(run_id: str) -> int:
    """The deterministic RNG seed derived from a chaos run id."""
    digest = hashlib.sha256(run_id.encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault.

    ``job_id`` restricts the fault to jobs whose id starts with it
    (job ids embed a content-hash suffix callers usually cannot
    predict); None applies to every job.
    """

    kind: str
    iteration: int = 0
    job_id: Optional[str] = None
    seconds: float = 0.0           # slow/hang hold, slow-io delay
    count: int = 1                 # attach crashes, io ops, unlink trigger
    target: Optional[str] = None   # slow-io seam
    exitcode: int = 173            # crash kinds; distinctive on purpose

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})"
            )
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def applies_to(self, job_id: str) -> bool:
        return self.job_id is None or job_id.startswith(self.job_id)

    def to_dict(self) -> Dict[str, Any]:
        # job_id, count and target drop out at their defaults, so the
        # dict of a plan that does not use them — and the content hash
        # of a job carrying it — is what it was before they existed.
        data = {
            "kind": self.kind,
            "iteration": self.iteration,
            "job_id": self.job_id,
            "seconds": self.seconds,
            "count": self.count if self.count != 1 else None,
            "target": self.target,
            "exitcode": self.exitcode,
        }
        return {k: v for k, v in data.items() if v is not None}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            iteration=int(data.get("iteration", 0)),
            job_id=data.get("job_id"),
            seconds=float(data.get("seconds", 0.0)),
            count=int(data.get("count", 1)),
            target=data.get("target"),
            exitcode=int(data.get("exitcode", 173)),
        )


@dataclass
class FaultPlan:
    """A reproducible set of faults for one run, one batch or one soak.

    The plan also journals the faults injected on its behalf
    (:meth:`record`).
    """

    faults: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.faults = [
            f if isinstance(f, FaultSpec) else FaultSpec.from_dict(f)
            for f in self.faults
        ]
        self._lock = threading.Lock()
        with self._lock:
            self._injected: List[Dict[str, Any]] = []
            # Remaining-operation budgets of the slow-io specs, keyed by
            # spec position so two specs on one target stay distinct.
            self._io_budget: Dict[int, int] = {
                index: spec.count for index, spec in enumerate(self.faults)
                if spec.kind == "slow-io"
            }

    def __len__(self) -> int:
        return len(self.faults)

    def for_job(self, job_id: str) -> List[FaultSpec]:
        """The subset of faults that apply to ``job_id``."""
        return [f for f in self.faults if f.applies_to(job_id)]

    def loop_faults(self, job_id: str) -> List[FaultSpec]:
        """The applicable faults injectable through the GP loop."""
        return [f for f in self.for_job(job_id) if f.kind in LOOP_KINDS]

    def specs_of(self, *kinds: str) -> List[FaultSpec]:
        return [spec for spec in self.faults if spec.kind in kinds]

    # -- generation ----------------------------------------------------

    @classmethod
    def sample(
        cls,
        run_id: str,
        jobs: int,
        kinds: tuple = SOAK_KINDS,
        max_iteration: int = 30,
        hang_seconds: float = 120.0,
        slow_io_seconds: float = 0.25,
        slow_io_ops: int = 3,
        crash_attach_count: int = 2,
    ) -> "FaultPlan":
        """Draw a deterministic schedule for a ``jobs``-job soak.

        Job-bound kinds are dealt distinct soak jobs from a seeded
        permutation (wrapping when there are more kinds than jobs); a
        spec bound to job ``i`` carries the ``job_id`` prefix
        ``chaos-<i>:``, the id of the soak job tagged ``chaos-<i>``.
        Iterations are drawn uniformly from the middle of the run so a
        checkpoint exists before the fault lands.
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_iteration < 4:
            raise ValueError("max_iteration must be >= 4")
        seed = seed_for_run(run_id)
        rng = np.random.default_rng(seed)
        order = [int(i) for i in rng.permutation(jobs)]
        faults: List[FaultSpec] = []
        dealt = 0
        for kind in kinds:
            if kind in JOB_BOUND_KINDS:
                job_index = order[dealt % len(order)]
                dealt += 1
                # Drawn for every job-bound kind, used or not: skipping
                # a draw would shift every later one.
                iteration = int(rng.integers(max_iteration // 2,
                                             max_iteration - 1))
                faults.append(FaultSpec(
                    kind=kind,
                    job_id=f"chaos-{job_index}:",
                    iteration=iteration,
                    seconds=hang_seconds if kind == "hang" else 0.0,
                    count=(crash_attach_count
                           if kind == "crash-on-attach" else 1),
                ))
            elif kind == "slow-io":
                for target in ("cache-put", "journal-append"):
                    faults.append(FaultSpec(
                        kind="slow-io", target=target,
                        seconds=slow_io_seconds, count=slow_io_ops,
                    ))
            elif kind == "shm-unlink":
                # Fires once at least one job finished, so the design
                # is published and has been attached by readers.
                faults.append(FaultSpec(kind="shm-unlink",
                                        count=max(1, jobs // 4)))
            elif kind in ("journal-truncate", "journal-corrupt"):
                faults.append(FaultSpec(kind=kind))
        return cls(faults=faults, seed=seed)

    # -- the I/O seam --------------------------------------------------

    def io_hook(self, op: str) -> None:
        """The cache/journal fault hook (``op`` is ``cache-get``,
        ``cache-put`` or ``journal-append``): sleeps ``seconds`` for the
        first ``count`` operations matching each scheduled ``slow-io``
        target, then stands down."""
        delay = 0.0
        with self._lock:
            for index, spec in enumerate(self.faults):
                remaining = self._io_budget.get(index, 0)
                if spec.target != op or remaining <= 0:
                    continue
                self._io_budget[index] = remaining - 1
                delay = spec.seconds
                self._injected.append({
                    "kind": "slow-io", "target": op,
                    "seconds": spec.seconds, "remaining": remaining - 1,
                })
                break
        if delay > 0:
            time.sleep(delay)

    # -- the injection journal -----------------------------------------

    def record(self, kind: str, **info: Any) -> None:
        with self._lock:
            self._injected.append({"kind": kind, **info})

    def injection_log(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(entry) for entry in self._injected]

    # -- (de)serialization ---------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            faults=[FaultSpec.from_dict(f) for f in data.get("faults", [])],
            seed=int(data.get("seed", 0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))
