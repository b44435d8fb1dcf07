"""repro.supervision — service-level self-healing.

The service stack (scheduler, warm pool, daemon) built in
:mod:`repro.service` polices jobs with a coarse wall-clock deadline and
retries crashes, but nothing watches the *fleet*: a worker that stops
heartbeating holds its slot until the deadline, a flapping worker is
re-fed jobs at full rate, and a sick dependency (cache disk, shared
memory, journal fsync) fails every request instead of degrading.  This
package closes that loop:

:mod:`repro.supervision.liveness`
    :class:`LivenessMonitor` folds the per-job heartbeat/iteration
    events the workers already emit into progress ledgers and
    distinguishes *hung* (no progress within a timeout) from
    *slow-but-progressing* (iterations still advancing); plus
    :class:`WorkerHealth`, a per-worker crash/hang/timeout EWMA that
    drives quarantine.

:mod:`repro.supervision.breakers`
    :class:`CircuitBreaker` (closed / open / half-open, injectable
    clock so chaos runs are deterministic) and
    :class:`GuardedResultCache`, the cache-bypass degraded mode.

:mod:`repro.supervision.brownout`
    :class:`BrownoutController`: admission control that sheds
    low-priority submits (HTTP 503 + Retry-After) while the service is
    degraded, and refuses everything while draining.

:mod:`repro.supervision.supervisor`
    :class:`Supervisor` composes the above for the daemon and owns the
    ``ok`` / ``degraded`` / ``draining`` state machine reported by
    ``/healthz`` and ``/stats``.

:mod:`repro.supervision.chaos`
    The ``repro chaos`` soak harness: drives a real daemon through a
    seeded :class:`~repro.faults.plan.FaultPlan` and emits a
    :class:`ChaosReport` proving every ticket terminates, none are
    lost, and recovery is bit-identical.
"""

from repro.supervision.breakers import (
    BREAKER_STATES,
    CircuitBreaker,
    GuardedResultCache,
)
from repro.supervision.brownout import BrownoutController, BrownoutShed
from repro.supervision.chaos import (
    ChaosConfig,
    ChaosReport,
    chaos_fingerprint,
    run_chaos,
)
from repro.supervision.liveness import LivenessMonitor, WorkerHealth
from repro.supervision.supervisor import SupervisionConfig, Supervisor

__all__ = [
    "BREAKER_STATES",
    "BrownoutController",
    "BrownoutShed",
    "ChaosConfig",
    "ChaosReport",
    "CircuitBreaker",
    "GuardedResultCache",
    "LivenessMonitor",
    "SupervisionConfig",
    "Supervisor",
    "WorkerHealth",
    "chaos_fingerprint",
    "run_chaos",
]
