"""repro.service — placement-as-a-service on top of the batch runtime.

The batch runtime (:mod:`repro.runtime`) runs a fixed list of jobs and
exits; this package turns the same building blocks into a long-running
service.  Three layers:

:mod:`repro.service.scheduler`
    The job-lifecycle core every executor leases work from: a
    thread-safe priority queue with per-tenant quotas, job states
    (queued → running → done / failed / cancelled), cancellation,
    retry requeueing with backoff gates, and dedupe — both against the
    content-addressed :class:`~repro.runtime.cache.ResultCache` and
    against identical in-flight submissions.
    The daemon and :class:`~repro.runtime.pool.WorkerPool` (the batch
    face) both drive it through :mod:`repro.service.lifecycle`.

:mod:`repro.service.lifecycle`
    The one execution policy: dispatch onto warm workers, deadlines,
    crash/timeout retries with backoff, hang preemption, worker
    quarantine with canary probes — each ``step()`` waits at most one
    poll window, and a submission or cancellation wakes it at once.

:mod:`repro.service.warm`
    Warm workers: persistent processes that keep loaded designs
    resident keyed by design hash and share the big netlist arrays via
    ``multiprocessing.shared_memory``, so a repeat-design job skips
    design generation/parsing entirely.  The ``serve-small`` and
    ``batch-cold`` workloads of ``bench/run.py`` measure the warm path.

:mod:`repro.service.daemon`
    ``repro serve``: an HTTP daemon (stdlib ``http.server``) exposing
    submit / list / query / cancel plus a live per-job JSONL event
    stream, with a journal + GP checkpoints under a state directory so
    a killed daemon resumes its in-flight jobs on restart.
    :mod:`repro.service.client` is the matching stdlib-only client.

:mod:`repro.service.journal`
    The daemon's write-ahead journal as a standalone component: fsync
    durability, a breaker-guarded degraded (buffered) mode with a
    bounded loss window, and corruption-tolerant replay parsing.

The daemon is self-healing via :mod:`repro.supervision`: heartbeat
liveness with early preemption of hung workers, per-worker health
quarantine with canary probes, circuit breakers over cache / shared
memory / journal, and brownout admission control.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import PlacementService, make_server, serve
from repro.service.journal import Journal, JournalReplay, read_journal
from repro.service.scheduler import (
    JOB_STATES,
    TERMINAL_STATES,
    QueueFull,
    ScheduledJob,
    Scheduler,
)
from repro.service.warm import WarmPool

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Journal",
    "JournalReplay",
    "PlacementService",
    "QueueFull",
    "ScheduledJob",
    "Scheduler",
    "ServiceClient",
    "ServiceError",
    "WarmPool",
    "make_server",
    "read_journal",
    "serve",
]
