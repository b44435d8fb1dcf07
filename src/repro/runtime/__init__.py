"""repro.runtime — the parallel batch-placement execution layer.

Everything below :mod:`repro.flow` runs *one* placement; this package
runs *fleets* of them.  It turns a placement into a serializable
:class:`PlacementJob` spec, runs jobs on warm worker processes under the
same supervised lifecycle as the ``repro serve`` daemon — timeouts,
crash retries, hang preemption, worker quarantine and progress events
(:class:`WorkerPool` + :class:`EventLog`), short-circuits repeats
through a content-addressed on-disk :class:`ResultCache`, and layers selection strategies on top —
:func:`race_seeds` / :func:`sweep_params` launch N variants and keep
the best (or the first) finisher.  ``repro batch`` is the CLI face of
:func:`run_batch`.

Quickstart::

    from repro.runtime import PlacementJob, WorkerPool, ResultCache

    jobs = [PlacementJob(design="fft_1", cells=400, seed=s)
            for s in range(4)]
    pool = WorkerPool(max_workers=4, cache=ResultCache(".repro-cache"))
    results = pool.run(jobs)
    best = min((r for r in results if r.ok), key=lambda r: r.hpwl)
"""

from repro.runtime.batch import load_manifest, run_batch, summary_table
from repro.runtime.cache import ResultCache
from repro.runtime.events import (
    EVENT_KINDS,
    EventLog,
    RuntimeEvent,
    read_event_log,
)
from repro.runtime.job import (
    CACHE_SCHEMA_VERSION,
    JobResult,
    PlacementJob,
    execute_job,
    job_checkpoint_dir,
)
from repro.runtime.pool import JobInterruptedError, WorkerPool
from repro.runtime.race import RaceResult, race_seeds, sweep_params

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "EVENT_KINDS",
    "EventLog",
    "JobInterruptedError",
    "JobResult",
    "PlacementJob",
    "RaceResult",
    "ResultCache",
    "RuntimeEvent",
    "WorkerPool",
    "execute_job",
    "job_checkpoint_dir",
    "load_manifest",
    "race_seeds",
    "read_event_log",
    "run_batch",
    "summary_table",
    "sweep_params",
]
