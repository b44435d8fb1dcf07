"""Serializable placement job specs and the per-job executor.

A :class:`PlacementJob` is everything needed to reproduce one placement
run — which design (a named benchgen recipe or a bookshelf ``.aux``
path), which engine, the full :class:`~repro.core.params.PlacementParams`
knob set, a seed, an optional custom pipeline factory, and the runtime
policy (timeout, crash retries).  It serializes to a flat JSON dict (the
manifest format of ``repro batch``) and has a stable
:meth:`~PlacementJob.content_hash` — netlist digest + params + flow
knobs — which keys the on-disk result cache.

:func:`execute_job` runs one job in the *current* process: it loads the
netlist, composes the pipeline, installs a fresh per-process
:class:`~repro.ops.profiler.KernelProfiler` (the thread-local profiler
of the parent is never inherited by workers — see
:mod:`repro.ops.profiler`), bridges GP-loop progress into the caller's
event sink, and returns a :class:`JobResult` whose
:class:`~repro.pipeline.context.FlowReport` carries a synthetic
``runtime`` stage with the kernel-launch totals, the seed and the
worker pid.  Warm workers (:mod:`repro.service.warm`) call it for the
batch pool and the daemon; :func:`repro.flow.run_job` calls it inline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.callbacks import IterationCallback, QueueCallback
from repro.core.params import PlacementParams
from repro.netlist import Netlist
from repro.ops.profiler import KernelProfiler, use_profiler
from repro.pipeline import FlowReport, Pipeline, PlacementContext, StageReport
from repro.wirelength import hpwl as hpwl_fn

#: Bump when the meaning of cached results changes (stage semantics,
#: metric definitions, hash inputs) — invalidates every existing entry.
#: v2: fault plans joined the hash inputs (a chaos run and a clean run
#: of the same spec are different results).
#: v3: fork specs and the final-checkpoint flag joined the hash inputs
#: (a forked continuation and a from-scratch run of the same params are
#: different results; a segment that pins its boundary state differs
#: from one that clears it).
#: v4: the ``workspace`` param left PlacementParams (and so the hashed
#: params payload); the arena is no longer optional.
CACHE_SCHEMA_VERSION = 4

#: Param knobs that cannot change the computed placement and therefore
#: must not contribute to the content hash (a verbose rerun of a quiet
#: job is still the same job).
_NON_SEMANTIC_PARAMS = ("verbose",)


@dataclass
class PlacementJob:
    """One schedulable placement run.

    Exactly one of ``design`` (named synthetic suite design) and ``aux``
    (bookshelf benchmark path) must be set.  ``seed`` overrides
    ``params.seed`` when given, so seed sweeps can share one params
    object.  ``pipeline`` optionally names a ``"module:function"``
    factory (called with the job, returning a
    :class:`~repro.pipeline.stage.Pipeline`) replacing the standard
    GP→LG→DP composition.  ``timeout``/``retries`` are runtime policy:
    wall-clock budget in seconds, and how many times a *crashed* worker
    is restarted (deterministic stage errors are never retried).
    """

    design: Optional[str] = None
    aux: Optional[str] = None
    cells: Optional[int] = None          # override the scaled suite size
    scale: float = 0.01                  # suite scale factor
    placer: str = "xplace"
    params: PlacementParams = field(default_factory=PlacementParams)
    seed: Optional[int] = None
    dp_passes: int = 1
    route: bool = False
    route_grid_m: int = 32
    pipeline: Optional[str] = None       # "module:function" factory
    timeout: Optional[float] = None      # seconds, None = unbounded
    retries: int = 0                     # restarts after worker crashes
    timeout_retries: int = 0             # restarts after timeouts
    faults: Optional[Dict[str, Any]] = None   # serialized FaultPlan
    tag: Optional[str] = None            # free-form label for humans
    fork: Optional[Dict[str, Any]] = None     # serialized ForkSpec
    final_checkpoint: bool = False       # pin the boundary state on stop

    def __post_init__(self) -> None:
        if (self.design is None) == (self.aux is None):
            raise ValueError("set exactly one of 'design' and 'aux'")
        if isinstance(self.params, dict):
            try:
                self.params = PlacementParams(**self.params)
            except TypeError as err:
                raise ValueError(f"bad job params: {err}") from None
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout_retries < 0:
            raise ValueError("timeout_retries must be >= 0")
        if self.faults is not None and not isinstance(self.faults, dict):
            # Accept a FaultPlan object for convenience; store its dict
            # form so the job stays JSON-serializable.
            self.faults = self.faults.to_dict()
        if self.faults is not None:
            self._check_faults()
        if self.fork is not None and not isinstance(self.fork, dict):
            # Same convenience for ForkSpec objects.
            self.fork = self.fork.to_dict()
        if self.fork is not None:
            # Validate eagerly so a malformed manifest fails at parse
            # time, not inside a worker.
            self.fork_spec()
        self._hash: Optional[str] = None

    def fork_spec(self):
        """The job's :class:`~repro.recovery.fork.ForkSpec`, or None."""
        if self.fork is None:
            return None
        from repro.recovery.fork import ForkSpec

        try:
            return ForkSpec.from_dict(self.fork)
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"bad fork spec: {err}") from None

    def _check_faults(self) -> None:
        """Reject a plan that does not parse, or that holds a kind the
        worker never applies (the service kinds take effect only under
        ``repro chaos``), so it cannot ride a job and silently not fire."""
        from repro.faults.plan import WORKER_KINDS

        try:
            plan = self.fault_plan()
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"bad fault plan: {err}") from None
        inert = sorted({spec.kind for spec in plan.faults}
                       - set(WORKER_KINDS))
        if inert:
            raise ValueError(
                f"fault kinds {inert} do not fire inside a job "
                f"(job plans take {WORKER_KINDS})"
            )

    def fault_plan(self):
        """The job's :class:`~repro.faults.FaultPlan`, or None."""
        if self.faults is None:
            return None
        from repro.faults import FaultPlan

        return FaultPlan.from_dict(self.faults)

    # -- identity ----------------------------------------------------

    def effective_seed(self) -> int:
        return self.params.seed if self.seed is None else self.seed

    def effective_params(self) -> PlacementParams:
        """The params actually run: ``seed`` folded in."""
        if self.seed is None:
            return self.params
        return dataclasses.replace(self.params, seed=self.seed)

    def design_digest(self) -> Dict[str, Any]:
        """What identifies the input circuit, for hashing.

        Named designs are deterministic functions of their recipe, so
        the recipe *is* the digest; file-backed designs hash the bytes
        of the ``.aux`` and every sibling file it references.
        """
        if self.design is not None:
            return {
                "kind": "benchgen",
                "design": self.design,
                "scale": self.scale,
                "cells": self.cells,
            }
        digest = hashlib.sha256()
        for path in self._bookshelf_files():
            with open(path, "rb") as fh:
                digest.update(fh.read())
        return {"kind": "bookshelf", "sha256": digest.hexdigest()}

    def _bookshelf_files(self) -> List[str]:
        """The ``.aux`` plus the files it names, in a stable order."""
        paths = [self.aux]
        base = os.path.dirname(os.path.abspath(self.aux))
        with open(self.aux) as fh:
            text = fh.read()
        for token in sorted(set(text.replace(":", " ").split())):
            candidate = os.path.join(base, token)
            if os.path.isfile(candidate):
                paths.append(candidate)
        return paths

    def content_hash(self) -> str:
        """Stable SHA-256 of everything that determines the result."""
        if self._hash is None:
            params = dataclasses.asdict(self.effective_params())
            for knob in _NON_SEMANTIC_PARAMS:
                params.pop(knob, None)
            payload = {
                "schema": CACHE_SCHEMA_VERSION,
                "design": self.design_digest(),
                "placer": self.placer,
                "params": params,
                "dp_passes": self.dp_passes,
                "route": self.route,
                "route_grid_m": self.route_grid_m if self.route else None,
                "pipeline": self.pipeline,
                # An injected fault changes the computed result, so a
                # chaos run must never be served a clean cached one.
                "faults": self.faults,
                # A fork's identity includes its parent checkpoint and
                # perturbation seed; pinning the boundary checkpoint
                # changes what the run leaves on disk, so segments with
                # and without it must not share cache entries.
                "fork": self.fork,
                "final_checkpoint": self.final_checkpoint,
            }
            canonical = json.dumps(payload, sort_keys=True,
                                   separators=(",", ":"))
            self._hash = hashlib.sha256(canonical.encode()).hexdigest()
        return self._hash

    @property
    def job_id(self) -> str:
        """Human-readable, content-stable identifier."""
        name = self.tag or self.design or os.path.basename(self.aux or "?")
        return (f"{name}:{self.placer}:s{self.effective_seed()}"
                f":{self.content_hash()[:8]}")

    # -- (de)serialization -------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "design": self.design,
            "aux": self.aux,
            "cells": self.cells,
            "scale": self.scale,
            "placer": self.placer,
            "params": dataclasses.asdict(self.params),
            "seed": self.seed,
            "dp_passes": self.dp_passes,
            "route": self.route,
            "route_grid_m": self.route_grid_m,
            "pipeline": self.pipeline,
            "timeout": self.timeout,
            "retries": self.retries,
            "timeout_retries": self.timeout_retries,
            "faults": self.faults,
            "tag": self.tag,
            "fork": self.fork,
            "final_checkpoint": self.final_checkpoint or None,
        }
        return {k: v for k, v in data.items() if v is not None}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlacementJob":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown job manifest keys: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PlacementJob":
        return cls.from_dict(json.loads(text))

    # -- variants (racing / sweeps) ----------------------------------

    def with_seed(self, seed: int) -> "PlacementJob":
        return dataclasses.replace(self, seed=int(seed))

    def with_params(self, **overrides: Any) -> "PlacementJob":
        """Variant with some :class:`PlacementParams` knobs replaced."""
        return dataclasses.replace(
            self, params=dataclasses.replace(self.params, **overrides)
        )

    # -- execution building blocks -----------------------------------

    def load_netlist(self) -> Netlist:
        if self.aux is not None:
            from repro.bookshelf import read_bookshelf

            return read_bookshelf(self.aux)
        from repro.benchgen import make_design

        return make_design(self.design, scale=self.scale,
                           num_cells=self.cells)

    def build_pipeline(self) -> Pipeline:
        if self.pipeline:
            module_name, _, func_name = self.pipeline.partition(":")
            if not func_name:
                raise ValueError(
                    f"pipeline factory {self.pipeline!r} is not of the "
                    f"form 'module:function'"
                )
            factory: Callable[["PlacementJob"], Pipeline] = getattr(
                importlib.import_module(module_name), func_name
            )
            return factory(self)
        from repro.flow import build_standard_pipeline

        return build_standard_pipeline(
            placer=self.placer,
            dp_passes=self.dp_passes,
            route=self.route,
            route_grid_m=self.route_grid_m,
        )


@dataclass
class JobResult:
    """Outcome of one job attempt (or a cache hit).

    ``status`` is ``"done"``, ``"failed"``, ``"timeout"`` or
    ``"cancelled"``; ``cached`` marks results served from the
    :class:`~repro.runtime.cache.ResultCache` without recompute.
    ``hpwl`` is the final HPWL of the original netlist at the flow's
    final positions (``x``/``y``, cell centers).
    """

    job_id: str
    status: str
    seed: int
    hpwl: Optional[float] = None
    seconds: float = 0.0
    cached: bool = False
    error: Optional[str] = None
    report: Optional[FlowReport] = None
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "done"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form. Positions travel separately (they are
        arrays); the pool and the cache reattach them."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "seed": self.seed,
            "hpwl": self.hpwl,
            "seconds": self.seconds,
            "cached": self.cached,
            "error": self.error,
            "attempts": self.attempts,
            "report": self.report.to_dict() if self.report else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        report = data.get("report")
        return cls(
            job_id=data["job_id"],
            status=data["status"],
            seed=int(data["seed"]),
            hpwl=data.get("hpwl"),
            seconds=float(data.get("seconds", 0.0)),
            cached=bool(data.get("cached", False)),
            error=data.get("error"),
            report=FlowReport.from_dict(report) if report else None,
            attempts=int(data.get("attempts", 1)),
        )


def job_checkpoint_dir(root: Optional[str], job: PlacementJob) -> Optional[str]:
    """The per-job checkpoint spill directory under ``root``.

    Mirrors the result cache's two-level content-hash fan-out, so a
    retried/resumed attempt of the *same* job finds the same spill and
    different jobs never collide.
    """
    if root is None:
        return None
    key = job.content_hash()
    return os.path.join(os.path.abspath(root), key[:2], key)


def execute_job(
    job: PlacementJob,
    emit=None,
    heartbeat_every: int = 25,
    callbacks: Optional[Sequence[IterationCallback]] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    in_worker: bool = False,
    netlist: Optional[Netlist] = None,
    extra_metrics: Optional[Dict[str, Any]] = None,
) -> JobResult:
    """Run one job in this process and return its :class:`JobResult`.

    ``emit`` is an event sink (queue-like ``.put(dict)`` or callable)
    receiving the GP loop's ``loop_start``/``heartbeat``/``loop_stop``
    messages; ``callbacks`` are extra iteration callbacks (warm workers
    pass their cooperative stop watch here).  Exceptions propagate to
    the caller — the warm worker turns them into ``failed`` results.

    ``checkpoint_dir`` is the pool's spill *root*: the GP loop spills
    checkpoints under a per-job subdirectory so a crash/timeout retry
    launched with ``resume=True`` picks the run up from its last
    checkpoint instead of iteration 0.  ``in_worker`` tells the fault
    injector it may hard-exit the process for ``crash`` faults.

    ``netlist`` injects an already-loaded design (warm workers keep
    designs resident and share arrays via shared memory) — the caller
    guarantees it matches what :meth:`PlacementJob.load_netlist` would
    produce.  ``extra_metrics`` are folded into the synthetic
    ``runtime`` stage (e.g. the warm/cold design-load path taken).
    """
    start = time.perf_counter()
    params = job.effective_params()
    if netlist is None:
        netlist = job.load_netlist()
    attached: List[IterationCallback] = list(callbacks or ())
    spill_dir = job_checkpoint_dir(checkpoint_dir, job)
    resuming = bool(
        resume
        and spill_dir is not None
        and os.path.isfile(os.path.join(spill_dir, "checkpoint.json"))
    )
    spec = job.fork_spec()
    if spec is not None and not resuming:
        # A fork job materializes its starting checkpoint from the
        # parent's spill under the shared root, then resumes from it
        # like any interrupted run.  (A crash retry that already wrote
        # its *own* spill resumes from that instead — strictly newer.)
        if checkpoint_dir is None:
            raise ValueError("fork jobs require a checkpoint root")
        from repro.density import BinGrid
        from repro.recovery.fork import prepare_fork

        parent_dir = os.path.join(
            os.path.abspath(checkpoint_dir), spec.parent[:2], spec.parent
        )
        grid = BinGrid.for_netlist(netlist, params.grid_m)
        prepare_fork(
            parent_dir,
            spill_dir,
            spec,
            num_movable=len(netlist.movable_index),
            bin_size=min(grid.bin_w, grid.bin_h),
            region=netlist.region,
        )
        resuming = True
    plan = job.fault_plan()
    if plan is not None:
        from repro.faults import loop_fault_callback

        injector = loop_fault_callback(
            plan, job.job_id, hard_exit=in_worker, resumed=resuming
        )
        if injector is not None:
            attached.append(injector)
    if emit is not None:
        attached.append(
            QueueCallback(emit, label=job.job_id, every=heartbeat_every)
        )
    ctx = PlacementContext(
        netlist=netlist,
        params=params,
        placer=job.placer,
        callbacks=attached,
        checkpoint_dir=spill_dir,
        resume=resuming,
        final_checkpoint=job.final_checkpoint,
    )
    pipeline = job.build_pipeline()
    # The profiler is thread-local, so a worker process starts without
    # one: install a fresh timed profiler here and fold its totals into
    # the report, whichever process we are running in.  Timing is cheap
    # at this granularity (a few clock reads per GP iteration) and gives
    # every batch job a per-operator wall-time breakdown for free.
    with use_profiler(KernelProfiler(timed=True)) as profiler:
        report = pipeline.run(ctx)
    x, y = ctx.positions()
    final_hpwl = float(hpwl_fn(ctx.original_netlist, x, y))
    report.stages.append(
        StageReport(
            name="runtime",
            seconds=0.0,
            metrics={
                "seed": job.effective_seed(),
                "worker_pid": os.getpid(),
                "final_hpwl": final_hpwl,
                "kernel_launches": profiler.total,
                "kernel_counts": profiler.snapshot(),
                "kernel_seconds": profiler.snapshot_seconds(),
                "kernel_seconds_total": profiler.total_seconds,
                "resumed": resuming,
                **({"forked_from": spec.parent} if spec is not None else {}),
                **(extra_metrics or {}),
            },
        )
    )
    return JobResult(
        job_id=job.job_id,
        status="done",
        seed=job.effective_seed(),
        hpwl=final_hpwl,
        seconds=time.perf_counter() - start,
        report=report,
        x=np.asarray(x, dtype=np.float64),
        y=np.asarray(y, dtype=np.float64),
    )
