"""Warm workers: resident designs shared through POSIX shared memory.

A fresh process per job pays the full job cost on every attempt: it
imports numpy, regenerates (or re-parses) the design, rebuilds the CSR
indices, then places.  Executors see the *same* design over and over —
parameter sweeps, seed races, repeated API submissions — so this module
keeps workers alive between jobs and makes the design transfer free:

* :func:`publish_design` copies a netlist's big arrays once into
  ``multiprocessing.shared_memory`` segments and returns a JSON-able
  *manifest* (segment names + shapes + dtypes + the small metadata);
* :func:`attach_design` maps those segments read-only in a worker and
  rebuilds a :class:`~repro.netlist.Netlist` around zero-copy views
  (derived CSR indices are recomputed locally by ``__post_init__``);
* each :class:`WarmPool` worker keeps attached designs *resident* in an
  LRU keyed by :func:`design_key`, so a repeat-design job skips design
  loading entirely — the ``runtime`` stage metrics record which path a
  job took (``warm`` = ``resident`` / ``attached`` / ``cold``).

The parent-side :class:`DesignStore` owns the segments (create +
unlink); workers only attach, and explicitly *unregister* their attach
from the ``resource_tracker`` — on this CPython, attaching registers
the segment too, and a dying worker would otherwise unlink a segment
the parent still serves (gh-82300).

Netlist arrays are safe to share read-only: stages never mutate them
(``freeze_cells`` copies before editing), and the attached views are
marked non-writeable so a regression fails loudly.

When no multiprocessing context is available (or the caller asks for
``start_method="thread"``) the pool degrades to one thread per worker
(cooperative cancellation, designs resident in a process-local store) —
same API, reduced isolation.

A process worker exits on its own once its parent dies: it checks the
parent pid between jobs (a bounded task wait) and at every GP iteration
of a running job, so a killed daemon or batch leaves no workers behind.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing as mp
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.callbacks import IterationCallback
from repro.netlist import Netlist
from repro.netlist.fence import FenceRegion
from repro.netlist.region import PlacementRegion, Row
from repro.runtime.job import PlacementJob, execute_job

#: Seconds an idle process worker waits for a task before it checks
#: whether its parent is still alive.
ORPHAN_CHECK_SECONDS = 1.0


class JobInterruptedError(RuntimeError):
    """Raised inside a thread worker's GP loop when its job was stopped."""


def _resolve_context(start_method: Optional[str]):
    """A usable multiprocessing context, or None (→ thread workers)."""
    methods = mp.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            return None
        return mp.get_context(start_method)
    for method in ("fork", "spawn"):
        if method in methods:
            return mp.get_context(method)
    return None

#: Netlist array fields worth sharing (everything sized N, P or E).
DESIGN_ARRAY_FIELDS = (
    "cell_w", "cell_h", "movable", "fixed_x", "fixed_y",
    "pin2cell", "pin_dx", "pin_dy", "pin2net",
    "net_start", "net_weight", "cell_fence",
)


def design_key(job: PlacementJob) -> str:
    """Stable hash of the job's *input circuit* (not its params).

    Two jobs with the same key load byte-identical netlists, so they
    can share one resident design.
    """
    canonical = json.dumps(job.design_digest(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# -- shared-memory design transport -----------------------------------

def publish_design(netlist: Netlist,
                   key: str) -> Tuple[Dict[str, Any], List[Any]]:
    """Copy a netlist's arrays into shared memory; returns
    ``(manifest, segments)``.

    The caller owns the segments: keep them referenced while any worker
    may attach, then ``close()`` + ``unlink()`` them (see
    :class:`DesignStore`).
    """
    arrays: Dict[str, Dict[str, Any]] = {}
    segments: List[Any] = []
    try:
        for field_name in DESIGN_ARRAY_FIELDS:
            arr = np.ascontiguousarray(getattr(netlist, field_name))
            shm = shared_memory.SharedMemory(create=True,
                                             size=max(1, arr.nbytes))
            segments.append(shm)
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
            arrays[field_name] = {
                "shm": shm.name,
                "shape": list(arr.shape),
                "dtype": arr.dtype.str,
            }
    except Exception:
        # A failed create/copy mid-loop must not leak the segments
        # already published — named shared memory outlives the process.
        for shm in segments:
            shm.close()
            with contextlib.suppress(FileNotFoundError):
                shm.unlink()
        raise
    manifest = {
        "key": key,
        "name": netlist.name,
        "arrays": arrays,
        "cell_name": list(netlist.cell_name),
        "net_name": list(netlist.net_name),
        "region": {
            "xl": netlist.region.xl, "yl": netlist.region.yl,
            "xh": netlist.region.xh, "yh": netlist.region.yh,
            "rows": [
                {"y": r.y, "height": r.height, "xl": r.xl, "xh": r.xh,
                 "site_width": r.site_width}
                for r in netlist.region.rows
            ],
        },
        "fences": [
            {"name": f.name, "boxes": [list(b) for b in f.boxes]}
            for f in netlist.fences
        ],
    }
    return manifest, segments


def attach_design(manifest: Dict[str, Any]) -> Tuple[Netlist, List[Any]]:
    """Rebuild a netlist over read-only views of shared segments.

    Returns ``(netlist, segments)`` — the segments must stay referenced
    (and be ``close()``-d) by the attaching process for as long as the
    netlist is used.  Raises ``FileNotFoundError`` when the publisher
    already unlinked a segment; callers fall back to a cold load.
    """
    segments: List[Any] = []
    arrays: Dict[str, np.ndarray] = {}
    try:
        for field_name, spec in manifest["arrays"].items():
            # Attaching re-registers the segment with the resource
            # tracker (gh-82300), but pool workers inherit the parent's
            # tracker (fork and spawn both pass the tracker fd down),
            # whose cache is a *set* — the duplicate registration
            # dedupes, and the publisher's unlink unregisters cleanly.
            # Never unregister here: a shared tracker would lose the
            # publisher's entry.
            shm = shared_memory.SharedMemory(name=spec["shm"])
            segments.append(shm)
            view = np.ndarray(tuple(spec["shape"]),
                              dtype=np.dtype(spec["dtype"]),
                              buffer=shm.buf)
            view.flags.writeable = False
            arrays[field_name] = view
    except Exception:
        for shm in segments:
            shm.close()
        raise
    region = PlacementRegion(
        xl=manifest["region"]["xl"], yl=manifest["region"]["yl"],
        xh=manifest["region"]["xh"], yh=manifest["region"]["yh"],
        rows=[Row(**row) for row in manifest["region"]["rows"]],
    )
    fences = [
        FenceRegion(name=f["name"],
                    boxes=tuple(tuple(b) for b in f["boxes"]))
        for f in manifest["fences"]
    ]
    netlist = Netlist(
        cell_name=list(manifest["cell_name"]),
        net_name=list(manifest["net_name"]),
        region=region,
        name=manifest.get("name", "design"),
        fences=fences,
        **arrays,
    )
    return netlist, segments


class DesignStore:
    """Parent-side LRU of published designs (owns the shm segments)."""

    def __init__(self, max_designs: int = 8) -> None:
        self.max_designs = max(1, int(max_designs))
        self._designs: "OrderedDict[str, Tuple[dict, list]]" = OrderedDict()
        self._lock = threading.Lock()

    def manifest_for(self, job: PlacementJob) -> Dict[str, Any]:
        """The manifest for the job's design, publishing on first use."""
        key = design_key(job)
        with self._lock:
            if key in self._designs:
                self._designs.move_to_end(key)
                return self._designs[key][0]
        netlist = job.load_netlist()          # load outside the lock
        manifest, segments = publish_design(netlist, key)
        with self._lock:
            if key in self._designs:          # lost a publish race
                for shm in segments:
                    shm.close()
                    shm.unlink()
                self._designs.move_to_end(key)
                return self._designs[key][0]
            self._designs[key] = (manifest, segments)
            while len(self._designs) > self.max_designs:
                _, (_, old) = self._designs.popitem(last=False)
                for shm in old:
                    shm.close()
                    shm.unlink()
        return manifest

    def __len__(self) -> int:
        with self._lock:
            return len(self._designs)

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._designs)

    def unlink_segments(self, key: str) -> int:
        """Unlink a design's segments *without* dropping the manifest —
        the unlink-under-reader failure: the store still advertises the
        design, but the next :func:`attach_design` raises and workers
        fall back to a cold load.  Chaos seam; returns the number of
        segments unlinked (0 when the key is unknown)."""
        with self._lock:
            entry = self._designs.get(key)
            if entry is None:
                return 0
            _, segments = entry
            unlinked = 0
            for shm in segments:
                with contextlib.suppress(FileNotFoundError):
                    shm.unlink()
                    unlinked += 1
        return unlinked

    def close(self) -> None:
        with self._lock:
            for _, segments in self._designs.values():
                for shm in segments:
                    shm.close()
                    with contextlib.suppress(FileNotFoundError):
                        shm.unlink()
            self._designs.clear()


# -- the worker loop ---------------------------------------------------

def _exit_if_orphaned(parent_pid: Optional[int]) -> None:
    """Hard-exit a process worker whose parent died: nobody is left
    to send it work or read its results."""
    if parent_pid is not None and os.getppid() != parent_pid:
        os._exit(0)


class _CancelWatch(IterationCallback):
    """The running job's stop seam, checked at every GP iteration:
    cooperative cancel for thread workers, parent death for process
    workers."""

    def __init__(self, event: Optional[threading.Event],
                 parent_pid: Optional[int]) -> None:
        self._event = event
        self._parent_pid = parent_pid

    def _check(self) -> None:
        _exit_if_orphaned(self._parent_pid)
        if self._event is not None and self._event.is_set():
            raise JobInterruptedError("cancel requested")

    def on_start(self, info) -> None:
        self._check()

    def on_iteration(self, record) -> None:
        self._check()


def _orphan_sender(outbox):
    """``send`` for a process worker's result pipe: a broken pipe means
    the parent is gone, so the worker exits like an orphan."""
    def send(message: Dict[str, Any]) -> None:
        try:
            outbox.send(message)
        except OSError:
            os._exit(0)
    return send


def _warm_worker_main(worker_id: int, tasks, out, heartbeat_every: int,
                      checkpoint_dir: Optional[str], max_resident: int,
                      cancel_event: Optional[threading.Event] = None) -> None:
    """Long-lived worker: lease messages, keep designs resident.

    Task messages: ``{"kind": "job", "ticket", "attempt", "job": <job
    dict>, "resume": bool, "manifest": <design manifest or None>}`` or
    ``{"kind": "stop"}``.  Every job answers with a ``"_picked"``
    announcement (so the parent can target kills) and a terminal
    ``"_result"`` message, both keyed by ticket and attempt.  ``tasks``
    and ``out`` are the worker's own pipe ends.
    """
    parent_pid = None
    if cancel_event is not None:
        send = out.send
    else:
        # Process mode: a worker forked while the parent's shutdown
        # handlers were armed inherits them, which would make
        # ``terminate()`` a no-op and, worse, run the parent's shutdown
        # logic inside the worker.  Restore defaults.
        import signal

        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(ValueError, OSError):  # platform-dependent
                signal.signal(sig, signal.SIG_DFL)
        parent_pid = os.getppid()
        send = _orphan_sender(out)
    watch = [_CancelWatch(cancel_event, parent_pid)]
    resident: "OrderedDict[str, Tuple[Netlist, list]]" = OrderedDict()

    def evict_to(limit: int) -> None:
        while len(resident) > limit:
            _, (_, segments) = resident.popitem(last=False)
            for shm in segments:
                shm.close()

    try:
        while True:
            if not tasks.poll(ORPHAN_CHECK_SECONDS):
                _exit_if_orphaned(parent_pid)
                continue
            try:
                message = tasks.recv()
            except EOFError:             # the pool closed its end
                message = {"kind": "stop"}
            if message.get("kind") == "stop":
                break
            job = PlacementJob.from_dict(message["job"])
            reply = {"ticket": message["ticket"],
                     "attempt": message.get("attempt"),
                     "worker": worker_id, "job_id": job.job_id}
            if cancel_event is not None:
                cancel_event.clear()
            send({"event": "_picked", "pid": os.getpid(), **reply})
            chaos = message.get("chaos") or {}
            if chaos.get("crash_on_attach") and cancel_event is None:
                # Injected repeated crash-on-pickup (chaos harness):
                # die the instant the job is picked, before any design
                # work — the parent sees a dead worker holding the
                # ticket, exactly like a worker whose attach segfaults.
                os._exit(int(chaos.get("exitcode", 173)))
            key = design_key(job)
            load_started = time.perf_counter()
            netlist = None
            warm = "cold"
            if key in resident:
                resident.move_to_end(key)
                netlist = resident[key][0]
                warm = "resident"
            else:
                manifest = message.get("manifest")
                if manifest is not None:
                    try:
                        netlist, segments = attach_design(manifest)
                    except Exception:
                        netlist = None     # publisher gone: load cold
                    else:
                        warm = "attached"
                        resident[key] = (netlist, segments)
                if netlist is None:
                    netlist = job.load_netlist()
                    resident[key] = (netlist, [])
                evict_to(max_resident)
            load_seconds = time.perf_counter() - load_started
            try:
                result = execute_job(
                    job,
                    emit=send,
                    heartbeat_every=heartbeat_every,
                    callbacks=watch,
                    checkpoint_dir=checkpoint_dir,
                    resume=bool(message.get("resume")),
                    in_worker=cancel_event is None,
                    netlist=netlist,
                    extra_metrics={
                        "warm": warm,
                        "design_load_seconds": round(load_seconds, 6),
                        "warm_worker": worker_id,
                    },
                )
            except JobInterruptedError:
                send({"event": "_result", "status": "cancelled",
                      "seed": job.effective_seed(), **reply})
            except Exception as err:  # noqa: BLE001 — worker must answer
                report = getattr(err, "flow_report", None)
                send({"event": "_result", "status": "failed",
                      "seed": job.effective_seed(),
                      "error": f"{type(err).__name__}: {err}",
                      "report": (report.to_dict()
                                 if report is not None else None),
                      **reply})
            else:
                send({"event": "_result", "status": "done",
                      "result": result.to_dict(),
                      "x": result.x, "y": result.y, **reply})
    finally:
        evict_to(0)
        tasks.close()
        out.close()


# -- the pool ----------------------------------------------------------

@dataclass
class _WorkerHandle:
    worker_id: int
    runner: Any                       # Process or Thread
    tasks: Any                        # task pipe (write end)
    inbox: Any                        # result pipe (read end)
    cancel_event: Optional[threading.Event] = None
    busy: Optional[str] = None        # ticket currently assigned
    attempt: Optional[int] = None     # ... and which attempt of it
    seen_keys: set = field(default_factory=set)


class WarmPool:
    """A fixed fleet of warm workers plus the shared design store.

    This pool is a dumb transport: the
    :class:`~repro.service.lifecycle.Lifecycle` loop (run by the daemon
    and by :class:`~repro.runtime.pool.WorkerPool`) owns scheduling,
    retries, timeouts and event routing, and drives the pool through
    :meth:`submit` / :meth:`poll` / :meth:`kill_worker`.  Messages from
    workers come back raw — ``_picked`` / QueueCallback loop events /
    ``_result``.

    ``start_method`` is ``"fork"`` / ``"spawn"`` / ``"forkserver"``;
    the default prefers ``fork`` and falls back to ``spawn``.  A name
    the platform lacks (``"thread"`` by convention) selects thread
    workers.
    """

    def __init__(
        self,
        workers: int = 2,
        start_method: Optional[str] = None,
        heartbeat_every: int = 25,
        checkpoint_dir: Optional[str] = None,
        max_resident: int = 8,
    ) -> None:
        self.heartbeat_every = heartbeat_every
        self.checkpoint_dir = checkpoint_dir
        self.max_resident = max(1, int(max_resident))
        self._ctx = _resolve_context(start_method)
        self.inline = self._ctx is None
        # Shared designs only make sense across process boundaries; the
        # thread fallback shares the worker-resident dicts natively.
        self.store = None if self.inline else DesignStore(self.max_resident)
        if not self.inline:
            # Start the resource tracker *before* forking workers.  A
            # worker forked while no tracker exists lazily spawns its
            # own on attach; that orphan tracker keeps the attach
            # registration forever and tries to unlink long-gone
            # segments at exit.  Pre-starting makes every worker
            # inherit the parent's tracker, where the duplicate
            # registration dedupes against the publisher's.
            with contextlib.suppress(Exception):  # tracker internals vary
                resource_tracker.ensure_running()
        # Guards the _workers dict itself: the daemon's drive loop
        # kills/respawns handles while HTTP threads walk them for
        # /stats.  Handle *fields* (busy, seen_keys) stay loop-owned.
        self._lock = threading.Lock()
        self._workers: Dict[int, _WorkerHandle] = {}
        # Workers start on their first job, after its design is
        # published: a parent that loads a design right after forking
        # takes a copy-on-write fault on every page it touches that its
        # fresh children still share, while children forked afterwards
        # share the already-written pages for free.
        self._unstarted = set(range(max(1, int(workers))))
        self._quarantined: set = set()
        self._manifest_sent: Dict[str, bool] = {}
        # Optional CircuitBreaker guarding shared-memory publishes
        # (installed by the daemon's supervisor): while open, submits
        # skip the manifest and workers cold-load — the cold-attach
        # degraded mode.
        self.store_guard = None

    # -- worker management -------------------------------------------

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        # Every worker talks over two pipes of its own.  A worker killed
        # mid-message (a crash, a deadline kill) can only break its own
        # channel — a shared queue would stay write-locked for every
        # other worker — and sends need no feeder thread, so a task
        # reaches its worker before the next one is even built.
        task_end, tasks = mp_connection.Pipe(duplex=False)
        inbox, out_end = mp_connection.Pipe(duplex=False)
        if self.inline:
            cancel: Optional[threading.Event] = threading.Event()
            runner: Any = threading.Thread(
                target=_warm_worker_main,
                args=(worker_id, task_end, out_end, self.heartbeat_every,
                      self.checkpoint_dir, self.max_resident, cancel),
                daemon=True,
                name=f"warm-worker-{worker_id}",
            )
        else:
            cancel = None
            runner = self._ctx.Process(
                target=_warm_worker_main,
                args=(worker_id, task_end, out_end, self.heartbeat_every,
                      self.checkpoint_dir, self.max_resident),
                daemon=True,
            )
        runner.start()
        if not self.inline:
            # The worker holds the only copies of its ends: its death
            # reads as EOF here, the parent's as a broken pipe there.
            task_end.close()
            out_end.close()
        handle = _WorkerHandle(worker_id=worker_id, runner=runner,
                               tasks=tasks, inbox=inbox,
                               cancel_event=cancel)
        with self._lock:
            self._workers[worker_id] = handle
            self._unstarted.discard(worker_id)
        return handle

    @property
    def workers(self) -> List[int]:
        with self._lock:
            return sorted(set(self._workers) | self._unstarted)

    def idle_workers(self) -> List[int]:
        """Workers that can take a job now (not yet started ones too)."""
        with self._lock:
            handles = list(self._workers.items())
            unstarted = set(self._unstarted)
            quarantined = set(self._quarantined)
        idle = unstarted | {wid for wid, h in handles
                            if h.busy is None and h.runner.is_alive()}
        return sorted(idle - quarantined)

    # -- quarantine ---------------------------------------------------
    # Quarantined workers stay alive (their resident designs may be
    # fine) but are excluded from rotation until the supervisor's
    # canary probe restores or replaces them.  Targeted submits
    # (worker_id=...) still reach them — that is how the canary runs.

    def quarantine(self, worker_id: int) -> None:
        with self._lock:
            self._quarantined.add(worker_id)

    def unquarantine(self, worker_id: int) -> None:
        with self._lock:
            self._quarantined.discard(worker_id)

    def quarantined(self) -> List[int]:
        with self._lock:
            return sorted(self._quarantined)

    def worker_alive(self, worker_id: int) -> bool:
        """Whether the worker was started and still runs."""
        with self._lock:
            handle = self._workers.get(worker_id)
        return bool(handle) and handle.runner.is_alive()

    def worker_busy(self, worker_id: int) -> Optional[str]:
        """The ticket a worker is running, or ``None`` when idle."""
        with self._lock:
            handle = self._workers.get(worker_id)
        return handle.busy if handle is not None else None

    def worker_for(self, ticket: str) -> Optional[int]:
        with self._lock:
            handles = list(self._workers.items())
        for wid, handle in handles:
            if handle.busy == ticket:
                return wid
        return None

    # -- job traffic --------------------------------------------------

    def submit(self, ticket: str, job: PlacementJob,
               resume: bool = False,
               worker_id: Optional[int] = None,
               chaos: Optional[Dict[str, Any]] = None,
               attempt: Optional[int] = None) -> int:
        """Hand one job to a worker; returns the worker id.

        Prefers an idle worker that already has the design resident
        (warm dispatch); the caller must keep submissions ≤ idle
        workers — an over-submit queues behind the busy worker.
        ``chaos`` rides the task message untouched (fault harness);
        ``attempt`` is echoed in the worker's ``_picked`` / ``_result``
        so a late message of an earlier attempt can be told apart.
        """
        key = design_key(job)
        if worker_id is None:
            idle = self.idle_workers()
            if not idle:
                idle = self.workers
            with self._lock:
                warm = [wid for wid in idle if wid in self._workers
                        and key in self._workers[wid].seen_keys]
            worker_id = (warm or idle)[0]
        with self._lock:
            handle = self._workers.get(worker_id)
        manifest = None
        if self.store is not None and (handle is None
                                       or key not in handle.seen_keys):
            guard = self.store_guard
            if guard is None or guard.allow():
                try:
                    manifest = self.store.manifest_for(job)
                except Exception:
                    # Publish failed (shm exhausted, segment vanished):
                    # degrade this dispatch to a cold load and let the
                    # breaker decide when to try publishing again.
                    if guard is not None:
                        guard.record_failure()
                    manifest = None
        if handle is None:
            handle = self._spawn(worker_id)
        handle.seen_keys.add(key)
        handle.busy = ticket
        handle.attempt = attempt
        with self._lock:
            self._manifest_sent[ticket] = manifest is not None
        # A worker that died since it was picked breaks the pipe; the
        # lifecycle's police finds it dead and replaces it.
        with contextlib.suppress(OSError):
            handle.tasks.send({"kind": "job", "ticket": ticket,
                               "attempt": attempt, "job": job.to_dict(),
                               "resume": bool(resume), "manifest": manifest,
                               "chaos": chaos})
        return worker_id

    def consume_manifest_flag(self, ticket: str) -> bool:
        """Whether ``ticket``'s dispatch carried a shm manifest (one
        query per dispatch — the flag pops).  The daemon compares this
        against the result's ``warm`` metric: a cold load despite a
        manifest means a worker failed to attach (unlinked segment)."""
        with self._lock:
            return self._manifest_sent.pop(ticket, False)

    def poll(self, timeout: float = 0.05) -> List[Dict[str, Any]]:
        """Worker messages: waits up to ``timeout`` seconds for the
        first, then takes whatever else is already queued.

        A ``_result`` of the attempt a worker is running frees that
        worker for the next submit.
        """
        messages = self._read_pipes(timeout)
        for message in messages:
            if message.get("event") != "_result":
                continue
            with self._lock:
                handle = self._workers.get(message.get("worker"))
            if handle is not None \
                    and handle.busy == message.get("ticket") \
                    and handle.attempt == message.get("attempt"):
                handle.busy = None
        return messages

    def _read_pipes(self, timeout: float) -> List[Dict[str, Any]]:
        with self._lock:
            owners = {handle.inbox: handle
                      for handle in self._workers.values()
                      if not handle.inbox.closed}
        messages: List[Dict[str, Any]] = []
        ready = mp_connection.wait(list(owners), max(0.0, timeout))
        while ready:
            for inbox in ready:
                try:
                    messages.append(inbox.recv())
                except (EOFError, OSError):
                    # The worker died, possibly mid-message: its pipe
                    # is done; the lifecycle's police sees the death.
                    inbox.close()
                    del owners[inbox]
            ready = mp_connection.wait(list(owners), 0)
        return messages

    def kill_worker(self, worker_id: int, respawn: bool = True) -> None:
        """Stop a worker mid-job (timeout/cancel) and replace it.

        Process mode terminates the worker (its resident designs die
        with it); thread mode requests cooperative cancellation and
        keeps the thread (threads cannot be killed).  A worker that
        never started is started (``respawn``) or dropped.
        """
        with self._lock:
            handle = self._workers.get(worker_id)
            unstarted = worker_id in self._unstarted
            if not respawn:
                self._unstarted.discard(worker_id)
        if handle is None:
            if unstarted and respawn:
                self._spawn(worker_id)
            return
        if self.inline:
            if handle.cancel_event is not None:
                handle.cancel_event.set()
            handle.busy = None
            return
        handle.runner.terminate()
        handle.runner.join(timeout=5)
        with self._lock:
            self._workers.pop(worker_id, None)
        handle.tasks.close()
        handle.inbox.close()
        if respawn:
            self._spawn(worker_id)

    def exitcode(self, worker_id: int) -> Optional[int]:
        """A dead process worker's exit code (``None`` while it runs,
        and always for thread workers)."""
        with self._lock:
            handle = self._workers.get(worker_id)
        return getattr(handle.runner, "exitcode", None) if handle else None

    # -- lifecycle ----------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        with self._lock:
            handles = list(self._workers.values())
        for handle in handles:
            with contextlib.suppress(OSError):  # the worker may be gone
                handle.tasks.send({"kind": "stop"})
        for handle in handles:
            handle.runner.join(timeout=timeout)
            if not self.inline and handle.runner.is_alive():
                handle.runner.terminate()
                handle.runner.join(timeout=1)
            handle.tasks.close()
            handle.inbox.close()
        with self._lock:
            self._workers.clear()
            self._unstarted.clear()
        if self.store is not None:
            self.store.close()
