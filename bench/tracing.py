"""Spans recorded from outside the program, by wrapping public functions.

A :class:`Tracer` replaces chosen class or module attributes with timing
wrappers, keeps one :class:`Span` per call in memory (name, start, end,
parent, thread) and puts every original attribute back on
:meth:`Tracer.restore`.  Nothing under ``src/`` changes: the wrappers are
the benchmark's own code around calls into each layer.

Wrappers take no lock, so a process forked while a traced call runs in
another thread cannot inherit a held lock; spans a forked worker records
stay in that worker and are not collected.

Self time is a span's duration minus the part of it that its child spans
cover.  :func:`write_chrome_trace` writes the spans as Chrome trace-event
JSON (load it in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# inspect(args, result) -> extra fields stored on the span
Inspect = Callable[[tuple, Any], Dict[str, Any]]


@dataclass
class Span:
    """One traced call."""

    id: int
    name: str
    parent: Optional[int]
    tid: int
    start: float = 0.0
    end: float = 0.0
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: Any, attr: str, name: str,
             inspect: Optional[Inspect] = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``owner`` is a class or a module that itself defines ``attr`` as
        a plain function, so that :meth:`restore` can put back exactly
        the object it found.
        """
        original = vars(owner).get(attr)
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{owner!r}.{attr} is not a plain function "
                            f"defined there")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), name,
                        stack[-1].id if stack else None,
                        threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if inspect is not None:
                span.info = inspect(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def originals(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, attr, original)`` of every installed wrapper."""
        return list(self._patched)


def span_cost(calls: int = 20_000) -> float:
    """Seconds a wrapper adds to one call (best of three trials)."""

    class Probe:
        def call(self) -> None:
            return None

    probe = Probe()

    def trial() -> float:
        began = time.perf_counter()
        for _ in range(calls):
            probe.call()
        return time.perf_counter() - began

    plain = min(trial() for _ in range(3))
    tracer = Tracer()
    tracer.wrap(Probe, "call", "Probe.call")
    try:
        wrapped = min(trial() for _ in range(3))
    finally:
        tracer.restore()
    return max(wrapped - plain, 0.0) / calls


# ----------------------------------------------------------------------
def _run_info(args: tuple, result: Any) -> Dict[str, Any]:
    """Design and iterations of a GP run, plus the arena it left behind."""
    placer = args[0]
    info = {"design": placer.netlist.name, "iterations": result.iterations}
    engine = getattr(placer, "engine", None)
    if engine is not None and engine.workspace is not None:
        info["arena_bytes"] = engine.workspace.nbytes
        info["arena_misses"] = engine.workspace.misses
    return info


def install_repro(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads exercise."""
    import repro
    import repro.benchgen
    import repro.benchgen.suites
    from repro.baseline import DreamPlaceStyleBaseline
    from repro.core.gradient_engine import GradientEngine
    from repro.core.placer import XPlacer
    from repro.density.electrostatics import ElectrostaticSolver
    from repro.density.scatter import DensityScatter
    from repro.density.system import DensitySystem
    from repro.detail import DetailedPlacer
    from repro.legalize import FenceAwareLegalizer
    from repro.optim import NesterovOptimizer, Preconditioner
    from repro.pipeline import Pipeline
    from repro.route import GlobalRouter
    from repro.service.daemon import PlacementService
    from repro.service.journal import Journal
    from repro.supervision.breakers import GuardedResultCache
    from repro.wirelength import WirelengthOp

    methods = [
        (XPlacer, "run", _run_info),
        (DreamPlaceStyleBaseline, "run", _run_info),
        (GradientEngine, "compute", None),
        (GradientEngine, "assemble", None),
        (WirelengthOp, "__call__", None),
        (DensitySystem, "evaluate", None),
        (DensityScatter, "scatter", None),
        (DensityScatter, "gather", None),
        (DensityScatter, "gather_pair", None),
        (DensityScatter, "prepare_windows", None),
        (ElectrostaticSolver, "solve", None),
        (Preconditioner, "apply", None),
        (NesterovOptimizer, "step", None),
        (Pipeline, "run", None),
        (FenceAwareLegalizer, "legalize", None),
        (DetailedPlacer, "place", None),
        (GlobalRouter, "route", None),
        (PlacementService, "submit", None),
        (Journal, "append", None),
        (GuardedResultCache, "get", None),
        (GuardedResultCache, "put", None),
    ]
    for owner, attr, inspect in methods:
        tracer.wrap(owner, attr, f"{owner.__name__}.{attr}", inspect)
    # make_design is re-exported; callers look it up in any of these.
    for module in (repro.benchgen.suites, repro.benchgen, repro):
        tracer.wrap(module, "make_design", "make_design")


# ----------------------------------------------------------------------
class SpanIndex:
    """Parent/child structure and self times of a set of spans."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.by_id = {span.id: span for span in self.spans}
        self.children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the child intervals."""
        covered = 0.0
        cursor = span.start
        for child in sorted(self.children.get(span.id, ()),
                            key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def root_of(self, span: Span, names: Sequence[str]) -> Optional[Span]:
        """The nearest ancestor (or ``span`` itself) named in ``names``."""
        node: Optional[Span] = span
        while node is not None:
            if node.name in names:
                return node
            node = self.by_id.get(node.parent) if node.parent is not None \
                else None
        return None

    def under(self, names: Sequence[str]) -> Dict[int, List[Span]]:
        """Spans grouped by their nearest ancestor named in ``names``."""
        groups: Dict[int, List[Span]] = {}
        for span in self.spans:
            root = self.root_of(span, names)
            if root is not None:
                groups.setdefault(root.id, []).append(span)
        return groups


def write_chrome_trace(spans: Sequence[Span], path: str) -> str:
    """Write ``spans`` as Chrome trace-event JSON ("X" complete events)."""
    if spans:
        origin = min(span.start for span in spans)
    else:
        origin = 0.0
    events = [
        {
            "name": span.name,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": os.getpid(),
            "tid": span.tid,
            "args": {"id": span.id, "parent": span.parent, **span.info},
        }
        for span in sorted(spans, key=lambda s: s.start)
    ]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return path
