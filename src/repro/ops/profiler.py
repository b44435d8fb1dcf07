"""Kernel-launch accounting and (opt-in) per-operator wall time.

Every placement operator reports its vectorised-kernel dispatches to the
active profiler.  The counts model the CPU-side launch overhead that
dominates small operators on GPU (Section 3.1.3): fewer launches ⇒ less
fixed overhead per GP iteration.

Launch *counts* are always free to record.  Wall-clock *seconds* are
opt-in (``KernelProfiler(timed=True)``): operators wrap their bodies in
``with timed("name"):`` spans, which are a shared ``nullcontext`` —
no clock reads, no allocation — unless the active profiler asked for
timing.  The runtime workers turn timing on; the bare GP loop keeps the
null path.

Scope caveat: the "active" profiler is **thread-local** state.  It is
not inherited by new threads, and it is silently absent in worker
*processes* (``multiprocessing`` children start with a fresh
``threading.local``, under fork and spawn alike), where every
``profiled(...)`` call lands on the no-op null profiler.  Code that
fans placements out across processes must install a profiler *inside*
each worker — :func:`repro.runtime.job.execute_job` does exactly that
(``with use_profiler() as prof``) and merges the totals into the job's
``FlowReport`` metrics under the synthetic ``runtime`` stage, so batch
runs keep per-job kernel accounting even though no profiler was active
in the parent.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter
from typing import ContextManager, Dict, Iterator, Optional

_NULL_SPAN = contextlib.nullcontext()


class _Span:
    """Times one operator region into ``profiler.seconds[name]``."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "KernelProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profiler.seconds[self._name] += time.perf_counter() - self._start


class KernelProfiler:
    """Counts kernel launches by name, with iteration snapshots.

    With ``timed=True`` the :func:`timed` spans placed in the operator
    bodies also accumulate per-operator wall-clock seconds.
    """

    def __init__(self, timed: bool = False) -> None:
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.timed = timed
        self._marks: Dict[str, int] = {}

    def launch(self, name: str, n: int = 1) -> None:
        """Record ``n`` kernel dispatches of operator ``name``."""
        self.counts[name] += n

    def span(self, name: str) -> ContextManager:
        """A timing context for ``name`` (free no-op unless ``timed``)."""
        if not self.timed:
            return _NULL_SPAN
        return _Span(self, name)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def total_seconds(self) -> float:
        return float(sum(self.seconds.values()))

    def reset(self) -> None:
        self.counts.clear()
        self.seconds.clear()
        self._marks.clear()

    def mark(self, label: str) -> None:
        """Remember the current total under ``label`` (e.g. iteration start)."""
        self._marks[label] = self.total

    def since(self, label: str) -> int:
        """Launches recorded since :meth:`mark`\\ (``label``)."""
        return self.total - self._marks.get(label, 0)

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of the per-operator counts (JSON-friendly)."""
        return {name: int(count) for name, count in self.counts.items()}

    def snapshot_seconds(self) -> Dict[str, float]:
        """Plain-dict copy of the per-operator seconds (JSON-friendly)."""
        return {name: float(sec) for name, sec in self.seconds.items()}

    def merge(self, counts: Dict[str, int],
              seconds: Optional[Dict[str, float]] = None) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        This is how per-process totals from runtime workers are folded
        back into a parent-side aggregate.
        """
        self.counts.update(Counter(counts))
        if seconds:
            self.seconds.update(Counter(seconds))

    def summary(self, top: int = 10) -> str:
        lines = [f"total kernel launches: {self.total}"]
        for name, count in self.counts.most_common(top):
            sec = self.seconds.get(name)
            timing = f"  {sec:.4f}s" if sec is not None else ""
            lines.append(f"  {name:<32s} {count}{timing}")
        return "\n".join(lines)


class _NullProfiler(KernelProfiler):
    """Free no-op profiler used when nothing is being measured."""

    def launch(self, name: str, n: int = 1) -> None:  # noqa: D102
        pass

    def span(self, name: str) -> ContextManager:  # noqa: D102
        return _NULL_SPAN


_NULL = _NullProfiler()
_state = threading.local()


def get_profiler() -> KernelProfiler:
    """The profiler active on this thread (a no-op one by default)."""
    return getattr(_state, "profiler", _NULL)


@contextlib.contextmanager
def use_profiler(profiler: Optional[KernelProfiler] = None) -> Iterator[KernelProfiler]:
    """Activate ``profiler`` (or a fresh one) for the enclosed block."""
    if profiler is None:
        profiler = KernelProfiler()
    previous = getattr(_state, "profiler", _NULL)
    _state.profiler = profiler
    try:
        yield profiler
    finally:
        _state.profiler = previous


def profiled(name: str, n: int = 1) -> None:
    """Module-level shorthand for ``get_profiler().launch(name, n)``."""
    get_profiler().launch(name, n)


def timed(name: str) -> ContextManager:
    """Wall-time span for operator ``name`` on the active profiler.

    Returns a shared ``nullcontext`` unless the active profiler was
    built with ``timed=True``, so instrumented operators cost nothing
    in the default configuration.
    """
    return get_profiler().span(name)
