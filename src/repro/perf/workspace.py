"""The Workspace buffer arena: named, preallocated kernel scratch.

Every GP iteration evaluates the same operators on the same-shaped
arrays, yet the straightforward NumPy spelling allocates dozens of pin-
and grid-sized temporaries per iteration — the CPU analogue of the
per-kernel launch overhead the paper drives to zero by operator
reduction (Section 3.1).  A :class:`Workspace` removes that overhead:
operators request named scratch buffers once and NumPy ufuncs write
into them with ``out=`` on every subsequent iteration.

Keys are ``(name, shape, dtype)``, so one logical buffer name may back
several populations (e.g. the scatter loop temporaries for movable
cells *and* fillers) without thrashing: each distinct shape gets its
own persistent array.  After a warm-up pass the steady-state hot loop
performs **zero** arena allocations — ``misses`` stops growing, which
the test suite asserts directly.

Contents of a buffer returned by :meth:`get` are *unspecified* (like
``np.empty``); callers must fully overwrite it or use :meth:`zeros`.
Buffers are only valid until the same key is requested again, so
operators must not hand workspace arrays to consumers that retain them
across iterations (the gradient engine copies anything it caches).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.dtypes import FLOAT, INT


class Workspace:
    """Shape/dtype-keyed arena of reusable scratch arrays."""

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, Tuple[int, ...], Any], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get(
        self,
        name: str,
        shape,
        dtype=FLOAT,
    ) -> np.ndarray:
        """A reusable buffer for ``name`` with the given shape/dtype.

        Contents are unspecified (first request) or whatever the last
        user of the same key left behind — treat it like ``np.empty``.
        """
        if not isinstance(shape, tuple):
            shape = (int(shape),)
        key = (name, shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            self.misses += 1
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        else:
            self.hits += 1
        return buf

    def zeros(self, name: str, shape, dtype=FLOAT) -> np.ndarray:
        """Like :meth:`get` but zero-filled on every request."""
        buf = self.get(name, shape, dtype)
        buf.fill(0)
        return buf

    def arange(self, n: int) -> np.ndarray:
        """Cached ``np.arange(n, dtype=INT)`` (a read-only index ramp)."""
        key = ("__arange__", (int(n),), np.dtype(INT))
        buf = self._buffers.get(key)
        if buf is None:
            self.misses += 1
            buf = np.arange(n, dtype=INT)
            buf.setflags(write=False)
            self._buffers[key] = buf
        else:
            self.hits += 1
        return buf

    # ------------------------------------------------------------------
    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def nbytes_by_prefix(self) -> Dict[str, int]:
        """Bytes held per buffer-name prefix (text before the first dot).

        Operators namespace their buffers (``wa.*``, ``sc.*``, ``es.*``,
        ``eng.*``), so this is a per-operator peak-scratch breakdown.
        """
        totals: Dict[str, int] = {}
        for (name, _shape, _dtype), buf in self._buffers.items():
            prefix = name.split(".", 1)[0]
            totals[prefix] = totals.get(prefix, 0) + buf.nbytes
        return totals

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly summary: hit/miss counters + held bytes."""
        total = self.hits + self.misses
        return {
            "buffers": self.num_buffers,
            "nbytes": int(self.nbytes),
            "hits": int(self.hits),
            "misses": int(self.misses),
            "hit_rate": (self.hits / total) if total else 0.0,
            "nbytes_by_operator": self.nbytes_by_prefix(),
        }

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (buffers stay warm)."""
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        """Drop every buffer (and the counters)."""
        self._buffers.clear()
        self.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workspace(buffers={self.num_buffers}, "
            f"nbytes={self.nbytes}, hits={self.hits}, misses={self.misses})"
        )

