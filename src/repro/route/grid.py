"""G-cell grid with horizontal/vertical edge capacities and demand."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.netlist import PlacementRegion

_PAIRWISE_BLOCK = 128


def pairwise_sum(
    values: Sequence[float], lo: int = 0, hi: Optional[int] = None
) -> float:
    """``values[lo:hi]`` summed in ``np.sum``'s pairwise order.

    The result equals ``np.sum`` on the same float64 values bit for bit:
    sequential below 8 terms, 8 running lanes combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` plus the tail up to 128
    terms, and above that a split at ``n//2 - (n//2) % 8``.
    """
    if hi is None:
        hi = len(values)
    n = hi - lo
    if n < 8:
        total = 0.0
        for index in range(lo, hi):
            total += values[index]
        return total
    if n > _PAIRWISE_BLOCK:
        half = n // 2
        half -= half % 8
        return pairwise_sum(values, lo, lo + half) + pairwise_sum(
            values, lo + half, hi
        )
    r0, r1, r2, r3, r4, r5, r6, r7 = values[lo : lo + 8]
    end = hi - n % 8
    for index in range(lo + 8, end, 8):
        r0 += values[index]
        r1 += values[index + 1]
        r2 += values[index + 2]
        r3 += values[index + 3]
        r4 += values[index + 4]
        r5 += values[index + 5]
        r6 += values[index + 6]
        r7 += values[index + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for index in range(end, hi):
        total += values[index]
    return total


def run_cost(usage: Sequence[float], capacity: float) -> float:
    """Cost of one straight run over grid edges with these usages.

    Each edge costs 1 plus the square of the amount one more wire would
    exceed its capacity, ``max(u + 1 - capacity, 0)**2``.  Capacities
    are fractional, so the squares are too and their sum depends on the
    order: it is taken in ``np.sum``'s pairwise order.
    """
    if not usage:
        return 0.0
    if max(usage) + 1.0 - capacity <= 0.0:
        return float(len(usage))
    squares = [e * e if (e := u + 1.0 - capacity) > 0.0 else 0.0 for u in usage]
    return len(usage) + pairwise_sum(squares)


class RoutingGrid:
    """Uniform g-cell grid over the die.

    Demand is tracked on g-cell *edges*: ``h_demand[i, j]`` is the usage
    of the edge from g-cell (i, j) to (i+1, j) (a horizontal wire), and
    ``v_demand[i, j]`` the edge to (i, j+1).  Capacities default to a
    uniform track count per edge.
    """

    def __init__(
        self,
        region: PlacementRegion,
        m: int = 32,
        h_capacity: float = 10.0,
        v_capacity: float = 10.0,
    ) -> None:
        if m < 2:
            raise ValueError("routing grid needs at least 2x2 g-cells")
        self.region = region
        self.m = int(m)
        self.h_capacity = float(h_capacity)
        self.v_capacity = float(v_capacity)
        self.h_demand = np.zeros((self.m - 1, self.m))
        self.v_demand = np.zeros((self.m, self.m - 1))

    @property
    def gcell_w(self) -> float:
        return self.region.width / self.m

    @property
    def gcell_h(self) -> float:
        return self.region.height / self.m

    def gcell_of(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Clamped g-cell indices of points."""
        i = np.clip(
            ((np.asarray(x) - self.region.xl) / self.gcell_w).astype(np.int64),
            0,
            self.m - 1,
        )
        j = np.clip(
            ((np.asarray(y) - self.region.yl) / self.gcell_h).astype(np.int64),
            0,
            self.m - 1,
        )
        return i, j

    def reset(self) -> None:
        self.h_demand[:] = 0.0
        self.v_demand[:] = 0.0

    # ------------------------------------------------------------------
    def add_horizontal(self, i0: int, i1: int, j: int, amount: float = 1.0) -> None:
        """Add demand along the horizontal run between columns i0..i1."""
        lo, hi = (i0, i1) if i0 <= i1 else (i1, i0)
        if hi > lo:
            self.h_demand[lo:hi, j] += amount

    def add_vertical(self, i: int, j0: int, j1: int, amount: float = 1.0) -> None:
        lo, hi = (j0, j1) if j0 <= j1 else (j1, j0)
        if hi > lo:
            self.v_demand[i, lo:hi] += amount

    def path_cost(self, i0: int, j0: int, i1: int, j1: int, corner: str) -> float:
        """Total congestion-aware cost of an L path through one corner.

        ``corner='hv'`` routes horizontal-then-vertical; ``'vh'`` the
        opposite.  Cost per edge = 1 + overflow penalty (quadratic in the
        amount the edge exceeds capacity), the usual negotiated-congestion
        shape.
        """
        if corner == "hv":
            h = self._h_cost(i0, i1, j0)
            v = self._v_cost(i1, j0, j1)
        else:
            v = self._v_cost(i0, j0, j1)
            h = self._h_cost(i0, i1, j1)
        return h + v

    def _h_cost(self, i0: int, i1: int, j: int) -> float:
        lo, hi = (i0, i1) if i0 <= i1 else (i1, i0)
        return run_cost(self.h_demand[lo:hi, j].tolist(), self.h_capacity)

    def _v_cost(self, i: int, j0: int, j1: int) -> float:
        lo, hi = (j0, j1) if j0 <= j1 else (j1, j0)
        return run_cost(self.v_demand[i, lo:hi].tolist(), self.v_capacity)

    # ------------------------------------------------------------------
    def overflow_map(self) -> np.ndarray:
        """Per-g-cell overflow: excess demand of the edges leaving each
        g-cell over their capacities (the quantity NCTUgr reports)."""
        over = np.zeros((self.m, self.m))
        h_over = np.clip(self.h_demand - self.h_capacity, 0.0, None)
        v_over = np.clip(self.v_demand - self.v_capacity, 0.0, None)
        over[: self.m - 1, :] += h_over
        over[1:, :] += h_over
        over[:, : self.m - 1] += v_over
        over[:, 1:] += v_over
        return over / 2.0

    def top_overflow(self, fraction: float = 0.05) -> float:
        """Mean overflow of the top ``fraction`` most congested g-cells."""
        flat = np.sort(self.overflow_map().ravel())[::-1]
        count = max(1, int(np.ceil(fraction * flat.size)))
        return float(flat[:count].mean())

    def total_overflow(self) -> float:
        return float(
            np.sum(np.clip(self.h_demand - self.h_capacity, 0, None))
            + np.sum(np.clip(self.v_demand - self.v_capacity, 0, None))
        )

    def wirelength(self) -> float:
        """Total routed wirelength in physical units."""
        return float(
            self.h_demand.sum() * self.gcell_w + self.v_demand.sum() * self.gcell_h
        )
