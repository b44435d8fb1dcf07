"""Congestion-aware pattern router with rip-up-and-reroute."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.netlist import Netlist
from repro.route.grid import RoutingGrid, run_cost
from repro.route.steiner import decompose_nets


@dataclass
class RoutingResult:
    """Summary of one global routing run."""

    top5_overflow: float
    total_overflow: float
    wirelength: float
    num_edges: int
    gr_seconds: float
    grid: RoutingGrid


class GlobalRouter:
    """L/Z pattern router over a :class:`RoutingGrid`.

    Each two-pin edge is routed with the cheaper of the two L shapes
    under a congestion-aware edge cost.  Optional rip-up-and-reroute
    passes re-route the edges crossing overflowed g-cells, trying Z
    shapes as well.  This is the fidelity class of routers used for
    placement routability scoring (what top5 overflow needs), not a
    detailed router.

    Every shape is a column ``k``: a horizontal run from ``i0`` to ``k``
    on row ``j0``, a vertical run on column ``k`` and a horizontal run
    from ``k`` to ``i1`` on row ``j1``.  ``k = i1`` is the
    horizontal-first L, ``k = i0`` the vertical-first L, and a Z splits
    at a column in between.

    :func:`decompose_nets` splits all nets in one batched pass.  The
    edges are then routed one at a time in scalar Python over list
    copies of the demand maps (horizontal demand transposed, so every
    run is one list slice); numpy calls are per pass, not per edge.
    Run costs come from :func:`repro.route.grid.run_cost`, whose
    pairwise sum reproduces ``np.sum`` bit for bit, because fractional
    capacities make the penalty sum order-dependent.  The lists are
    written back into the grid before each overflow map and at the end.
    """

    def __init__(
        self,
        netlist: Netlist,
        grid_m: int = 32,
        capacity_per_gcell: Optional[float] = None,
        rrr_passes: int = 1,
    ) -> None:
        self.netlist = netlist
        self.rrr_passes = rrr_passes
        if capacity_per_gcell is None:
            capacity_per_gcell = self._auto_capacity(grid_m)
        self.grid = RoutingGrid(
            netlist.region,
            m=grid_m,
            h_capacity=capacity_per_gcell,
            v_capacity=capacity_per_gcell,
        )

    def _auto_capacity(self, grid_m: int) -> float:
        """Capacity so that a well-spread placement is near (just under)
        saturation — the regime where top5 overflow discriminates."""
        nl = self.netlist
        # Expected demand ≈ pins · average edge span; calibrate to ~85%.
        expected_edges = max(nl.num_pins - nl.num_nets, 1)
        avg_span = grid_m / 6.0
        total_edge_slots = 2 * grid_m * (grid_m - 1)
        return max(2.0, 0.85 * expected_edges * avg_span / total_edge_slots)

    # ------------------------------------------------------------------
    def route(self, x: np.ndarray, y: np.ndarray) -> RoutingResult:
        """Route every net for the placement ``(x, y)``."""
        start = time.perf_counter()
        grid = self.grid
        nl = self.netlist
        px, py = nl.pin_positions(x, y)
        gi, gj = grid.gcell_of(px, py)
        edges = decompose_nets(gi, gj, nl.net_start)
        self._route_edges(edges)
        return RoutingResult(
            top5_overflow=grid.top_overflow(0.05),
            total_overflow=grid.total_overflow(),
            wirelength=grid.wirelength(),
            num_edges=len(edges),
            gr_seconds=time.perf_counter() - start,
            grid=grid,
        )

    # ------------------------------------------------------------------
    def _route_edges(self, edges: np.ndarray) -> List[int]:
        """Route ``(i0, j0, i1, j1)`` rows in order into the grid's demand
        maps (replacing what they held); return each edge's column."""
        grid = self.grid
        m = grid.m
        h_cap, v_cap = grid.h_capacity, grid.v_capacity
        h = [[0.0] * (m - 1) for __ in range(m)]  # h[j][i] = h_demand[i, j]
        v = [[0.0] * (m - 1) for __ in range(m)]  # v[i][j] = v_demand[i, j]

        def cheapest(i0: int, j0: int, i1: int, j1: int, with_z: bool) -> int:
            """Least-cost column among both Ls (and the Z splits when
            ``with_z``).  The first wins ties, so the horizontal-first L
            is preferred; a straight edge has one shape."""
            if i0 == i1 or j0 == j1:
                return i1
            lo, hi = (i0, i1) if i0 < i1 else (i1, i0)
            jlo, jhi = (j0, j1) if j0 < j1 else (j1, j0)
            first, last = h[j0], h[j1]
            best_k = i1
            best = run_cost(first[lo:hi], h_cap) + run_cost(v[i1][jlo:jhi], v_cap)
            c = run_cost(v[i0][jlo:jhi], v_cap) + run_cost(last[lo:hi], h_cap)
            if c < best:
                best_k, best = i0, c
            for k in _z_columns(lo, hi) if with_z else ():
                a, b = (first[i0:k], last[k:i1]) if i0 < i1 else (
                    first[k:i0], last[i1:k])
                c = (
                    run_cost(a, h_cap) + run_cost(v[k][jlo:jhi], v_cap)
                    + run_cost(b, h_cap)
                )
                if c < best:
                    best_k, best = k, c
            return best_k

        def commit(i0: int, j0: int, i1: int, j1: int, k: int, amount: float):
            for run, a, b in ((h[j0], i0, k), (v[k], j0, j1), (h[j1], k, i1)):
                if a > b:
                    a, b = b, a
                run[a:b] = [u + amount for u in run[a:b]]

        rows = edges.tolist()
        columns = []
        for i0, j0, i1, j1 in rows:
            k = cheapest(i0, j0, i1, j1, False)
            commit(i0, j0, i1, j1, k, 1.0)
            columns.append(k)

        for __ in range(self.rrr_passes):
            self._store(h, v)
            if grid.total_overflow() <= 0:
                break
            for e in np.flatnonzero(self._crossing(edges)).tolist():
                i0, j0, i1, j1 = rows[e]
                commit(i0, j0, i1, j1, columns[e], -1.0)
                columns[e] = cheapest(i0, j0, i1, j1, True)
                commit(i0, j0, i1, j1, columns[e], 1.0)
        self._store(h, v)
        return columns

    def _store(self, h: List[List[float]], v: List[List[float]]) -> None:
        self.grid.h_demand[:] = np.array(h).T
        self.grid.v_demand[:] = v

    def _crossing(self, edges: np.ndarray) -> np.ndarray:
        """Edges whose bounding box holds an overflowed g-cell (one 2-D
        prefix count over the current overflow map)."""
        m = self.grid.m
        count = np.zeros((m + 1, m + 1), dtype=np.int64)
        count[1:, 1:] = (self.grid.overflow_map() > 0).cumsum(0).cumsum(1)
        lo_i = np.minimum(edges[:, 0], edges[:, 2])
        hi_i = np.maximum(edges[:, 0], edges[:, 2]) + 1
        lo_j = np.minimum(edges[:, 1], edges[:, 3])
        hi_j = np.maximum(edges[:, 1], edges[:, 3]) + 1
        inside = (
            count[hi_i, hi_j] - count[lo_i, hi_j]
            - count[hi_i, lo_j] + count[lo_i, lo_j]
        )
        return inside > 0


def _z_columns(lo: int, hi: int) -> Tuple[int, ...]:
    """The Z split columns tried between ``lo`` and ``hi``: up to three,
    evenly spaced over ``lo + 1 .. hi - 1`` and truncated, as
    ``np.linspace(lo + 1, hi - 1, min(3, hi - lo - 1)).astype(int)``."""
    span = hi - lo
    if span < 2:
        return ()
    if span == 2:
        return (lo + 1,)
    if span == 3:
        return (lo + 1, lo + 2)
    return (lo + 1, lo + 1 + (span - 2) // 2, hi - 1)
