"""Abacus legalization (Spindler, Schlichtmann, Johannes — DATE 2008).

Cells are inserted in x order.  Within a row segment, placed cells form
*clusters*; adding a cell may push a cluster left, and overlapping
clusters merge.  Each cluster sits at the weighted mean of its members'
desired positions (clamped to the segment), which minimises the total
weighted quadratic displacement for that row — the dynamic-programming
heart of Abacus.

For each cell we trial-insert into a few candidate rows (nearest first)
and commit to the row with the lowest resulting cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.legalize.rows import RowSpace, Segment, build_row_space
from repro.netlist import Netlist


@dataclass
class _Cluster:
    """A maximal run of abutting cells inside a segment."""

    x: float = 0.0          # left edge of the cluster
    e: float = 0.0          # total weight
    q: float = 0.0          # Σ e_i·(desired_i − offset_i)
    w: float = 0.0          # total width
    cells: List[Tuple[int, float, float]] = field(default_factory=list)
    # cells: (cell index, width, desired left edge)

    def add_cell(self, cell: int, width: float, desired: float, weight: float):
        self.cells.append((cell, width, desired))
        self.e += weight
        self.q += weight * (desired - self.w)
        self.w += width

    def merge(self, other: "_Cluster") -> None:
        for (cell, width, desired) in other.cells:
            self.cells.append((cell, width, desired))
        self.q += other.q - other.e * self.w
        self.e += other.e
        self.w += other.w

    def optimal_x(self, segment: Segment) -> float:
        return _optimal_x(self.q, self.e, self.w, segment)


class _SegmentState:
    """Cluster list of one segment: trial inserts and committed ones."""

    def __init__(self, segment: Segment) -> None:
        self.segment = segment
        self.clusters: List[_Cluster] = []
        self.used = 0.0

    def fits(self, width: float) -> bool:
        return self.segment.width - self.used >= width - 1e-9

    def trial(self, width: float, desired: float,
              weight: float) -> Optional[float]:
        """The left edge a cell would get from :meth:`place`, or ``None``
        if it does not fit; the clusters are left as they are.

        Walks back over the tail clusters the insert would merge, with
        the committing path's arithmetic in its order, so the edge is
        bit-identical to the one the committed clusters give.
        """
        if not self.fits(width):
            return None
        segment = self.segment
        # The fresh cluster of the cell alone (``_Cluster.add_cell``).
        e = 0.0 + weight
        q = 0.0 + weight * (desired - 0.0)
        w = 0.0 + width
        x = _optimal_x(q, e, w, segment)
        clusters = self.clusters
        first = len(clusters)
        while first:
            prev = clusters[first - 1]
            if prev.x + prev.w <= x + 1e-12:
                break
            first -= 1
            # ``prev.merge(tail)``, the merged tail's edge re-optimised.
            q = prev.q + (q - e * prev.w)
            e = prev.e + e
            w = prev.w + w
            x = _optimal_x(q, e, w, segment)
        for cluster in clusters[first:]:
            for (__, cw, __) in cluster.cells:
                x += cw
        return x

    def place(self, cell: int, width: float, desired: float,
              weight: float) -> None:
        """Insert a cell that :meth:`fits`.

        Abacus collapse: append as a fresh cluster, then merge backward
        while clusters overlap, re-optimising positions.
        """
        clusters = self.clusters
        cluster = _Cluster()
        cluster.add_cell(cell, width, desired, weight)
        cluster.x = cluster.optimal_x(self.segment)
        clusters.append(cluster)
        # Collapse: merge with predecessor while they overlap.
        while len(clusters) >= 2:
            prev, last = clusters[-2], clusters[-1]
            if prev.x + prev.w <= last.x + 1e-12:
                break
            prev.merge(last)
            clusters.pop()
            prev.x = prev.optimal_x(self.segment)
        self.used += width


def _optimal_x(q: float, e: float, w: float, segment: Segment) -> float:
    """:meth:`_Cluster.optimal_x` of a cluster with these sums."""
    x = q / e if e > 0 else segment.xl
    return min(max(x, segment.xl), segment.xh - w)


class AbacusLegalizer:
    """Displacement-optimal row-cluster legalizer."""

    def __init__(self, netlist: Netlist, candidate_rows: int = 8,
                 weight_by_area: bool = True) -> None:
        self.netlist = netlist
        self.candidate_rows = candidate_rows
        self.weight_by_area = weight_by_area

    # ------------------------------------------------------------------
    def legalize(
        self,
        x: np.ndarray,
        y: np.ndarray,
        cells: np.ndarray = None,
        space=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Legalize ``cells`` (default: all movables) within ``space``
        (default: die rows minus macro blockages)."""
        netlist = self.netlist
        space = space or build_row_space(netlist)
        states = [
            [_SegmentState(seg) for seg in row_segs] for row_segs in space.segments
        ]
        row_centers = np.array(
            [space.row_center_y(r) for r in range(space.num_rows)]
        )

        movable = netlist.movable_index if cells is None else np.asarray(cells)
        order = movable[np.argsort(x[movable] - netlist.cell_w[movable] / 2)]
        placement: dict = {}

        for cell in order:
            w = netlist.cell_w[cell]
            desired = x[cell] - w / 2
            weight = netlist.cell_area[cell] if self.weight_by_area else 1.0
            weight = max(weight, 1e-9)
            target_y = y[cell]
            rows_near = np.argsort(np.abs(row_centers - target_y))
            best_cost = np.inf
            best_choice = None
            tried = 0
            for row_i in rows_near:
                dy = abs(row_centers[row_i] - target_y)
                if best_choice is not None and dy >= best_cost:
                    break
                if tried >= self.candidate_rows and best_choice is not None:
                    break
                row_has_fit = False
                for seg_i, state in enumerate(states[row_i]):
                    pos = state.trial(w, desired, weight)
                    if pos is None:
                        continue
                    row_has_fit = True
                    cost = abs(pos - desired) + dy
                    if cost < best_cost:
                        best_cost = cost
                        best_choice = (int(row_i), seg_i)
                if row_has_fit:
                    tried += 1
            if best_choice is None:
                raise RuntimeError(
                    f"abacus legalization failed: no row fits cell "
                    f"{netlist.cell_name[cell]} (width {w})"
                )
            row_i, seg_i = best_choice
            states[row_i][seg_i].place(cell, w, desired, weight)
            placement[cell] = row_i

        # Final cluster positions determine every cell's location.
        out_x = x.copy()
        out_y = y.copy()
        for row_i, row_states in enumerate(states):
            row = space.rows[row_i]
            for state in row_states:
                for cluster in state.clusters:
                    offset = cluster.x
                    for (cell, cw, __) in cluster.cells:
                        out_x[cell] = offset + cw / 2
                        out_y[cell] = row.y + self.netlist.cell_h[cell] / 2
                        offset += cw
        return out_x, out_y
