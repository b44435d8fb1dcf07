"""Row/segment occupancy model for detailed placement."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.legalize.rows import RowSpace, build_row_space
from repro.netlist import Netlist


class PlacementRows:
    """Cells organised by (row, segment), kept sorted by x.

    Provides the slot geometry the DP operators need: for any placed cell,
    the free span between its neighbours; for any coordinate, the nearby
    cells.  Mutations keep the structure consistent.
    """

    def __init__(self, netlist: Netlist, x: np.ndarray, y: np.ndarray) -> None:
        self.netlist = netlist
        self.space: RowSpace = self._build_space(netlist)
        self.x = x.copy()
        self.y = y.copy()
        self._row_centers = np.array(
            [self.space.row_center_y(r) for r in range(self.space.num_rows)]
        )
        # cell -> (row, segment), also as per-cell arrays (-1: not placed
        # in a row) for vectorized queries; segment cell lists sorted by x.
        self.cell_slot: Dict[int, Tuple[int, int]] = {}
        self.row_of = np.full(netlist.num_cells, -1, dtype=np.int64)
        self.seg_of = np.full(netlist.num_cells, -1, dtype=np.int64)
        # Movable cells grouped by row, rebuilt lazily after a row change.
        self._by_row: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.members: List[List[List[int]]] = [
            [[] for __ in row_segs] for row_segs in self.space.segments
        ]
        self._assign_all()

    # ------------------------------------------------------------------
    @staticmethod
    def _build_space(netlist: Netlist) -> RowSpace:
        """Row space partitioned at fence boundaries.

        Fence boxes split every row they cross: the outside parts come
        from treating the boxes as blockages, the inside parts from
        clipping to them.  Members and non-members therefore never share
        a segment, so segment-local DP moves can't cross a fence edge.
        """
        if not netlist.fences:
            return build_row_space(netlist)
        boxes = tuple(box for fence in netlist.fences for box in fence.boxes)
        outside = build_row_space(netlist, extra_blockages=boxes)
        merged = [list(segs) for segs in outside.segments]
        for fence in netlist.fences:
            inside = build_row_space(netlist, clip_boxes=fence.boxes)
            for row_i, segs in enumerate(inside.segments):
                merged[row_i].extend(segs)
        for segs in merged:
            segs.sort(key=lambda s: s.xl)
        return RowSpace(
            rows=outside.rows, segments=merged, site_width=outside.site_width
        )

    def _assign_all(self) -> None:
        netlist = self.netlist
        region = netlist.region
        row_height = region.row_height
        for cell in netlist.movable_index:
            yl = self.y[cell] - netlist.cell_h[cell] / 2
            row_i = int(round((yl - region.yl) / row_height))
            row_i = min(max(row_i, 0), self.space.num_rows - 1)
            seg_i = self._segment_of(row_i, self.x[cell])
            if seg_i is None:
                raise ValueError(
                    f"cell {netlist.cell_name[cell]} lies outside every free "
                    f"segment of row {row_i}; run legalization first"
                )
            self.set_slot(cell, (row_i, seg_i))
            self.members[row_i][seg_i].append(cell)
        for row_segs in self.members:
            for cells in row_segs:
                cells.sort(key=lambda c: self.x[c])

    def _segment_of(self, row_i: int, x_center: float) -> Optional[int]:
        for seg_i, seg in enumerate(self.space.segments[row_i]):
            if seg.xl - 1e-6 <= x_center <= seg.xh + 1e-6:
                return seg_i
        return None

    def set_slot(self, cell: int, slot: Tuple[int, int]) -> None:
        """Record ``cell``'s (row, segment); members are the caller's."""
        self.cell_slot[cell] = slot
        self.row_of[cell], self.seg_of[cell] = slot
        self._by_row = None

    # ------------------------------------------------------------------
    def span(self, cell: int) -> Tuple[float, float]:
        """Free span available to ``cell``: (left bound, right bound) set by
        its neighbours / segment ends (cell excluded)."""
        row_i, seg_i = self.cell_slot[cell]
        seg = self.space.segments[row_i][seg_i]
        cells = self.members[row_i][seg_i]
        k = cells.index(cell)
        netlist = self.netlist
        left = seg.xl
        if k > 0:
            prev = cells[k - 1]
            left = self.x[prev] + netlist.cell_w[prev] / 2
        right = seg.xh
        if k + 1 < len(cells):
            nxt = cells[k + 1]
            right = self.x[nxt] - netlist.cell_w[nxt] / 2
        return left, right

    def row_y_center(self, cell: int) -> float:
        row_i, __ = self.cell_slot[cell]
        row = self.space.rows[row_i]
        return row.y + self.netlist.cell_h[cell] / 2

    def move(self, cell: int, new_x: float, row_i: int, seg_i: int) -> None:
        """Relocate a cell (caller guarantees the target span fits)."""
        old_row, old_seg = self.cell_slot[cell]
        self.members[old_row][old_seg].remove(cell)
        self.x[cell] = new_x
        self.y[cell] = (
            self.space.rows[row_i].y + self.netlist.cell_h[cell] / 2
        )
        self.set_slot(cell, (row_i, seg_i))
        cells = self.members[row_i][seg_i]
        lo, hi = 0, len(cells)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.x[cells[mid]] < new_x:
                lo = mid + 1
            else:
                hi = mid
        cells.insert(lo, cell)

    def _sorted_insert(self, slot: Tuple[int, int], cell: int) -> None:
        cells = self.members[slot[0]][slot[1]]
        xc = self.x[cell]
        lo, hi = 0, len(cells)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.x[cells[mid]] < xc:
                lo = mid + 1
            else:
                hi = mid
        cells.insert(lo, cell)

    # ------------------------------------------------------------------
    def iter_windows(self, size: int):
        """Yield (row_i, seg_i, [cells]) windows of consecutive cells."""
        for row_i, row_segs in enumerate(self.members):
            for seg_i, cells in enumerate(row_segs):
                for start in range(0, len(cells) - size + 1):
                    yield row_i, seg_i, cells[start : start + size]

    def cells_near(
        self, x: float, y: float, radius_rows: int, radius_x: float
    ) -> np.ndarray:
        """Movable cells within a row/x window around (x, y), ordered by
        row, then segment, then x."""
        if self._by_row is None:
            cells = self.netlist.movable_index
            cells = cells[np.argsort(self.row_of[cells], kind="stable")]
            bounds = np.searchsorted(
                self.row_of[cells], np.arange(self.space.num_rows + 1)
            )
            self._by_row = (cells, bounds)
        cells, bounds = self._by_row
        row_i = int(np.argmin(np.abs(self._row_centers - y)))
        lo = bounds[max(0, row_i - radius_rows)]
        hi = bounds[min(self.space.num_rows, row_i + radius_rows + 1)]
        near = cells[lo:hi]
        near = near[np.abs(self.x[near] - x) <= radius_x]
        order = np.lexsort((self.x[near], self.seg_of[near], self.row_of[near]))
        return near[order]
