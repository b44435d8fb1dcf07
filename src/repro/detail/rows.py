"""Row/segment occupancy model for detailed placement."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.legalize.rows import RowSpace, build_row_space
from repro.netlist import Netlist


class PlacementRows:
    """Cells organised by (row, segment), kept sorted by x.

    Provides the slot geometry the DP operators need: for any placed cell,
    the free span between its neighbours, and the row centres to find
    the rows near a coordinate.  Mutations keep the structure consistent.
    """

    def __init__(self, netlist: Netlist, x: np.ndarray, y: np.ndarray) -> None:
        self.netlist = netlist
        self.space: RowSpace = self._build_space(netlist)
        self.x = x.copy()
        self.y = y.copy()
        # Row centres, ascending: rows are indexed bottom to top.
        self.row_centers = [
            self.space.row_center_y(r) for r in range(self.space.num_rows)
        ]
        self.row_y = np.array([row.y for row in self.space.rows])
        # Segment ends, flattened row-major like ``members``.
        segments = [seg for segs in self.space.segments for seg in segs]
        self._seg_xl = np.array([seg.xl for seg in segments])
        self._seg_xh = np.array([seg.xh for seg in segments])
        # cell -> (row, segment), also as per-cell arrays (-1: not placed
        # in a row) for vectorized queries; segment cell lists sorted by x.
        self.cell_slot: Dict[int, Tuple[int, int]] = {}
        self.row_of = np.full(netlist.num_cells, -1, dtype=np.int64)
        self.seg_of = np.full(netlist.num_cells, -1, dtype=np.int64)
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

    # ------------------------------------------------------------------
    def spans(self) -> Tuple[np.ndarray, np.ndarray]:
        """Free span of every placed cell: (left, right) bounds set by its
        neighbours in its segment, or the segment's ends (cell excluded),
        as per-cell arrays (NaN for cells not in a row)."""
        netlist = self.netlist
        lists = [cells for row_segs in self.members for cells in row_segs]
        order = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64)
        seg = np.repeat(np.arange(len(lists)), [len(cells) for cells in lists])
        half = netlist.cell_w[order] / 2
        # Neighbours in the concatenated lists share the cell's segment.
        left = self._seg_xl[seg]
        right = self._seg_xh[seg]
        inner = np.flatnonzero(seg[1:] == seg[:-1])
        left[inner + 1] = self.x[order[inner]] + half[inner]
        right[inner] = self.x[order[inner + 1]] - half[inner + 1]
        out_left = np.full(netlist.num_cells, np.nan)
        out_right = np.full(netlist.num_cells, np.nan)
        out_left[order] = left
        out_right[order] = right
        return out_left, out_right

    def move(self, cell: int, new_x: float, row_i: int, seg_i: int) -> None:
        """Relocate a cell (caller guarantees the target span fits)."""
        old_row, old_seg = self.cell_slot[cell]
        self.members[old_row][old_seg].remove(cell)
        self.x[cell] = new_x
        self.y[cell] = (
            self.space.rows[row_i].y + self.netlist.cell_h[cell] / 2
        )
        self.set_slot(cell, (row_i, seg_i))
        self._sorted_insert((row_i, seg_i), cell)

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


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` for each (s, n) pair."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))
