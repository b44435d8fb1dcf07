"""Row free-space model shared by the legalizers.

Fixed macros carve each row into free *segments*; legalizers place cells
only inside segments, which automatically keeps them off blockages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.netlist import Netlist, Row


@dataclass
class Segment:
    """One free interval of one row."""

    xl: float
    xh: float

    @property
    def width(self) -> float:
        return self.xh - self.xl


@dataclass
class RowSpace:
    """All rows with their free segments and site geometry."""

    rows: List[Row]
    segments: List[List[Segment]]  # per row
    site_width: float

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def row_center_y(self, row_index: int) -> float:
        row = self.rows[row_index]
        return row.y + row.height / 2

    def snap_x(self, x_left: float) -> float:
        """Snap a left edge onto the site grid (floor)."""
        origin = self.rows[0].xl if self.rows else 0.0
        return origin + np.floor((x_left - origin) / self.site_width) * self.site_width

    def total_free_width(self) -> float:
        return sum(seg.width for row in self.segments for seg in row)


def build_row_space(
    netlist: Netlist,
    margin: float = 0.0,
    extra_blockages: Tuple[Tuple[float, float, float, float], ...] = (),
    clip_boxes: Tuple[Tuple[float, float, float, float], ...] = None,
) -> RowSpace:
    """Compute the free segments of every row after macro blockage.

    ``margin`` optionally inflates blockages (site-width guard bands).
    ``extra_blockages`` adds boxes that behave like macros (used to keep
    unconstrained cells out of fence regions).  ``clip_boxes`` restricts
    the usable space to the union of the given boxes (used to legalize a
    fence's members inside it); a row is usable only where it lies fully
    inside a clip box vertically.
    """
    rows = netlist.region.rows
    if not rows:
        raise ValueError("netlist region has no rows; cannot legalize")
    fixed = np.flatnonzero(~netlist.movable)
    blockages: List[Tuple[float, float, float, float]] = list(extra_blockages)
    for i in fixed:
        w, h = netlist.cell_w[i], netlist.cell_h[i]
        if w <= 0 or h <= 0:
            continue  # zero-area pads don't block rows
        blockages.append(
            (
                netlist.fixed_x[i] - w / 2 - margin,
                netlist.fixed_y[i] - h / 2 - margin,
                netlist.fixed_x[i] + w / 2 + margin,
                netlist.fixed_y[i] + h / 2 + margin,
            )
        )

    segments: List[List[Segment]] = []
    for row in rows:
        row_top = row.y + row.height
        # Base intervals: the whole row, or its intersection with clips.
        if clip_boxes is None:
            base = [(row.xl, row.xh)]
        else:
            base = []
            for (bxl, byl, bxh, byh) in clip_boxes:
                if byl <= row.y + 1e-9 and byh >= row_top - 1e-9:
                    lo, hi = max(bxl, row.xl), min(bxh, row.xh)
                    if hi > lo:
                        base.append((lo, hi))
            base.sort()
        cuts = []
        for bxl, byl, bxh, byh in blockages:
            if byl < row_top - 1e-9 and byh > row.y + 1e-9:
                cuts.append((max(bxl, row.xl), min(bxh, row.xh)))
        cuts.sort()
        free: List[Segment] = []
        for (lo, hi) in base:
            cursor = lo
            for cxl, cxh in cuts:
                if cxh <= cursor or cxl >= hi:
                    continue
                if cxl > cursor:
                    free.append(Segment(cursor, min(cxl, hi)))
                cursor = max(cursor, cxh)
            if cursor < hi:
                free.append(Segment(cursor, hi))
        # Drop slivers narrower than one site.
        segments.append([s for s in free if s.width >= row.site_width - 1e-9])
    return RowSpace(rows=list(rows), segments=segments, site_width=rows[0].site_width)
