"""Fence region model (DEF ``FENCE``-style exclusive regions).

A fence region is a set of axis-aligned boxes; cells assigned to the
fence must be placed inside one of its boxes, and unassigned cells must
stay outside every fence box.  The ISPD 2015 benchmarks carry such
constraints; the paper removes them and lists their support as future
work — this module provides that support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

Box = Tuple[float, float, float, float]  # (xl, yl, xh, yh)


@dataclass(frozen=True)
class FenceRegion:
    """One named fence: a union of disjoint boxes."""

    name: str
    boxes: Tuple[Box, ...]

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError(f"fence {self.name!r} has no boxes")
        for (xl, yl, xh, yh) in self.boxes:
            if xh <= xl or yh <= yl:
                raise ValueError(f"fence {self.name!r} has a degenerate box")

    @property
    def area(self) -> float:
        return sum((xh - xl) * (yh - yl) for (xl, yl, xh, yh) in self.boxes)

    def contains(self, x: np.ndarray, y: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Vectorised membership test for points (cell centers)."""
        x = np.asarray(x)
        y = np.asarray(y)
        inside = np.zeros(x.shape, dtype=bool)
        for (xl, yl, xh, yh) in self.boxes:
            inside |= (
                (x >= xl - tol) & (x <= xh + tol) & (y >= yl - tol) & (y <= yh + tol)
            )
        return inside

    def contains_box(
        self,
        x: np.ndarray,
        y: np.ndarray,
        hw: np.ndarray,
        hh: np.ndarray,
        tol: float = 1e-6,
    ) -> np.ndarray:
        """True where the whole cell box fits inside one fence box."""
        x = np.asarray(x)
        y = np.asarray(y)
        inside = np.zeros(x.shape, dtype=bool)
        for (xl, yl, xh, yh) in self.boxes:
            inside |= (
                (x - hw >= xl - tol)
                & (x + hw <= xh + tol)
                & (y - hh >= yl - tol)
                & (y + hh <= yh + tol)
            )
        return inside

    def contains_cell(
        self, x: float, y: float, hw: float, hh: float, tol: float = 1e-6
    ) -> bool:
        """:meth:`contains_box` for one cell, in scalar arithmetic."""
        return any(
            x - hw >= xl - tol
            and x + hw <= xh + tol
            and y - hh >= yl - tol
            and y + hh <= yh + tol
            for (xl, yl, xh, yh) in self.boxes
        )

    def clamp_into(
        self, x: np.ndarray, y: np.ndarray, hw: np.ndarray, hh: np.ndarray
    ):
        """Project cell centers into the nearest fence box (per cell)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        best_x = np.empty_like(x)
        best_y = np.empty_like(y)
        best_cost = np.full(x.shape, np.inf)
        for (xl, yl, xh, yh) in self.boxes:
            cx = np.clip(x, np.minimum(xl + hw, xh - hw), np.maximum(xh - hw, xl + hw))
            cy = np.clip(y, np.minimum(yl + hh, yh - hh), np.maximum(yh - hh, yl + hh))
            cost = np.abs(cx - x) + np.abs(cy - y)
            better = cost < best_cost
            best_x = np.where(better, cx, best_x)
            best_y = np.where(better, cy, best_y)
            best_cost = np.where(better, cost, best_cost)
        return best_x, best_y


def validate_fences(fences: Sequence[FenceRegion]) -> None:
    """Reject overlapping fence boxes across regions (exclusivity would
    be ill-defined otherwise)."""
    boxes = [
        (f.name, box) for f in fences for box in f.boxes
    ]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            (na, a), (nb, b) = boxes[i], boxes[j]
            if na == nb:
                continue
            overlap_x = min(a[2], b[2]) - max(a[0], b[0])
            overlap_y = min(a[3], b[3]) - max(a[1], b[1])
            if overlap_x > 1e-9 and overlap_y > 1e-9:
                raise ValueError(
                    f"fence boxes of {na!r} and {nb!r} overlap"
                )
