"""Filler cell insertion (Eq. 9, following ePlace / NTUPlace whitespace
handling).

Fillers are fake movable cells that occupy whitespace inside the
electrostatic system only: they stop the density force from spreading
real cells into every corner of free space.  Their total area is chosen
so that real + filler area equals the target density times the free area;
their size is the typical standard-cell size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from repro.dtypes import FLOAT

from repro.netlist import Netlist


@dataclass
class FillerCells:
    """Per-filler extents and (mutable) positions of the filler population.

    ``w``/``h`` are built once: every evaluation, gather and clamp reads
    them.  A fence-grouped density system concatenates one population per
    group, each with its own filler size.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray

    @staticmethod
    def of_size(
        width: float, height: float, x: np.ndarray, y: np.ndarray
    ) -> "FillerCells":
        """Fillers of one size at ``(x, y)``."""
        return FillerCells(
            x=x,
            y=y,
            w=np.full(x.shape[0], width, dtype=FLOAT),
            h=np.full(x.shape[0], height, dtype=FLOAT),
        )

    @property
    def count(self) -> int:
        return int(self.x.shape[0])

    @property
    def total_area(self) -> float:
        return float(np.dot(self.w, self.h))

    @staticmethod
    def for_netlist(
        netlist: Netlist,
        target_density: float,
        rng: np.random.Generator = None,
    ) -> "FillerCells":
        """Size and seed the filler population for ``netlist``.

        Filler area = target_density · free area − movable area (clamped
        at 0); free area excludes fixed-cell area.  Positions start
        uniformly random inside the die.
        """
        rng = rng or np.random.default_rng(0)
        region = netlist.region
        fixed = ~netlist.movable
        fixed_area = float(np.sum(netlist.cell_area[fixed]))
        free_area = max(region.area - fixed_area, 0.0)
        movable_area = netlist.movable_area
        filler_area = max(target_density * free_area - movable_area, 0.0)

        movable_widths = netlist.cell_w[netlist.movable]
        movable_heights = netlist.cell_h[netlist.movable]
        if movable_widths.size:
            width = float(np.mean(movable_widths))
            height = float(np.mean(movable_heights))
        else:
            width = height = 1.0
        width = max(width, 1e-6)
        height = max(height, 1e-6)
        count = int(filler_area / (width * height))
        x = rng.uniform(region.xl + width / 2, region.xh - width / 2, count)
        y = rng.uniform(region.yl + height / 2, region.yh - height / 2, count)
        return FillerCells.of_size(width, height, x, y)
