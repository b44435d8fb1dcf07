"""The assembled density subsystem with operator extraction (Section 3.1.2).

One :class:`DensitySystem` owns the bin grid, the scatter/gather kernels,
the spectral solver, the static fixed-cell map and the filler population,
and turns positions into (overflow, energy, density gradients).

Operator extraction: the movable-cell density map D is the heavy shared
sub-expression of Eq. 8 (overflow input) and Eq. 10 (solver input
D̃ = D + D_fl).  With ``extraction=True`` D is computed once and reused;
with ``extraction=False`` (ablation / DREAMPlace-style fused kernel) the
solver input is scattered in one fused pass and the overflow map is
scattered *again*, duplicating the dominant workload.

Fixed cells are rasterised once at construction; following ePlace's
macro-density scaling, their per-bin contribution is clamped to the
target density so a legal placement can reach zero overflow.

The scatter/gather kernels and the solver share one
:class:`~repro.perf.workspace.Workspace` arena (``ds.*`` buffers here),
private to the system unless :meth:`DensitySystem.attach_workspace`
hands over another one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.density.bins import BinGrid
from repro.density.electrostatics import ElectrostaticSolver, FieldSolution
from repro.density.fillers import FillerCells
from repro.density.overflow import overflow_ratio
from repro.density.scatter import DensityScatter, rasterize_exact
from repro.dtypes import FLOAT
from repro.netlist import Netlist
from repro.ops import profiled
from repro.perf.workspace import Workspace


@dataclass
class DensityResult:
    """Everything the gradient engine needs from one density evaluation."""

    overflow: float
    energy: float
    grad_x: np.ndarray        # d(energy)/dx per real cell (0 for fixed)
    grad_y: np.ndarray
    filler_grad_x: np.ndarray
    filler_grad_y: np.ndarray
    density_map: np.ndarray   # dimensionless D (movable + clamped fixed)
    total_map: np.ndarray     # D̃ fed to the solver (includes fillers)
    field: FieldSolution


class DensitySystem:
    """Electrostatic density penalty for one netlist."""

    def __init__(
        self,
        netlist: Netlist,
        target_density: float = 1.0,
        grid: Optional[BinGrid] = None,
        extraction: bool = True,
        use_fillers: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0 < target_density <= 1.0:
            raise ValueError("target_density must be in (0, 1]")
        self.netlist = netlist
        self.target_density = target_density
        self.grid = grid or BinGrid.for_netlist(netlist)
        self.extraction = extraction
        self.scatter = DensityScatter(self.grid)
        self.solver = ElectrostaticSolver(self.grid)
        self.attach_workspace(Workspace())

        movable = netlist.movable
        self._mov_idx = np.flatnonzero(movable)
        self._mov_w = netlist.cell_w[self._mov_idx]
        self._mov_h = netlist.cell_h[self._mov_idx]
        self.movable_area = netlist.movable_area

        # Static fixed-cell map, exact rasterisation, clamped to target.
        fixed = ~movable
        self._fixed_area_map = rasterize_exact(
            self.grid,
            netlist.fixed_x[fixed],
            netlist.fixed_y[fixed],
            netlist.cell_w[fixed],
            netlist.cell_h[fixed],
        )
        self._fixed_density = np.minimum(
            self._fixed_area_map / self.grid.bin_area, target_density
        )

        if use_fillers:
            self.fillers = FillerCells.for_netlist(
                netlist, target_density, rng=rng or np.random.default_rng(1)
            )
        else:
            self.fillers = FillerCells(
                width=1.0, height=1.0, x=np.empty(0, dtype=FLOAT), y=np.empty(0, dtype=FLOAT)
            )

    def attach_workspace(self, workspace: Workspace) -> None:
        """Run the system, its scatter and its solver on ``workspace``.

        The maps and gradients placed in :class:`DensityResult` stay
        freshly allocated — the gradient engine caches them by object
        identity across iterations, so they must never live in reused
        arena buffers.  Only true scratch goes through the arena.
        """
        self.workspace = workspace
        self.scatter.attach_workspace(workspace)
        self.solver.attach_workspace(workspace)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        filler_x: Optional[np.ndarray] = None,
        filler_y: Optional[np.ndarray] = None,
    ) -> DensityResult:
        """Density penalty at cell centers ``(x, y)`` (+ filler positions)."""
        if filler_x is None:
            filler_x, filler_y = self.fillers.x, self.fillers.y
        ws = self.workspace
        bin_area = self.grid.bin_area
        mov_x = ws.get("ds.mov_x", self._mov_idx.shape[0])
        mov_y = ws.get("ds.mov_y", self._mov_idx.shape[0])
        # In-range indices; the default mode="raise" buffers ``out=``.
        np.take(x, self._mov_idx, out=mov_x, mode="clip")
        np.take(y, self._mov_idx, out=mov_y, mode="clip")

        # Shared incidence handles: the scatter and the force gathers
        # below run over the same cell geometry, so the cell–bin
        # incidence is built once per population per iteration.
        win_mov = self.scatter.prepare_windows(
            mov_x, mov_y, self._mov_w, self._mov_h, tag="@mov"
        )
        win_fil = None

        if self.extraction:
            # D computed once, shared by overflow and D̃ (Fig. 2a).  The
            # fresh scatter outputs are finalised in place.
            mov_map = self.scatter.scatter(
                mov_x, mov_y, self._mov_w, self._mov_h, windows=win_mov
            )
            np.divide(mov_map, bin_area, out=mov_map)
            np.add(mov_map, self._fixed_density, out=mov_map)
            density = mov_map
            win_fil = self.scatter.prepare_windows(
                filler_x, filler_y, self.fillers.w, self.fillers.h,
                tag="@fil",
            )
            filler_map = self.scatter.scatter(
                filler_x, filler_y, self.fillers.w, self.fillers.h,
                windows=win_fil,
            )
            profiled("density_add")
            np.divide(filler_map, bin_area, out=filler_map)
            np.add(density, filler_map, out=filler_map)
            total = filler_map
        else:
            # Fused scatter for the solver input...
            all_x = np.concatenate([mov_x, filler_x])
            all_y = np.concatenate([mov_y, filler_y])
            all_w = np.concatenate([self._mov_w, self.fillers.w])
            all_h = np.concatenate([self._mov_h, self.fillers.h])
            fused = self.scatter.scatter(all_x, all_y, all_w, all_h)
            total = fused / bin_area + self._fixed_density
            # ...and a second, duplicated scatter for the overflow map.
            mov_map = self.scatter.scatter(
                mov_x, mov_y, self._mov_w, self._mov_h, windows=win_mov
            )
            density = mov_map / bin_area + self._fixed_density

        ovfl = overflow_ratio(
            density,
            self.grid,
            self.target_density,
            self.movable_area,
            scratch=ws.get("ds.ovfl", self.grid.shape),
        )
        field = self.solver.solve(total)

        # Force on charge q is qE; the descent gradient of the energy is -qE.
        # gather() returns a fresh array, so the negation can run in place
        # (the result arrays below are cached by the engine and must not
        # alias arena storage).
        grad_x = np.zeros(self.netlist.num_cells, dtype=FLOAT)
        grad_y = np.zeros(self.netlist.num_cells, dtype=FLOAT)
        # Paired gather: both field axes share one incidence (identical
        # cell geometry), reused from the scatter above.
        if win_fil is None:
            win_fil = self.scatter.prepare_windows(
                filler_x, filler_y, self.fillers.w, self.fillers.h,
                tag="@fil",
            )
        mgx, mgy = self.scatter.gather_pair(
            field.field_x, field.field_y,
            mov_x, mov_y, self._mov_w, self._mov_h,
            windows=win_mov,
        )
        filler_grad_x, filler_grad_y = self.scatter.gather_pair(
            field.field_x, field.field_y,
            filler_x, filler_y, self.fillers.w, self.fillers.h,
            windows=win_fil,
        )
        np.negative(mgx, out=mgx)
        grad_x[self._mov_idx] = mgx
        np.negative(mgy, out=mgy)
        grad_y[self._mov_idx] = mgy
        np.negative(filler_grad_x, out=filler_grad_x)
        np.negative(filler_grad_y, out=filler_grad_y)
        return DensityResult(
            overflow=ovfl,
            energy=field.energy,
            grad_x=grad_x,
            grad_y=grad_y,
            filler_grad_x=filler_grad_x,
            filler_grad_y=filler_grad_y,
            density_map=density,
            total_map=total,
            field=field,
        )

    # ------------------------------------------------------------------
    def density_map_only(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Dimensionless D (movable + clamped fixed) without solving."""
        mov_map = self.scatter.scatter(
            x[self._mov_idx], y[self._mov_idx], self._mov_w, self._mov_h
        )
        return mov_map / self.grid.bin_area + self._fixed_density
