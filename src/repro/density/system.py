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

Fence groups (DREAMPlace 3.0 multi-electrostatics): with
``fence_groups=True`` on a fenced netlist, :meth:`DensitySystem.evaluate`
loops over cell groups, each with its own obstruction map, fillers and
field; D is the fixed map plus every group's member map.  Otherwise the
loop runs once, over the one group of all movable cells.

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
from typing import NamedTuple, Optional

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
    total_map: np.ndarray     # D̃ = D + filler maps (the solver input
                              # when there is one group)
    field: FieldSolution      # the last group's field


class CellGroup(NamedTuple):
    """One electrostatic system's population: member cells (netlist
    indices and extents), the static map they see as an obstruction,
    and their slice of the system's filler population."""

    fence: int                # -1: cells outside every fence
    cells: np.ndarray
    w: np.ndarray
    h: np.ndarray
    obstruction: np.ndarray
    fillers: slice


class DensitySystem:
    """Electrostatic density penalty for one netlist.

    ``fence_groups=True`` on a fenced netlist gives every cell group its
    own system (DREAMPlace 3.0 multi-electrostatics): group −1 holds the
    cells outside every fence, group ``k`` the members of fence ``k``;
    each sees everything outside its allowed area as an obstruction at
    target density and has fillers for its own free area only.  Without
    fences, or with ``fence_groups=False``, there is one group: every
    movable cell, the fixed-cell map as the obstruction, all fillers.
    """

    def __init__(
        self,
        netlist: Netlist,
        target_density: float = 1.0,
        grid: Optional[BinGrid] = None,
        extraction: bool = True,
        use_fillers: bool = True,
        rng: Optional[np.random.Generator] = None,
        fence_groups: bool = False,
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
        rng = rng or np.random.default_rng(1)

        movable = netlist.movable
        self._mov_idx = np.flatnonzero(movable)
        self._mov_w = netlist.cell_w[self._mov_idx]
        self._mov_h = netlist.cell_h[self._mov_idx]
        self.movable_area = netlist.movable_area

        # Static fixed-cell map, exact rasterisation, clamped to target.
        fixed = ~movable
        fixed_area_map = rasterize_exact(
            self.grid,
            netlist.fixed_x[fixed],
            netlist.fixed_y[fixed],
            netlist.cell_w[fixed],
            netlist.cell_h[fixed],
        )
        self._fixed_density = np.minimum(
            fixed_area_map / self.grid.bin_area, target_density
        )

        if fence_groups and netlist.fences:
            self.groups, self.fillers = self._fence_groups(rng, use_fillers)
            # D̃ over the die is Σ_g D̃_g less the obstructions each group
            # sees beyond the fixed-cell map: D + Σ_g filler map.
            self._total_offset = self._fixed_density - sum(
                group.obstruction for group in self.groups
            )
        else:
            if use_fillers:
                self.fillers = FillerCells.for_netlist(
                    netlist, target_density, rng=rng
                )
            else:
                self.fillers = _no_fillers()
            self.groups = [
                CellGroup(-1, self._mov_idx, self._mov_w, self._mov_h,
                          self._fixed_density, slice(0, self.fillers.count))
            ]

    def _fence_groups(self, rng: np.random.Generator, use_fillers: bool):
        """Group −1 and one group per fence, and their fillers.

        A group's fillers fill its free allowed area to target density
        and are seeded uniformly over its allowed bins.
        """
        netlist, grid = self.netlist, self.grid
        region = netlist.region
        target = self.target_density
        xs, ys = grid.centers()
        cx, cy = np.meshgrid(xs, ys, indexing="ij")
        inside = [fence.contains(cx, cy) for fence in netlist.fences]
        fence_of = netlist.cell_fence[self._mov_idx]
        groups, populations = [], []
        start = 0
        allowed_areas = [~np.any(inside, axis=0)] + inside
        for g, allowed in enumerate(allowed_areas, start=-1):
            # Outside the allowed area: solid obstruction at target density.
            obstruction = np.where(allowed, self._fixed_density, target)
            cells = self._mov_idx[fence_of == g]
            w, h = netlist.cell_w[cells], netlist.cell_h[cells]
            free = float(np.sum((target - obstruction)[allowed]))
            free *= grid.bin_area
            area = max(free - float(np.sum(netlist.cell_area[cells])), 0.0)
            width = max(float(np.mean(w)), 1e-6) if cells.size else 1.0
            height = max(float(np.mean(h)), 1e-6) if cells.size else 1.0
            count = int(area / (width * height))
            bins = np.argwhere(allowed)
            fx = fy = np.empty(0, dtype=FLOAT)
            if count and len(bins):
                picks = bins[rng.integers(0, len(bins), count)]
                jitter = rng.uniform(0, 1, (count, 2))
                fx = region.xl + (picks[:, 0] + jitter[:, 0]) * grid.bin_w
                fy = region.yl + (picks[:, 1] + jitter[:, 1]) * grid.bin_h
            # Seeded even without fillers, so the caller's next draws
            # (the initial placement) match those of a run with fillers.
            fillers = (FillerCells.of_size(width, height, fx, fy)
                       if use_fillers else _no_fillers())
            populations.append(fillers)
            groups.append(CellGroup(g, cells, w, h, obstruction,
                                    slice(start, start + fillers.count)))
            start += fillers.count
        return groups, FillerCells(
            *(np.concatenate([getattr(f, k) for f in populations])
              for k in ("x", "y", "w", "h"))
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
        fillers = self.fillers
        grad_x = np.zeros(self.netlist.num_cells, dtype=FLOAT)
        grad_y = np.zeros(self.netlist.num_cells, dtype=FLOAT)
        filler_grad_x = np.empty(fillers.count, dtype=FLOAT)
        filler_grad_y = np.empty(fillers.count, dtype=FLOAT)
        # One group: its D and D̃ are the results.  Several: the die-wide
        # maps accumulate over the groups.
        single = len(self.groups) == 1
        if not single:
            density = self._fixed_density.copy()
            total = self._total_offset.copy()
        energy = 0.0

        for group in self.groups:
            n = group.cells.shape[0]
            mov_x = ws.get("ds.mov_x", n)
            mov_y = ws.get("ds.mov_y", n)
            # In-range indices; the default mode="raise" buffers ``out=``.
            np.take(x, group.cells, out=mov_x, mode="clip")
            np.take(y, group.cells, out=mov_y, mode="clip")
            mov = (mov_x, mov_y, group.w, group.h)
            fil = (filler_x[group.fillers], filler_y[group.fillers],
                   fillers.w[group.fillers], fillers.h[group.fillers])

            # Shared incidence handles: the scatters and the force
            # gathers below run over the same cell geometry, so the
            # cell–bin incidence is built once per population per group.
            win_mov = self.scatter.prepare_windows(*mov, tag="@mov")
            win_fil = self.scatter.prepare_windows(*fil, tag="@fil")

            # D_g = member map / bin + obstruction.  The fresh scatter
            # output is finalised in place.
            mov_map = self.scatter.scatter(*mov, windows=win_mov)
            np.divide(mov_map, bin_area, out=mov_map)
            if single:
                density = mov_map
            else:
                np.add(density, mov_map, out=density)
            np.add(mov_map, group.obstruction, out=mov_map)
            if self.extraction:
                # D_g computed once, shared by overflow and D̃_g (Fig. 2a).
                solver_in = self.scatter.scatter(*fil, windows=win_fil)
                profiled("density_add")
                np.divide(solver_in, bin_area, out=solver_in)
                np.add(mov_map, solver_in, out=solver_in)
            else:
                # Fused scatter for the solver input, duplicating the
                # member scatter above.
                solver_in = self.scatter.scatter(
                    *(np.concatenate(pair) for pair in zip(mov, fil))
                )
                np.divide(solver_in, bin_area, out=solver_in)
                np.add(solver_in, group.obstruction, out=solver_in)
            if single:
                total = solver_in
            else:
                np.add(total, solver_in, out=total)
            field = self.solver.solve(solver_in)
            energy += field.energy

            # Force on charge q is qE; the descent gradient of the energy
            # is -qE.  Paired gather: both field axes share one incidence.
            # gather_pair() returns fresh arrays, so the negation can run
            # in place (the result arrays are cached by the engine and
            # must not alias arena storage).
            mgx, mgy = self.scatter.gather_pair(
                field.field_x, field.field_y, *mov, windows=win_mov
            )
            fgx, fgy = self.scatter.gather_pair(
                field.field_x, field.field_y, *fil, windows=win_fil
            )
            np.negative(mgx, out=mgx)
            grad_x[group.cells] = mgx
            np.negative(mgy, out=mgy)
            grad_y[group.cells] = mgy
            np.negative(fgx, out=filler_grad_x[group.fillers])
            np.negative(fgy, out=filler_grad_y[group.fillers])

        ovfl = overflow_ratio(
            density,
            self.grid,
            self.target_density,
            self.movable_area,
            scratch=ws.get("ds.ovfl", self.grid.shape),
        )
        return DensityResult(
            overflow=ovfl,
            energy=energy,
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


def _no_fillers() -> FillerCells:
    empty = np.empty(0, dtype=FLOAT)
    return FillerCells(x=empty, y=empty, w=empty, h=empty)
