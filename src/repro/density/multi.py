"""Multi-electrostatics for fence regions (DREAMPlace 3.0 style).

One electrostatic system per cell group: each fence's members see a
die-sized field in which everything *outside* their fence boxes is a
static obstruction at target density, and the unconstrained group sees
the fence interiors as obstructions.  Fields therefore push every group
toward (and spread it within) exactly its allowed area, instead of
relying on hard projection alone.

Duck-type compatible with :class:`repro.density.DensitySystem`, so the
gradient engine and placer work unchanged
(``PlacementParams.fence_mode = "multi"`` selects it).  Like it, the
system runs its scatter and solver on one private arena unless
:meth:`MultiRegionDensitySystem.attach_workspace` hands over another.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.density.bins import BinGrid
from repro.density.electrostatics import ElectrostaticSolver, FieldSolution
from repro.density.fillers import FillerCells
from repro.density.overflow import overflow_ratio
from repro.density.scatter import DensityScatter, rasterize_exact
from repro.density.system import DensityResult
from repro.dtypes import FLOAT
from repro.netlist import Netlist
from repro.perf.workspace import Workspace


class _Group:
    """Per-group static data: member cells, obstruction map, fillers."""

    def __init__(
        self,
        netlist: Netlist,
        grid: BinGrid,
        group_id: int,
        members: np.ndarray,
        fixed_density: np.ndarray,
        target_density: float,
        rng: np.random.Generator,
    ) -> None:
        self.group_id = group_id
        self.members = members          # indices into movable_index order
        region = netlist.region
        xs, ys = grid.centers()
        cx, cy = np.meshgrid(xs, ys, indexing="ij")
        if group_id >= 0:
            fence = netlist.fences[group_id]
            allowed = fence.contains(cx, cy)
        else:
            allowed = np.ones(grid.shape, dtype=bool)
            for fence in netlist.fences:
                allowed &= ~fence.contains(cx, cy)
        # Outside the allowed area: solid obstruction at target density.
        self.obstruction = np.where(allowed, fixed_density, target_density)
        self.allowed = allowed

        # Filler budget: fill this group's free allowed area to target.
        mov = netlist.movable_index
        member_cells = mov[members]
        member_area = float(np.sum(netlist.cell_area[member_cells]))
        free = float(
            np.sum((target_density - self.obstruction)[allowed])
        ) * grid.bin_area
        filler_area = max(free - member_area, 0.0)
        if member_cells.size:
            fw = float(np.mean(netlist.cell_w[member_cells]))
            fh = float(np.mean(netlist.cell_h[member_cells]))
        else:
            fw = fh = 1.0
        fw, fh = max(fw, 1e-6), max(fh, 1e-6)
        count = int(filler_area / (fw * fh))
        # Seed fillers uniformly over allowed bins.
        allowed_bins = np.argwhere(allowed)
        if count and len(allowed_bins):
            picks = allowed_bins[rng.integers(0, len(allowed_bins), count)]
            jitter = rng.uniform(0, 1, (count, 2))
            fx = region.xl + (picks[:, 0] + jitter[:, 0]) * grid.bin_w
            fy = region.yl + (picks[:, 1] + jitter[:, 1]) * grid.bin_h
        else:
            fx = np.empty(0, dtype=FLOAT)
            fy = np.empty(0, dtype=FLOAT)
        self.fillers = FillerCells(width=fw, height=fh, x=fx, y=fy)


class MultiRegionDensitySystem:
    """Drop-in DensitySystem replacement with one system per group."""

    def __init__(
        self,
        netlist: Netlist,
        target_density: float = 1.0,
        grid: Optional[BinGrid] = None,
        extraction: bool = True,   # accepted for interface parity
        use_fillers: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0 < target_density <= 1.0:
            raise ValueError("target_density must be in (0, 1]")
        if not netlist.fences:
            raise ValueError(
                "MultiRegionDensitySystem needs fence regions; use "
                "DensitySystem otherwise"
            )
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

        fixed = ~movable
        self._fixed_density = np.minimum(
            rasterize_exact(
                self.grid,
                netlist.fixed_x[fixed],
                netlist.fixed_y[fixed],
                netlist.cell_w[fixed],
                netlist.cell_h[fixed],
            )
            / self.grid.bin_area,
            target_density,
        )

        fence_of = netlist.cell_fence[self._mov_idx]
        group_ids = [-1] + list(range(len(netlist.fences)))
        self.groups: List[_Group] = []
        for g in group_ids:
            members = np.flatnonzero(fence_of == g)
            self.groups.append(
                _Group(
                    netlist,
                    self.grid,
                    g,
                    members,
                    self._fixed_density,
                    target_density,
                    rng,
                )
            )
        if not use_fillers:
            for group in self.groups:
                group.fillers = FillerCells(
                    1.0, 1.0, np.empty(0, dtype=FLOAT), np.empty(0, dtype=FLOAT)
                )
        # Aggregate filler view for the engine/preconditioner: sizes vary
        # per group, so expose explicit per-filler extents.
        self._filler_slices: List[Tuple[int, int]] = []
        xs, ys, ws, hs = [], [], [], []
        cursor = 0
        for group in self.groups:
            f = group.fillers
            self._filler_slices.append((cursor, cursor + f.count))
            cursor += f.count
            xs.append(f.x)
            ys.append(f.y)
            ws.append(np.full(f.count, f.width, dtype=FLOAT))
            hs.append(np.full(f.count, f.height, dtype=FLOAT))
        self.fillers = _AggregateFillers(
            np.concatenate(xs) if xs else np.empty(0, dtype=FLOAT),
            np.concatenate(ys) if ys else np.empty(0, dtype=FLOAT),
            np.concatenate(ws) if ws else np.empty(0, dtype=FLOAT),
            np.concatenate(hs) if hs else np.empty(0, dtype=FLOAT),
        )

    def attach_workspace(self, workspace: Workspace) -> None:
        """Run the scatter and the solver on ``workspace``."""
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
        if filler_x is None:
            filler_x, filler_y = self.fillers.x, self.fillers.y
        netlist = self.netlist
        bin_area = self.grid.bin_area
        mov_x = x[self._mov_idx]
        mov_y = y[self._mov_idx]

        grad_x = np.zeros(netlist.num_cells, dtype=FLOAT)
        grad_y = np.zeros(netlist.num_cells, dtype=FLOAT)
        filler_grad_x = np.zeros(len(filler_x), dtype=FLOAT)
        filler_grad_y = np.zeros(len(filler_y), dtype=FLOAT)

        # Global movable map (shared by overflow; operator extraction).
        global_mov = self.scatter.scatter(mov_x, mov_y, self._mov_w, self._mov_h)
        density = global_mov / bin_area + self._fixed_density
        ovfl = overflow_ratio(
            density, self.grid, self.target_density, self.movable_area
        )

        energy = 0.0
        total = density.copy()
        for gi, group in enumerate(self.groups):
            f_lo, f_hi = self._filler_slices[gi]
            cells = self._mov_idx[group.members]
            gx = mov_x[group.members]
            gy = mov_y[group.members]
            gw = self._mov_w[group.members]
            gh = self._mov_h[group.members]
            fx = filler_x[f_lo:f_hi]
            fy = filler_y[f_lo:f_hi]
            fw = self.fillers.w[f_lo:f_hi]
            fh = self.fillers.h[f_lo:f_hi]

            # One incidence per group population, shared by the scatter
            # and the paired gathers; both are live at once, hence two
            # tags (the next group may reuse them).
            win_g = self.scatter.prepare_windows(gx, gy, gw, gh,
                                                 tag="@grp")
            win_f = self.scatter.prepare_windows(fx, fy, fw, fh,
                                                 tag="@gfil")
            group_map = self.scatter.scatter(gx, gy, gw, gh, windows=win_g)
            self.scatter.scatter(fx, fy, fw, fh, out=group_map,
                                 windows=win_f)
            group_density = group_map / bin_area + group.obstruction
            solution = self.solver.solve(group_density)
            energy += solution.energy
            total += group_map / bin_area / max(len(self.groups), 1)

            gfx, gfy = self.scatter.gather_pair(
                solution.field_x, solution.field_y, gx, gy, gw, gh,
                windows=win_g,
            )
            grad_x[cells] = -gfx
            grad_y[cells] = -gfy
            ffx, ffy = self.scatter.gather_pair(
                solution.field_x, solution.field_y, fx, fy, fw, fh,
                windows=win_f,
            )
            filler_grad_x[f_lo:f_hi] = -ffx
            filler_grad_y[f_lo:f_hi] = -ffy
            last_solution = solution

        return DensityResult(
            overflow=ovfl,
            energy=energy,
            grad_x=grad_x,
            grad_y=grad_y,
            filler_grad_x=filler_grad_x,
            filler_grad_y=filler_grad_y,
            density_map=density,
            total_map=total,
            field=last_solution,
        )

    # ------------------------------------------------------------------
    def density_map_only(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        mov_map = self.scatter.scatter(
            x[self._mov_idx], y[self._mov_idx], self._mov_w, self._mov_h
        )
        return mov_map / self.grid.bin_area + self._fixed_density


class _AggregateFillers:
    """FillerCells-like view over heterogeneous per-group fillers."""

    def __init__(self, x, y, w, h) -> None:
        self.x = x
        self.y = y
        self._w = w
        self._h = h
        # Representative extents for the preconditioner.
        self.width = float(np.mean(w)) if len(w) else 1.0
        self.height = float(np.mean(h)) if len(h) else 1.0

    @property
    def count(self) -> int:
        return int(len(self.x))

    @property
    def w(self) -> np.ndarray:
        return self._w

    @property
    def h(self) -> np.ndarray:
        return self._h

    @property
    def total_area(self) -> float:
        return float(np.sum(self._w * self._h))
