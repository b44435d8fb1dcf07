"""The autograd-driven baseline placer."""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.autograd.tensor import Context, Function
from repro.core.callbacks import (
    CallbackList,
    IterationCallback,
    LoopStart,
    LoopStop,
    RecorderCallback,
    VerboseCallback,
)
from repro.core.evaluator import Evaluator
from repro.core.initializer import initial_positions
from repro.core.params import PlacementParams
from repro.core.placer import PlacementResult
from repro.core.recorder import IterationRecord
from repro.core.scheduler import Scheduler
from repro.density import BinGrid, DensitySystem
from repro.netlist import Netlist
from repro.optim import NesterovOptimizer, Preconditioner
from repro.wirelength import hpwl as hpwl_op
from repro.wirelength.wa_autograd import wa_axis


class _ElectricEnergy(Function):
    """DREAMPlace's ElectricPotential op: forward solves the electrostatic
    system and returns the energy; backward returns the stored field force
    scaled by the incoming gradient."""

    @staticmethod
    def forward(ctx, pos_x, pos_y, evaluate):
        result = evaluate(pos_x, pos_y)
        ctx.meta["result"] = result
        ctx.save(result.grad_concat_x, result.grad_concat_y)
        return np.array(result.energy)

    @staticmethod
    def backward(ctx, grad):
        gx, gy = ctx.saved
        return grad * gx, grad * gy, None


class _DensityAdapter:
    """Evaluates the (non-extracted) density system in optimizer layout and
    exposes the last overflow for the scheduler."""

    def __init__(self, netlist: Netlist, density: DensitySystem) -> None:
        self.netlist = netlist
        self.density = density
        self._mov_idx = netlist.movable_index
        self._nm = len(self._mov_idx)
        self.last_overflow = 1.0
        self.last_density_map = None

    def __call__(self, pos_x: np.ndarray, pos_y: np.ndarray):
        x, y = self.netlist.initial_positions()
        x[self._mov_idx] = pos_x[: self._nm]
        y[self._mov_idx] = pos_y[: self._nm]
        result = self.density.evaluate(
            x, y, pos_x[self._nm :], pos_y[self._nm :]
        )
        self.last_overflow = result.overflow
        self.last_density_map = result.total_map

        class _Shim:
            pass

        shim = _Shim()
        shim.energy = result.energy
        shim.grad_concat_x = np.concatenate(
            [result.grad_x[self._mov_idx], result.filler_grad_x]
        )
        shim.grad_concat_y = np.concatenate(
            [result.grad_y[self._mov_idx], result.filler_grad_y]
        )
        return shim


class DreamPlaceStyleBaseline:
    """Global placer with DREAMPlace's operator structure (see package
    docstring).  Accepts the same parameter object as XPlacer; the
    operator-level switches are ignored (they are always "off" here)."""

    def __init__(
        self, netlist: Netlist, params: Optional[PlacementParams] = None
    ) -> None:
        self.netlist = netlist
        self.params = params or PlacementParams()
        rng = np.random.default_rng(self.params.seed)
        grid = BinGrid.for_netlist(netlist, self.params.grid_m)
        self.density = DensitySystem(
            netlist,
            target_density=self.params.target_density,
            grid=grid,
            extraction=False,              # fused scatter + duplicate overflow pass
            use_fillers=self.params.use_fillers,
            rng=rng,
        )
        self.evaluator = Evaluator(netlist, self.density)
        self._adapter = _DensityAdapter(netlist, self.density)
        self.preconditioner = Preconditioner(netlist, self.density.fillers)
        self._rng = rng

    # ------------------------------------------------------------------
    def run(
        self, callbacks: Optional[Sequence[IterationCallback]] = None
    ) -> PlacementResult:
        """Run the baseline loop; same callback protocol as XPlacer."""
        params = self.params
        netlist = self.netlist
        start = time.perf_counter()

        recorder_cb = RecorderCallback()
        events = CallbackList([recorder_cb])
        if params.verbose:
            events.add(
                VerboseCallback(f"baseline {netlist.name}", extended=False)
            )
        for callback in callbacks or ():
            events.add(callback)

        x0, y0 = initial_positions(netlist, rng=self._rng)
        mov = netlist.movable_index
        nm = len(mov)
        fillers = self.density.fillers
        pos_x = np.concatenate([x0[mov], fillers.x])
        pos_y = np.concatenate([y0[mov], fillers.y])

        bin_size = min(self.density.grid.bin_w, self.density.grid.bin_h)
        optimizer = NesterovOptimizer(pos_x, pos_y)
        # The baseline never consults should_update_params(): parameters
        # move every iteration, i.e. the stage-aware schedule is off.
        scheduler = Scheduler(params, bin_size)
        recorder = recorder_cb.recorder
        clamp = self._make_clamp()

        events.on_start(
            LoopStart(
                design=netlist.name,
                placer="baseline",
                params=params,
                num_movable=nm,
                num_fillers=fillers.count,
            )
        )

        lam = params.initial_lambda
        converged = False
        iteration = 0
        for iteration in range(params.max_iterations):
            vx, vy = optimizer.positions
            tx = Tensor(vx, requires_grad=True)
            ty = Tensor(vy, requires_grad=True)

            # Full-cell tensors: movable slice is differentiable, the rest
            # is constant (fixed cells); fillers see only density.
            full_x = np.asarray(x0, dtype=np.float64).copy()
            full_y = np.asarray(y0, dtype=np.float64).copy()
            cell_x = _scatter_movable(tx, full_x, mov, nm)
            cell_y = _scatter_movable(ty, full_y, mov, nm)

            wa_x = wa_axis(netlist, cell_x, netlist.pin_dx, scheduler.gamma)
            wa_y = wa_axis(netlist, cell_y, netlist.pin_dy, scheduler.gamma)
            wa = wa_x + wa_y
            energy = _ElectricEnergy.apply(tx, ty, self._adapter)

            if lam is None:
                # Balance λ0 from the two gradient norms (extra backward
                # passes — exactly the cost DREAMPlace pays here).
                wa.backward()
                wl_norm = float(
                    np.linalg.norm(np.concatenate([tx.grad, ty.grad]))
                )
                tx.zero_grad()
                ty.zero_grad()
                energy.backward()
                d_norm = float(
                    np.linalg.norm(np.concatenate([tx.grad, ty.grad]))
                )
                tx.zero_grad()
                ty.zero_grad()
                lam = scheduler.initialize_lambda(wl_norm, d_norm)

            loss = wa + float(lam) * energy
            loss.backward()
            grad_x, grad_y = self.preconditioner.apply(tx.grad, ty.grad, lam)

            # Separate HPWL operator (no combination): recomputes reductions.
            hpwl_now = hpwl_op(netlist, cell_x.data, cell_y.data)
            overflow = self._adapter.last_overflow

            if iteration == 0:
                max_grad = max(
                    float(np.abs(grad_x).max(initial=0.0)),
                    float(np.abs(grad_y).max(initial=0.0)),
                )
                if max_grad > 0:
                    optimizer.bound_first_step(0.1 * bin_size / max_grad)

            optimizer.step(grad_x, grad_y)
            optimizer.clamp(clamp)

            omega = self.preconditioner.omega(lam)
            events.on_iteration(
                IterationRecord(
                    iteration=iteration,
                    hpwl=hpwl_now,
                    wa=float(wa.data),
                    overflow=overflow,
                    gamma=scheduler.gamma,
                    lam=lam,
                    omega=omega,
                    grad_ratio=float("nan"),
                    density_computed=True,
                    step_length=optimizer.step_length,
                )
            )

            if scheduler.should_stop(iteration, overflow):
                converged = overflow < params.stop_overflow
                break

            # No stage-aware slowdown: parameters move every iteration.
            scheduler.update(overflow, hpwl_now)
            lam = scheduler.lam

        sol_x, sol_y = optimizer.solution
        x, y = x0.copy(), y0.copy()
        x[mov] = sol_x[:nm]
        y[mov] = sol_y[:nm]
        hw = netlist.cell_w[mov] / 2
        hh = netlist.cell_h[mov] / 2
        x[mov], y[mov] = netlist.region.clamp(x[mov], y[mov], hw, hh)
        elapsed = time.perf_counter() - start
        final = self.evaluator.evaluate(x, y)
        events.on_stop(
            LoopStop(
                design=netlist.name,
                iterations=iteration + 1,
                converged=converged,
                gp_seconds=elapsed,
                hpwl=final.hpwl,
                overflow=final.overflow,
            )
        )
        return PlacementResult(
            x=x,
            y=y,
            hpwl=final.hpwl,
            overflow=final.overflow,
            iterations=iteration + 1,
            gp_seconds=elapsed,
            recorder=recorder,
            converged=converged,
        )

    # ------------------------------------------------------------------
    def _make_clamp(self):
        netlist = self.netlist
        region = netlist.region
        mov = netlist.movable_index
        fillers = self.density.fillers
        hw = np.concatenate([netlist.cell_w[mov] / 2, fillers.w / 2])
        hh = np.concatenate([netlist.cell_h[mov] / 2, fillers.h / 2])

        def clamp(px, py):
            return region.clamp(px, py, hw, hh)

        return clamp


class _ScatterMovable(Function):
    """Writes the movable slice of an optimizer tensor into the full-cell
    array (constant elsewhere); backward extracts the movable slice."""

    @staticmethod
    def forward(ctx, pos, template, mov_idx, nm):
        ctx.meta["mov_idx"] = mov_idx
        ctx.meta["nm"] = nm
        ctx.meta["pos_len"] = pos.shape[0]
        out = template.copy()
        out[mov_idx] = pos[:nm]
        return out

    @staticmethod
    def backward(ctx, grad):
        gpos = np.zeros(ctx.meta["pos_len"])
        gpos[: ctx.meta["nm"]] = grad[ctx.meta["mov_idx"]]
        return gpos, None, None, None


def _scatter_movable(pos: Tensor, template: np.ndarray, mov_idx, nm) -> Tensor:
    return _ScatterMovable.apply(pos, template, mov_idx, nm)
