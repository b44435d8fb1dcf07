"""XPlacer: the global placement main loop (core engine of Figure 1)."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sanitizer import NumericalFault, install_from_env
from repro.core.callbacks import (
    CallbackList,
    Diagnostic,
    IterationCallback,
    LoopStart,
    LoopStop,
    RecorderCallback,
    VerboseCallback,
)
from repro.core.evaluator import Evaluator
from repro.core.gradient_engine import FieldPredictor, GradientEngine, sigma_of_omega
from repro.core.initializer import initial_positions
from repro.core.params import PlacementParams
from repro.core.recorder import IterationRecord, Recorder
from repro.core.scheduler import Scheduler
from repro.density import BinGrid, DensitySystem
from repro.netlist import Netlist
from repro.optim import AdamOptimizer, NesterovOptimizer


@dataclass
class PlacementResult:
    """Output of one global placement run.

    The recovery fields record how eventful the run was: ``rollbacks``
    and ``checkpoints`` count self-healing actions, ``degraded`` flags
    that the rollback budget ran out and the best-seen snapshot was
    returned instead of a converged solution, and ``resumed_from`` is
    the checkpoint iteration a restarted process picked up from (None
    for a fresh run).
    """

    x: np.ndarray              # final cell centers (all cells)
    y: np.ndarray
    hpwl: float                # HPWL of the returned solution
    overflow: float
    iterations: int
    gp_seconds: float
    recorder: Recorder
    converged: bool
    rollbacks: int = 0
    checkpoints: int = 0
    degraded: bool = False
    resumed_from: Optional[int] = None
    checkpoint_stats: Optional[dict] = None

    def positions(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.x, self.y


class XPlacer:
    """Analytical global placer: Xplace configuration by default.

    Toggling :class:`~repro.core.params.PlacementParams` switches turns
    off individual operator optimizations (for the Table 3 ablation) or
    the stage-aware schedule.  A trained neural field model is attached
    via ``field_predictor`` to obtain Xplace-NN.
    """

    def __init__(
        self,
        netlist: Netlist,
        params: Optional[PlacementParams] = None,
        field_predictor: Optional[FieldPredictor] = None,
    ) -> None:
        self.netlist = netlist
        self.params = params or PlacementParams()
        rng = np.random.default_rng(self.params.seed)
        grid = BinGrid.for_netlist(netlist, self.params.grid_m)
        self.density = DensitySystem(
            netlist,
            target_density=self.params.target_density,
            grid=grid,
            extraction=self.params.density_extraction,
            use_fillers=self.params.use_fillers,
            rng=rng,
            fence_groups=self.params.fence_mode == "multi",
        )
        # The predictor reaches the engine only when guidance is enabled.
        predictor = field_predictor if self.params.neural_guidance else None
        self.engine = GradientEngine(netlist, self.density, self.params, predictor)
        self.evaluator = Evaluator(netlist, self.density)
        self._rng = rng

    # ------------------------------------------------------------------
    def run(
        self,
        callbacks: Optional[Sequence[IterationCallback]] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        final_checkpoint: bool = False,
    ) -> PlacementResult:
        """Run global placement to convergence and return the solution.

        ``callbacks`` observe the loop through the
        :class:`~repro.core.callbacks.IterationCallback` protocol; the
        recorder trace and the ``verbose`` console line are themselves
        stock callbacks attached here.

        Recovery (checkpoint/rollback, :mod:`repro.recovery`) arms when
        ``params.checkpoint_every > 0`` or a ``checkpoint_dir`` is given;
        ``checkpoint_dir`` additionally spills each snapshot to disk so a
        fresh process can pick the run up mid-flight with ``resume=True``.

        ``final_checkpoint=True`` treats the ``max_iterations`` wall as a
        *segment boundary* rather than the end of the run: the loop
        state is checkpointed there (after replaying the end-of-iteration
        γ/λ bookkeeping a continuing run would have done) and the spill
        is kept, so a forked continuation replays a longer run
        bit-for-bit.  A convergence stop is still terminal — the spill
        is cleared as usual.
        """
        params = self.params
        netlist = self.netlist
        start = time.perf_counter()
        install_from_env()  # REPRO_SANITIZE=1 → per-op numerical checks

        recorder_cb = RecorderCallback()
        events = CallbackList([recorder_cb])
        if params.verbose:
            events.add(VerboseCallback(netlist.name, extended=True))
        for callback in callbacks or ():
            events.add(callback)

        x0, y0 = initial_positions(netlist, rng=self._rng)
        mov = netlist.movable_index
        pos_x = np.concatenate([x0[mov], self.density.fillers.x])
        pos_y = np.concatenate([y0[mov], self.density.fillers.y])

        bin_size = min(self.density.grid.bin_w, self.density.grid.bin_h)
        if params.optimizer == "nesterov":
            optimizer = NesterovOptimizer(pos_x, pos_y)
        else:
            optimizer = AdamOptimizer(pos_x, pos_y, lr=params.adam_lr * bin_size)

        scheduler = Scheduler(params, bin_size)
        recorder = recorder_cb.recorder
        engine = self.engine
        clamp = self._make_clamp()

        recovery = None
        if params.recovery_enabled or checkpoint_dir is not None:
            from repro.recovery import CheckpointManager
            from repro.recovery.controller import (
                DEFAULT_CHECKPOINT_EVERY,
                RecoveryController,
            )

            recovery = RecoveryController(
                params=params,
                manager=CheckpointManager(
                    keep=params.checkpoint_keep, spill_dir=checkpoint_dir
                ),
                events=events,
                design=netlist.name,
                bin_size=bin_size,
                num_movable=len(mov),
                every=params.checkpoint_every or DEFAULT_CHECKPOINT_EVERY,
            )

        events.on_start(
            LoopStart(
                design=netlist.name,
                placer="xplace-nn" if params.neural_guidance else "xplace",
                params=params,
                num_movable=len(mov),
                num_fillers=self.density.fillers.count,
            )
        )

        start_iteration = 0
        if recovery is not None and resume:
            start_iteration = recovery.maybe_resume(optimizer, scheduler, engine)

        result = None
        if start_iteration == 0:
            # Bootstrap: evaluate once to balance λ0 against gradient norms.
            vx, vy = optimizer.positions
            result = engine.compute(0, vx, vy, scheduler.gamma, lam_for_skip=0.0)
            lam = scheduler.initialize_lambda(
                result.wl_grad_norm, result.density_grad_norm
            )
        else:
            # Restored runs carry λ (and the engine's gradient cache) in
            # the snapshot; re-bootstrapping would fork the trajectory.
            lam = scheduler.lam

        converged = False
        degraded = False
        boundary_checkpoint = False
        best_hpwl = math.inf
        best_iteration = -1
        last_iteration = start_iteration - 1
        iteration = start_iteration
        while iteration < params.max_iterations:
            try:
                omega = engine.preconditioner.omega(lam)
                sigma = (
                    params.neural_sigma_max * sigma_of_omega(omega)
                    if params.neural_guidance and engine.field_predictor is not None
                    else 0.0
                )
                if sigma < 0.02:
                    sigma = 0.0  # predictor cost isn't worth a ~0 blend weight
                vx, vy = optimizer.positions
                if iteration > 0:
                    result = engine.compute(
                        iteration, vx, vy, scheduler.gamma, lam
                    )
                grad_x, grad_y = engine.assemble(result, vx, vy, lam, sigma)

                if iteration == 0:
                    # Bound the very first step to a fraction of a bin.
                    max_grad = max(
                        float(np.abs(grad_x).max(initial=0.0)),
                        float(np.abs(grad_y).max(initial=0.0)),
                    )
                    if max_grad > 0 and isinstance(optimizer, NesterovOptimizer):
                        optimizer.bound_first_step(0.1 * bin_size / max_grad)

                optimizer.step(grad_x, grad_y)
                optimizer.clamp(clamp)
                self._guard_finite(
                    events,
                    iteration,
                    optimizer,
                    grad_x,
                    grad_y,
                    result,
                    best_hpwl,
                    best_iteration,
                )

                ratio = (
                    lam * result.density_grad_norm / result.wl_grad_norm
                    if result.wl_grad_norm > 1e-20
                    else float("inf")
                )
                events.on_iteration(
                    IterationRecord(
                        iteration=iteration,
                        hpwl=result.hpwl,
                        wa=result.wa,
                        overflow=result.overflow,
                        gamma=scheduler.gamma,
                        lam=lam,
                        omega=omega,
                        grad_ratio=ratio,
                        density_computed=result.density_computed,
                        step_length=optimizer.step_length,
                    )
                )
            except NumericalFault as fault:
                if recovery is not None:
                    reason = f"numerical-fault: {fault.op}"
                    resume_at = recovery.rollback(
                        reason, iteration, optimizer, scheduler, engine, clamp
                    )
                    if resume_at is not None:
                        iteration = resume_at
                        lam = scheduler.lam
                        continue
                    if recovery.degrade(
                        reason, iteration, optimizer, scheduler, engine
                    ):
                        degraded = True
                        break
                raise

            last_iteration = iteration
            if math.isfinite(result.hpwl) and result.hpwl < best_hpwl:
                best_hpwl = result.hpwl
                best_iteration = iteration

            if scheduler.should_stop(iteration, result.overflow):
                converged = result.overflow < params.stop_overflow
                if final_checkpoint and not converged and recovery is not None:
                    # Segment boundary (max_iterations wall): replay the
                    # end-of-iteration bookkeeping a continuing run
                    # would have done — γ/λ update, divergence
                    # observation — then pin the state, so that a forked
                    # continuation is bit-identical to a run whose
                    # max_iterations had simply been larger.
                    if scheduler.should_update_params(omega):
                        scheduler.update(result.overflow, result.hpwl)
                        lam = scheduler.lam
                    recovery.observe(iteration, result.hpwl, result.overflow)
                    recovery.checkpoint(
                        iteration,
                        lam,
                        result.hpwl,
                        result.overflow,
                        optimizer,
                        scheduler,
                        engine,
                    )
                    boundary_checkpoint = True
                break

            if scheduler.should_update_params(omega):
                scheduler.update(result.overflow, result.hpwl)
                lam = scheduler.lam

            if recovery is not None:
                trip = recovery.observe(iteration, result.hpwl, result.overflow)
                if trip is not None:
                    resume_at = recovery.rollback(
                        trip, iteration, optimizer, scheduler, engine, clamp
                    )
                    if resume_at is not None:
                        iteration = resume_at
                        lam = scheduler.lam
                        continue
                    if recovery.degrade(
                        trip, iteration, optimizer, scheduler, engine
                    ):
                        degraded = True
                        break
                    # Nothing restorable: press on with what we have.
                elif recovery.should_checkpoint(iteration):
                    recovery.checkpoint(
                        iteration,
                        lam,
                        result.hpwl,
                        result.overflow,
                        optimizer,
                        scheduler,
                        engine,
                    )

            iteration += 1

        if recovery is not None and not boundary_checkpoint:
            # The run ended on its own terms — a stale spill must not
            # hijack the next resume.  (A killed run never reaches this,
            # which is exactly what keeps its spill resumable; a
            # boundary checkpoint keeps its spill so forks can read it.)
            recovery.manager.clear_spill()

        sol_x, sol_y = optimizer.solution
        x, y = engine.full_positions(sol_x, sol_y)
        x, y = self._clamp_real_cells(x, y)
        elapsed = time.perf_counter() - start
        final = self.evaluator.evaluate(x, y)
        events.on_stop(
            LoopStop(
                design=netlist.name,
                iterations=last_iteration + 1,
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
            iterations=last_iteration + 1,
            gp_seconds=elapsed,
            recorder=recorder,
            converged=converged,
            rollbacks=recovery.rollbacks if recovery is not None else 0,
            checkpoints=recovery.checkpoints if recovery is not None else 0,
            degraded=degraded,
            resumed_from=recovery.resumed_from if recovery is not None else None,
            checkpoint_stats=(
                recovery.manager.stats() if recovery is not None else None
            ),
        )

    # ------------------------------------------------------------------
    def _guard_finite(
        self,
        events,
        iteration,
        optimizer,
        grad_x,
        grad_y,
        result,
        best_hpwl=float("inf"),
        best_iteration=-1,
    ) -> None:
        """Abort on non-finite positions instead of silently diverging.

        Attributes the fault to the gradient component (wirelength,
        density, preconditioner) or the optimizer step that produced
        it, then surfaces a :class:`Diagnostic` through the callback
        seam before raising — so runtime consumers (batch events,
        recorders) see the provenance, not just a dead worker.  The
        best-seen HPWL and its iteration ride along so consumers can
        tell how far back a recovery would have to reach.
        """
        vx, vy = optimizer.positions
        if np.isfinite(vx).all() and np.isfinite(vy).all():
            return
        if not (np.isfinite(grad_x).all() and np.isfinite(grad_y).all()):
            if not (
                np.isfinite(result.wl_grad_x).all()
                and np.isfinite(result.wl_grad_y).all()
            ):
                op = "wirelength.grad"
            elif not (
                np.isfinite(result.density_grad_x).all()
                and np.isfinite(result.density_grad_y).all()
            ):
                op = "density.grad"
            else:
                op = "preconditioner.apply"
        else:
            op = f"optimizer.step(alpha={optimizer.step_length:.3g})"
        message = (
            "non-finite cell positions after the optimizer step "
            f"(overflow {result.overflow:.3f}); offending component: {op}"
        )
        events.on_diagnostic(
            Diagnostic(
                design=self.netlist.name,
                iteration=iteration,
                stage="global-place",
                op=op,
                message=message,
                best_hpwl=best_hpwl,
                best_iteration=best_iteration,
            )
        )
        raise NumericalFault(
            op=op, stage="global-place", detail=message, iteration=iteration
        )

    # ------------------------------------------------------------------
    def _make_clamp(self):
        """Clamp for the optimizer's [movable; filler] layout."""
        netlist = self.netlist
        region = netlist.region
        mov = netlist.movable_index
        fillers = self.density.fillers
        hw = np.concatenate([netlist.cell_w[mov] / 2, fillers.w / 2])
        hh = np.concatenate([netlist.cell_h[mov] / 2, fillers.h / 2])
        from repro.core.fences import FenceProjector

        projector = FenceProjector(netlist, fillers.count)

        def clamp(px: np.ndarray, py: np.ndarray):
            px, py = region.clamp(px, py, hw, hh)
            if projector.active:
                px, py = projector.project(px, py)
            return px, py

        return clamp

    def _clamp_real_cells(self, x: np.ndarray, y: np.ndarray):
        netlist = self.netlist
        mov = netlist.movable_index
        hw = netlist.cell_w[mov] / 2
        hh = netlist.cell_h[mov] / 2
        x = x.copy()
        y = y.copy()
        x[mov], y[mov] = netlist.region.clamp(x[mov], y[mov], hw, hh)
        if netlist.fences:
            from repro.core.fences import FenceProjector

            projector = FenceProjector(netlist)
            x[mov], y[mov] = projector.project(x[mov], y[mov])
        return x, y
