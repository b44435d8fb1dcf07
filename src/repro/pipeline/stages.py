"""The stock placement stages every flow in this repo composes.

Each stage wraps one engine (GP, macro LG, LG, DP, GR) behind the
uniform :class:`~repro.pipeline.stage.Stage` interface so that the
standard flow (Tables 2/4), the mixed-size flow and the routability flow
are all compositions of the same parts — the paper's extensibility claim
expressed as code structure.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

import numpy as np

from repro.core.params import PlacementParams
from repro.netlist import Netlist
from repro.pipeline.context import PlacementContext
from repro.pipeline.stage import Stage


def _with_guidance(params: PlacementParams) -> PlacementParams:
    """Copy of ``params`` with neural guidance switched on."""
    return dataclasses.replace(params, neural_guidance=True)


class GlobalPlaceStage(Stage):
    """Global placement with any of the repo's engines.

    ``placer`` defaults to the context's choice (``"xplace"``,
    ``"xplace-nn"``, ``"baseline"`` or ``"quadratic"``); pass it
    explicitly to pin a stage to one engine regardless of context.
    Iteration callbacks on the context are attached to the GP loop.
    """

    name = "gp"

    def __init__(
        self, placer: Optional[str] = None, name: Optional[str] = None
    ) -> None:
        super().__init__(name)
        self.placer = placer

    def execute(self, ctx: PlacementContext) -> Dict[str, Any]:
        from repro.baseline import DreamPlaceStyleBaseline
        from repro.core import XPlacer

        placer = self.placer or ctx.placer
        params = ctx.params
        callbacks = ctx.callbacks
        if placer == "xplace":
            gp = XPlacer(ctx.netlist, params).run(
                callbacks=callbacks,
                checkpoint_dir=ctx.checkpoint_dir,
                resume=ctx.resume,
                final_checkpoint=ctx.final_checkpoint,
            )
        elif placer == "xplace-nn":
            if ctx.field_predictor is None:
                raise ValueError("xplace-nn flow needs a field_predictor")
            gp = XPlacer(
                ctx.netlist,
                _with_guidance(params),
                field_predictor=ctx.field_predictor,
            ).run(
                callbacks=callbacks,
                checkpoint_dir=ctx.checkpoint_dir,
                resume=ctx.resume,
                final_checkpoint=ctx.final_checkpoint,
            )
        elif placer == "baseline":
            gp = DreamPlaceStyleBaseline(ctx.netlist, params).run(
                callbacks=callbacks
            )
        elif placer == "quadratic":
            from repro.quadratic import QuadraticPlacer

            gp = QuadraticPlacer(ctx.netlist, seed=params.seed).run()
        else:
            raise ValueError(f"unknown placer {placer!r}")
        ctx.gp_result = gp
        ctx.x, ctx.y = gp.x, gp.y
        metrics = {
            "gp_hpwl": gp.hpwl,
            "gp_overflow": gp.overflow,
            "gp_iterations": gp.iterations,
            "gp_seconds": gp.gp_seconds,
            "gp_converged": gp.converged,
        }
        # Recovery telemetry (quadratic/baseline results have none).
        rollbacks = getattr(gp, "rollbacks", 0)
        if getattr(gp, "checkpoints", 0) or rollbacks:
            metrics["gp_rollbacks"] = rollbacks
            metrics["gp_checkpoints"] = gp.checkpoints
            metrics["gp_degraded"] = gp.degraded
        if getattr(gp, "resumed_from", None) is not None:
            metrics["gp_resumed_from"] = gp.resumed_from
        if getattr(gp, "checkpoint_stats", None) is not None:
            metrics["gp_checkpoint_stats"] = gp.checkpoint_stats
        return metrics


def movable_macro_indices(netlist: Netlist, row_multiple: float = 2.0) -> np.ndarray:
    """Movable cells taller than ``row_multiple`` rows count as macros."""
    row_height = netlist.region.row_height
    mov = netlist.movable_index
    return mov[netlist.cell_h[mov] >= row_multiple * row_height - 1e-9]


def freeze_cells(
    netlist: Netlist, cells: np.ndarray, x: np.ndarray, y: np.ndarray
) -> Netlist:
    """Derived netlist with ``cells`` fixed at (x, y) (same connectivity)."""
    movable = netlist.movable.copy()
    movable[cells] = False
    fixed_x = netlist.fixed_x.copy()
    fixed_y = netlist.fixed_y.copy()
    fixed_x[cells] = x[cells]
    fixed_y[cells] = y[cells]
    cell_fence = netlist.cell_fence.copy()
    cell_fence[cells] = -1  # fence constraints live on std cells only
    return Netlist(
        cell_name=netlist.cell_name,
        cell_w=netlist.cell_w,
        cell_h=netlist.cell_h,
        movable=movable,
        fixed_x=fixed_x,
        fixed_y=fixed_y,
        pin2cell=netlist.pin2cell,
        pin_dx=netlist.pin_dx,
        pin_dy=netlist.pin_dy,
        pin2net=netlist.pin2net,
        net_start=netlist.net_start,
        net_name=netlist.net_name,
        net_weight=netlist.net_weight,
        region=netlist.region,
        name=netlist.name,
        fences=netlist.fences,
        cell_fence=cell_fence,
    )


class MacroLegalizeStage(Stage):
    """mLG: snap movable macros to legal row/site positions.

    Degrades to a no-op on macro-free designs (displacement 0).  Leaves
    the macro index set on the context for the downstream FreezeStage.
    """

    name = "mlg"

    def __init__(
        self, row_multiple: float = 2.0, name: Optional[str] = None
    ) -> None:
        super().__init__(name)
        self.row_multiple = row_multiple

    def execute(self, ctx: PlacementContext) -> Dict[str, Any]:
        from repro.legalize.macros import MacroLegalizer

        x, y = ctx.positions()
        macros = movable_macro_indices(ctx.netlist, self.row_multiple)
        ctx.macro_indices = macros
        if len(macros):
            lx, ly = MacroLegalizer(ctx.netlist).legalize(x, y, macros)
            displacement = float(
                np.mean(
                    np.abs(lx[macros] - x[macros]) + np.abs(ly[macros] - y[macros])
                )
            )
            ctx.x, ctx.y = lx, ly
        else:
            displacement = 0.0
        return {"num_macros": len(macros), "macro_displacement": displacement}


class FreezeStage(Stage):
    """Swap the working netlist for one with the macros fixed in place."""

    name = "freeze"

    def execute(self, ctx: PlacementContext) -> Dict[str, Any]:
        x, y = ctx.positions()
        macros = ctx.macro_indices
        if macros is None:
            macros = movable_macro_indices(ctx.netlist)
            ctx.macro_indices = macros
        ctx.netlist = freeze_cells(ctx.netlist, macros, x, y)
        return {"frozen_cells": int(len(macros))}


class LegalizeStage(Stage):
    """LG: fence-aware Abacus legalization of the standard cells."""

    name = "lg"

    def execute(self, ctx: PlacementContext) -> Dict[str, Any]:
        from repro.legalize import FenceAwareLegalizer
        from repro.wirelength import hpwl as hpwl_fn

        x, y = ctx.positions()
        # FenceAwareLegalizer degrades to plain Abacus on fence-free designs.
        lx, ly = FenceAwareLegalizer(ctx.netlist).legalize(x, y)
        ctx.x, ctx.y = lx, ly
        return {"lg_hpwl": hpwl_fn(ctx.netlist, lx, ly)}


class DetailStage(Stage):
    """DP: ABCDPlace-style refinement, then a legality check."""

    name = "dp"

    def __init__(
        self, passes: int = 1, check: bool = True, name: Optional[str] = None
    ) -> None:
        super().__init__(name)
        self.passes = passes
        self.check = check

    def execute(self, ctx: PlacementContext) -> Dict[str, Any]:
        from repro.detail import DetailedPlacer
        from repro.legalize import check_legal

        x, y = ctx.positions()
        dp = DetailedPlacer(ctx.netlist, max_passes=self.passes).place(x, y)
        ctx.detail_result = dp
        ctx.x, ctx.y = dp.x, dp.y
        metrics: Dict[str, Any] = {
            "dp_hpwl": dp.hpwl_after,
            "dp_moves": dp.moves_applied,
            **{f"dp_moves_{op}": n for op, n in dp.moves_by_operator.items()},
            **{f"dp_seconds_{op}": sec
               for op, sec in dp.seconds_by_operator.items()},
        }
        if self.check:
            ctx.legality = check_legal(ctx.netlist, dp.x, dp.y)
            metrics["legal"] = ctx.legality.legal
        return metrics


class RouteStage(Stage):
    """GR: global routing for the top5-overflow routability metric."""

    name = "gr"

    def __init__(self, grid_m: int = 32, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.grid_m = grid_m

    def execute(self, ctx: PlacementContext) -> Dict[str, Any]:
        from repro.route import GlobalRouter

        x, y = ctx.positions()
        routing = GlobalRouter(ctx.netlist, grid_m=self.grid_m).route(x, y)
        ctx.routing = routing
        return {
            "top5_overflow": routing.top5_overflow,
            "total_overflow": routing.total_overflow,
            "gr_seconds": routing.gr_seconds,
        }
