"""Weighted-average wirelength: stable objective (Eq. 6) + analytic gradient.

The combined operator (Section 3.1.1) computes, in one pass per axis:

* per-net max/min pin positions (shared sub-expression),
* the numerically stable WA objective,
* its closed-form gradient with respect to cell positions,
* the exact HPWL metric.

The max/min shift in Eq. 6 is treated as a constant when differentiating,
matching the ePlace/DREAMPlace gradient.  Per net, the WA gradient entries
sum to zero (a property test checks this), so spread-out nets feel no net
translation force.

All temporaries live in the operator's
:class:`~repro.perf.workspace.Workspace` arena (``wa.*`` buffers) and
every ufunc writes through ``out=``, so the steady-state loop performs
zero allocations for them.  The x and y axes deliberately share one
buffer set — the x-axis pin gradient is scattered onto cells before
the y-axis reuses its arena slots.  The returned gradients come from
``np.bincount`` and never alias the arena.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.dtypes import BOOL
from repro.netlist import Netlist
from repro.ops import profiled, timed
from repro.perf.workspace import Workspace
from repro.wirelength.segments import (
    _safe_starts,
    scatter_to_cells,
    segment_max,
    segment_min,
    segment_sum,
)


@dataclass
class WAResult:
    """Output of one combined wirelength evaluation."""

    wa: float
    hpwl: float
    grad_x: np.ndarray
    grad_y: np.ndarray


class WirelengthOp:
    """Fused WA-wirelength / WA-gradient / HPWL operator for one netlist.

    Parameters
    ----------
    netlist : the circuit
    combined : when True (Xplace mode), per-net min/max are computed once
        and shared by the objective, gradient and HPWL.  When False
        (ablation mode, "OC off"), HPWL re-reduces min/max separately,
        mimicking placers that dispatch an independent HPWL kernel.

    The operator owns a private arena; :meth:`attach_workspace` shares
    another one (the gradient engine hands over its own).
    """

    def __init__(self, netlist: Netlist, combined: bool = True) -> None:
        self.netlist = netlist
        self.combined = combined
        self.workspace = Workspace()
        self._weights = netlist.net_weight * netlist.net_mask
        # Loop-invariant per-pin weights and mask, hoisted out of the
        # per-axis pass.
        self._pin_weights = self._weights[netlist.pin2net]
        self._unmask = ~netlist.net_mask
        self._any_unmask = bool(np.any(self._unmask))
        num_pins = int(netlist.pin2net.shape[0])
        self._num_pins = num_pins
        self._num_nets = len(netlist.net_start) - 1
        self._starts = _safe_starts(netlist.net_start, num_pins)
        self._empty = np.diff(netlist.net_start) == 0

    def attach_workspace(self, workspace: Workspace) -> None:
        """Run the operator on ``workspace`` from now on."""
        self.workspace = workspace

    # ------------------------------------------------------------------
    def __call__(self, x: np.ndarray, y: np.ndarray, gamma: float) -> WAResult:
        """Evaluate WA wirelength, its gradient and HPWL at ``(x, y)``."""
        with timed("wirelength"):
            netlist = self.netlist
            ws = self.workspace
            px = ws.get("wa.px", self._num_pins)
            py = ws.get("wa.py", self._num_pins)
            np.take(x, netlist.pin2cell, out=px)
            np.add(px, netlist.pin_dx, out=px)
            np.take(y, netlist.pin2cell, out=py)
            np.add(py, netlist.pin_dy, out=py)
            profiled("pin_positions", 2)

            wa_x, hpwl_x, pin_grad_x = self._axis(px, gamma)
            grad_x = scatter_to_cells(
                pin_grad_x, netlist.pin2cell, netlist.num_cells
            )
            wa_y, hpwl_y, pin_grad_y = self._axis(py, gamma)
            grad_y = scatter_to_cells(
                pin_grad_y, netlist.pin2cell, netlist.num_cells
            )
            return WAResult(
                wa=float(wa_x + wa_y),
                hpwl=float(hpwl_x + hpwl_y),
                grad_x=grad_x,
                grad_y=grad_y,
            )

    # ------------------------------------------------------------------
    def _masked_weighted_sum(self, values: np.ndarray) -> float:
        """``sum(where(net_mask, values, 0) * weights)`` via arena scratch."""
        ws = self.workspace
        masked = ws.get("wa.masked", values.shape)
        np.copyto(masked, values)
        if self._any_unmask:
            masked[self._unmask] = 0.0
        np.multiply(masked, self._weights, out=masked)
        return float(np.sum(masked))

    def _axis(
        self, pin_pos: np.ndarray, gamma: float
    ) -> Tuple[float, float, np.ndarray]:
        """WA objective/HPWL/per-pin gradient along one axis.

        Returns (weighted WA total, weighted HPWL total, per-pin
        gradient); the gradient is the ``wa.pin_grad`` arena buffer.
        """
        ws = self.workspace
        netlist = self.netlist
        net_start = netlist.net_start
        pin2net = netlist.pin2net
        nn = self._num_nets
        npin = self._num_pins
        starts = self._starts
        empty = self._empty

        net_max = segment_max(
            pin_pos, net_start, out=ws.get("wa.net_max", nn), starts=starts
        )
        net_min = segment_min(
            pin_pos, net_start, out=ws.get("wa.net_min", nn), starts=starts
        )

        spans = ws.get("wa.spans", nn)
        if self.combined:
            np.subtract(net_max, net_min, out=spans)
        else:
            # "OC off": an independent HPWL kernel recomputes the reductions.
            hmax = segment_max(
                pin_pos, net_start, out=ws.get("wa.hmax", nn), starts=starts
            )
            hmin = segment_min(
                pin_pos, net_start, out=ws.get("wa.hmin", nn), starts=starts
            )
            np.subtract(hmax, hmin, out=spans)
        hpwl_total = self._masked_weighted_sum(spans)

        profiled("wa_exp", 2)
        gat = ws.get("wa.gat", npin)
        exp_plus = ws.get("wa.exp_plus", npin)
        np.take(net_max, pin2net, out=gat)
        np.subtract(pin_pos, gat, out=exp_plus)
        np.divide(exp_plus, gamma, out=exp_plus)
        np.exp(exp_plus, out=exp_plus)
        exp_minus = ws.get("wa.exp_minus", npin)
        np.take(net_min, pin2net, out=gat)
        np.subtract(gat, pin_pos, out=exp_minus)
        np.divide(exp_minus, gamma, out=exp_minus)
        np.exp(exp_minus, out=exp_minus)

        xe = ws.get("wa.xe", npin)
        sum_plus = segment_sum(
            exp_plus, net_start, out=ws.get("wa.sum_plus", nn),
            starts=starts, empty=empty,
        )
        sum_minus = segment_sum(
            exp_minus, net_start, out=ws.get("wa.sum_minus", nn),
            starts=starts, empty=empty,
        )
        np.multiply(pin_pos, exp_plus, out=xe)
        sum_xplus = segment_sum(
            xe, net_start, out=ws.get("wa.sum_xplus", nn),
            starts=starts, empty=empty,
        )
        np.multiply(pin_pos, exp_minus, out=xe)
        sum_xminus = segment_sum(
            xe, net_start, out=ws.get("wa.sum_xminus", nn),
            starts=starts, empty=empty,
        )

        # safe_* = where(sum_* > 0, sum_*, 1.0), spelled as copy + select
        # on the negated predicate so NaN handling matches np.where.
        nmask = ws.get("wa.nmask", nn, BOOL)
        safe_plus = ws.get("wa.safe_plus", nn)
        np.copyto(safe_plus, sum_plus)
        np.greater(sum_plus, 0.0, out=nmask)
        np.logical_not(nmask, out=nmask)
        safe_plus[nmask] = 1.0
        safe_minus = ws.get("wa.safe_minus", nn)
        np.copyto(safe_minus, sum_minus)
        np.greater(sum_minus, 0.0, out=nmask)
        np.logical_not(nmask, out=nmask)
        safe_minus[nmask] = 1.0

        per_net = ws.get("wa.per_net", nn)
        tnet = ws.get("wa.tnet", nn)
        np.divide(sum_xplus, safe_plus, out=per_net)
        np.divide(sum_xminus, safe_minus, out=tnet)
        np.subtract(per_net, tnet, out=per_net)
        wa_total = self._masked_weighted_sum(per_net)

        # Per-pin gradient (shift treated as constant):
        #   d(WA+)/dx_k = b+_k [ (1 + x_k/γ) c+  - d+/γ ] / c+²
        #   d(WA-)/dx_k = b-_k [ (1 - x_k/γ) c-  + d-/γ ] / c-²
        profiled("wa_grad", 2)
        inv_gamma = 1.0 / gamma
        pt = ws.get("wa.pt", npin)
        pc = ws.get("wa.pc", npin)
        pd = ws.get("wa.pd", npin)
        gp = ws.get("wa.gp", npin)
        np.multiply(pin_pos, inv_gamma, out=pt)
        np.add(pt, 1.0, out=pt)
        np.take(safe_plus, pin2net, out=pc)
        np.take(sum_xplus, pin2net, out=pd)
        np.multiply(pt, pc, out=gp)
        np.multiply(pd, inv_gamma, out=pd)
        np.subtract(gp, pd, out=gp)
        np.multiply(exp_plus, gp, out=gp)
        np.multiply(pc, pc, out=pc)
        np.divide(gp, pc, out=gp)

        gm = ws.get("wa.gm", npin)
        np.multiply(pin_pos, inv_gamma, out=pt)
        np.subtract(1.0, pt, out=pt)
        np.take(safe_minus, pin2net, out=pc)
        np.take(sum_xminus, pin2net, out=pd)
        np.multiply(pt, pc, out=gm)
        np.multiply(pd, inv_gamma, out=pd)
        np.add(gm, pd, out=gm)
        np.multiply(exp_minus, gm, out=gm)
        np.multiply(pc, pc, out=pc)
        np.divide(gm, pc, out=gm)

        pin_grad = ws.get("wa.pin_grad", npin)
        np.subtract(gp, gm, out=pin_grad)
        np.multiply(pin_grad, self._pin_weights, out=pin_grad)
        return wa_total, hpwl_total, pin_grad


def wa_wirelength_and_grad(
    netlist: Netlist, x: np.ndarray, y: np.ndarray, gamma: float
) -> WAResult:
    """One-shot functional wrapper around :class:`WirelengthOp`."""
    return WirelengthOp(netlist)(x, y, gamma)
