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

Everything per net is folded into net-length coefficients before it
meets the pins: the shifts max/γ and min/γ, the quotients WA± = d±/c±
and the factors w/c± (net weight over exponential sum).  Each gradient
direction is then one gather-add-multiply chain,
``g+_k = e+_k (w/c+) (x_k/γ + 1 − WA+/γ)`` and likewise for ``g-``.
Per-net reductions are keyed by ``pin2net`` (``ufunc.at`` for max/min,
``np.bincount`` for sums; see :mod:`repro.wirelength.segments`).

Pin- and net-length temporaries live in the operator's
:class:`~repro.perf.workspace.Workspace` arena (``wa.*`` buffers) and
every elementwise ufunc writes through ``out=``, so the steady-state
loop takes no arena misses.  Gathers use ``np.take(..., mode="clip")``:
the netlist's indices are in range by construction, and the default
``mode="raise"`` copies through a buffer whenever ``out=`` is given.  The x and y axes deliberately share one
buffer set — the x-axis pin gradient is scattered onto cells before
the y-axis reuses its arena slots.  The per-net sums and the returned
gradients come from ``np.bincount`` and never alias the arena.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.dtypes import FLOAT
from repro.netlist import Netlist
from repro.ops import profiled, timed
from repro.perf.workspace import Workspace
from repro.wirelength.segments import (
    first_pins,
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
        self._unmask = ~netlist.net_mask
        self._any_unmask = bool(np.any(self._unmask))
        num_pins = int(netlist.pin2net.shape[0])
        self._num_pins = num_pins
        self._num_nets = len(netlist.net_start) - 1
        self._starts = first_pins(netlist.net_start, num_pins)
        # 1.0 on empty nets: their exponential sums are 0.
        self._empty_guard = (netlist.net_degree == 0).astype(FLOAT)

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
            np.take(x, netlist.pin2cell, out=px, mode="clip")
            np.add(px, netlist.pin_dx, out=px)
            np.take(y, netlist.pin2cell, out=py, mode="clip")
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

        net_max = segment_max(
            pin_pos, net_start, pin2net,
            out=ws.get("wa.net_max", nn), starts=starts,
        )
        net_min = segment_min(
            pin_pos, net_start, pin2net,
            out=ws.get("wa.net_min", nn), starts=starts,
        )

        spans = ws.get("wa.spans", nn)
        if self.combined:
            np.subtract(net_max, net_min, out=spans)
        else:
            # "OC off": an independent HPWL kernel recomputes the reductions.
            hmax = segment_max(
                pin_pos, net_start, pin2net,
                out=ws.get("wa.hmax", nn), starts=starts,
            )
            hmin = segment_min(
                pin_pos, net_start, pin2net,
                out=ws.get("wa.hmin", nn), starts=starts,
            )
            np.subtract(hmax, hmin, out=spans)
        hpwl_total = self._masked_weighted_sum(spans)

        # Exponents x/γ − max/γ and min/γ − x/γ: the shifts are scaled at
        # net length, so the pins pay one scale for both directions.  The
        # extreme pin's term is exactly exp(0) = 1, so c± ≥ 1 on every
        # non-empty net.
        profiled("wa_exp", 2)
        inv_gamma = 1.0 / gamma
        scaled = ws.get("wa.scaled", npin)
        np.multiply(pin_pos, inv_gamma, out=scaled)
        shift = ws.get("wa.shift", nn)
        gat = ws.get("wa.gat", npin)
        exp_plus = ws.get("wa.exp_plus", npin)
        np.multiply(net_max, inv_gamma, out=shift)
        np.take(shift, pin2net, out=gat, mode="clip")
        np.subtract(scaled, gat, out=exp_plus)
        np.exp(exp_plus, out=exp_plus)
        exp_minus = ws.get("wa.exp_minus", npin)
        np.multiply(net_min, inv_gamma, out=shift)
        np.take(shift, pin2net, out=gat, mode="clip")
        np.subtract(gat, scaled, out=exp_minus)
        np.exp(exp_minus, out=exp_minus)

        # c± = Σ e±, d± = Σ x·e± (bincount: empty nets sum to 0; the
        # guard turns their c± into 1 so the quotients stay finite).
        xe = ws.get("wa.xe", npin)
        sum_plus = segment_sum(exp_plus, net_start, pin2net)
        sum_minus = segment_sum(exp_minus, net_start, pin2net)
        np.add(sum_plus, self._empty_guard, out=sum_plus)
        np.add(sum_minus, self._empty_guard, out=sum_minus)
        np.multiply(pin_pos, exp_plus, out=xe)
        wa_plus = segment_sum(xe, net_start, pin2net)
        np.multiply(pin_pos, exp_minus, out=xe)
        wa_minus = segment_sum(xe, net_start, pin2net)
        np.divide(wa_plus, sum_plus, out=wa_plus)
        np.divide(wa_minus, sum_minus, out=wa_minus)

        per_net = ws.get("wa.per_net", nn)
        np.subtract(wa_plus, wa_minus, out=per_net)
        wa_total = self._masked_weighted_sum(per_net)

        # Per-pin gradient (shift treated as constant), with per-net
        # coefficients q± = w/c± and b± = 1 ∓ WA±/γ:
        #   d(WA+)/dx_k = e+_k q+ (1 + (x_k − WA+)/γ) = e+_k q+ (x_k/γ + b+)
        #   d(WA-)/dx_k = e-_k q- (1 − (x_k − WA-)/γ) = e-_k q- (b- − x_k/γ)
        profiled("wa_grad", 2)
        weights = self._weights
        coef = ws.get("wa.coef", nn)
        gp = ws.get("wa.gp", npin)
        np.multiply(wa_plus, -inv_gamma, out=coef)
        np.add(coef, 1.0, out=coef)
        np.take(coef, pin2net, out=gp, mode="clip")
        np.add(gp, scaled, out=gp)
        np.multiply(gp, exp_plus, out=gp)
        np.divide(weights, sum_plus, out=coef)
        np.take(coef, pin2net, out=gat, mode="clip")
        np.multiply(gp, gat, out=gp)

        gm = exp_plus  # e+ is spent: its slot takes the minus gradient.
        np.multiply(wa_minus, inv_gamma, out=coef)
        np.add(coef, 1.0, out=coef)
        np.take(coef, pin2net, out=gm, mode="clip")
        np.subtract(gm, scaled, out=gm)
        np.multiply(gm, exp_minus, out=gm)
        np.divide(weights, sum_minus, out=coef)
        np.take(coef, pin2net, out=gat, mode="clip")
        np.multiply(gm, gat, out=gm)

        pin_grad = ws.get("wa.pin_grad", npin)
        np.subtract(gp, gm, out=pin_grad)
        return wa_total, hpwl_total, pin_grad


def wa_wirelength_and_grad(
    netlist: Netlist, x: np.ndarray, y: np.ndarray, gamma: float
) -> WAResult:
    """One-shot functional wrapper around :class:`WirelengthOp`."""
    return WirelengthOp(netlist)(x, y, gamma)
