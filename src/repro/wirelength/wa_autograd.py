"""WA wirelength spelled as fine-grained autograd operators.

This is the "operator reduction OFF" configuration of Section 3.1.3:
instead of one fused kernel producing objective + gradient + HPWL, the
objective is a graph of small tape operators (gather, exp, segment-sum,
divide, …) differentiated by the autograd engine, and HPWL is computed
by a separate operator.  Numerically equivalent to
:class:`~repro.wirelength.wa.WirelengthOp`; only the dispatch structure
differs — which is exactly what the Table 3 ablation measures.
:func:`wa_axis` is the one tape spelling, shared with the
DREAMPlace-style baseline.
"""

from __future__ import annotations

import numpy as np
from repro.dtypes import FLOAT

from repro.autograd import Tensor, gather_cells, segment_sum
from repro.netlist import Netlist
from repro.wirelength.hpwl import hpwl as hpwl_fn
from repro.wirelength.segments import segment_max, segment_min
from repro.wirelength.wa import WAResult


def wa_axis(
    netlist: Netlist, pos: Tensor, offsets: np.ndarray, gamma: float
) -> Tensor:
    """Stable, net-weighted WA wirelength along one axis as a tape graph.

    The max/min shifts come from a detached (non-differentiated)
    reduction, the standard envelope treatment.
    """
    nl = netlist
    pin2net = nl.pin2net
    pins = gather_cells(pos, nl.pin2cell, offsets)
    net_max = segment_max(pins.data, nl.net_start, pin2net)
    net_min = segment_min(pins.data, nl.net_start, pin2net)
    inv_gamma = 1.0 / gamma
    ep = ((pins - net_max[pin2net]) * inv_gamma).exp()
    em = ((Tensor(net_min[pin2net]) - pins) * inv_gamma).exp()
    # Denominator guard for empty nets.
    empty_guard = (~nl.net_mask).astype(FLOAT)
    cp = segment_sum(ep, nl.net_start, pin2net) + empty_guard
    cm = segment_sum(em, nl.net_start, pin2net) + empty_guard
    dp = segment_sum(pins * ep, nl.net_start, pin2net)
    dm = segment_sum(pins * em, nl.net_start, pin2net)
    per_net = dp / cp - dm / cm
    return (Tensor(nl.net_weight * nl.net_mask) * per_net).sum()


class AutogradWirelengthOp:
    """Drop-in WirelengthOp replacement routed through the tape."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist

    def __call__(self, x: np.ndarray, y: np.ndarray, gamma: float) -> WAResult:
        nl = self.netlist
        tx = Tensor(x, requires_grad=True)
        ty = Tensor(y, requires_grad=True)
        wa = wa_axis(nl, tx, nl.pin_dx, gamma) + wa_axis(
            nl, ty, nl.pin_dy, gamma
        )
        wa.backward()
        # Separate HPWL operator: recomputes the per-net reductions.
        hpwl_value = hpwl_fn(nl, x, y)
        return WAResult(
            wa=float(wa.data),
            hpwl=hpwl_value,
            grad_x=tx.grad,
            grad_y=ty.grad,
        )
