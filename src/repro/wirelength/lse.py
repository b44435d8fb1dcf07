"""Log-sum-exp wirelength (the classic NTUPlace3-style smooth objective).

Included as an alternative objective for extension experiments; unlike WA
it over-approximates HPWL (LSE ≥ HPWL ≥ WA), which tests exploit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.netlist import Netlist
from repro.ops import profiled
from repro.wirelength.segments import segment_max, segment_min, segment_sum


def lse_wirelength(
    netlist: Netlist, x: np.ndarray, y: np.ndarray, gamma: float
) -> float:
    """Total net-weighted log-sum-exp wirelength.

    Per net and axis: γ·log Σ e^{x/γ} + γ·log Σ e^{-x/γ}, computed with
    max/min shifts for numerical stability.
    """
    px, py = netlist.pin_positions(x, y)
    total = _lse_axis(px, netlist, gamma) + _lse_axis(py, netlist, gamma)
    return float(total)


def _lse_axis(pin_pos: np.ndarray, netlist: Netlist, gamma: float) -> float:
    net_start = netlist.net_start
    pin2net = netlist.pin2net
    net_max = segment_max(pin_pos, net_start, pin2net)
    net_min = segment_min(pin_pos, net_start, pin2net)
    profiled("lse_exp", 2)
    exp_plus = np.exp((pin_pos - net_max[pin2net]) / gamma)
    exp_minus = np.exp((net_min[pin2net] - pin_pos) / gamma)
    sum_plus = segment_sum(exp_plus, net_start, pin2net)
    sum_minus = segment_sum(exp_minus, net_start, pin2net)
    safe_plus = np.where(sum_plus > 0, sum_plus, 1.0)
    safe_minus = np.where(sum_minus > 0, sum_minus, 1.0)
    per_net = (
        net_max - net_min + gamma * (np.log(safe_plus) + np.log(safe_minus))
    )
    weights = netlist.net_weight * netlist.net_mask
    return float(np.sum(np.where(netlist.net_mask, per_net, 0.0) * weights))
