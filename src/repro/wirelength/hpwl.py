"""Half-perimeter wirelength (Eq. 2)."""

from __future__ import annotations

import numpy as np

from repro.netlist import Netlist
from repro.wirelength.segments import segment_max, segment_min


def hpwl_per_net(netlist: Netlist, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unweighted HPWL of every net (0 for nets with <2 pins)."""
    px, py = netlist.pin_positions(x, y)
    net_start, pin2net = netlist.net_start, netlist.pin2net
    spans = (
        segment_max(px, net_start, pin2net)
        - segment_min(px, net_start, pin2net)
    ) + (
        segment_max(py, net_start, pin2net)
        - segment_min(py, net_start, pin2net)
    )
    return np.where(netlist.net_mask, spans, 0.0)


def hpwl(netlist: Netlist, x: np.ndarray, y: np.ndarray) -> float:
    """Total net-weighted HPWL of the placement ``(x, y)`` (cell centers)."""
    return float(np.sum(hpwl_per_net(netlist, x, y) * netlist.net_weight))
