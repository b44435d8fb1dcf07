"""Per-net segment reductions over the pin-grouped-by-net CSR layout.

These helpers are the NumPy equivalent of the per-net CUDA reduction
kernels.  Every reduction is keyed by ``pin2net`` (each pin's owner net;
pass the netlist's, or it is expanded from ``net_start``):

* :func:`segment_sum` is one ``np.bincount`` — empty nets get 0;
* :func:`segment_max` / :func:`segment_min` seed each net from its first
  pin and fold the rest in with ``np.maximum.at`` / ``np.minimum.at``.
  Empty nets keep the seed (the value at their clipped start), which is
  unspecified and must be masked by the caller via ``net_mask``.

``ufunc.reduceat`` pays a dispatch per segment; nets average a few pins,
so the keyed spellings are several times faster.  Max and min do not
depend on the order they visit pins, so spans — and everything that
reads them — are the same as any other spelling's.  Sums are accumulated
in pin order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dtypes import INT
from repro.ops import profiled


def first_pins(net_start: np.ndarray, num_values: int) -> np.ndarray:
    """Each net's first pin index, clipped so empty trailing nets stay in
    range (the seed of :func:`segment_max` / :func:`segment_min`)."""
    starts = net_start[:-1]
    if num_values == 0:
        return starts
    return np.minimum(starts, num_values - 1)


def expand_pin2net(net_start: np.ndarray) -> np.ndarray:
    """``pin2net`` of the CSR layout ``net_start``."""
    return np.repeat(np.arange(len(net_start) - 1, dtype=INT), np.diff(net_start))


def _extreme(
    ufunc: np.ufunc,
    values: np.ndarray,
    net_start: np.ndarray,
    pin2net: Optional[np.ndarray],
    out: Optional[np.ndarray],
    starts: Optional[np.ndarray],
) -> np.ndarray:
    if out is None:
        out = np.empty(len(net_start) - 1, dtype=values.dtype)
    if values.size == 0:
        out.fill(0)
        return out
    if starts is None:
        starts = first_pins(net_start, values.size)
    if pin2net is None:
        pin2net = expand_pin2net(net_start)
    np.take(values, starts, out=out, mode="clip")
    ufunc.at(out, pin2net, values)
    return out


def segment_max(
    values: np.ndarray,
    net_start: np.ndarray,
    pin2net: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    starts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-net maximum of ``values`` (undefined for empty nets)."""
    profiled("segment_max")
    return _extreme(np.maximum, values, net_start, pin2net, out, starts)


def segment_min(
    values: np.ndarray,
    net_start: np.ndarray,
    pin2net: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    starts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-net minimum of ``values`` (undefined for empty nets)."""
    profiled("segment_min")
    return _extreme(np.minimum, values, net_start, pin2net, out, starts)


def segment_sum(
    values: np.ndarray,
    net_start: np.ndarray,
    pin2net: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-net sum of ``values`` (0 for empty nets), as a new array."""
    profiled("segment_sum")
    num_nets = len(net_start) - 1
    if values.size == 0:  # bincount of nothing is integer-typed
        return np.zeros(num_nets, dtype=values.dtype)
    if pin2net is None:
        pin2net = expand_pin2net(net_start)
    return np.bincount(pin2net, weights=values, minlength=num_nets)


def scatter_to_cells(
    pin_values: np.ndarray, pin2cell: np.ndarray, num_cells: int
) -> np.ndarray:
    """Accumulate per-pin values onto their owner cells."""
    profiled("scatter_to_cells")
    return np.bincount(pin2cell, weights=pin_values, minlength=num_cells)
