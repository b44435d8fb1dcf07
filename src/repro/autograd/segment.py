"""Netlist-shaped autograd operators: pin gather and per-net reduction.

These are the building blocks the DREAMPlace-style baseline uses to spell
the WA wirelength as a graph of small autograd ops.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Function, Tensor
from repro.wirelength.segments import (
    expand_pin2net,
    segment_sum as _np_segment_sum,
)


class GatherCells(Function):
    """``pin_values = cell_values[pin2cell] (+ offset)``; backward is the
    scatter-add of pin gradients onto cells."""

    @staticmethod
    def forward(ctx, cell_values, pin2cell, offset):
        ctx.meta["pin2cell"] = pin2cell
        ctx.meta["num_cells"] = cell_values.shape[0]
        out = cell_values[pin2cell]
        if offset is not None:
            out = out + offset
        return out

    @staticmethod
    def backward(ctx, grad):
        gcells = np.bincount(
            ctx.meta["pin2cell"], weights=grad, minlength=ctx.meta["num_cells"]
        )
        return gcells, None, None


class SegmentSum(Function):
    """Per-net sum over the pin-grouped CSR layout; backward broadcasts
    each net's gradient back to its pins (``grad[pin2net]``)."""

    @staticmethod
    def forward(ctx, pin_values, net_start, pin2net):
        if pin2net is None:
            pin2net = expand_pin2net(net_start)
        ctx.meta["pin2net"] = pin2net
        return _np_segment_sum(pin_values, net_start, pin2net)

    @staticmethod
    def backward(ctx, grad):
        return grad[ctx.meta["pin2net"]], None, None


def gather_cells(
    cell_values: Tensor, pin2cell: np.ndarray, offset: np.ndarray = None
) -> Tensor:
    """Differentiable ``cell_values[pin2cell] + offset``."""
    return GatherCells.apply(cell_values, pin2cell, offset)


def segment_sum(
    pin_values: Tensor, net_start: np.ndarray, pin2net: np.ndarray = None
) -> Tensor:
    """Differentiable per-net sum (``pin2net`` defaults to the CSR
    expansion of ``net_start``)."""
    return SegmentSum.apply(pin_values, net_start, pin2net)
