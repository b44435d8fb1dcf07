"""Net decomposition into two-pin segments.

Multi-pin nets are broken into two-pin edges along a rectilinear minimum
spanning tree (Prim's algorithm on Manhattan distance), the standard
FLUTE-free decomposition for congestion estimation.  Duplicate terminals
(pins in the same g-cell) collapse first.

:func:`decompose_nets` does every net of a placement in one batched pass:
one ``lexsort`` collapses the duplicate terminals, and Prim runs once per
terminal count over all nets of that count at once.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

Point = Tuple[int, int]
Edge = Tuple[Point, Point]

_NOT_A_CANDIDATE = np.iinfo(np.int64).max


def decompose_nets(
    xs: np.ndarray, ys: np.ndarray, net_start: np.ndarray
) -> np.ndarray:
    """Two-pin MST edges of every net, as ``(i0, j0, i1, j1)`` rows.

    ``xs``/``ys`` are the terminals' g-cell coordinates, grouped by net
    with CSR offsets ``net_start``.  Rows are ordered by net, then by
    Prim step; within a net the terminals are taken in (x, y) order (the
    order of ``np.unique(axis=0)``), Prim starts at the first of them and
    ties go to the lowest index.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    net_start = np.asarray(net_start, dtype=np.int64)
    num_nets = len(net_start) - 1
    net = np.repeat(np.arange(num_nets), np.diff(net_start))
    order = np.lexsort((ys, xs, net))
    net, xs, ys = net[order], xs[order], ys[order]
    distinct = np.ones(len(net), dtype=bool)
    distinct[1:] = (
        (net[1:] != net[:-1]) | (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    )
    net, xs, ys = net[distinct], xs[distinct], ys[distinct]

    count = np.bincount(net, minlength=num_nets)
    first = np.cumsum(count) - count
    owners, sources, targets = [], [], []
    for n in np.unique(count[count >= 2]).tolist():
        nets = np.flatnonzero(count == n)
        terminals = first[nets][:, None] + np.arange(n)
        src, dst = _prim(xs[terminals], ys[terminals])
        rows = np.arange(len(nets))[:, None]
        owners.append(np.repeat(nets, n - 1))
        sources.append(terminals[rows, src].ravel())
        targets.append(terminals[rows, dst].ravel())
    if not owners:
        return np.empty((0, 4), dtype=np.int64)
    # Each net's edges are contiguous and in step order: a stable sort by
    # net merges the terminal-count classes into (net, step) order.
    by_net = np.argsort(np.concatenate(owners), kind="stable")
    a = np.concatenate(sources)[by_net]
    b = np.concatenate(targets)[by_net]
    return np.stack([xs[a], ys[a], xs[b], ys[b]], axis=1)


def _prim(xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Prim's algorithm on ``(nets, n)`` terminal arrays, all nets at once.

    Returns ``(nets, n - 1)`` arrays of the tree-side and new terminal
    of each step.  Node 0 seeds the tree; each step adds the closest
    node (first index on ties) and a node's parent changes only when a
    new tree node is strictly closer.
    """
    k, n = xs.shape
    rows = np.arange(k)
    best = np.abs(xs - xs[:, :1]) + np.abs(ys - ys[:, :1])
    parent = np.zeros((k, n), dtype=np.int64)
    in_tree = np.zeros((k, n), dtype=bool)
    in_tree[:, 0] = True
    src = np.empty((k, n - 1), dtype=np.int64)
    dst = np.empty((k, n - 1), dtype=np.int64)
    for step in range(n - 1):
        nxt = np.argmin(np.where(in_tree, _NOT_A_CANDIDATE, best), axis=1)
        src[:, step] = parent[rows, nxt]
        dst[:, step] = nxt
        in_tree[rows, nxt] = True
        dist = np.abs(xs - xs[rows, nxt][:, None]) + np.abs(
            ys - ys[rows, nxt][:, None]
        )
        closer = dist < best
        best = np.where(closer, dist, best)
        parent = np.where(closer, nxt[:, None], parent)
    return src, dst


def decompose_net(xs: np.ndarray, ys: np.ndarray) -> List[Edge]:
    """Two-pin edges of the Manhattan MST over one net's terminals."""
    edges = decompose_nets(xs, ys, np.array([0, len(xs)]))
    return [((i0, j0), (i1, j1)) for i0, j0, i1, j1 in edges.tolist()]
