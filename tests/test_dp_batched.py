"""The batched global swap against the one-cell-at-a-time rule.

``DetailedPlacer._global_swap_pass`` plans a chunk of cells against one
snapshot of the placement and replays the decisions in cell order,
discarding everything after an applied swap.  The golden fixture
(``test_dp_golden.py``) exercises only a handful of swaps, so these tests
shuffle the golden legal inputs until many swaps apply and compare the
batched pass with :func:`sequential_swap_pass`, the per-cell pass it
replaced, kept here as the reference.
"""

from typing import Tuple

import numpy as np
import pytest

from repro.detail import DetailedPlacer, PlacementRows
from repro.legalize import check_legal
from repro.netlist import PlacementRegion
from repro.netlist.builder import NetlistBuilder

from tests.test_dp_golden import DESIGNS, GOLDEN


# ----------------------------------------------------------------------
# The reference: one cell at a time, every query scalar.
# ----------------------------------------------------------------------
def optimal_point(dp: DetailedPlacer, cell: int, x, y) -> Tuple[float, float]:
    """Median of the other-pin bounding boxes of the cell's nets."""
    nl = dp.netlist
    nets = dp._cell_net_slice(cell)
    boxes = ([], [])
    for e in nets.tolist():
        pins = np.arange(nl.net_start[e], nl.net_start[e + 1])
        pins = pins[nl.pin2cell[pins] != cell]
        if not len(pins):
            continue
        for axis, (pos, offset) in enumerate(((x, nl.pin_dx), (y, nl.pin_dy))):
            p = pos[nl.pin2cell[pins]] + offset[pins]
            boxes[axis].extend((p.min(), p.max()))
    if not boxes[0]:
        return x[cell], y[cell]
    return float(np.median(boxes[0])), float(np.median(boxes[1]))


def span(rows: PlacementRows, cell: int) -> Tuple[float, float]:
    row_i, seg_i = rows.cell_slot[cell]
    seg = rows.space.segments[row_i][seg_i]
    cells = rows.members[row_i][seg_i]
    k = cells.index(cell)
    w = rows.netlist.cell_w
    left = seg.xl if k == 0 else rows.x[cells[k - 1]] + w[cells[k - 1]] / 2
    right = (
        seg.xh if k + 1 == len(cells)
        else rows.x[cells[k + 1]] - w[cells[k + 1]] / 2
    )
    return left, right


def cells_near(rows: PlacementRows, x, y, radius_rows, radius_x):
    """Movable cells near (x, y), ordered by row, then segment, then x."""
    cells = rows.netlist.movable_index
    centers = np.array(
        [rows.space.row_center_y(r) for r in range(rows.space.num_rows)]
    )
    row_i = int(np.argmin(np.abs(centers - y)))
    near_rows = np.abs(rows.row_of[cells] - row_i) <= radius_rows
    near = cells[near_rows & (np.abs(rows.x[cells] - x) <= radius_x)]
    return near[np.lexsort((rows.x[near], rows.seg_of[near], rows.row_of[near]))]


def fence_ok(nl, cell, new_x, new_y) -> bool:
    g = nl.cell_fence[cell]
    return g < 0 or bool(nl.fences[g].contains_box(
        np.array([new_x]), np.array([new_y]),
        np.array([nl.cell_w[cell] / 2]), np.array([nl.cell_h[cell] / 2]),
    )[0])


def nets_of(dp: DetailedPlacer, cells) -> np.ndarray:
    """The distinct nets of ``cells``, ascending."""
    pieces = [dp._cell_net_slice(c) for c in cells]
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(pieces))


def swap_deltas(dp: DetailedPlacer, a, trials, rows) -> np.ndarray:
    """HPWL gain of each candidate swap of ``a``, over the union of both
    cells' nets, one trial at a time."""
    deltas = []
    for b, ax_new, bx_new, ya_new, yb_new in trials:
        nets = nets_of(dp, [a, b])
        scores = dp._trial_hpwl(
            np.tile(nets, 2), np.full(2, len(nets)),
            np.array([[-1, -1], [a, b]]),
            np.array([[0.0, 0.0], [ax_new, bx_new]]),
            np.array([[0.0, 0.0], [ya_new, yb_new]]),
            rows.x, rows.y,
        )
        deltas.append(scores[0] - scores[1])
    return deltas


def sequential_swap_pass(dp: DetailedPlacer, rows: PlacementRows) -> int:
    """The global swap as a per-cell loop: each cell's optimal point,
    band, candidates and scores against the placement as it stands."""
    nl = dp.netlist
    applied = 0
    radius_x = 4 * float(np.mean(nl.cell_w[nl.movable_index])) * dp.swap_candidates
    for a in nl.movable_index.tolist():
        opt_x, opt_y = optimal_point(dp, a, rows.x, rows.y)
        if abs(opt_x - rows.x[a]) + abs(opt_y - rows.y[a]) < 1e-9:
            continue
        near = cells_near(rows, opt_x, opt_y, dp.swap_radius_rows, radius_x)
        candidates = near[
            (near != a) & (nl.cell_fence[near] == nl.cell_fence[a])
        ][: dp.swap_candidates]
        la, ra = span(rows, a)
        wa = nl.cell_w[a]
        trials = []
        for b in candidates.tolist():
            lb, rb = span(rows, b)
            wb = nl.cell_w[b]
            if rb - lb < wa - 1e-9 or ra - la < wb - 1e-9:
                continue
            ax_new = min(max(rows.x[b], lb + wa / 2), rb - wa / 2)
            bx_new = min(max(rows.x[a], la + wb / 2), ra - wb / 2)
            row_b = rows.space.rows[rows.cell_slot[b][0]]
            ya_new = row_b.y + nl.cell_h[b] / 2 - nl.cell_h[b] / 2 + nl.cell_h[a] / 2
            yb_new = rows.y[a] - nl.cell_h[a] / 2 + nl.cell_h[b] / 2
            if not (fence_ok(nl, a, ax_new, ya_new)
                    and fence_ok(nl, b, bx_new, yb_new)):
                continue
            if rows.cell_slot[a] == rows.cell_slot[b]:
                lx, lw, rx, rw = (
                    (ax_new, wa, bx_new, wb) if ax_new <= bx_new
                    else (bx_new, wb, ax_new, wa)
                )
                if lx + lw / 2 > rx - rw / 2 + 1e-9:
                    continue
            trials.append((b, ax_new, bx_new, ya_new, yb_new))
        best, best_delta = None, -1e-9
        for trial, delta in zip(trials, swap_deltas(dp, a, trials, rows)):
            if delta > best_delta:
                best, best_delta = trial, delta
        if best is not None:
            b, ax_new, bx_new = best[:3]
            slot_a, slot_b = rows.cell_slot[a], rows.cell_slot[b]
            rows.move(a, ax_new, *slot_b)
            rows.move(b, bx_new, *slot_a)
            applied += 1
    return applied


class SequentialSwapPlacer(DetailedPlacer):
    def _global_swap_pass(self, rows):
        return sequential_swap_pass(self, rows)


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.fixture(scope="module")
def netlists():
    return {name: make() for name, make in DESIGNS.items()}


def shuffled(nl, x, y, seed):
    """A legal placement with many improving swaps: the x of equal-width,
    same-fence cells permuted within each row segment."""
    rows = PlacementRows(nl, x, y)
    cells = nl.movable_index
    keys = np.stack((rows.row_of[cells], rows.seg_of[cells],
                     nl.cell_w[cells], nl.cell_fence[cells]), axis=1)
    __, group = np.unique(keys, axis=0, return_inverse=True)
    rng = np.random.default_rng(seed)
    x = x.copy()
    for g in range(group.max() + 1):
        members = cells[group.ravel() == g]
        x[members] = x[rng.permutation(members)]
    assert check_legal(nl, x, y).legal
    return x, y


@pytest.mark.parametrize("design", ["fft1", "fenced"])
def test_swap_decisions_match_sequential_under_many_moves(
    design, golden, netlists
):
    nl = netlists[design]
    x, y = shuffled(nl, golden[f"{design}_x"], golden[f"{design}_y"], seed=3)
    batched = DetailedPlacer(nl, max_passes=2).place(x, y)
    reference = SequentialSwapPlacer(nl, max_passes=2).place(x, y)
    np.testing.assert_array_equal(batched.x, reference.x)
    np.testing.assert_array_equal(batched.y, reference.y)
    assert batched.moves_by_operator == reference.moves_by_operator
    assert batched.hpwl_after == reference.hpwl_after
    # Enough swaps that several land inside one batch's replay.
    assert batched.moves_by_operator["swap"] >= 20, batched.moves_by_operator
    assert check_legal(nl, batched.x, batched.y).legal


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_optimal_points_match_per_cell_rule(design, golden, netlists):
    nl = netlists[design]
    x, y = golden[f"{design}_x"], golden[f"{design}_y"]
    dp = DetailedPlacer(nl)
    cells = nl.movable_index
    got_x, got_y = dp._optimal_points(cells, x, y)
    want = np.array([optimal_point(dp, c, x, y) for c in cells.tolist()])
    np.testing.assert_array_equal(got_x, want[:, 0])
    np.testing.assert_array_equal(got_y, want[:, 1])


def test_optimal_points_edge_cells():
    """Cells with no nets, with only their own pins, and mixed."""
    builder = NetlistBuilder("edges")
    builder.set_region(PlacementRegion(0, 0, 50, 50))
    for c in range(8):
        builder.add_cell(f"c{c}", 1.0, 1.0)
    builder.add_net("self2", [(1, 0.1, 0.2), (1, -0.3, 0.4)])
    builder.add_net("single", [(2, 0.0, 0.0)])
    builder.add_net("self_and_single", [(3, 0.5, 0.5), (3, -0.5, 0.0)])
    builder.add_net("single3", [(3, 0.2, 0.1)])
    builder.add_net("mixed", [(4, 0.0, 0.0), (4, 0.3, 0.1), (5, 0.2, -0.2)])
    builder.add_net("own", [(4, 0.1, 0.1)])
    builder.add_net("wide", [(5, 0.0, 0.0), (6, 0.1, 0.0), (7, 0.0, 0.3)])
    builder.add_net("pair", [(6, -0.1, 0.2), (7, 0.4, 0.0)])
    nl = builder.build()
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 50, nl.num_cells)
    y = rng.uniform(0, 50, nl.num_cells)
    dp = DetailedPlacer(nl)
    # Every order and chunk split gives each cell the same point.
    for cells in (np.arange(8), np.array([7, 0, 3, 3, 1]), np.array([0]),
                  np.array([2])):
        got_x, got_y = dp._optimal_points(cells, x, y)
        want = np.array([optimal_point(dp, c, x, y) for c in cells.tolist()])
        np.testing.assert_array_equal(got_x, want[:, 0])
        np.testing.assert_array_equal(got_y, want[:, 1])
    got_x, got_y = dp._optimal_points(np.arange(4), x, y)
    # No other pin: the cell stays where it is.
    np.testing.assert_array_equal(got_x, x[:4])
    np.testing.assert_array_equal(got_y, y[:4])


def test_zero_swap_candidates_apply_no_swap(golden, netlists):
    nl = netlists["fft1"]
    x, y = shuffled(nl, golden["fft1_x"], golden["fft1_y"], seed=3)
    result = DetailedPlacer(nl, max_passes=1, swap_candidates=0).place(x, y)
    assert result.moves_by_operator["swap"] == 0
    assert DetailedPlacer(nl, max_passes=1).place(x, y).moves_by_operator["swap"] > 0
