"""The scalar global swap against the one-cell-at-a-time reference.

``DetailedPlacer._global_swap_pass`` visits the movable cells in order
and scores each candidate swap from cached other-pin boxes: every box and
optimal point is computed once per pass and refreshed only for the cells
that share a net with a swapped pair.  :func:`sequential_swap_pass` is
the rule written out directly (every cell's optimal point, band,
candidates and scores against the placement as it stands, scored with
``_trial_hpwl``), kept here as the reference.  The golden fixture
(``test_dp_golden.py``) exercises only a handful of swaps, so these tests
also shuffle the golden legal inputs until many swaps apply, run a job
shaped like the ``serve-small`` benchmark's, and build a netlist that
hits the refresh's edge cases.  :func:`pin_by_pin_box` rebuilds one
(cell, net) box with its own pin walk: the reference for the refresh.
"""

from typing import Tuple

import numpy as np
import pytest

from repro.core import XPlacer
from repro.detail import DetailedPlacer, PlacementRows
from repro.detail.engine import _NetBoxes
from repro.legalize import FenceAwareLegalizer, check_legal
from repro.netlist import PlacementRegion, Row
from repro.netlist.builder import NetlistBuilder
from repro.runtime.job import PlacementJob

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


def assert_same_swaps(nl, x, y, passes=2):
    fast = DetailedPlacer(nl, max_passes=passes).place(x, y)
    reference = SequentialSwapPlacer(nl, max_passes=passes).place(x, y)
    np.testing.assert_array_equal(fast.x, reference.x)
    np.testing.assert_array_equal(fast.y, reference.y)
    assert fast.moves_by_operator == reference.moves_by_operator
    assert fast.hpwl_after == reference.hpwl_after
    assert check_legal(nl, fast.x, fast.y).legal
    return fast


@pytest.mark.parametrize("design", ["fft1", "fenced"])
def test_swap_decisions_match_sequential_under_many_moves(
    design, golden, netlists
):
    nl = netlists[design]
    x, y = shuffled(nl, golden[f"{design}_x"], golden[f"{design}_y"], seed=3)
    result = assert_same_swaps(nl, x, y)
    # Enough swaps that the refresh after one is exercised many times.
    assert result.moves_by_operator["swap"] >= 20, result.moves_by_operator


def test_swap_decisions_match_sequential_on_a_small_job():
    """A job shaped like the ``serve-small`` benchmark's: 150 cells of
    ``fft_1``, 40 GP iterations, legalized as the flow does."""
    job = PlacementJob(design="fft_1", cells=150, params={"max_iterations": 40})
    nl = job.load_netlist()
    gp = XPlacer(nl, job.effective_params()).run()
    x, y = FenceAwareLegalizer(nl).legalize(gp.x, gp.y)
    result = assert_same_swaps(nl, x, y)
    assert result.moves_by_operator["swap"] >= 20, result.moves_by_operator


def assert_swap_deltas_match(dp: DetailedPlacer, x, y, pairs: int = 300):
    """Random swaps scored from the cached boxes equal ``_trial_hpwl``'s
    gains bit for bit, with the boxes read off the pass-start arrays and
    refreshed by ``forget`` alike."""
    nl = dp.netlist
    rows = PlacementRows(nl, x, y)
    boxes = _NetBoxes(dp, rows.x, rows.y, dp._other_pin_boxes(rows.x, rows.y))
    rng = np.random.default_rng(0)
    cells = nl.movable_index
    trials = [
        (int(a), int(b), *rng.uniform(nl.region.xl, nl.region.xh, 2),
         *rng.uniform(nl.region.yl, nl.region.yh, 2))
        for a, b in rng.choice(cells, (pairs, 2))
        if a != b
    ]
    for rebuilt in (False, True):
        if rebuilt:
            boxes.forget(cells.tolist())
        for a, b, ax, bx, ay, by in trials:
            want = swap_deltas(dp, a, [(b, ax, bx, ay, by)], rows)[0]
            assert dp._swap_delta(a, b, ax, ay, bx, by, boxes) == want
        for a in cells.tolist():
            assert dp._optimal_point(a, boxes) == optimal_point(
                dp, a, rows.x, rows.y)


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_swap_deltas_match_trial_hpwl(design, golden, netlists):
    nl = netlists[design]
    x, y = shuffled(nl, golden[f"{design}_x"], golden[f"{design}_y"], seed=3)
    assert_swap_deltas_match(DetailedPlacer(nl), x, y)


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


# ----------------------------------------------------------------------
# The box refresh after a swap against boxes rebuilt pin by pin.
# ----------------------------------------------------------------------
def pin_by_pin_box(boxes: _NetBoxes, cell: int, net: int):
    """The net's box over the pins of other cells, as placed now, built
    with one pin walk per (cell, net): the reference for ``forget``."""
    others = [pin for pin in boxes.net_pins[net] if pin[0] != cell]
    if not others:
        return np.inf, -np.inf, np.inf, -np.inf
    px = [boxes.xs[c] + dx for c, dx, __ in others]
    py = [boxes.ys[c] + dy for c, __, dy in others]
    return min(px), max(px), min(py), max(py)


def assert_boxes_match_pin_by_pin(nl, boxes: _NetBoxes, cells=None):
    """Every (cell, net) row of the box table and every span of a net of
    ``cells`` (default: all cells) equal the pin-by-pin rebuild."""
    cells = range(nl.num_cells) if cells is None else cells
    for cell in cells:
        for net, row in boxes.of(cell):
            assert tuple(row[:4]) == pin_by_pin_box(boxes, cell, net), \
                (cell, net)
            pins = boxes.net_pins[net]
            px = [boxes.xs[c] + dx for c, dx, __ in pins]
            py = [boxes.ys[c] + dy for c, __, dy in pins]
            assert boxes.spans[net] == max(px) - min(px) + max(py) - min(py)


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_forget_matches_pin_by_pin_boxes(design, golden, netlists):
    """Random swaps on the shuffled golden inputs, each followed by the
    refresh: the refreshed boxes equal a pin-by-pin rebuild."""
    nl = netlists[design]
    x, y = shuffled(nl, golden[f"{design}_x"], golden[f"{design}_y"], seed=3)
    dp = DetailedPlacer(nl)
    boxes = _NetBoxes(dp, x, y, dp._other_pin_boxes(x, y))
    assert_boxes_match_pin_by_pin(nl, boxes)
    rng = np.random.default_rng(7)
    xs, ys = boxes.xs, boxes.ys
    for a, b in rng.choice(nl.movable_index, (150, 2)).tolist():
        xs[a], xs[b] = xs[b], xs[a]
        ys[a], ys[b] = ys[b], ys[a]
        boxes.forget((a, b))
        touched = {c for cell in (a, b) for net in boxes.cell_nets[cell]
                   for c, __, __ in boxes.net_pins[net]}
        assert_boxes_match_pin_by_pin(nl, boxes, sorted(touched))
    assert_boxes_match_pin_by_pin(nl, boxes)


def test_forget_ties_and_one_cell_holding_both_extremes():
    """``p`` and ``q`` reach the same extremes of ``tie`` at once; ``s``'s
    two pins hold both x and both y extremes of ``both``, and on the
    ``up``/``down`` nets both of its pins lie beyond ``t``'s, in either
    pin order."""
    builder = NetlistBuilder("box_edges")
    builder.set_region(PlacementRegion(0, 0, 20, 20))
    for name in ("p", "q", "r", "s", "t", "u"):
        builder.add_cell(name, 1.0, 1.0)
    builder.add_net("tie", [("p", 0.0, 0.0), ("q", 0.0, 0.0),
                            ("r", 0.2, 0.1)])
    builder.add_net("both", [("s", -0.4, -0.3), ("s", 0.4, 0.3),
                             ("t", 0.0, 0.1), ("u", 0.1, 0.0)])
    builder.add_net("pr", [("p", 0.1, 0.0), ("r", 0.0, 0.0)])
    for side, sign in (("up", 1.0), ("down", -1.0)):
        for order in ((0.3, 0.4), (0.4, 0.3)):
            builder.add_net(f"{side}{order}", [
                *(("s", sign * d, sign * d) for d in order), ("t", 0.0, 0.0)])
    nl = builder.build()
    p, q, r, s, t, u = range(6)
    dp = DetailedPlacer(nl)
    x = np.array([2.0, 4.0, 6.0, 14.0, 10.1, 9.9])
    y = np.array([3.0, 5.0, 4.0, 12.0, 10.0, 10.1])
    boxes = _NetBoxes(dp, x, y, dp._other_pin_boxes(x, y))
    assert_boxes_match_pin_by_pin(nl, boxes)
    # p joins q at both extremes of ``tie``; s moves over t and u.
    boxes.xs[p], boxes.ys[p] = 4.0, 5.0
    boxes.xs[s], boxes.ys[s] = 10.0, 10.0
    boxes.forget((p, s))
    assert min(boxes.xs[c] for c in (p, q, r)) == boxes.xs[p] == boxes.xs[q]
    assert boxes.xs[s] - 0.4 < min(boxes.xs[t], boxes.xs[u] + 0.1)
    assert boxes.xs[s] + 0.4 > max(boxes.xs[t], boxes.xs[u] + 0.1)
    assert boxes.ys[s] - 0.3 < min(boxes.ys[t] + 0.1, boxes.ys[u])
    assert boxes.ys[s] + 0.3 > max(boxes.ys[t] + 0.1, boxes.ys[u])
    assert_boxes_match_pin_by_pin(nl, boxes)
    # s holds all four sides: its other-pin box is t's and u's extent.
    k = boxes._start[s] + boxes.cell_nets[s].index(list(nl.net_name).index("both"))
    pin_y = (10.0 + 0.1, 10.1 + 0.0)
    assert tuple(boxes.table[k, :4]) == (
        9.9 + 0.1, 10.1 + 0.0, min(pin_y), max(pin_y))


# ----------------------------------------------------------------------
# Edge cases on a hand-built design.
# ----------------------------------------------------------------------
def swap_edge_design():
    """Four rows of 40 sites, unit cells, zero-size fixed pads.

    * ``a`` (row 0, x 2.5) is tied to pad ``pa`` at the right end, so it
      swaps with ``z``, the net-less cell by that pad.  ``z`` is visited
      after ``a``: its optimal point is its own position, so it must be
      refreshed after the swap, or the stale one pulls it back to the
      right, where the net-less ``y`` would take a zero-gain swap.
    * ``c`` (row 2, x 10.5) and ``d`` (row 2, x 20.5) share net ``cd``
      and swap: ``c`` has two pins on ``c3`` pulling it right, ``d`` is
      pulled left by ``d4``.
    """
    builder = NetlistBuilder("swap_edges")
    builder.set_region(PlacementRegion(
        0, 0, 40, 4, rows=[Row(r, 1, 0, 40) for r in range(4)]
    ))
    for name, x, y in (("pa", 39.5, 0.5), ("p2", 25.0, 2.5),
                       ("p3", 16.0, 3.5), ("p4", 5.0, 2.5)):
        builder.add_cell(name, 0, 0, movable=False, x=x, y=y)
    for name in ("a", "c", "d", "y", "z"):
        builder.add_cell(name, 1, 1)
    builder.add_net("ap", [("a", 0.0, 0.0), ("pa", 0.0, 0.0)])
    builder.add_net("cd", [("c", 0.1, 0.0), ("d", -0.2, 0.1),
                           ("p2", 0.0, 0.0)])
    builder.add_net("c3", [("c", -0.3, 0.1), ("c", 0.4, -0.2),
                           ("p3", 0.0, 0.0)])
    builder.add_net("d4", [("d", 0.0, 0.0), ("p4", 0.0, 0.0)])
    nl = builder.build()
    x = np.array([39.5, 25.0, 22.0, 5.0, 2.5, 10.5, 20.5, 36.5, 38.5])
    y = np.array([0.5, 2.5, 3.5, 2.5, 0.5, 2.5, 2.5, 0.5, 0.5])
    return nl, x, y


def test_swap_edge_cases_match_sequential():
    nl, x, y = swap_edge_design()
    a, c, d, y_cell, z = (nl.cell_index(n) for n in ("a", "c", "d", "y", "z"))
    assert check_legal(nl, x, y).legal
    assert list(nl.movable_index).index(z) > list(nl.movable_index).index(a)
    dp = DetailedPlacer(nl, max_passes=1)
    fast, reference = PlacementRows(nl, x, y), PlacementRows(nl, x, y)
    applied = dp._global_swap_pass(fast)
    assert applied == sequential_swap_pass(dp, reference)
    np.testing.assert_array_equal(fast.x, reference.x)
    np.testing.assert_array_equal(fast.y, reference.y)
    assert fast.members == reference.members
    # a took z's slot, z took a's and stayed there; y never moved.
    assert (fast.x[a], fast.x[z], fast.x[y_cell]) == (38.5, 2.5, 36.5)
    # c and d, which share a net, swapped.
    assert (fast.x[c], fast.x[d]) == (20.5, 10.5)
    assert applied == 2
    for passes in (1, 2):
        assert_same_swaps(nl, x, y, passes)
    # c's own pins on c3 set its box once c moves right of p3.
    assert_swap_deltas_match(dp, x, y, pairs=200)
