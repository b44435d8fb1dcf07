"""The scalar local reorder against the per-window numpy rule.

``DetailedPlacer._local_reorder_pass`` scores each window in scalar
Python: every net's box over the pins outside the window is built once,
and each permutation only folds in the window's own pins.  These tests
compare it with :func:`sequential_reorder_pass`, the pass it replaced
(one :meth:`DetailedPlacer._trial_hpwl` call per window), kept here as
the reference, on shuffled golden inputs and on a small design built to
hit the edge cases.
"""

import itertools

import numpy as np
import pytest

from repro.detail import DetailedPlacer, PlacementRows
from repro.legalize import check_legal
from repro.netlist import PlacementRegion, Row
from repro.netlist.builder import NetlistBuilder

from tests.test_dp_batched import nets_of, shuffled
from tests.test_dp_golden import DESIGNS, GOLDEN


# ----------------------------------------------------------------------
# The reference: one batched numpy scoring call per window.
# ----------------------------------------------------------------------
def sequential_reorder_pass(dp: DetailedPlacer, rows: PlacementRows) -> int:
    nl = dp.netlist
    perms = np.array(dp._perms, dtype=np.int64).reshape(-1, dp.window)
    applied = 0
    for row_i, row_segs in enumerate(rows.members):
        for seg_i, cells in enumerate(row_segs):
            for start in range(len(cells) - dp.window + 1):
                window = np.array(cells[start : start + dp.window])
                if len(np.unique(nl.cell_fence[window])) > 1:
                    continue
                nets = nets_of(dp, window)
                widths = nl.cell_w[window]
                left0 = rows.x[window[0]] - widths[0] / 2
                last_pos = cells.index(window[-1])
                if last_pos + 1 < len(cells):
                    nxt = cells[last_pos + 1]
                    right_bound = rows.x[nxt] - nl.cell_w[nxt] / 2
                else:
                    right_bound = rows.space.segments[row_i][seg_i].xh
                perm_w = widths[perms]
                edges = np.cumsum(
                    np.column_stack((np.full(len(perms), left0), perm_w)),
                    axis=1,
                )
                fits = np.flatnonzero(edges[:, -1] <= right_bound + 1e-9)
                if not len(fits):
                    continue
                order = window[perms[fits]]
                centers = edges[fits, :-1] + perm_w[fits] / 2
                trials = len(fits) + 1
                moved = np.vstack((np.full(dp.window, -1), order))
                mx = np.vstack((np.zeros(dp.window), centers))
                my = np.vstack((np.zeros(dp.window), rows.y[order]))
                scores = dp._trial_hpwl(
                    np.tile(nets, trials), np.full(trials, len(nets)),
                    moved, mx, my, rows.x, rows.y,
                )
                best = int(np.argmin(scores[1:]))
                if scores[1 + best] < scores[0] - 1e-9:
                    rows.x[order[best]] = centers[best]
                    cells.sort(key=lambda c: rows.x[c])
                    applied += 1
    return applied


class SequentialReorderPlacer(DetailedPlacer):
    def _local_reorder_pass(self, rows):
        return sequential_reorder_pass(self, rows)


def assert_same_result(nl, x, y, passes):
    fast = DetailedPlacer(nl, max_passes=passes).place(x, y)
    reference = SequentialReorderPlacer(nl, max_passes=passes).place(x, y)
    np.testing.assert_array_equal(fast.x, reference.x)
    np.testing.assert_array_equal(fast.y, reference.y)
    assert fast.moves_by_operator == reference.moves_by_operator
    assert fast.hpwl_after == reference.hpwl_after
    return fast


def assert_window_scores_match(dp: DetailedPlacer, rows: PlacementRows):
    """Every window's scalar scores, for the window as placed and every
    permutation at arbitrary x, equal ``_trial_hpwl``'s bit for bit."""
    nl = dp.netlist
    xs = rows.x.tolist()
    y_bounds = dp._net_y_bounds(rows.y)
    rng = np.random.default_rng(0)
    checked = 0
    for cells in itertools.chain.from_iterable(rows.members):
        for start in range(len(cells) - dp.window + 1):
            window = cells[start : start + dp.window]
            trials = [[xs[c] for c in window]] + [
                rng.uniform(nl.region.xl, nl.region.xh, dp.window).tolist()
                for _ in dp._perms
            ]
            got = dp._window_scores(window, trials, xs, y_bounds)
            nets = nets_of(dp, window)
            count = len(trials)
            want = dp._trial_hpwl(
                np.tile(nets, count), np.full(count, len(nets)),
                np.tile(window, (count, 1)), np.array(trials),
                np.tile(rows.y[window], (count, 1)), rows.x, rows.y,
            )
            if not nl.net_mask[nets].any():
                assert got == [] and not want.any()
                continue
            assert got == want.tolist(), window
            checked += 1
    assert checked


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.fixture(scope="module")
def netlists():
    return {name: make() for name, make in DESIGNS.items()}


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_reorder_matches_sequential_under_many_moves(
    design, passes, golden, netlists
):
    nl = netlists[design]
    x, y = shuffled(nl, golden[f"{design}_x"], golden[f"{design}_y"], seed=3)
    result = assert_same_result(nl, x, y, passes)
    assert result.moves_by_operator["reorder"] >= 30, result.moves_by_operator
    assert check_legal(nl, result.x, result.y).legal


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_window_scores_match_trial_hpwl(design, golden, netlists):
    nl = netlists[design]
    x, y = shuffled(nl, golden[f"{design}_x"], golden[f"{design}_y"], seed=3)
    assert_window_scores_match(DetailedPlacer(nl), PlacementRows(nl, x, y))


# ----------------------------------------------------------------------
# Edge cases on a hand-built design.
# ----------------------------------------------------------------------
def edge_design(fence_middle: bool):
    """Row 0 is split by a blockage at x 9..11 and a fence at x 11..20.

    * a0, a1, a2 fill x 5..9 up to the blockage, so their one window
      ends at a segment end; net ``inside`` has all its pins in that
      window, ``single`` is degree 1 (masked) and a1 has two pins on
      ``self2``.
    * c0, c2 are fence members at x 12..15 inside the fence, with c1
      between them; c1 is a member only if ``fence_middle``.
    * Row 1 holds b0..b5, tied to both groups.
    """
    builder = NetlistBuilder("reorder_edges")
    builder.set_region(PlacementRegion(
        0, 0, 30, 2, rows=[Row(0, 1, 0, 30), Row(1, 1, 0, 30)]
    ))
    fence = builder.add_fence("f", [(11, 0, 20, 1)])
    builder.add_cell("blk", 2, 1, movable=False, x=10, y=0.5)
    builder.add_cell("pad", 0, 0, movable=False, x=0.5, y=1.5)
    for name, w in (("a0", 1), ("a1", 2), ("a2", 1)):
        builder.add_cell(name, w, 1)
    for name in ("c0", "c1", "c2"):
        member = name != "c1" or fence_middle
        builder.add_cell(name, 1, 1, fence=fence if member else -1)
    for b in range(6):
        builder.add_cell(f"b{b}", 1, 1)
    builder.add_net("inside", [("a0", 0.1, 0.0), ("a2", -0.2, 0.1)])
    builder.add_net("single", [("a1", 0.0, 0.0)])
    builder.add_net("self2", [("a1", 0.3, 0.1), ("a1", -0.4, 0.0),
                              ("b1", 0.0, 0.2)])
    builder.add_net("pull_a", [("a2", 0.0, 0.0), ("pad", 0.0, 0.0)])
    builder.add_net("pull_c", [("c2", 0.0, 0.0), ("pad", 0.0, 0.0)])
    builder.add_net("mid", [("a0", 0.0, 0.0), ("c1", 0.0, 0.0),
                            ("b2", 0.0, 0.0), ("b3", 0.2, 0.1)])
    builder.add_net("row1", [("b0", 0.0, 0.0), ("b4", 0.1, 0.0),
                             ("b5", 0.0, 0.0)])
    nl = builder.build()
    x = np.array([10, 0.5, 5.5, 7, 8.5, 12.5, 13.5, 14.5,
                  1.5, 4.5, 9.5, 14.5, 20.5, 28.5])
    y = np.array([0.5] * 8 + [1.5] * 6)
    y[1] = 1.5
    return nl, x, y


@pytest.mark.parametrize("fence_middle", [False, True])
def test_reorder_edge_cases_match_sequential(fence_middle):
    nl, x, y = edge_design(fence_middle)
    rows = PlacementRows(nl, x, y)
    # The a-window ends at a segment end; the c-window shares a segment.
    segments = rows.space.segments[0]
    a_slot, c_slot = rows.cell_slot[2], rows.cell_slot[5]
    assert segments[a_slot[1]].xh == 9
    assert rows.members[0][a_slot[1]] == [2, 3, 4]
    assert rows.members[0][c_slot[1]] == [5, 6, 7]
    assert_window_scores_match(DetailedPlacer(nl), rows)
    for passes in (1, 2):
        assert_same_result(nl, x, y, passes)
    dp = DetailedPlacer(nl, max_passes=1)
    fast, reference = PlacementRows(nl, x, y), PlacementRows(nl, x, y)
    applied = dp._local_reorder_pass(fast)
    assert applied == sequential_reorder_pass(dp, reference)
    np.testing.assert_array_equal(fast.x, reference.x)
    assert fast.members == reference.members
    # The segment-end window packs flush to x = 9 and is applied.
    assert fast.x[4] != x[4]
    # A window mixing fence groups is skipped.
    c_moved = bool((fast.x[5:8] != x[5:8]).any())
    assert c_moved == fence_middle


def test_reorder_fit_test_rejects_packing_past_tolerated_overlaps():
    """``check_legal`` accepts overlaps of up to 1e-6 between neighbours.

    Here w0, w1 and w2 overlap by 9e-7 each and n abuts w2, so every
    permutation of the window, packed from w0's left edge, ends 1.8e-6
    past n's left edge.  The fit test rejects them all; applying the best
    one (w0 last, nearest its pad) would overlap n by 1.8e-6.  With a
    unit of slack before n, the same window is reordered.
    """
    overlap = 9e-7
    for slack, reordered in ((0.0, False), (1.0, True)):
        builder = NetlistBuilder("reorder_fit")
        builder.set_region(PlacementRegion(0, 0, 20, 1, rows=[Row(0, 1, 0, 20)]))
        builder.add_cell("pad", 0, 0, movable=False, x=15.0, y=0.5)
        for name in ("w0", "w1", "w2", "n"):
            builder.add_cell(name, 1, 1)
        builder.add_net("pull", [("w0", 0.0, 0.0), ("pad", 0.0, 0.0)])
        nl = builder.build()
        x = np.array([15.0, 5.5, 6.5 - overlap, 7.5 - 2 * overlap,
                      8.5 - 2 * overlap + slack])
        y = np.full(5, 0.5)
        assert check_legal(nl, x, y).legal
        dp = DetailedPlacer(nl, max_passes=1)
        fast, reference = PlacementRows(nl, x, y), PlacementRows(nl, x, y)
        applied = dp._local_reorder_pass(fast)
        assert applied == sequential_reorder_pass(dp, reference)
        np.testing.assert_array_equal(fast.x, reference.x)
        assert (applied > 0) == reordered
        assert check_legal(nl, fast.x, fast.y).legal
