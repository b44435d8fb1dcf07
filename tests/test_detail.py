"""Tests for the detailed placement engine and its operators."""

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate_circuit
from repro.core import PlacementParams, XPlacer
from repro.detail import DetailedPlacer, PlacementRows
from repro.legalize import AbacusLegalizer, check_legal
from repro.netlist import PlacementRegion
from repro.netlist.builder import NetlistBuilder
from repro.wirelength import hpwl, hpwl_per_net


@pytest.fixture(scope="module")
def legal_placement():
    nl = generate_circuit(
        CircuitSpec("dp", num_cells=300, num_macros=2, num_pads=16)
    )
    gp = XPlacer(nl, PlacementParams(max_iterations=400)).run()
    lx, ly = AbacusLegalizer(nl).legalize(gp.x, gp.y)
    return nl, lx, ly


class TestPlacementRows:
    def test_every_movable_assigned(self, legal_placement):
        nl, lx, ly = legal_placement
        rows = PlacementRows(nl, lx, ly)
        assert set(rows.cell_slot) == set(nl.movable_index.tolist())

    def test_segments_sorted(self, legal_placement):
        nl, lx, ly = legal_placement
        rows = PlacementRows(nl, lx, ly)
        for row_segs in rows.members:
            for cells in row_segs:
                xs = [rows.x[c] for c in cells]
                assert xs == sorted(xs)

    def test_span_bounds_neighbors(self, legal_placement):
        nl, lx, ly = legal_placement
        rows = PlacementRows(nl, lx, ly)
        lefts, rights = rows.spans()
        for row_i, row_segs in enumerate(rows.members):
            for seg_i, cells in enumerate(row_segs):
                seg = rows.space.segments[row_i][seg_i]
                for k, c in enumerate(cells):
                    # The neighbours' facing edges, or the segment's ends.
                    left, right = seg.xl, seg.xh
                    if k > 0:
                        left = rows.x[cells[k - 1]] + nl.cell_w[cells[k - 1]] / 2
                    if k + 1 < len(cells):
                        right = rows.x[cells[k + 1]] - nl.cell_w[cells[k + 1]] / 2
                    assert (lefts[c], rights[c]) == (left, right)
                    assert left - 1e-6 <= rows.x[c] - nl.cell_w[c] / 2
                    assert rows.x[c] + nl.cell_w[c] / 2 <= right + 1e-6
        fixed = np.flatnonzero(~nl.movable)
        assert np.isnan(lefts[fixed]).all() and np.isnan(rights[fixed]).all()

    def test_move_keeps_sorted(self, legal_placement):
        nl, lx, ly = legal_placement
        rows = PlacementRows(nl, lx, ly)
        cell = int(nl.movable_index[0])
        row_i, seg_i = rows.cell_slot[cell]
        lefts, rights = rows.spans()
        left, right = lefts[cell], rights[cell]
        target = (left + right) / 2
        rows.move(cell, target, row_i, seg_i)
        cells = rows.members[row_i][seg_i]
        xs = [rows.x[c] for c in cells]
        assert xs == sorted(xs)

    def test_unlegalized_input_rejected(self, legal_placement):
        nl, lx, ly = legal_placement
        bad_x = lx.copy()
        mov = nl.movable_index
        # Push a cell into a macro blockage if one exists; otherwise skip.
        fixed = np.flatnonzero((~nl.movable) & (nl.cell_area > 0))
        if len(fixed) == 0:
            pytest.skip("no macros in this design")
        bad_x[mov[0]] = nl.fixed_x[fixed[0]]
        bad_y = ly.copy()
        bad_y[mov[0]] = nl.fixed_y[fixed[0]]
        with pytest.raises(ValueError, match="outside every free segment"):
            PlacementRows(nl, bad_x, bad_y)


class TestDetailedPlacer:
    @pytest.fixture(scope="class")
    def dp_result(self, legal_placement):
        nl, lx, ly = legal_placement
        return nl, DetailedPlacer(nl, max_passes=2).place(lx, ly)

    def test_improves_hpwl(self, dp_result):
        nl, result = dp_result
        assert result.hpwl_after <= result.hpwl_before
        assert result.moves_applied > 0

    def test_preserves_legality(self, dp_result):
        nl, result = dp_result
        report = check_legal(nl, result.x, result.y)
        assert report.legal, report.summary()

    def test_hpwl_reported_correctly(self, dp_result):
        nl, result = dp_result
        assert result.hpwl_after == pytest.approx(
            hpwl(nl, result.x, result.y), rel=1e-9
        )

    def test_improvement_property(self, dp_result):
        __, result = dp_result
        assert 0 <= result.improvement < 0.2

    def test_fixed_cells_untouched(self, legal_placement, dp_result):
        nl, lx, ly = legal_placement
        __, result = dp_result
        fixed = ~nl.movable
        np.testing.assert_array_equal(result.x[fixed], lx[fixed])

    def test_zero_passes_is_identity(self, legal_placement):
        nl, lx, ly = legal_placement
        result = DetailedPlacer(nl, max_passes=0).place(lx, ly)
        np.testing.assert_array_equal(result.x, lx)
        assert result.hpwl_after == result.hpwl_before

    def test_trial_hpwl_matches_reference(self):
        """The batched scorer against an independent reference: copy the
        positions, apply one trial's moves, sum the weighted per-net HPWL
        over the trial's nets."""
        rng = np.random.default_rng(7)
        builder = NetlistBuilder("scorer")
        builder.set_region(PlacementRegion(0, 0, 100, 100))
        for c in range(40):
            builder.add_cell(f"c{c}", 1 + rng.random(), 1.0)
        for e in range(60):
            degree = [0, 1, 2, 3, 5, 9][e % 6]
            pins = [
                (int(c), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                for c in rng.integers(0, 40, degree)
            ]
            builder.add_net(f"n{e}", pins, weight=rng.uniform(0.5, 2.0))
        nl = builder.build()
        x = rng.uniform(0, 100, nl.num_cells)
        y = rng.uniform(0, 100, nl.num_cells)
        dp = DetailedPlacer(nl)
        for __ in range(20):
            # The last trial of each batch has no nets at all.
            nets = [
                np.unique(rng.integers(0, nl.num_nets, rng.integers(1, 12)))
                for __ in range(int(rng.integers(1, 9)))
            ] + [np.empty(0, dtype=np.int64)]
            trials = len(nets)
            moved = np.full((trials, 3), -1)
            for t in range(trials):
                k = int(rng.integers(1, 4))
                moved[t, :k] = rng.choice(nl.num_cells, k, replace=False)
            mx = rng.uniform(0, 100, (trials, 3))
            my = rng.uniform(0, 100, (trials, 3))
            got = dp._trial_hpwl(
                np.concatenate(nets),
                np.array([len(n) for n in nets]),
                moved, mx, my, x, y,
            )
            for t in range(trials):
                tx, ty = x.copy(), y.copy()
                cells = moved[t] >= 0
                tx[moved[t, cells]] = mx[t, cells]
                ty[moved[t, cells]] = my[t, cells]
                per_net = hpwl_per_net(nl, tx, ty) * nl.net_weight
                expected = float(per_net[nets[t]].sum())
                assert got[t] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_cell_net_lists_sorted_unique(self, legal_placement):
        """Each cell's wide-net list holds exactly its nets of two or more
        pins, ascending; each wide net's pin list is its (cell, dx, dy)."""
        nl, __, __ = legal_placement
        dp = DetailedPlacer(nl)
        for cell in range(nl.num_cells):
            nets = dp._cell_wide_nets[cell]
            on_cell = np.unique(nl.pin2net[nl.pin2cell == cell])
            assert nets == on_cell[nl.net_mask[on_cell]].tolist()
        for e in range(nl.num_nets):
            lo, hi = nl.net_start[e], nl.net_start[e + 1]
            want = list(zip(nl.pin2cell[lo:hi].tolist(),
                            nl.pin_dx[lo:hi].tolist(),
                            nl.pin_dy[lo:hi].tolist()))
            assert dp._net_pins[e] == (want if nl.net_mask[e] else [])
