"""Tests for row space, Tetris and Abacus legalizers, legality checker."""

import itertools

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate_circuit
from repro.core import PlacementParams, XPlacer
from repro.legalize import (
    AbacusLegalizer,
    TetrisLegalizer,
    build_row_space,
    check_legal,
)
from repro.legalize.abacus import _Cluster, _SegmentState
from repro.legalize.rows import Segment
from repro.netlist import NetlistBuilder, PlacementRegion
from repro.wirelength import hpwl


@pytest.fixture(scope="module")
def placed():
    nl = generate_circuit(
        CircuitSpec("lg", num_cells=350, num_macros=2, num_pads=16)
    )
    result = XPlacer(nl, PlacementParams(max_iterations=400)).run()
    return nl, result


class TestRowSpace:
    def test_rows_without_macros_one_segment(self):
        nl = generate_circuit(
            CircuitSpec("rs", num_cells=50, num_macros=0, macro_fraction=0.0)
        )
        space = build_row_space(nl)
        assert all(len(segs) == 1 for segs in space.segments)

    def test_macros_split_rows(self, placed):
        nl, __ = placed
        space = build_row_space(nl)
        assert any(len(segs) > 1 for segs in space.segments)

    def test_free_width_excludes_blockage(self, placed):
        nl, __ = placed
        space = build_row_space(nl)
        total_row_width = sum(r.xh - r.xl for r in space.rows)
        macro_area = float(
            np.sum(nl.cell_area[(~nl.movable) & (nl.cell_area > 0)])
        )
        free = space.total_free_width() * nl.region.row_height
        assert free < total_row_width * nl.region.row_height
        # Free area ≈ die area − macro area (slivers make it slightly less).
        assert free <= nl.region.area - macro_area + 1e-6

    def test_requires_rows(self):
        builder = NetlistBuilder()
        builder.set_region(PlacementRegion(0, 0, 10, 10))
        builder.add_cell("a", 1, 1)
        nl = builder.build()
        with pytest.raises(ValueError, match="no rows"):
            build_row_space(nl)


@pytest.mark.parametrize("legalizer_cls", [TetrisLegalizer, AbacusLegalizer])
class TestLegalizers:
    def test_produces_legal_placement(self, placed, legalizer_cls):
        nl, result = placed
        lx, ly = legalizer_cls(nl).legalize(result.x, result.y)
        report = check_legal(nl, lx, ly)
        assert report.legal, report.summary()

    def test_fixed_cells_untouched(self, placed, legalizer_cls):
        nl, result = placed
        lx, ly = legalizer_cls(nl).legalize(result.x, result.y)
        fixed = ~nl.movable
        np.testing.assert_array_equal(lx[fixed], result.x[fixed])
        np.testing.assert_array_equal(ly[fixed], result.y[fixed])

    def test_small_displacement(self, placed, legalizer_cls):
        nl, result = placed
        lx, ly = legalizer_cls(nl).legalize(result.x, result.y)
        mov = nl.movable_index
        disp = np.abs(lx[mov] - result.x[mov]) + np.abs(ly[mov] - result.y[mov])
        avg_cell = float(np.mean(nl.cell_w[mov]))
        assert np.mean(disp) < 10 * avg_cell

    def test_hpwl_close_to_gp(self, placed, legalizer_cls):
        nl, result = placed
        lx, ly = legalizer_cls(nl).legalize(result.x, result.y)
        assert hpwl(nl, lx, ly) < 1.3 * result.hpwl


class TestAbacusVsTetris:
    def test_abacus_no_worse_displacement(self, placed):
        nl, result = placed
        tx, ty = TetrisLegalizer(nl).legalize(result.x, result.y)
        ax, ay = AbacusLegalizer(nl).legalize(result.x, result.y)
        mov = nl.movable_index
        disp_t = np.mean(
            np.abs(tx[mov] - result.x[mov]) + np.abs(ty[mov] - result.y[mov])
        )
        disp_a = np.mean(
            np.abs(ax[mov] - result.x[mov]) + np.abs(ay[mov] - result.y[mov])
        )
        assert disp_a <= disp_t * 1.05


def edge_of(clusters, cell):
    """The cell's left edge in the last of ``clusters``."""
    offset = clusters[-1].x
    for c, cw, __ in clusters[-1].cells:
        if c == cell:
            return offset
        offset += cw


def copying_trial(state, cell, width, desired, weight):
    """The trial insert written as a commit on copies of every cluster:
    the reference for ``_SegmentState.trial``."""
    if not state.fits(width):
        return None
    segment = state.segment
    clusters = [_Cluster(c.x, c.e, c.q, c.w, list(c.cells))
                for c in state.clusters]
    cluster = _Cluster()
    cluster.add_cell(cell, width, desired, weight)
    cluster.x = cluster.optimal_x(segment)
    clusters.append(cluster)
    while len(clusters) >= 2:
        prev, last = clusters[-2], clusters[-1]
        if prev.x + prev.w <= last.x + 1e-12:
            break
        prev.merge(last)
        clusters.pop()
        prev.x = prev.optimal_x(segment)
    return edge_of(clusters, cell)


class TestAbacusTrial:
    """The copy-free trial gives the copying reference's edge bit for
    bit, and the edge the committed insert then gives."""

    def test_trial_matches_copying_reference(self):
        merged = clamped_left = clamped_right = 0
        for seed, in_x_order in itertools.product(range(6), (True, False)):
            rng = np.random.default_rng(seed)
            segment = Segment(float(rng.uniform(-5.0, 5.0)),
                              float(rng.uniform(60.0, 90.0)))
            widths = (rng.choice([0.5, 1.0, 1.7, 3.0], 200)
                      * rng.uniform(1.0, 2.0, 200))
            # A tenth more cell width than the segment holds.
            n = int(np.searchsorted(np.cumsum(widths), 1.1 * segment.width))
            # Targets bunch near a few points (merges over several
            # clusters) and overshoot both segment ends (clamping).
            desired = (rng.choice([segment.xl - 8.0, 20.0, 45.0,
                                   segment.xh + 3.0], n)
                       + rng.normal(0.0, 4.0, n))
            if in_x_order:            # the legalizer's insertion order
                desired.sort()
            state = _SegmentState(segment)
            for cell, (width, target) in enumerate(
                    zip(widths[:n].tolist(), desired.tolist())):
                weight = float(rng.uniform(0.5, 3.0))
                before = len(state.clusters)
                trial = state.trial(width, target, weight)
                assert repr(trial) == repr(
                    copying_trial(state, cell, width, target, weight))
                if trial is None:
                    continue
                state.place(cell, width, target, weight)
                assert repr(edge_of(state.clusters, cell)) == repr(trial)
                merged = max(merged, before + 1 - len(state.clusters))
                clamped_left += state.clusters[0].x == segment.xl
                tail = state.clusters[-1]
                clamped_right += tail.x == segment.xh - tail.w
        assert merged >= 2           # an insert merged several clusters
        assert clamped_left and clamped_right


class TestCheckLegal:
    def _tiny(self):
        builder = NetlistBuilder()
        builder.set_region(
            PlacementRegion.with_uniform_rows(0, 0, 100, 40, 10)
        )
        builder.add_cell("a", 4, 10)
        builder.add_cell("b", 6, 10)
        return builder.build()

    def test_legal_case(self):
        nl = self._tiny()
        x = np.array([2.0, 10.0])
        y = np.array([5.0, 5.0])
        assert check_legal(nl, x, y).legal

    def test_detects_overlap(self):
        nl = self._tiny()
        x = np.array([2.0, 4.0])
        y = np.array([5.0, 5.0])
        report = check_legal(nl, x, y)
        assert not report.legal
        assert report.overlaps

    def test_detects_off_row(self):
        nl = self._tiny()
        x = np.array([2.0, 10.0])
        y = np.array([7.5, 5.0])
        report = check_legal(nl, x, y)
        assert report.off_row

    def test_detects_out_of_die(self):
        nl = self._tiny()
        x = np.array([-5.0, 10.0])
        y = np.array([5.0, 5.0])
        report = check_legal(nl, x, y)
        assert report.out_of_die

    def test_detects_macro_overlap(self):
        builder = NetlistBuilder()
        builder.set_region(PlacementRegion.with_uniform_rows(0, 0, 100, 40, 10))
        builder.add_cell("a", 4, 10)
        builder.add_cell("blk", 20, 20, movable=False, x=50.0, y=10.0)
        nl = builder.build()
        x = np.array([45.0, 50.0])
        y = np.array([5.0, 10.0])
        report = check_legal(nl, x, y)
        assert report.macro_overlaps
