"""Tests for fence regions: model, generator, GP projection, legalization,
detailed placement, legality checking."""

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate_circuit
from repro.core import PlacementParams, XPlacer
from repro.core.fences import FenceProjector
from repro.detail import DetailedPlacer
from repro.legalize import FenceAwareLegalizer, TetrisLegalizer, check_legal
from repro.netlist import (
    FenceRegion,
    NetlistBuilder,
    PlacementRegion,
    validate_fences,
)


@pytest.fixture(scope="module")
def fenced_netlist():
    spec = CircuitSpec(
        "fenced", num_cells=400, num_macros=2, num_fences=2, utilization=0.5
    )
    return generate_circuit(spec)


@pytest.fixture(scope="module")
def fenced_gp(fenced_netlist):
    return XPlacer(fenced_netlist, PlacementParams(max_iterations=500)).run()


class TestFenceRegion:
    def test_contains(self):
        fence = FenceRegion("f", ((0, 0, 10, 10), (20, 0, 30, 10)))
        x = np.array([5.0, 15.0, 25.0])
        y = np.array([5.0, 5.0, 5.0])
        assert fence.contains(x, y).tolist() == [True, False, True]

    def test_contains_box_respects_extents(self):
        fence = FenceRegion("f", ((0, 0, 10, 10),))
        # Center inside but body sticking out.
        ok = fence.contains_box(
            np.array([9.5]), np.array([5.0]), np.array([1.0]), np.array([1.0])
        )
        assert not ok[0]

    def test_contains_cell_matches_contains_box(self):
        fence = FenceRegion("f", ((0, 0, 10, 10), (20, 0, 30, 10)))
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 32, 400)
        y = rng.uniform(-2, 12, 400)
        hw = rng.uniform(0, 2, 400)
        hh = rng.uniform(0, 2, 400)
        # Boxes exactly on an edge and within the 1e-6 tolerance past it.
        x[:3] = [1.0, 9.0 + 5e-7, 21.0 - 2e-6]
        y[:3] = 5.0
        hw[:3] = hh[:3] = 1.0
        want = fence.contains_box(x, y, hw, hh)
        got = [fence.contains_cell(*args) for args in zip(x, y, hw, hh)]
        assert got == want.tolist()
        assert want[:3].tolist() == [True, True, False]

    def test_clamp_into_nearest_box(self):
        fence = FenceRegion("f", ((0, 0, 10, 10), (20, 0, 30, 10)))
        hw = np.array([1.0, 1.0])
        hh = np.array([1.0, 1.0])
        x, y = fence.clamp_into(np.array([12.0, 19.0]), np.array([5.0, 5.0]), hw, hh)
        assert x[0] == pytest.approx(9.0)   # nearest: left box edge
        assert x[1] == pytest.approx(21.0)  # nearest: right box edge

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            FenceRegion("f", ((0, 0, 0, 10),))
        with pytest.raises(ValueError, match="no boxes"):
            FenceRegion("f", ())

    def test_area(self):
        fence = FenceRegion("f", ((0, 0, 10, 10), (20, 0, 30, 5)))
        assert fence.area == pytest.approx(150.0)

    def test_validate_rejects_cross_fence_overlap(self):
        a = FenceRegion("a", ((0, 0, 10, 10),))
        b = FenceRegion("b", ((5, 5, 15, 15),))
        with pytest.raises(ValueError, match="overlap"):
            validate_fences([a, b])
        c = FenceRegion("c", ((10, 0, 20, 10),))  # abutting is fine
        validate_fences([a, c])


class TestBuilderAndNetlist:
    def _fenced_builder(self):
        builder = NetlistBuilder()
        builder.set_region(PlacementRegion.with_uniform_rows(0, 0, 100, 100, 10))
        fence = builder.add_fence("f0", [(10, 10, 40, 40)])
        builder.add_cell("a", 4, 10, fence=fence)
        builder.add_cell("b", 4, 10)
        return builder

    def test_fence_assignment(self):
        nl = self._fenced_builder().build()
        assert nl.cell_fence.tolist() == [0, -1]
        assert len(nl.fences) == 1

    def test_assign_fence_after_add(self):
        builder = self._fenced_builder()
        builder.assign_fence("b", 0)
        nl = builder.build()
        assert nl.cell_fence.tolist() == [0, 0]

    def test_unknown_fence_rejected(self):
        builder = self._fenced_builder()
        with pytest.raises(ValueError, match="unknown fence"):
            builder.add_cell("c", 4, 10, fence=5)
        with pytest.raises(ValueError, match="unknown fence"):
            builder.assign_fence("a", 7)

    def test_fixed_cell_with_fence_rejected(self):
        builder = self._fenced_builder()
        builder.add_cell("t", 2, 2, movable=False, x=50.0, y=50.0)
        builder.assign_fence("t", 0)
        with pytest.raises(ValueError, match="fixed cells"):
            builder.build()


class TestGenerator:
    def test_fences_created_with_members(self, fenced_netlist):
        nl = fenced_netlist
        assert len(nl.fences) == 2
        members = np.sum(nl.cell_fence >= 0)
        assert members > 0
        # Roughly the configured fraction (capacity may clip it).
        assert members <= 0.2 * nl.num_movable + 10

    def test_fence_boxes_disjoint_from_macros(self, fenced_netlist):
        nl = fenced_netlist
        fixed = np.flatnonzero((~nl.movable) & (nl.cell_area > 0))
        for fence in nl.fences:
            for (xl, yl, xh, yh) in fence.boxes:
                for i in fixed:
                    mxl = nl.fixed_x[i] - nl.cell_w[i] / 2
                    mxh = nl.fixed_x[i] + nl.cell_w[i] / 2
                    myl = nl.fixed_y[i] - nl.cell_h[i] / 2
                    myh = nl.fixed_y[i] + nl.cell_h[i] / 2
                    overlap = min(xh, mxh) - max(xl, mxl) > 1e-9 and (
                        min(yh, myh) - max(yl, myl) > 1e-9
                    )
                    assert not overlap

    def test_fence_capacity_sufficient(self, fenced_netlist):
        nl = fenced_netlist
        for g, fence in enumerate(nl.fences):
            members = np.flatnonzero(nl.cell_fence == g)
            member_area = float(np.sum(nl.cell_area[members]))
            assert member_area < 0.9 * fence.area

    def test_no_fences_by_default(self):
        nl = generate_circuit(CircuitSpec("plain", num_cells=100))
        assert not nl.fences
        assert np.all(nl.cell_fence == -1)


class TestProjector:
    def test_members_projected_inside(self, fenced_netlist):
        nl = fenced_netlist
        projector = FenceProjector(nl)
        assert projector.active
        mov = nl.movable_index
        rng = np.random.default_rng(0)
        x = rng.uniform(nl.region.xl, nl.region.xh, len(mov))
        y = rng.uniform(nl.region.yl, nl.region.yh, len(mov))
        px, py = projector.project(x, y)
        hw = nl.cell_w[mov] / 2
        hh = nl.cell_h[mov] / 2
        for g, fence in enumerate(nl.fences):
            members = nl.cell_fence[mov] == g
            ok = fence.contains_box(px[members], py[members],
                                    hw[members], hh[members])
            assert ok.all()

    def test_free_cells_pushed_out(self, fenced_netlist):
        nl = fenced_netlist
        projector = FenceProjector(nl)
        mov = nl.movable_index
        free = nl.cell_fence[mov] < 0
        # Drop every free cell into the middle of fence 0.
        (xl, yl, xh, yh) = nl.fences[0].boxes[0]
        x = np.full(len(mov), (xl + xh) / 2)
        y = np.full(len(mov), (yl + yh) / 2)
        px, py = projector.project(x, y)
        hw = nl.cell_w[mov] / 2
        hh = nl.cell_h[mov] / 2
        overlapping = (
            (px[free] + hw[free] > xl)
            & (px[free] - hw[free] < xh)
            & (py[free] + hh[free] > yl)
            & (py[free] - hh[free] < yh)
        )
        assert not overlapping.any()

    def test_inactive_on_fence_free_design(self):
        nl = generate_circuit(CircuitSpec("nf", num_cells=50))
        projector = FenceProjector(nl)
        assert not projector.active
        x = np.zeros(nl.num_movable)
        out_x, __ = projector.project(x, x)
        assert out_x is x


class TestFencedPlacementFlow:
    def test_gp_respects_fences(self, fenced_netlist, fenced_gp):
        nl, gp = fenced_netlist, fenced_gp
        assert gp.converged
        mov = nl.movable_index
        hw = nl.cell_w[mov] / 2
        hh = nl.cell_h[mov] / 2
        for g, fence in enumerate(nl.fences):
            members = nl.cell_fence[mov] == g
            ok = fence.contains_box(
                gp.x[mov][members], gp.y[mov][members], hw[members], hh[members]
            )
            assert ok.all()

    @pytest.mark.parametrize("base", [None, TetrisLegalizer])
    def test_fence_aware_legalization(self, fenced_netlist, fenced_gp, base):
        nl, gp = fenced_netlist, fenced_gp
        kwargs = {} if base is None else {"base_cls": base}
        lx, ly = FenceAwareLegalizer(nl, **kwargs).legalize(gp.x, gp.y)
        report = check_legal(nl, lx, ly)
        assert report.legal, report.summary()

    def test_detailed_placement_respects_fences(self, fenced_netlist, fenced_gp):
        nl, gp = fenced_netlist, fenced_gp
        lx, ly = FenceAwareLegalizer(nl).legalize(gp.x, gp.y)
        result = DetailedPlacer(nl, max_passes=1).place(lx, ly)
        report = check_legal(nl, result.x, result.y)
        assert report.legal, report.summary()
        assert result.hpwl_after <= result.hpwl_before + 1e-9

    def test_check_legal_flags_fence_violation(self, fenced_netlist, fenced_gp):
        nl, gp = fenced_netlist, fenced_gp
        lx, ly = FenceAwareLegalizer(nl).legalize(gp.x, gp.y)
        mov = nl.movable_index
        member = mov[nl.cell_fence[mov] == 0][0]
        bad_x = lx.copy()
        bad_x[member] = nl.region.xl + nl.cell_w[member]  # far from fence 0
        report = check_legal(nl, bad_x, ly)
        assert member in report.fence_violations

    def test_plain_legalizer_via_fence_aware_on_fence_free(self):
        nl = generate_circuit(CircuitSpec("nf2", num_cells=150))
        gp = XPlacer(nl, PlacementParams(max_iterations=300)).run()
        lx, ly = FenceAwareLegalizer(nl).legalize(gp.x, gp.y)
        assert check_legal(nl, lx, ly).legal
