"""Tests for bins, density scatter/gather, overflow and fillers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import CircuitSpec, generate_circuit
from repro.density import (
    BinGrid,
    DensityScatter,
    DensitySystem,
    FillerCells,
    overflow_ratio,
    rasterize_exact,
)
from repro.netlist import PlacementRegion


@pytest.fixture
def grid():
    return BinGrid(PlacementRegion(0, 0, 64, 64), 16)


class TestBinGrid:
    def test_bin_geometry(self, grid):
        assert grid.bin_w == 4.0
        assert grid.bin_h == 4.0
        assert grid.bin_area == 16.0
        assert grid.shape == (16, 16)

    def test_centers(self, grid):
        xs, ys = grid.centers()
        assert xs[0] == 2.0
        assert xs[-1] == 62.0

    def test_bin_index_clamped(self, grid):
        i, j = grid.bin_index(np.array([-5.0, 100.0, 10.0]), np.array([0.0, 0.0, 10.0]))
        assert i.tolist() == [0, 15, 2]

    def test_for_netlist_power_of_two(self):
        nl = generate_circuit(CircuitSpec("g", num_cells=500))
        grid = BinGrid.for_netlist(nl)
        assert grid.m & (grid.m - 1) == 0
        assert 16 <= grid.m <= 512

    def test_explicit_m(self):
        nl = generate_circuit(CircuitSpec("g2", num_cells=100))
        assert BinGrid.for_netlist(nl, m=64).m == 64

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            BinGrid(PlacementRegion(0, 0, 10, 10), 1)


class TestScatter:
    def test_area_conservation_inside_die(self, grid):
        rng = np.random.default_rng(3)
        n = 30
        x = rng.uniform(8, 56, n)
        y = rng.uniform(8, 56, n)
        w = rng.uniform(0.5, 5, n)
        h = rng.uniform(0.5, 5, n)
        density = DensityScatter(grid).scatter(x, y, w, h)
        assert density.sum() == pytest.approx(np.sum(w * h), rel=1e-9)

    def test_matches_exact_rasterizer_without_smoothing(self, grid):
        rng = np.random.default_rng(4)
        n = 25
        x = rng.uniform(10, 54, n)
        y = rng.uniform(10, 54, n)
        w = rng.uniform(1, 8, n)
        h = rng.uniform(1, 8, n)
        fast = DensityScatter(grid, smooth=False).scatter(x, y, w, h)
        exact = rasterize_exact(grid, x, y, w, h)
        np.testing.assert_allclose(fast, exact, atol=1e-9)

    def test_smoothing_preserves_area(self, grid):
        # Tiny cells far below bin size still deposit their full area.
        x = np.array([30.0])
        y = np.array([30.0])
        w = np.array([0.3])
        h = np.array([0.4])
        density = DensityScatter(grid, smooth=True).scatter(x, y, w, h)
        assert density.sum() == pytest.approx(0.12, rel=1e-9)

    def test_single_cell_centered_in_bin(self, grid):
        density = DensityScatter(grid, smooth=False).scatter(
            np.array([2.0]), np.array([2.0]), np.array([4.0]), np.array([4.0])
        )
        assert density[0, 0] == pytest.approx(16.0)
        assert density.sum() == pytest.approx(16.0)

    def test_out_accumulates_in_place(self, grid):
        scatter = DensityScatter(grid, smooth=False)
        buf = np.zeros(grid.shape)
        args = (np.array([2.0]), np.array([2.0]), np.array([4.0]), np.array([4.0]))
        scatter.scatter(*args, out=buf)
        scatter.scatter(*args, out=buf)
        assert buf[0, 0] == pytest.approx(32.0)

    def test_empty_input(self, grid):
        density = DensityScatter(grid).scatter(
            np.empty(0), np.empty(0), np.empty(0), np.empty(0)
        )
        assert density.sum() == 0.0

    def test_gather_is_adjoint_of_scatter(self, grid):
        rng = np.random.default_rng(5)
        n = 40
        x = rng.uniform(5, 59, n)
        y = rng.uniform(5, 59, n)
        w = rng.uniform(0.5, 6, n)
        h = rng.uniform(0.5, 6, n)
        field = rng.normal(size=grid.shape)
        scatter = DensityScatter(grid)
        lhs = float(np.sum(scatter.scatter(x, y, w, h) * field))
        rhs = float(np.sum(scatter.gather(field, x, y, w, h)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(
        cx=st.floats(5, 59),
        cy=st.floats(5, 59),
        w=st.floats(0.2, 10),
        h=st.floats(0.2, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_area_conservation_property(self, cx, cy, w, h):
        grid = BinGrid(PlacementRegion(0, 0, 64, 64), 16)
        density = DensityScatter(grid).scatter(
            np.array([cx]), np.array([cy]), np.array([w]), np.array([h])
        )
        # Cells may spill past the die edge, losing area; never gaining.
        assert density.sum() <= w * h + 1e-9


class TestIncidence:
    """The cell–bin incidence scatter against the exact rasteriser.

    Unsmoothed, the scatter must reproduce ``rasterize_exact`` for any
    window the incidence covers: entries off the die carry no weight,
    the widest small cell fills a 7×7 window, and large cells still take
    the per-cell path next to an incidence of small ones.
    """

    @staticmethod
    def _check(grid, x, y, w, h):
        exact = rasterize_exact(grid, x, y, w, h)
        fast = DensityScatter(grid, smooth=False).scatter(x, y, w, h)
        np.testing.assert_allclose(fast, exact, rtol=1e-12,
                                   atol=1e-12 * exact.max())
        return fast

    def test_cells_crossing_every_die_edge(self, grid):
        # Centers on all four edges and all four corners.
        x = np.array([0.0, 64.0, 32.0, 31.0, 0.5, 63.5, 1.0, 64.0, 2.0])
        y = np.array([32.0, 30.0, 0.0, 64.0, 0.5, 1.0, 63.0, 64.0, 33.0])
        w = np.array([3.0, 5.5, 7.0, 2.0, 9.0, 4.0, 6.5, 11.0, 6.0])
        h = np.array([5.0, 2.5, 3.0, 9.5, 4.0, 8.0, 6.5, 10.0, 2.0])
        density = self._check(grid, x, y, w, h)
        # Area off the die is dropped, never wrapped onto other bins.
        assert density.sum() < np.sum(w * h)
        assert np.all(density >= 0.0)

    def test_window_at_large_cell_limit(self, grid):
        # 6 bins wide is still small; off bin alignment it covers 7 bins
        # per axis, the largest incidence window.
        bw, bh = grid.bin_w, grid.bin_h
        x = np.array([21.3, 40.9, 30.0])
        y = np.array([25.7, 33.1, 37.0])
        w = np.array([6.0 * bw, 6.0 * bw, 1.0])
        h = np.array([6.0 * bh, 2.5, 6.0 * bh])
        idx, wgt = DensityScatter(grid, smooth=False).prepare_windows(
            x, y, w, h
        )
        assert idx.shape == wgt.shape == (49, 3)
        self._check(grid, x, y, w, h)

    def test_mixed_large_and_small(self, grid):
        rng = np.random.default_rng(11)
        n = 40
        x = np.concatenate([rng.uniform(0, 64, n), [20.0, 60.0]])
        y = np.concatenate([rng.uniform(0, 64, n), [30.0, 2.0]])
        w = np.concatenate([rng.uniform(0.5, 6.0, n), [30.0, 10.0]])
        h = np.concatenate([rng.uniform(0.5, 6.0, n), [8.0, 27.0]])
        assert DensityScatter(grid).prepare_windows(x, y, w, h) is None
        self._check(grid, x, y, w, h)


class TestOverflow:
    def test_zero_when_under_target(self, grid):
        density = np.full(grid.shape, 0.5)
        assert overflow_ratio(density, grid, 0.9, movable_area=100.0) == 0.0

    def test_known_value(self, grid):
        density = np.zeros(grid.shape)
        density[0, 0] = 1.5  # exceeds target 1.0 by 0.5
        ovfl = overflow_ratio(density, grid, 1.0, movable_area=32.0)
        # 0.5 excess density * 16 bin area / 32 movable area.
        assert ovfl == pytest.approx(0.25)

    def test_zero_movable_area(self, grid):
        assert overflow_ratio(np.ones(grid.shape), grid, 0.5, 0.0) == 0.0

    def test_decreases_as_cells_spread(self):
        nl = generate_circuit(CircuitSpec("ov", num_cells=300, num_macros=0))
        system = DensitySystem(nl, target_density=0.9, use_fillers=False)
        region = nl.region
        rng = np.random.default_rng(0)
        # All cells piled at the center vs spread uniformly.
        x0 = np.full(nl.num_cells, region.center[0])
        y0 = np.full(nl.num_cells, region.center[1])
        xs = rng.uniform(region.xl, region.xh, nl.num_cells)
        ys = rng.uniform(region.yl, region.yh, nl.num_cells)
        piled = system.evaluate(x0, y0).overflow
        spread = system.evaluate(xs, ys).overflow
        assert piled > spread


class TestFillers:
    def test_filler_area_budget(self):
        nl = generate_circuit(CircuitSpec("fl", num_cells=400, num_macros=2))
        fillers = FillerCells.for_netlist(nl, target_density=0.9)
        fixed_area = float(np.sum(nl.cell_area[~nl.movable]))
        free = nl.region.area - fixed_area
        expected = max(0.9 * free - nl.movable_area, 0.0)
        one = fillers.w[0] * fillers.h[0]
        assert np.all(fillers.w * fillers.h == one)
        assert fillers.total_area <= expected + one
        assert fillers.total_area >= expected - one

    def test_fillers_inside_region(self):
        nl = generate_circuit(CircuitSpec("fl2", num_cells=200))
        fillers = FillerCells.for_netlist(nl, target_density=0.95)
        region = nl.region
        assert np.all(fillers.x >= region.xl)
        assert np.all(fillers.x <= region.xh)

    def test_no_fillers_when_dense(self):
        nl = generate_circuit(
            CircuitSpec("fl3", num_cells=200, utilization=0.95, macro_fraction=0.0,
                        num_macros=0)
        )
        fillers = FillerCells.for_netlist(nl, target_density=0.5)
        # Movable area alone exceeds the target budget: no fillers fit.
        assert fillers.count == 0

    def test_deterministic_with_rng(self):
        nl = generate_circuit(CircuitSpec("fl4", num_cells=200))
        a = FillerCells.for_netlist(nl, 0.9, rng=np.random.default_rng(9))
        b = FillerCells.for_netlist(nl, 0.9, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.x, b.x)
