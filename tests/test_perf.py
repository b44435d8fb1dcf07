"""Tests for the performance layer: Workspace arena, hot operators.

Every hot operator has one implementation, the arena path.  It is
checked against the independent references — ``rasterize_exact``,
``ElectrostaticSolver.solve_reference``, ``AutogradWirelengthOp`` and
``gradcheck_all`` — and, end to end, against a committed golden GP
trajectory.  Arena reuse and the structural fusions (shared incidence
handles, paired gathers) must not change a single bit, no result may
alias an arena buffer, and the steady-state hot loop must perform zero
new arena allocations.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import PlacementParams, make_design
from repro.analysis.sanitizer import active, disable
from repro.autograd import gradcheck_all
from repro.benchgen import CircuitSpec, generate_circuit
from repro.core import XPlacer
from repro.core.gradient_engine import GradientEngine
from repro.core.initializer import initial_positions
from repro.density import BinGrid, DensityScatter, DensitySystem
from repro.density.electrostatics import ElectrostaticSolver
from repro.density.scatter import _overlap_matrix, rasterize_exact
from repro.dtypes import FLOAT, INT
from repro.netlist import PlacementRegion
from repro.netlist.builder import NetlistBuilder
from repro.perf import Workspace
from repro.wirelength import WirelengthOp
from repro.wirelength.wa_autograd import AutogradWirelengthOp

#: 25-iteration GP of fft_1 (150 cells, seed 2): the HPWL trace and the
#: final positions.  SIMD ``exp`` may differ in the last bits across
#: CPUs, hence the 1e-12 relative tolerance instead of bit equality.
#: Regenerate only for an intended numerical change, from a
#: ``PlacementParams(**golden["params"])`` XPlacer run.
GOLDEN = Path(__file__).parent / "data" / "gp_golden_fft1.json"

#: float64 agreement expected between two spellings of the same math.
RTOL = 1e-12


def assert_close(actual, expected, rtol=RTOL):
    """Elementwise agreement within ``rtol`` of the reference's scale."""
    expected = np.asarray(expected, dtype=FLOAT)
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    np.testing.assert_allclose(actual, expected, rtol=rtol,
                               atol=rtol * scale)


def arena_buffers(ws):
    return list(ws._buffers.values())


@pytest.fixture(scope="module")
def netlist():
    return make_design("fft_1", num_cells=150)


@pytest.fixture(scope="module")
def fenced():
    return generate_circuit(
        CircuitSpec("me", num_cells=300, num_macros=2, num_fences=2,
                    utilization=0.5)
    )


@pytest.fixture(scope="module")
def grid(netlist):
    return BinGrid.for_netlist(netlist)


@pytest.fixture(scope="module")
def cells(netlist, grid):
    """Random movable-cell geometry inside the region (no large cells)."""
    rng = np.random.default_rng(3)
    n = 80
    region = netlist.region
    x = rng.uniform(region.xl + 5, region.xh - 5, n)
    y = rng.uniform(region.yl + 5, region.yh - 5, n)
    w = rng.uniform(0.5, 1.5 * grid.bin_w, n)
    h = rng.uniform(0.5, 1.5 * grid.bin_h, n)
    return x, y, w, h


@pytest.fixture(scope="module")
def big_cells(grid):
    """Cells wider than the 6-bin window limit (the per-cell exact path)."""
    x = np.array([40.0, 55.0, 30.0])
    y = np.array([35.0, 45.0, 50.0])
    w = np.array([8.0, 10.0, 3.0]) * grid.bin_w
    h = np.array([9.0, 2.0, 7.5]) * grid.bin_h
    return x, y, w, h


def placement(netlist, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(10, 90, netlist.num_cells),
            rng.uniform(10, 90, netlist.num_cells))


def per_cell_gather(grid, field, x, y, w, h):
    """Σ_b overlap(i, b)·field_b from one exact raster per cell."""
    return np.array([
        np.sum(rasterize_exact(grid, x[i:i + 1], y[i:i + 1], w[i:i + 1],
                               h[i:i + 1]) * field)
        for i in range(len(x))
    ])


def smoothed_boxes(grid, x, y, w, h):
    """Lower corners, smoothed extents and area scale, spelled as in the
    scatter (same operations, same order)."""
    we = np.maximum(w, np.sqrt(2.0) * grid.bin_w)
    he = np.maximum(h, np.sqrt(2.0) * grid.bin_h)
    eff = we * he
    scale = np.zeros_like(eff)
    np.divide(w * h, eff, out=scale, where=eff > 0)
    xl = x - we / 2 - grid.region.xl
    yl = y - he / 2 - grid.region.yl
    return xl, yl, we, he, scale


def pass_by_pass_scatter(grid, x, y, w, h, out):
    """One ``np.add.at`` per window offset (dx, dy): the smoothed scatter
    as a window loop, accumulating into ``out``."""
    xl, yl, we, he, scale = smoothed_boxes(grid, x, y, w, h)
    bw, bh, m = grid.bin_w, grid.bin_h, grid.m
    ix0 = np.floor(xl / bw).astype(INT)
    iy0 = np.floor(yl / bh).astype(INT)
    kx = int(np.ceil(we.max() / bw)) + 1
    ky = int(np.ceil(he.max() / bh)) + 1
    for dx in range(kx):
        cols = ix0 + dx
        ov_x = np.clip(np.minimum(xl + we, (cols + 1) * bw)
                       - np.maximum(xl, cols * bw), 0.0, None)
        for dy in range(ky):
            rows = iy0 + dy
            ov_y = np.clip(np.minimum(yl + he, (rows + 1) * bh)
                           - np.maximum(yl, rows * bh), 0.0, None)
            valid = ((cols >= 0) & (cols < m) & (ov_x > 0)
                     & (rows >= 0) & (rows < m) & (ov_y > 0))
            np.add.at(out, (cols[valid], rows[valid]),
                      ov_x[valid] * ov_y[valid] * scale[valid])
    return out


def dense_gather(grid, field, x, y, w, h):
    """Σ_b overlap(i, b)·field_b·scale_i over full (n, m) overlap rows."""
    xl, yl, we, he, scale = smoothed_boxes(grid, x, y, w, h)
    ov_x = _overlap_matrix(xl, xl + we, grid.m, grid.bin_w)
    ov_y = _overlap_matrix(yl, yl + he, grid.m, grid.bin_h)
    return np.einsum("im,in,mn->i", ov_x, ov_y, field) * scale


def edge_cells(grid):
    """Small cells centred on every die edge and corner."""
    r = grid.region
    x = np.array([r.xl, r.xh, (r.xl + r.xh) / 2, r.xl + 0.3, r.xh, r.xl])
    y = np.array([(r.yl + r.yh) / 2, r.yl + 1.0, r.yl, r.yh, r.yh, r.yl])
    w = np.array([0.8, 2.5, 1.0, 3.0, 1.5, 0.4]) * grid.bin_w
    h = np.array([1.2, 0.6, 2.0, 1.0, 2.5, 0.4]) * grid.bin_h
    return x, y, w, h


class TestWorkspace:
    def test_get_reuses_buffer(self):
        ws = Workspace()
        a = ws.get("op.tmp", 16)
        b = ws.get("op.tmp", 16)
        assert a is b
        assert ws.misses == 1 and ws.hits == 1

    def test_distinct_shapes_distinct_buffers(self):
        ws = Workspace()
        a = ws.get("op.tmp", 16)
        b = ws.get("op.tmp", 32)
        assert a is not b and ws.num_buffers == 2

    def test_distinct_dtypes_distinct_buffers(self):
        ws = Workspace()
        a = ws.get("op.tmp", 8, dtype=FLOAT)
        b = ws.get("op.tmp", 8, dtype=INT)
        assert a.dtype == FLOAT and b.dtype == INT and a is not b

    def test_zeros_clears_every_time(self):
        ws = Workspace()
        a = ws.zeros("op.z", 4)
        a[:] = 7.0
        b = ws.zeros("op.z", 4)
        assert b is a and np.array_equal(b, np.zeros(4))

    def test_arange_cached_and_readonly(self):
        ws = Workspace()
        r = ws.arange(10)
        assert np.array_equal(r, np.arange(10)) and r.dtype == INT
        assert ws.arange(10) is r
        with pytest.raises(ValueError):
            r[0] = 5

    def test_nbytes_by_prefix_groups_namespaces(self):
        ws = Workspace()
        ws.get("wa.px", 10)
        ws.get("wa.py", 10)
        ws.get("sc.scale", 5)
        by_op = ws.nbytes_by_prefix()
        assert set(by_op) == {"wa", "sc"}
        assert by_op["wa"] == 4 * by_op["sc"]

    def test_stats_and_reset_counters(self):
        ws = Workspace()
        ws.get("a.x", 4)
        ws.get("a.x", 4)
        stats = ws.stats()
        assert stats["buffers"] == 1 and stats["hit_rate"] == 0.5
        ws.reset_counters()
        assert ws.hits == 0 and ws.misses == 0
        assert ws.num_buffers == 1  # buffers stay warm

    def test_clear_drops_everything(self):
        ws = Workspace()
        ws.get("a.x", 4)
        ws.clear()
        assert ws.num_buffers == 0 and ws.nbytes == 0


class TestBitIdentity:
    """Each operator against its reference; arena reuse and the fused
    spellings must reproduce the first call and the unfused call bit for
    bit."""

    def test_wirelength_op(self, netlist):
        x, y = placement(netlist, 11)
        op = WirelengthOp(netlist)
        oracle = AutogradWirelengthOp(netlist)
        for gamma in (0.5, 4.0):
            first = op(x, y, gamma)
            ref = oracle(x, y, gamma)
            assert first.wa == pytest.approx(ref.wa, rel=RTOL)
            assert first.hpwl == pytest.approx(ref.hpwl, rel=RTOL)
            assert_close(first.grad_x, ref.grad_x)
            assert_close(first.grad_y, ref.grad_y)
            for _ in range(2):  # steady-state reuse must stay identical
                again = op(x, y, gamma)
                assert again.wa == first.wa and again.hpwl == first.hpwl
                assert np.array_equal(again.grad_x, first.grad_x)
                assert np.array_equal(again.grad_y, first.grad_y)

    def test_scatter_and_gather(self, grid, cells, big_cells):
        # Unsmoothed, scatter and gather are exactly the raster overlap
        # and its adjoint; mixing in large cells covers the per-cell path.
        x, y, w, h = (np.concatenate(pair) for pair in zip(cells, big_cells))
        exact = DensityScatter(grid, smooth=False)
        field = np.random.default_rng(5).uniform(0.5, 1.5, size=grid.shape)
        assert_close(exact.scatter(x, y, w, h),
                     rasterize_exact(grid, x, y, w, h))
        assert_close(exact.gather(field, x, y, w, h),
                     per_cell_gather(grid, field, x, y, w, h))

        sc = DensityScatter(grid)
        density = sc.scatter(x, y, w, h)
        forces = sc.gather(field, x, y, w, h)
        # Smoothed: the gather is still the scatter's adjoint.
        assert np.sum(density * field) == pytest.approx(np.sum(forces),
                                                        rel=1e-10)
        for _ in range(2):
            assert np.array_equal(sc.scatter(x, y, w, h), density)
            assert np.array_equal(sc.gather(field, x, y, w, h), forces)

    def test_gather_pair_matches_two_gathers(self, grid, cells):
        x, y, w, h = cells
        rng = np.random.default_rng(6)
        fa = rng.normal(size=grid.shape)
        fb = rng.normal(size=grid.shape)
        sc = DensityScatter(grid)
        for _ in range(3):
            ga, gb = sc.gather_pair(fa, fb, x, y, w, h)
            assert np.array_equal(ga, sc.gather(fa, x, y, w, h))
            assert np.array_equal(gb, sc.gather(fb, x, y, w, h))

    def test_prepare_windows_handle(self, grid, cells):
        x, y, w, h = cells
        sc = DensityScatter(grid)
        fa = np.random.default_rng(7).normal(size=grid.shape)
        fb = np.random.default_rng(8).normal(size=grid.shape)
        win = sc.prepare_windows(x, y, w, h, tag="@t")
        assert win is not None
        assert np.array_equal(
            sc.scatter(x, y, w, h, windows=win), sc.scatter(x, y, w, h)
        )
        assert np.array_equal(
            sc.gather(fa, x, y, w, h, windows=win), sc.gather(fa, x, y, w, h)
        )
        ga, gb = sc.gather_pair(fa, fb, x, y, w, h, windows=win)
        assert np.array_equal(ga, sc.gather(fa, x, y, w, h))
        assert np.array_equal(gb, sc.gather(fb, x, y, w, h))

    def test_gather_matches_dense_reference(self, grid, cells):
        x, y, w, h = (np.concatenate(pair)
                      for pair in zip(cells, edge_cells(grid)))
        field = np.random.default_rng(10).normal(size=grid.shape)
        sc = DensityScatter(grid)
        win = sc.prepare_windows(x, y, w, h, tag="@t")
        ga, gb = sc.gather_pair(field, -field, x, y, w, h, windows=win)
        expected = dense_gather(grid, field, x, y, w, h)
        assert_close(ga, expected)
        assert_close(gb, -expected)

    def test_scatter_out_matches_pass_by_pass(self, grid, cells):
        x, y, w, h = (np.concatenate(pair)
                      for pair in zip(cells, edge_cells(grid)))
        base = np.random.default_rng(12).uniform(size=grid.shape)
        sc = DensityScatter(grid)
        expected = pass_by_pass_scatter(grid, x, y, w, h, base.copy())
        for out in (base.copy(), np.asfortranarray(base)):
            assert sc.scatter(x, y, w, h, out=out) is out
            assert np.array_equal(out, expected)
        fresh = pass_by_pass_scatter(grid, x, y, w, h, np.zeros(grid.shape))
        assert np.array_equal(sc.scatter(x, y, w, h), fresh)

    def test_field_solver(self, grid):
        density = np.random.default_rng(9).normal(size=grid.shape)
        solver = ElectrostaticSolver(grid)
        first = solver.solve(density)
        ref = solver.solve_reference(density)
        assert first.energy == pytest.approx(ref.energy, rel=RTOL)
        for name in ("potential", "field_x", "field_y"):
            assert_close(getattr(first, name), getattr(ref, name))
        for _ in range(2):
            again = solver.solve(density)
            assert again.energy == first.energy
            for name in ("potential", "field_x", "field_y"):
                assert np.array_equal(getattr(again, name),
                                      getattr(first, name)), name

    def test_density_system_evaluate(self, netlist):
        # The system's fused wiring (shared windows, paired gathers,
        # in-place finalisation) against the plain composition of the
        # public operators and the brute-force solver.
        system = DensitySystem(netlist, rng=np.random.default_rng(1))
        x, y = placement(netlist, 13)
        result = system.evaluate(x, y)

        grid, fillers = system.grid, system.fillers
        mov = netlist.movable_index
        mx, my = x[mov], y[mov]
        mw, mh = netlist.cell_w[mov], netlist.cell_h[mov]
        plain = DensityScatter(grid)
        density = (plain.scatter(mx, my, mw, mh) / grid.bin_area
                   + system._fixed_density)
        total = density + plain.scatter(
            fillers.x, fillers.y, fillers.w, fillers.h) / grid.bin_area
        field = system.solver.solve_reference(total)
        assert_close(result.density_map, density)
        assert_close(result.total_map, total)
        assert result.energy == pytest.approx(field.energy, rel=RTOL)
        assert_close(result.grad_x[mov],
                     -plain.gather(field.field_x, mx, my, mw, mh))
        assert_close(result.grad_y[mov],
                     -plain.gather(field.field_y, mx, my, mw, mh))
        assert_close(result.filler_grad_x, -plain.gather(
            field.field_x, fillers.x, fillers.y, fillers.w, fillers.h))
        assert_close(result.filler_grad_y, -plain.gather(
            field.field_y, fillers.x, fillers.y, fillers.w, fillers.h))

        again = system.evaluate(x, y)
        assert again.overflow == result.overflow
        for name in ("grad_x", "grad_y", "filler_grad_x", "filler_grad_y",
                     "density_map", "total_map"):
            assert np.array_equal(getattr(again, name),
                                  getattr(result, name)), name

    def test_gp_trajectory_identical(self):
        golden = json.loads(GOLDEN.read_text())
        netlist = make_design(golden["design"], num_cells=golden["num_cells"])
        result = XPlacer(netlist, PlacementParams(**golden["params"])).run()
        hpwl = result.recorder.trace("hpwl")
        assert len(hpwl) == len(golden["hpwl"])
        np.testing.assert_allclose(hpwl, golden["hpwl"], rtol=RTOL, atol=0)
        np.testing.assert_allclose(result.x, golden["x"], rtol=RTOL, atol=0)
        np.testing.assert_allclose(result.y, golden["y"], rtol=RTOL, atol=0)


def _zero_pins(netlist, grid):
    builder = NetlistBuilder()
    builder.set_region(PlacementRegion(0, 0, 10, 10))
    builder.add_cell("a", 1, 1)
    builder.add_cell("b", 1, 1)
    builder.add_net("void", [])
    builder.add_net("also_void", [])
    empty = builder.build()
    res = WirelengthOp(empty)(np.array([2.0, 3.0]), np.array([4.0, 5.0]), 1.0)
    zeros = np.zeros(2)
    return [((res.wa, res.hpwl), (0.0, 0.0)), (res.grad_x, zeros),
            (res.grad_y, zeros)]


def _zero_fillers(netlist, grid):
    system = DensitySystem(netlist, use_fillers=False,
                           rng=np.random.default_rng(1))
    res = system.evaluate(*placement(netlist, 13))
    sc = DensityScatter(grid)
    none = np.empty(0)
    base = np.random.default_rng(4).normal(size=grid.shape)
    field = np.random.default_rng(5).normal(size=grid.shape)
    pair = sc.gather_pair(field, field, none, none, none, none)
    return [
        (res.total_map, res.density_map),
        (res.filler_grad_x, none), (res.filler_grad_y, none),
        (sc.scatter(none, none, none, none), np.zeros(grid.shape)),
        (sc.scatter(none, none, none, none, out=base.copy()), base),
        (sc.gather(field, none, none, none, none), none),
        (pair[0], none), (pair[1], none),
        (sc.prepare_windows(none, none, none, none) is None, True),
    ]


def _all_large(netlist, grid):
    x, y = np.array([40.0, 55.0]), np.array([35.0, 45.0])
    w = np.array([8.0, 10.0]) * grid.bin_w
    h = np.array([9.0, 7.0]) * grid.bin_h
    sc = DensityScatter(grid)
    rng = np.random.default_rng(6)
    fa, fb = rng.normal(size=grid.shape), rng.normal(size=grid.shape)
    ga, gb = sc.gather_pair(fa, fb, x, y, w, h)
    return [
        (sc.prepare_windows(x, y, w, h) is None, True),
        (sc.scatter(x, y, w, h), rasterize_exact(grid, x, y, w, h)),
        (ga, sc.gather(fa, x, y, w, h)), (gb, sc.gather(fb, x, y, w, h)),
        (ga, per_cell_gather(grid, fa, x, y, w, h), RTOL),
    ]


@pytest.mark.parametrize("case", [_zero_pins, _zero_fillers, _all_large],
                         ids=["zero-pins", "zero-fillers", "all-large"])
def test_edge_populations(case, netlist, grid):
    """Empty and all-large populations run on the arena path: exact
    results, except the one check given a tolerance against a
    differently summed reference."""
    for check in case(netlist, grid):
        actual, expected = check[:2]
        if len(check) == 3:
            assert_close(actual, expected, rtol=check[2])
        else:
            np.testing.assert_array_equal(actual, expected)


class TestNoAliasing:
    """Results never live in the arena: a later call cannot change them."""

    @staticmethod
    def _check(ws, run):
        first = run(0)
        frozen = [np.array(arr, copy=True) for arr in first]
        second = run(1)
        for arr in list(first) + list(second):
            for buf in arena_buffers(ws):
                assert not np.shares_memory(arr, buf)
        for arr, copy in zip(first, frozen):
            assert np.array_equal(arr, copy)

    def test_operator_results(self, netlist):
        engine = GradientEngine(
            netlist, DensitySystem(netlist, rng=np.random.default_rng(1)),
            PlacementParams(),
        )
        ws, density = engine.workspace, engine.density
        sc, grid = density.scatter, density.grid
        mov = netlist.movable_index
        nv = engine.num_variables

        def wirelength(seed):
            res = engine.wirelength(*placement(netlist, seed), 2.0)
            return res.grad_x, res.grad_y

        def scatter_gather(seed):
            x, y = placement(netlist, seed)
            geometry = (x[mov], y[mov], netlist.cell_w[mov],
                        netlist.cell_h[mov])
            field = np.random.default_rng(seed).normal(size=grid.shape)
            win = sc.prepare_windows(*geometry, tag="@t")
            return (sc.scatter(*geometry), sc.scatter(*geometry, windows=win),
                    sc.gather(field, *geometry),
                    *sc.gather_pair(field, -field, *geometry, windows=win))

        def solve(seed):
            sol = density.solver.solve(
                np.random.default_rng(seed).uniform(size=grid.shape))
            return sol.potential, sol.field_x, sol.field_y

        def evaluate(seed):
            res = density.evaluate(*placement(netlist, seed))
            return (res.grad_x, res.grad_y, res.filler_grad_x,
                    res.filler_grad_y, res.density_map, res.total_map,
                    res.field.field_x)

        def precondition(seed):
            g = np.random.default_rng(seed).normal(size=nv)
            return engine.preconditioner.apply(g, -g, 0.5)

        for run in (wirelength, scatter_gather, solve, evaluate,
                    precondition):
            self._check(ws, run)

    def test_multi_region_density_result(self, fenced):
        system = DensitySystem(fenced, 0.9, rng=np.random.default_rng(0),
                               fence_groups=True)
        assert len(system.groups) == len(fenced.fences) + 1

        def evaluate(seed):
            res = system.evaluate(*placement(fenced, seed))
            return (res.grad_x, res.grad_y, res.filler_grad_x,
                    res.filler_grad_y, res.density_map, res.total_map)

        self._check(system.workspace, evaluate)


class TestSanitizedAndGradcheck:
    def test_gradcheck_all_passes(self):
        assert len(gradcheck_all()) > 0

    def test_sanitized_workspace_run_is_clean(self, netlist, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        try:
            params = PlacementParams(max_iterations=20, min_iterations=5)
            result = XPlacer(netlist, params).run()
            sanitizer = active()
            assert sanitizer is not None and sanitizer.checks > 0
            assert sanitizer.faults == 0
            assert np.isfinite(result.hpwl)
        finally:
            disable()


def _step(engine, pos_x, pos_y, gamma, lam, iteration):
    """One combined gradient step: compute + assemble."""
    result = engine.compute(iteration, pos_x, pos_y, gamma, lam)
    engine.assemble(result, pos_x, pos_y, lam)


def _assert_steady_state(engine, pos_x, pos_y, gamma, lam):
    ws = engine.workspace
    for i in range(3):  # warm the arena
        _step(engine, pos_x, pos_y, gamma, lam, i)
    buffers = ws.num_buffers
    ws.reset_counters()
    for i in range(10):  # steady state: hits only
        _step(engine, pos_x, pos_y, gamma, lam, 3 + i)
    assert ws.misses == 0 and ws.hits > 0
    assert ws.num_buffers == buffers
    assert ws.stats()["hit_rate"] == 1.0


class TestArenaSteadyState:
    def test_no_new_allocations_after_warmup(self, netlist):
        # operator_skipping off: every step pays the full wirelength +
        # density cost, so every hot buffer is exercised.
        params = PlacementParams(operator_skipping=False)
        density = DensitySystem(
            netlist, target_density=params.target_density,
            extraction=params.density_extraction,
            rng=np.random.default_rng(1),
        )
        engine = GradientEngine(netlist, density, params)
        x0, y0 = initial_positions(netlist, rng=np.random.default_rng(0))
        mov = netlist.movable_index
        pos_x = np.concatenate([x0[mov], density.fillers.x])
        pos_y = np.concatenate([y0[mov], density.fillers.y])
        bin_size = min(density.grid.bin_w, density.grid.bin_h)
        gamma = params.gamma(1.0, bin_size)  # iteration-0 smoothing
        _assert_steady_state(engine, pos_x, pos_y, gamma, 1e-4)

    def test_no_new_allocations_after_warmup_multi_fence(self, fenced):
        params = PlacementParams(fence_mode="multi", operator_skipping=False)
        density = DensitySystem(
            fenced, params.target_density, rng=np.random.default_rng(1),
            fence_groups=True,
        )
        engine = GradientEngine(fenced, density, params)
        assert density.scatter.workspace is engine.workspace
        x0, y0 = initial_positions(fenced, rng=np.random.default_rng(0))
        mov = fenced.movable_index
        pos_x = np.concatenate([x0[mov], density.fillers.x])
        pos_y = np.concatenate([y0[mov], density.fillers.y])
        _assert_steady_state(engine, pos_x, pos_y, 1.0, 1e-4)

    def test_density_evaluate_no_new_allocations(self, netlist, fenced):
        # The density systems on their own: the incidence handles and
        # their scratch are all warm after the first evaluation.
        single = DensitySystem(netlist, rng=np.random.default_rng(1))
        multi = DensitySystem(fenced, 0.9, rng=np.random.default_rng(0),
                              fence_groups=True)
        for system, design in ((single, netlist), (multi, fenced)):
            ws = system.workspace
            system.evaluate(*placement(design, 0))
            ws.reset_counters()
            for seed in (1, 2, 3):
                system.evaluate(*placement(design, seed))
            assert ws.misses == 0 and ws.hits > 0
