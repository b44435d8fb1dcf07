"""Tests for the core engine pieces: params, scheduler, recorder,
initializer, gradient engine."""

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate_circuit
from repro.core import (
    Evaluator,
    GradientEngine,
    PlacementParams,
    Recorder,
    Scheduler,
    initial_positions,
)
from repro.core.gradient_engine import sigma_of_omega
from repro.core.recorder import IterationRecord
from repro.density import DensitySystem


@pytest.fixture(scope="module")
def netlist():
    return generate_circuit(CircuitSpec("core", num_cells=200, num_macros=2))


@pytest.fixture(scope="module")
def density(netlist):
    return DensitySystem(netlist, 0.9, rng=np.random.default_rng(0))


class TestParams:
    def test_defaults_valid(self):
        PlacementParams()

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            PlacementParams(target_density=0)
        with pytest.raises(ValueError):
            PlacementParams(stop_overflow=-1)
        with pytest.raises(ValueError):
            PlacementParams(max_iterations=5, min_iterations=10)
        with pytest.raises(ValueError):
            PlacementParams(optimizer="sgd")
        with pytest.raises(ValueError):
            PlacementParams(slow_update_period=0)

    def test_gamma_schedule_endpoints(self):
        params = PlacementParams()
        # ePlace endpoints: 80·bin at OVFL=1, 0.8·bin at OVFL=0.1.
        assert params.gamma(1.0, bin_size=2.0) == pytest.approx(160.0, rel=1e-6)
        assert params.gamma(0.1, bin_size=2.0) == pytest.approx(1.6, rel=1e-6)

    def test_gamma_monotone_in_overflow(self):
        params = PlacementParams()
        gammas = [params.gamma(o, 1.0) for o in (1.0, 0.5, 0.2, 0.05)]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))


class TestScheduler:
    def test_lambda_initialization(self):
        sched = Scheduler(PlacementParams(), bin_size=1.0)
        lam = sched.initialize_lambda(100.0, 10.0)
        assert lam == pytest.approx(1e-2)

    def test_lambda_grows_with_updates(self):
        sched = Scheduler(PlacementParams(), bin_size=1.0)
        sched.initialize_lambda(100.0, 10.0)
        lam0 = sched.lam
        for i in range(5):
            sched.update(overflow=0.9, hpwl=1000.0 + i)
        assert sched.lam > lam0

    def test_lambda_stops_at_ceiling(self):
        # A stalled run keeps multiplying λ by μ; it must level off at
        # LAMBDA_MAX instead of overflowing to inf.
        from repro.core.scheduler import LAMBDA_MAX

        sched = Scheduler(PlacementParams(), bin_size=1.0)
        sched.initialize_lambda(100.0, 10.0)
        for _ in range(10000):
            sched.update(overflow=0.5, hpwl=1000.0)
        assert sched.lam == LAMBDA_MAX

    def test_mu_clamped_on_hpwl_spike(self):
        params = PlacementParams(delta_hpwl_ref=100.0)
        sched = Scheduler(params, bin_size=1.0)
        sched.initialize_lambda(1.0, 1.0)
        sched.update(0.9, hpwl=0.0)
        lam_before = sched.lam
        # Enormous HPWL regression → μ clamps at mu_min.
        sched.update(0.9, hpwl=1e9)
        assert sched.lam == pytest.approx(lam_before * params.mu_min)

    def test_stage_aware_slows_updates(self):
        sched = Scheduler(PlacementParams(), bin_size=1.0)
        decisions = [sched.should_update_params(omega=0.7) for __ in range(6)]
        assert decisions == [False, False, True, False, False, True]

    def test_updates_every_iteration_outside_band(self):
        sched = Scheduler(PlacementParams(), bin_size=1.0)
        assert all(sched.should_update_params(omega=0.1) for __ in range(4))
        assert all(sched.should_update_params(omega=0.99) for __ in range(4))

    def test_stage_aware_off(self):
        sched = Scheduler(PlacementParams(stage_aware_schedule=False), 1.0)
        assert all(sched.should_update_params(omega=0.7) for __ in range(5))

    def test_stop_conditions(self):
        params = PlacementParams(min_iterations=10, max_iterations=50,
                                 stop_overflow=0.07)
        sched = Scheduler(params, 1.0)
        assert not sched.should_stop(iteration=3, overflow=0.01)  # too early
        assert sched.should_stop(iteration=20, overflow=0.05)
        assert not sched.should_stop(iteration=20, overflow=0.5)
        assert sched.should_stop(iteration=49, overflow=0.5)  # max iters

    def test_update_before_init_raises(self):
        sched = Scheduler(PlacementParams(), 1.0)
        with pytest.raises(RuntimeError):
            sched.update(0.5, 100.0)


class TestRecorder:
    def _record(self, i, hpwl=1.0, skip=False):
        return IterationRecord(
            iteration=i, hpwl=hpwl, wa=hpwl, overflow=0.5, gamma=1.0,
            lam=0.1, omega=0.2, grad_ratio=0.01,
            density_computed=not skip, step_length=1.0,
        )

    def test_traces(self):
        rec = Recorder()
        for i in range(5):
            rec.log(self._record(i, hpwl=10.0 - i))
        assert len(rec) == 5
        assert rec.trace("hpwl").tolist() == [10, 9, 8, 7, 6]
        assert rec.best_hpwl() == 6
        assert rec.last.iteration == 4

    def test_skip_count(self):
        rec = Recorder()
        rec.log(self._record(0))
        rec.log(self._record(1, skip=True))
        rec.log(self._record(2, skip=True))
        assert rec.density_skip_count() == 2

    def test_empty_summary(self):
        rec = Recorder()
        assert "no iterations" in rec.summary()
        assert rec.best_hpwl() == float("inf")
        assert rec.last is None


class TestInitializer:
    def test_movable_near_center(self, netlist):
        x, y = initial_positions(netlist, rng=np.random.default_rng(0))
        region = netlist.region
        mov = netlist.movable
        assert abs(np.mean(x[mov]) - region.center[0]) < 0.2 * region.width
        assert abs(np.mean(y[mov]) - region.center[1]) < 0.2 * region.height
        assert np.std(x[mov]) < 0.1 * region.width

    def test_fixed_cells_untouched(self, netlist):
        x, y = initial_positions(netlist)
        fixed = ~netlist.movable
        np.testing.assert_array_equal(x[fixed], netlist.fixed_x[fixed])
        np.testing.assert_array_equal(y[fixed], netlist.fixed_y[fixed])

    def test_inside_region(self, netlist):
        x, y = initial_positions(netlist)
        mov = netlist.movable
        region = netlist.region
        assert np.all(x[mov] >= region.xl) and np.all(x[mov] <= region.xh)

    def test_deterministic(self, netlist):
        a = initial_positions(netlist, rng=np.random.default_rng(5))
        b = initial_positions(netlist, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a[0], b[0])


class TestSigma:
    def test_sigma_high_early_low_late(self):
        assert sigma_of_omega(0.0) > 0.8
        assert sigma_of_omega(0.5) < 0.01
        assert sigma_of_omega(0.95) < 1e-6

    def test_sigma_monotone_decreasing(self):
        omegas = np.linspace(0, 1, 21)
        sigmas = [sigma_of_omega(o) for o in omegas]
        assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))
        assert all(0 <= s <= 1 for s in sigmas)


class TestGradientEngine:
    def test_compute_and_assemble_shapes(self, netlist, density):
        params = PlacementParams()
        engine = GradientEngine(netlist, density, params)
        rng = np.random.default_rng(0)
        n = engine.num_variables
        region = netlist.region
        pos_x = rng.uniform(region.xl, region.xh, n)
        pos_y = rng.uniform(region.yl, region.yh, n)
        result = engine.compute(0, pos_x, pos_y, gamma=5.0, lam_for_skip=0.0)
        assert result.wl_grad_x.shape == (n,)
        assert result.density_grad_x.shape == (n,)
        assert np.isfinite(result.hpwl)
        gx, gy = engine.assemble(result, pos_x, pos_y, lam=0.01)
        assert gx.shape == (n,) and gy.shape == (n,)
        assert np.all(np.isfinite(gx))

    def test_fillers_feel_no_wirelength(self, netlist, density):
        engine = GradientEngine(netlist, density, PlacementParams())
        rng = np.random.default_rng(1)
        n = engine.num_variables
        region = netlist.region
        pos_x = rng.uniform(region.xl, region.xh, n)
        pos_y = rng.uniform(region.yl, region.yh, n)
        result = engine.compute(0, pos_x, pos_y, 5.0, 0.0)
        nm = len(netlist.movable_index)
        assert np.all(result.wl_grad_x[nm:] == 0)
        assert np.all(result.wl_grad_y[nm:] == 0)

    def test_skipping_reuses_cache(self, netlist, density):
        params = PlacementParams(operator_skipping=True)
        engine = GradientEngine(netlist, density, params)
        rng = np.random.default_rng(2)
        n = engine.num_variables
        region = netlist.region
        pos_x = rng.uniform(region.xl, region.xh, n)
        pos_y = rng.uniform(region.yl, region.yh, n)
        first = engine.compute(0, pos_x, pos_y, 5.0, lam_for_skip=1e-9)
        assert first.density_computed
        second = engine.compute(1, pos_x + 0.1, pos_y, 5.0, lam_for_skip=1e-9)
        assert not second.density_computed
        assert second.overflow == first.overflow

    def test_no_skipping_when_disabled(self, netlist, density):
        params = PlacementParams(operator_skipping=False)
        engine = GradientEngine(netlist, density, params)
        rng = np.random.default_rng(3)
        n = engine.num_variables
        region = netlist.region
        pos_x = rng.uniform(region.xl, region.xh, n)
        pos_y = rng.uniform(region.yl, region.yh, n)
        engine.compute(0, pos_x, pos_y, 5.0, 1e-9)
        second = engine.compute(1, pos_x, pos_y, 5.0, 1e-9)
        assert second.density_computed

    def test_neural_blending_changes_gradient(self, netlist, density):
        params = PlacementParams(neural_guidance=True)

        def fake_predictor(density_map):
            return np.ones_like(density_map), -np.ones_like(density_map)

        engine = GradientEngine(netlist, density, params, fake_predictor)
        rng = np.random.default_rng(4)
        n = engine.num_variables
        region = netlist.region
        pos_x = rng.uniform(region.xl, region.xh, n)
        pos_y = rng.uniform(region.yl, region.yh, n)
        result = engine.compute(0, pos_x, pos_y, 5.0, 0.0)
        plain_x, __ = engine.assemble(result, pos_x, pos_y, lam=0.1, sigma=0.0)
        blended_x, __ = engine.assemble(result, pos_x, pos_y, lam=0.1, sigma=0.9)
        assert not np.allclose(plain_x, blended_x)


class TestEvaluator:
    def test_matches_direct_hpwl(self, netlist, density):
        from repro.wirelength import hpwl

        evaluator = Evaluator(netlist, density)
        rng = np.random.default_rng(5)
        region = netlist.region
        x = rng.uniform(region.xl, region.xh, netlist.num_cells)
        y = rng.uniform(region.yl, region.yh, netlist.num_cells)
        ev = evaluator.evaluate(x, y)
        assert ev.hpwl == pytest.approx(hpwl(netlist, x, y))
        assert ev.overflow >= 0
        assert ev.max_density > 0
