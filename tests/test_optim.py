"""Tests for optimizers and the preconditioner."""

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate_circuit
from repro.density import FillerCells
from repro.optim import AdamOptimizer, NesterovOptimizer, Preconditioner


def quadratic_problem(n=20, seed=0):
    """Convex quadratic f(x) = Σ d_i (x_i - c_i)^2 with known optimum."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 3.0, n)
    cx = rng.uniform(-5, 5, n)
    cy = rng.uniform(-5, 5, n)

    def grad(x, y):
        return 2 * d * (x - cx), 2 * d * (y - cy)

    return grad, cx, cy


class TestNesterov:
    def test_converges_on_quadratic(self):
        grad, cx, cy = quadratic_problem()
        opt = NesterovOptimizer(np.zeros(20), np.zeros(20), initial_step=0.05)
        for __ in range(200):
            vx, vy = opt.positions
            opt.step(*grad(vx, vy))
        sx, sy = opt.solution
        assert np.abs(sx - cx).max() < 1e-3
        assert np.abs(sy - cy).max() < 1e-3

    def test_lipschitz_step_adapts(self):
        grad, __, __ = quadratic_problem()
        opt = NesterovOptimizer(np.zeros(20), np.zeros(20), initial_step=1e-6)
        for __ in range(3):
            vx, vy = opt.positions
            opt.step(*grad(vx, vy))
        # After observing two gradients the step should have grown toward
        # the inverse Lipschitz constant (~1/6 for max curvature 6).
        assert opt.step_length > 1e-6

    def test_max_step_respected(self):
        grad, __, __ = quadratic_problem()
        opt = NesterovOptimizer(
            np.zeros(20), np.zeros(20), initial_step=10.0, max_step=0.01
        )
        vx, vy = opt.positions
        opt.step(*grad(vx, vy))
        assert opt.step_length <= 0.01

    def test_bound_first_step_sets_initial_alpha(self):
        grad, __, __ = quadratic_problem()
        opt = NesterovOptimizer(np.zeros(20), np.zeros(20), initial_step=1.0)
        opt.bound_first_step(0.025)
        assert opt.step_length == 0.025
        vx, vy = opt.positions
        opt.step(*grad(vx, vy))  # first step uses the bounded alpha

    def test_bound_first_step_rejected_after_stepping(self):
        grad, __, __ = quadratic_problem()
        opt = NesterovOptimizer(np.zeros(20), np.zeros(20), initial_step=0.05)
        vx, vy = opt.positions
        opt.step(*grad(vx, vy))
        with pytest.raises(RuntimeError, match="before the first step"):
            opt.bound_first_step(0.01)

    def test_bound_first_step_rejects_nonpositive(self):
        opt = NesterovOptimizer(np.zeros(20), np.zeros(20))
        with pytest.raises(ValueError, match="positive"):
            opt.bound_first_step(0.0)

    def test_clamp_applies_to_both_solutions(self):
        opt = NesterovOptimizer(np.array([5.0]), np.array([5.0]), initial_step=1.0)
        opt.step(np.array([100.0]), np.array([100.0]))

        def clamp(x, y):
            return np.clip(x, 0, 10), np.clip(y, 0, 10)

        opt.clamp(clamp)
        assert 0 <= opt.solution[0][0] <= 10
        assert 0 <= opt.positions[0][0] <= 10

    def test_reset_momentum(self):
        grad, __, __ = quadratic_problem()
        opt = NesterovOptimizer(np.zeros(20), np.zeros(20), initial_step=0.05)
        for __ in range(5):
            vx, vy = opt.positions
            opt.step(*grad(vx, vy))
        opt.reset_momentum()
        np.testing.assert_array_equal(opt.positions[0], opt.solution[0])

    def test_faster_than_plain_gradient_descent(self):
        """Acceleration sanity: Nesterov beats GD on an ill-conditioned
        quadratic at equal step length and iteration budget."""
        rng = np.random.default_rng(1)
        d = np.concatenate([np.full(10, 0.05), np.full(10, 3.0)])
        c = rng.uniform(-5, 5, 20)

        def grad(x):
            return 2 * d * (x - c)

        step = 0.15
        x_gd = np.zeros(20)
        opt = NesterovOptimizer(np.zeros(20), np.zeros(20), initial_step=step,
                                max_step=step)
        for __ in range(150):
            x_gd = x_gd - step * grad(x_gd)
            vx, vy = opt.positions
            opt.step(grad(vx), np.zeros(20))
        err_gd = np.abs(x_gd - c).max()
        err_nesterov = np.abs(opt.solution[0] - c).max()
        assert err_nesterov < err_gd


class TestAdam:
    def test_converges_on_quadratic(self):
        grad, cx, cy = quadratic_problem()
        opt = AdamOptimizer(np.zeros(20), np.zeros(20), lr=0.3)
        for __ in range(800):
            x, y = opt.positions
            opt.step(*grad(x, y))
        assert np.abs(opt.solution[0] - cx).max() < 0.05

    def test_step_magnitude_bounded_by_lr(self):
        opt = AdamOptimizer(np.zeros(4), np.zeros(4), lr=0.5)
        x_before = opt.positions[0].copy()
        opt.step(np.full(4, 1e9), np.zeros(4))
        displacement = np.abs(opt.positions[0] - x_before).max()
        assert displacement <= 0.5 * 1.01

    def test_reset(self):
        opt = AdamOptimizer(np.zeros(4), np.zeros(4))
        opt.step(np.ones(4), np.ones(4))
        opt.reset_momentum()
        assert opt._t == 0
        assert np.all(opt._mx == 0)


class TestPreconditioner:
    @pytest.fixture(scope="class")
    def setup(self):
        nl = generate_circuit(CircuitSpec("pre", num_cells=120, num_macros=0))
        fillers = FillerCells.for_netlist(nl, 0.9)
        return nl, fillers, Preconditioner(nl, fillers)

    def test_omega_monotone_in_lambda(self, setup):
        __, __, pre = setup
        omegas = [pre.omega(lam) for lam in (1e-6, 1e-3, 1e-1, 10.0)]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))
        assert 0 <= omegas[0] < omegas[-1] <= 1

    def test_omega_limits(self, setup):
        __, __, pre = setup
        assert pre.omega(0.0) == 0.0
        assert pre.omega(1e12) == pytest.approx(1.0, abs=1e-6)

    def test_lambda_for_omega_inverts(self, setup):
        __, __, pre = setup
        for target in (0.05, 0.5, 0.95):
            lam = pre.lambda_for_omega(target)
            assert pre.omega(lam) == pytest.approx(target, rel=1e-9)

    def test_apply_shrinks_high_degree_cells_more(self, setup):
        nl, fillers, pre = setup
        n = nl.num_movable + fillers.count
        gx = np.ones(n)
        gy = np.ones(n)
        out_x, __ = pre.apply(gx, gy, lam=0.0)
        # With λ=0 the denominator is max(|S_i|, 1): higher-degree movable
        # cells get smaller preconditioned gradients.
        degrees = nl.cell_num_nets[nl.movable_index]
        hi = np.argmax(degrees)
        lo = np.argmin(degrees)
        if degrees[hi] > max(degrees[lo], 1):
            assert out_x[hi] < out_x[lo]

    def test_filler_rows_use_area_only(self, setup):
        nl, fillers, pre = setup
        if fillers.count == 0:
            pytest.skip("no fillers for this spec")
        n = nl.num_movable + fillers.count
        out_x, __ = pre.apply(np.ones(n), np.ones(n), lam=2.0)
        expected = 1.0 / np.maximum(2.0 * fillers.w * fillers.h, 1.0)
        np.testing.assert_allclose(out_x[nl.num_movable:], expected)

    def test_invalid_omega_rejected(self, setup):
        __, __, pre = setup
        with pytest.raises(ValueError):
            pre.lambda_for_omega(1.0)
