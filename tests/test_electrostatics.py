"""Spectral Poisson solver tests: oracle match, PDE residual, symmetry."""

import numpy as np
import pytest

from repro.density import BinGrid, DensitySystem, ElectrostaticSolver
from repro.density.electrostatics import _eval_cos, _eval_sin
from repro.benchgen import CircuitSpec, generate_circuit
from repro.netlist import PlacementRegion
from repro.ops import use_profiler


@pytest.fixture
def solver():
    grid = BinGrid(PlacementRegion(0, 0, 32, 32), 16)
    return ElectrostaticSolver(grid)


class TestTransformHelpers:
    def test_eval_cos_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        m = 12
        coef = rng.normal(size=m)
        i = np.arange(m)
        angles = np.pi * np.outer(np.arange(m), (2 * i + 1)) / (2 * m)
        expected = np.cos(angles).T @ coef
        np.testing.assert_allclose(_eval_cos(coef, axis=0), expected, atol=1e-12)

    def test_eval_sin_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        m = 12
        coef = rng.normal(size=m)
        i = np.arange(m)
        angles = np.pi * np.outer(np.arange(m), (2 * i + 1)) / (2 * m)
        expected = np.sin(angles).T @ coef
        np.testing.assert_allclose(
            _eval_sin(coef, axis=0, scratch=np.empty_like(coef)), expected,
            atol=1e-12,
        )

    def test_eval_along_axis1(self):
        rng = np.random.default_rng(2)
        m = 8
        coef = rng.normal(size=(m, m))
        by_axis1 = _eval_cos(coef, axis=1)
        by_axis0 = _eval_cos(coef.T, axis=0).T
        np.testing.assert_allclose(by_axis1, by_axis0, atol=1e-12)


class TestSolver:
    def test_matches_bruteforce_reference(self, solver):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0, 1, solver.grid.shape)
        fast = solver.solve(rho)
        ref = solver.solve_reference(rho)
        np.testing.assert_allclose(fast.potential, ref.potential, atol=1e-12)
        np.testing.assert_allclose(fast.field_x, ref.field_x, atol=1e-12)
        np.testing.assert_allclose(fast.field_y, ref.field_y, atol=1e-12)
        assert fast.energy == pytest.approx(ref.energy)

    @pytest.mark.parametrize("m", [16, 32])
    def test_parseval_energy_and_lazy_potential(self, m):
        # The solve takes the energy from the spectral coefficients and
        # transforms the potential only when it is read.
        grid = BinGrid(PlacementRegion(0, 0, 40, 24), m)
        solver = ElectrostaticSolver(grid)
        rho = np.random.default_rng(m).uniform(0, 2, grid.shape)
        ref = solver.solve_reference(rho)
        with use_profiler() as profiler:
            fast = solver.solve(rho)
            assert "idct_potential" not in profiler.counts
            assert fast.energy == pytest.approx(ref.energy, rel=1e-12)
            np.testing.assert_allclose(fast.potential, ref.potential,
                                       atol=1e-12)
            assert fast.potential is fast.potential
        assert profiler.counts["idct_potential"] == 1

    def test_poisson_residual_on_smooth_density(self, solver):
        grid = solver.grid
        m = grid.m
        x, y = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        rho = np.cos(np.pi * (x + 0.5) / m) * np.cos(np.pi * (y + 0.5) / m)
        sol = solver.solve(rho)
        psi = sol.potential
        bw, bh = grid.bin_w, grid.bin_h
        lap = (
            (psi[2:, 1:-1] - 2 * psi[1:-1, 1:-1] + psi[:-2, 1:-1]) / bw**2
            + (psi[1:-1, 2:] - 2 * psi[1:-1, 1:-1] + psi[1:-1, :-2]) / bh**2
        )
        residual = np.abs(lap + rho[1:-1, 1:-1]).max()
        assert residual < 0.01 * np.abs(rho).max()

    def test_potential_zero_mean(self, solver):
        rng = np.random.default_rng(4)
        rho = rng.uniform(0, 2, solver.grid.shape)
        sol = solver.solve(rho)
        assert abs(sol.potential.mean()) < 1e-10

    def test_uniform_density_gives_zero_field(self, solver):
        sol = solver.solve(np.full(solver.grid.shape, 0.7))
        assert np.abs(sol.field_x).max() < 1e-12
        assert np.abs(sol.field_y).max() < 1e-12
        assert sol.energy == pytest.approx(0.0, abs=1e-12)

    def test_field_points_away_from_charge_blob(self, solver):
        m = solver.grid.m
        rho = np.zeros(solver.grid.shape)
        rho[m // 2 - 1 : m // 2 + 1, m // 2 - 1 : m // 2 + 1] = 1.0
        sol = solver.solve(rho)
        # Field x component left of the blob is negative (pushes left).
        assert sol.field_x[2, m // 2] < 0
        assert sol.field_x[m - 3, m // 2] > 0
        assert sol.field_y[m // 2, 2] < 0
        assert sol.field_y[m // 2, m - 3] > 0

    def test_xy_symmetry(self, solver):
        """The PDE is symmetric under transposition (paper §3.3.1)."""
        rng = np.random.default_rng(5)
        rho = rng.uniform(0, 1, solver.grid.shape)
        sol = solver.solve(rho)
        sol_t = solver.solve(rho.T)
        np.testing.assert_allclose(sol_t.field_y, sol.field_x.T, atol=1e-10)
        np.testing.assert_allclose(sol_t.field_x, sol.field_y.T, atol=1e-10)

    def test_energy_nonnegative(self, solver):
        rng = np.random.default_rng(6)
        for __ in range(5):
            rho = rng.uniform(0, 3, solver.grid.shape)
            assert solver.solve(rho).energy >= -1e-9

    def test_shape_mismatch_rejected(self, solver):
        with pytest.raises(ValueError):
            solver.solve(np.zeros((4, 4)))


class TestDensitySystem:
    @pytest.fixture(scope="class")
    def netlist(self):
        return generate_circuit(CircuitSpec("ds", num_cells=300, num_macros=2))

    def test_extraction_matches_fused(self, netlist):
        """Operator extraction is a pure optimisation: same numbers."""
        rng = np.random.default_rng(0)
        region = netlist.region
        x = rng.uniform(region.xl, region.xh, netlist.num_cells)
        y = rng.uniform(region.yl, region.yh, netlist.num_cells)
        fast = DensitySystem(netlist, 0.9, extraction=True,
                             rng=np.random.default_rng(1))
        slow = DensitySystem(netlist, 0.9, extraction=False,
                             rng=np.random.default_rng(1))
        a = fast.evaluate(x, y)
        b = slow.evaluate(x, y)
        assert a.overflow == pytest.approx(b.overflow, rel=1e-9)
        assert a.energy == pytest.approx(b.energy, rel=1e-6)
        np.testing.assert_allclose(a.grad_x, b.grad_x, atol=1e-9)
        np.testing.assert_allclose(a.total_map, b.total_map, atol=1e-9)

    def test_gradient_aligned_with_finite_difference_of_energy(self, netlist):
        """The gathered-field force is ePlace's physical force, not the
        exact gradient of the *discretised* energy, so per-cell values can
        deviate; but as a descent direction it must align with the true
        finite-difference gradient (and carry the 2x self-adjoint factor:
        N = Σ qψ counts each interaction twice)."""
        rng = np.random.default_rng(1)
        region = netlist.region
        x = rng.uniform(region.xl + 5, region.xh - 5, netlist.num_cells)
        y = rng.uniform(region.yl + 5, region.yh - 5, netlist.num_cells)
        system = DensitySystem(netlist, 0.9, use_fillers=False)
        result = system.evaluate(x, y)
        eps = 1e-3
        probe = netlist.movable_index[:12]
        fd = np.empty(len(probe))
        for k, i in enumerate(probe):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd[k] = (
                system.evaluate(xp, y).energy - system.evaluate(xm, y).energy
            ) / (2 * eps)
        analytic = 2.0 * result.grad_x[probe]
        cosine = np.dot(fd, analytic) / (
            np.linalg.norm(fd) * np.linalg.norm(analytic)
        )
        assert cosine > 0.9
        # Magnitudes agree to within a factor ~2 on aggregate.
        assert np.linalg.norm(analytic) == pytest.approx(
            np.linalg.norm(fd), rel=0.5
        )

    def test_fixed_cells_have_zero_gradient(self, netlist):
        rng = np.random.default_rng(2)
        region = netlist.region
        x = rng.uniform(region.xl, region.xh, netlist.num_cells)
        y = rng.uniform(region.yl, region.yh, netlist.num_cells)
        result = DensitySystem(netlist, 0.9).evaluate(x, y)
        fixed = ~netlist.movable
        assert np.all(result.grad_x[fixed] == 0)
        assert np.all(result.grad_y[fixed] == 0)

    def test_invalid_target_density(self, netlist):
        with pytest.raises(ValueError):
            DensitySystem(netlist, target_density=0.0)
        with pytest.raises(ValueError):
            DensitySystem(netlist, target_density=1.5)

    def test_density_map_only_matches_evaluate(self, netlist):
        rng = np.random.default_rng(3)
        region = netlist.region
        x = rng.uniform(region.xl, region.xh, netlist.num_cells)
        y = rng.uniform(region.yl, region.yh, netlist.num_cells)
        system = DensitySystem(netlist, 0.9)
        np.testing.assert_allclose(
            system.density_map_only(x, y), system.evaluate(x, y).density_map
        )
