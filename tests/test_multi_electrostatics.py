"""Tests for fence-grouped density (multi-electrostatics).

``DensitySystem(fence_groups=True)`` runs one electrostatic system per
cell group in one loop.  :func:`reference_groups` and
:func:`reference_evaluate` are the separate per-group system it replaced,
kept here as the reference: per-group filler seeding over allowed bins,
a global movable scatter for the overflow map, and per group the member
scatter with the fillers accumulated onto it before the division.  The
merged loop adds ``member/bin + obstruction`` and then ``filler/bin``,
so results agree up to the order of those additions.
"""

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate_circuit
from repro.core import PlacementParams, XPlacer
from repro.density import DensityScatter, DensitySystem
from repro.density.overflow import overflow_ratio
from repro.dtypes import FLOAT
from repro.legalize import FenceAwareLegalizer, check_legal

#: Relative agreement, of each array's largest magnitude, between the
#: merged loop and the reference.
RTOL = 1e-12


@pytest.fixture(scope="module")
def fenced():
    return generate_circuit(
        CircuitSpec("me", num_cells=400, num_macros=2, num_fences=2,
                    utilization=0.5)
    )


def random_placement(netlist, seed):
    rng = np.random.default_rng(seed)
    region = netlist.region
    return (rng.uniform(region.xl, region.xh, netlist.num_cells),
            rng.uniform(region.yl, region.yh, netlist.num_cells))


# ----------------------------------------------------------------------
# The reference: one separately built system per group.
# ----------------------------------------------------------------------
def reference_groups(netlist, grid, fixed_density, target, rng):
    """Per group: (netlist cell indices, allowed bins, obstruction,
    filler x, y, width, height), seeded in group order -1, 0, 1, ..."""
    region = netlist.region
    xs, ys = grid.centers()
    cx, cy = np.meshgrid(xs, ys, indexing="ij")
    mov = netlist.movable_index
    fence_of = netlist.cell_fence[mov]
    groups = []
    for g in [-1] + list(range(len(netlist.fences))):
        if g >= 0:
            allowed = netlist.fences[g].contains(cx, cy)
        else:
            allowed = np.ones(grid.shape, dtype=bool)
            for fence in netlist.fences:
                allowed &= ~fence.contains(cx, cy)
        obstruction = np.where(allowed, fixed_density, target)
        cells = mov[fence_of == g]
        member_area = float(np.sum(netlist.cell_area[cells]))
        free = float(np.sum((target - obstruction)[allowed])) * grid.bin_area
        filler_area = max(free - member_area, 0.0)
        if cells.size:
            fw = float(np.mean(netlist.cell_w[cells]))
            fh = float(np.mean(netlist.cell_h[cells]))
        else:
            fw = fh = 1.0
        fw, fh = max(fw, 1e-6), max(fh, 1e-6)
        count = int(filler_area / (fw * fh))
        allowed_bins = np.argwhere(allowed)
        if count and len(allowed_bins):
            picks = allowed_bins[rng.integers(0, len(allowed_bins), count)]
            jitter = rng.uniform(0, 1, (count, 2))
            fx = region.xl + (picks[:, 0] + jitter[:, 0]) * grid.bin_w
            fy = region.yl + (picks[:, 1] + jitter[:, 1]) * grid.bin_h
        else:
            fx = fy = np.empty(0, dtype=FLOAT)
        groups.append((cells, allowed, obstruction, fx, fy, fw, fh))
    return groups


def reference_evaluate(system, groups, x, y, filler_x, filler_y):
    """The per-group evaluate: (overflow, energy, grad_x, grad_y,
    filler_grad_x, filler_grad_y, density_map, Σ filler map / bin)."""
    netlist, grid = system.netlist, system.grid
    sc = DensityScatter(grid)
    bin_area = grid.bin_area
    mov = netlist.movable_index
    mw, mh = netlist.cell_w[mov], netlist.cell_h[mov]
    density = sc.scatter(x[mov], y[mov], mw, mh) / bin_area \
        + system._fixed_density
    overflow = overflow_ratio(density, grid, system.target_density,
                              system.movable_area)
    grad_x = np.zeros(netlist.num_cells)
    grad_y = np.zeros(netlist.num_cells)
    filler_gx, filler_gy = [], []
    fill_map = np.zeros(grid.shape)
    energy = 0.0
    lo = 0
    for cells, _allowed, obstruction, fx0, _fy0, fw, fh in groups:
        hi = lo + len(fx0)
        gx, gy = x[cells], y[cells]
        gw, gh = netlist.cell_w[cells], netlist.cell_h[cells]
        fx, fy = filler_x[lo:hi], filler_y[lo:hi]
        fws, fhs = np.full(hi - lo, fw), np.full(hi - lo, fh)
        group_map = sc.scatter(gx, gy, gw, gh)
        sc.scatter(fx, fy, fws, fhs, out=group_map)
        solution = system.solver.solve(group_map / bin_area + obstruction)
        energy += solution.energy
        grad_x[cells] = -sc.gather(solution.field_x, gx, gy, gw, gh)
        grad_y[cells] = -sc.gather(solution.field_y, gx, gy, gw, gh)
        filler_gx.append(-sc.gather(solution.field_x, fx, fy, fws, fhs))
        filler_gy.append(-sc.gather(solution.field_y, fx, fy, fws, fhs))
        fill_map += sc.scatter(fx, fy, fws, fhs) / bin_area
        lo = hi
    return (overflow, energy, grad_x, grad_y, np.concatenate(filler_gx),
            np.concatenate(filler_gy), density, fill_map)


def assert_close(actual, expected):
    expected = np.asarray(expected, dtype=FLOAT)
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    np.testing.assert_allclose(actual, expected, rtol=RTOL,
                               atol=RTOL * scale)


# ----------------------------------------------------------------------
class TestMultiRegionSystem:
    @pytest.fixture(scope="class")
    def system(self, fenced):
        return DensitySystem(fenced, 0.9, rng=np.random.default_rng(0),
                             fence_groups=True)

    @pytest.fixture(scope="class")
    def reference(self, system):
        return reference_groups(system.netlist, system.grid,
                                system._fixed_density, 0.9,
                                np.random.default_rng(0))

    def test_fence_free_netlist_is_one_group(self):
        plain = generate_circuit(CircuitSpec("nf", num_cells=100))
        system = DensitySystem(plain, 0.9, fence_groups=True)
        [group] = system.groups
        assert group.fence == -1
        np.testing.assert_array_equal(group.cells, plain.movable_index)
        assert group.obstruction is system._fixed_density
        assert group.fillers == slice(0, system.fillers.count)

    def test_group_partition(self, fenced, system):
        # default group + one per fence, covering all movable cells once.
        assert [g.fence for g in system.groups] == [-1, 0, 1]
        cells = np.concatenate([g.cells for g in system.groups])
        np.testing.assert_array_equal(np.sort(cells), fenced.movable_index)

    def test_obstruction_maps(self, system, reference):
        for group, (_cells, allowed, *_rest) in zip(system.groups,
                                                    reference):
            # Obstruction equals target density outside the allowed area.
            assert np.all(group.obstruction[~allowed]
                          == system.target_density)

    def test_groups_and_fillers_match_reference(self, system, reference):
        fillers = system.fillers
        for group, (cells, _allowed, obstruction, fx, fy, fw, fh) in zip(
                system.groups, reference):
            np.testing.assert_array_equal(group.cells, cells)
            np.testing.assert_array_equal(group.obstruction, obstruction)
            np.testing.assert_array_equal(fillers.x[group.fillers], fx)
            np.testing.assert_array_equal(fillers.y[group.fillers], fy)
            assert np.all(fillers.w[group.fillers] == fw)
            assert np.all(fillers.h[group.fillers] == fh)
        assert system.groups[-1].fillers.stop == fillers.count

    def test_rng_stream_unchanged_without_fillers(self, fenced):
        # Fillers are seeded and dropped, so what the caller draws next
        # does not depend on use_fillers.
        with_rng, without_rng = (np.random.default_rng(5) for _ in "ab")
        DensitySystem(fenced, 0.9, rng=with_rng, fence_groups=True)
        system = DensitySystem(fenced, 0.9, rng=without_rng,
                               use_fillers=False, fence_groups=True)
        assert system.fillers.count == 0
        assert with_rng.random() == without_rng.random()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_evaluate_matches_reference(self, fenced, system, reference,
                                        seed):
        x, y = random_placement(fenced, seed)
        rng = np.random.default_rng(100 + seed)
        region = fenced.region
        filler_x = rng.uniform(region.xl, region.xh, system.fillers.count)
        filler_y = rng.uniform(region.yl, region.yh, system.fillers.count)
        (overflow, energy, grad_x, grad_y, filler_gx, filler_gy, density,
         fill_map) = reference_evaluate(system, reference, x, y, filler_x,
                                        filler_y)
        results = [system.evaluate(x, y, filler_x, filler_y)]
        fused = DensitySystem(fenced, 0.9, extraction=False,
                              rng=np.random.default_rng(0),
                              fence_groups=True)
        results.append(fused.evaluate(x, y, filler_x, filler_y))
        for result in results:
            assert result.overflow == pytest.approx(overflow, rel=RTOL)
            assert result.energy == pytest.approx(energy, rel=RTOL)
            assert_close(result.grad_x, grad_x)
            assert_close(result.grad_y, grad_y)
            assert_close(result.filler_grad_x, filler_gx)
            assert_close(result.filler_grad_y, filler_gy)
            assert_close(result.density_map, density)
            # The die-wide D̃: D plus every group's filler map.
            assert_close(result.total_map, density + fill_map)

    def test_evaluate_shapes(self, fenced, system):
        x, y = random_placement(fenced, 1)
        result = system.evaluate(x, y)
        assert result.grad_x.shape == (fenced.num_cells,)
        assert result.filler_grad_x.shape == (system.fillers.count,)
        assert np.isfinite(result.energy)
        assert result.overflow >= 0

    def test_field_pushes_members_toward_their_fence(self, fenced, system):
        """A member far outside its fence must feel a net force whose
        descent direction points toward the fence."""
        region = fenced.region
        x = np.where(np.isnan(fenced.fixed_x), 0.0, fenced.fixed_x).copy()
        y = np.where(np.isnan(fenced.fixed_y), 0.0, fenced.fixed_y).copy()
        mov = fenced.movable_index
        rng = np.random.default_rng(2)
        x[mov] = rng.uniform(region.xl, region.xh, len(mov))
        y[mov] = rng.uniform(region.yl, region.yh, len(mov))
        # Pick a fence-0 member and plant it far from the fence box.
        member = mov[fenced.cell_fence[mov] == 0][0]
        (bxl, byl, bxh, byh) = fenced.fences[0].boxes[0]
        box_cx, box_cy = (bxl + bxh) / 2, (byl + byh) / 2
        # Far corner of the die.
        far_x = region.xl + 2.0 if box_cx > region.center[0] else region.xh - 2.0
        far_y = region.yl + 2.0 if box_cy > region.center[1] else region.yh - 2.0
        x[member], y[member] = far_x, far_y
        result = system.evaluate(x, y)
        step_x = -result.grad_x[member]
        step_y = -result.grad_y[member]
        toward = np.array([box_cx - far_x, box_cy - far_y])
        step = np.array([step_x, step_y])
        cosine = np.dot(step, toward) / (
            np.linalg.norm(step) * np.linalg.norm(toward) + 1e-30
        )
        assert cosine > 0.3

    def test_density_map_only_is_global(self, fenced, system):
        x, y = random_placement(fenced, 3)
        density = system.density_map_only(x, y)
        assert density.shape == system.grid.shape
        assert_close(density, system.evaluate(x, y).density_map)


class TestMultiModeFlow:
    def test_placer_converges_and_legalizes(self, fenced):
        params = PlacementParams(fence_mode="multi", max_iterations=600)
        result = XPlacer(fenced, params).run()
        assert result.overflow < 0.12
        lx, ly = FenceAwareLegalizer(fenced).legalize(result.x, result.y)
        report = check_legal(fenced, lx, ly)
        assert report.legal, report.summary()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="fence_mode"):
            PlacementParams(fence_mode="teleport")

    def test_multi_mode_on_fence_free_design_falls_back(self):
        plain = generate_circuit(CircuitSpec("nf2", num_cells=150))
        params = PlacementParams(fence_mode="multi", max_iterations=200)
        placer = XPlacer(plain, params)
        assert len(placer.density.groups) == 1

    def test_clamp_keeps_group_fillers_inside_the_die(self, fenced):
        # Each group's fillers have that group's own width: clamping
        # with one shared width lets the wider ones poke out of the die.
        placer = XPlacer(fenced, PlacementParams(fence_mode="multi"))
        fillers = placer.density.fillers
        assert len(np.unique(fillers.w)) > 1
        region = fenced.region
        mov = fenced.movable_index
        x0, y0 = fenced.initial_positions()
        pos_x = np.concatenate([x0[mov], np.full(fillers.count,
                                                 region.xh + 5.0)])
        pos_y = np.concatenate([y0[mov], np.full(fillers.count,
                                                 region.yh + 5.0)])
        px, py = placer._make_clamp()(pos_x, pos_y)
        fx, fy = px[len(mov):], py[len(mov):]
        tol = 1e-9
        assert np.all(fx + fillers.w / 2 <= region.xh + tol)
        assert np.all(fx - fillers.w / 2 >= region.xl - tol)
        assert np.all(fy + fillers.h / 2 <= region.yh + tol)
        assert np.all(fy - fillers.h / 2 >= region.yl - tol)
