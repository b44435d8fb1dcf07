"""Unit + property tests for HPWL / WA / LSE wirelength operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import CircuitSpec, generate_circuit
from repro.netlist import NetlistBuilder, PlacementRegion
from repro.wirelength import (
    WirelengthOp,
    hpwl,
    hpwl_per_net,
    lse_wirelength,
    wa_wirelength_and_grad,
)


@pytest.fixture(scope="module")
def circuit():
    return generate_circuit(CircuitSpec("wl", num_cells=60, num_macros=0, num_pads=4))


@pytest.fixture(scope="module")
def placement(circuit):
    rng = np.random.default_rng(7)
    x = rng.uniform(10, 90, circuit.num_cells)
    y = rng.uniform(10, 90, circuit.num_cells)
    return x, y


def two_cell_net():
    builder = NetlistBuilder()
    builder.set_region(PlacementRegion(0, 0, 100, 100))
    builder.add_cell("a", 2, 2)
    builder.add_cell("b", 2, 2)
    builder.add_net("n", [("a", 0, 0), ("b", 0, 0)])
    return builder.build()


class TestHPWL:
    def test_two_pin_net_manhattan_box(self):
        nl = two_cell_net()
        x = np.array([10.0, 30.0])
        y = np.array([5.0, 25.0])
        assert hpwl(nl, x, y) == pytest.approx(40.0)

    def test_translation_invariance(self, circuit, placement):
        x, y = placement
        base = hpwl(circuit, x, y)
        shifted = hpwl(circuit, x + 13.7, y - 4.2)
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_degenerate_nets_contribute_zero(self):
        builder = NetlistBuilder()
        builder.set_region(PlacementRegion(0, 0, 10, 10))
        builder.add_cell("a", 1, 1)
        builder.add_net("solo", [("a", 0, 0)])
        builder.add_net("void", [])
        nl = builder.build()
        assert hpwl(nl, np.array([5.0]), np.array([5.0])) == 0.0

    def test_net_weights_scale_result(self):
        builder = NetlistBuilder()
        builder.set_region(PlacementRegion(0, 0, 100, 100))
        builder.add_cell("a", 2, 2)
        builder.add_cell("b", 2, 2)
        builder.add_net("n", [("a", 0, 0), ("b", 0, 0)], weight=2.5)
        nl = builder.build()
        x = np.array([0.0, 10.0])
        y = np.array([0.0, 0.0])
        assert hpwl(nl, x, y) == pytest.approx(25.0)

    def test_per_net_values(self, circuit, placement):
        x, y = placement
        per_net = hpwl_per_net(circuit, x, y)
        assert per_net.shape == (circuit.num_nets,)
        assert np.all(per_net >= 0)
        total = float(np.sum(per_net * circuit.net_weight))
        assert total == pytest.approx(hpwl(circuit, x, y))

    @given(dx=st.floats(-50, 50), dy=st.floats(-50, 50))
    @settings(max_examples=20, deadline=None)
    def test_translation_invariance_property(self, dx, dy):
        nl = two_cell_net()
        x = np.array([10.0, 30.0])
        y = np.array([5.0, 25.0])
        assert hpwl(nl, x + dx, y + dy) == pytest.approx(hpwl(nl, x, y), abs=1e-8)


class TestWA:
    def test_wa_bounds_hpwl_below(self, circuit, placement):
        x, y = placement
        result = WirelengthOp(circuit)(x, y, gamma=2.0)
        assert result.wa <= result.hpwl + 1e-9

    def test_wa_converges_to_hpwl_as_gamma_shrinks(self, circuit, placement):
        x, y = placement
        op = WirelengthOp(circuit)
        exact = hpwl(circuit, x, y)
        errors = [abs(op(x, y, g).wa - exact) for g in (8.0, 2.0, 0.5)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] / max(exact, 1) < 0.01

    def test_combined_hpwl_matches_standalone(self, circuit, placement):
        x, y = placement
        result = WirelengthOp(circuit)(x, y, gamma=1.0)
        assert result.hpwl == pytest.approx(hpwl(circuit, x, y), rel=1e-12)

    def test_uncombined_mode_same_values(self, circuit, placement):
        x, y = placement
        fused = WirelengthOp(circuit, combined=True)(x, y, 1.5)
        split = WirelengthOp(circuit, combined=False)(x, y, 1.5)
        assert fused.wa == pytest.approx(split.wa)
        assert fused.hpwl == pytest.approx(split.hpwl)
        np.testing.assert_allclose(fused.grad_x, split.grad_x)

    def test_gradient_matches_finite_difference(self, circuit, placement):
        x, y = placement
        op = WirelengthOp(circuit)
        gamma = 3.0
        result = op(x, y, gamma)
        eps = 1e-5
        rng = np.random.default_rng(1)
        for i in rng.choice(circuit.num_cells, 6, replace=False):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (op(xp, y, gamma).wa - op(xm, y, gamma).wa) / (2 * eps)
            assert result.grad_x[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_gradient_sums_to_zero(self, circuit, placement):
        x, y = placement
        result = WirelengthOp(circuit)(x, y, gamma=2.0)
        assert result.grad_x.sum() == pytest.approx(0.0, abs=1e-8)
        assert result.grad_y.sum() == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 4.0])
    @pytest.mark.parametrize("offset", [1e3, 1e5])
    def test_gradient_translation_invariant(
        self, circuit, placement, gamma, offset
    ):
        # Far from the origin x/γ is large; the gradient's 1 + (x − WA)/γ
        # must not lose the O(1) part to cancellation.
        x, y = placement
        op = WirelengthOp(circuit)
        base = op(x, y, gamma)
        grad_x, grad_y = base.grad_x.copy(), base.grad_y.copy()
        shifted = op(x + offset, y + offset, gamma)
        for moved, ref in ((shifted.grad_x, grad_x), (shifted.grad_y, grad_y)):
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(moved - ref)) <= 1e-9 * scale

    def test_gradient_pulls_two_pin_net_together(self):
        nl = two_cell_net()
        x = np.array([10.0, 30.0])
        y = np.array([5.0, 5.0])
        result = WirelengthOp(nl)(x, y, gamma=1.0)
        # Descent direction -grad moves a right (+) and b left (-).
        assert result.grad_x[0] < 0
        assert result.grad_x[1] > 0

    def test_numerical_stability_large_coordinates(self):
        nl = two_cell_net()
        x = np.array([1e6, 1e6 + 50.0])
        y = np.array([1e6, 1e6])
        result = WirelengthOp(nl)(x, y, gamma=0.5)
        assert np.isfinite(result.wa)
        assert np.all(np.isfinite(result.grad_x))
        assert result.wa == pytest.approx(50.0, abs=1.0)

    def test_functional_wrapper(self, circuit, placement):
        x, y = placement
        a = wa_wirelength_and_grad(circuit, x, y, 2.0)
        b = WirelengthOp(circuit)(x, y, 2.0)
        assert a.wa == pytest.approx(b.wa)

    @given(gamma=st.floats(0.2, 10.0))
    @settings(max_examples=15, deadline=None)
    def test_wa_below_hpwl_property(self, gamma):
        nl = two_cell_net()
        x = np.array([12.0, 47.0])
        y = np.array([8.0, 31.0])
        result = WirelengthOp(nl)(x, y, gamma)
        assert result.wa <= result.hpwl + 1e-9


class TestLSE:
    def test_lse_bounds_hpwl_above(self, circuit, placement):
        x, y = placement
        exact = hpwl(circuit, x, y)
        assert lse_wirelength(circuit, x, y, gamma=2.0) >= exact - 1e-9

    def test_lse_converges_to_hpwl(self, circuit, placement):
        x, y = placement
        exact = hpwl(circuit, x, y)
        err = abs(lse_wirelength(circuit, x, y, gamma=0.3) - exact)
        assert err / exact < 0.05

    def test_ordering_wa_hpwl_lse(self, circuit, placement):
        x, y = placement
        gamma = 2.0
        wa = WirelengthOp(circuit)(x, y, gamma).wa
        exact = hpwl(circuit, x, y)
        lse = lse_wirelength(circuit, x, y, gamma)
        assert wa <= exact <= lse


class TestSegments:
    def test_segment_sum_handles_empty_nets(self):
        from repro.wirelength.segments import segment_sum

        values = np.array([1.0, 2.0, 3.0])
        net_start = np.array([0, 2, 2, 3])  # middle net empty
        out = segment_sum(values, net_start)
        assert out.tolist() == [3.0, 0.0, 3.0]

    def test_segment_ops_empty_input(self):
        from repro.wirelength.segments import segment_max, segment_min, segment_sum

        values = np.empty(0)
        net_start = np.array([0, 0])
        assert segment_sum(values, net_start).tolist() == [0.0]
        assert segment_max(values, net_start).shape == (1,)
        assert segment_min(values, net_start).shape == (1,)

    def test_trailing_empty_net_no_indexerror(self):
        from repro.wirelength.segments import segment_max

        values = np.array([5.0, 1.0])
        net_start = np.array([0, 2, 2])  # last net empty, start == len(values)
        out = segment_max(values, net_start)
        assert out[0] == 5.0


def random_layout(rng, num_nets, num_pins):
    """A random CSR layout with empty nets at the start, middle and end
    and degree-1 nets; ``num_pins == 0`` leaves every net empty."""
    degree = np.zeros(num_nets, dtype=np.int64)
    if num_pins:
        inner = np.arange(1, num_nets - 1)
        empty = {0, num_nets // 2, num_nets - 1}
        filled = np.array([i for i in inner if i not in empty])
        degree[filled] = 1  # every fourth filled net stays at degree 1
        extra = rng.choice(np.setdiff1d(filled, filled[::4]),
                           num_pins - len(filled))
        np.add.at(degree, extra, 1)
    net_start = np.concatenate([[0], np.cumsum(degree)])
    values = rng.normal(scale=100.0, size=int(net_start[-1]))
    return values, net_start


class TestSegmentOracle:
    """Per-net reductions against a per-net Python loop."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("num_pins", [0, 40, 400])
    def test_against_loop(self, seed, num_pins):
        from repro.wirelength.segments import (
            expand_pin2net,
            segment_max,
            segment_min,
            segment_sum,
        )

        rng = np.random.default_rng(seed)
        values, net_start = random_layout(rng, 25, num_pins)
        pin2net = expand_pin2net(net_start)
        degree = np.diff(net_start)
        if num_pins:
            assert degree[0] == degree[12] == degree[-1] == 0
            assert np.sum(degree == 1) >= 6
        sums = segment_sum(values, net_start)
        np.testing.assert_array_equal(
            segment_sum(values, net_start, pin2net), sums
        )
        maxima = segment_max(values, net_start, pin2net)
        minima = segment_min(values, net_start, pin2net,
                             out=np.empty(len(degree)))
        np.testing.assert_array_equal(segment_max(values, net_start), maxima)
        np.testing.assert_array_equal(segment_min(values, net_start), minima)
        for net in range(len(degree)):
            pins = values[net_start[net]:net_start[net + 1]]
            if len(pins) == 0:
                assert sums[net] == 0.0
                continue
            assert maxima[net] == max(pins)
            assert minima[net] == min(pins)
            assert sums[net] == pytest.approx(sum(pins), rel=1e-12, abs=0)

    def test_no_nets(self):
        from repro.wirelength.segments import (
            segment_max,
            segment_min,
            segment_sum,
        )

        values = np.empty(0)
        net_start = np.array([0])
        for reduce in (segment_max, segment_min, segment_sum):
            assert reduce(values, net_start).shape == (0,)
