"""Tests for the kernel profiler and the density-skip controller."""

import numpy as np

from repro.ops import DensitySkipController, KernelProfiler, get_profiler, use_profiler
from repro.ops.profiler import _NullProfiler


class TestProfiler:
    def test_default_profiler_is_noop(self):
        profiler = get_profiler()
        assert isinstance(profiler, _NullProfiler)
        profiler.launch("x")
        assert profiler.total == 0

    def test_context_counts(self):
        with use_profiler() as profiler:
            get_profiler().launch("a")
            get_profiler().launch("a", 2)
            get_profiler().launch("b")
        assert profiler.counts["a"] == 3
        assert profiler.counts["b"] == 1
        assert profiler.total == 4

    def test_nested_contexts_restore(self):
        with use_profiler() as outer:
            get_profiler().launch("x")
            with use_profiler() as inner:
                get_profiler().launch("y")
            get_profiler().launch("x")
        assert outer.counts["x"] == 2
        assert "y" not in outer.counts
        assert inner.counts["y"] == 1

    def test_marks(self):
        profiler = KernelProfiler()
        profiler.launch("a", 5)
        profiler.mark("iter")
        profiler.launch("a", 3)
        assert profiler.since("iter") == 3
        assert profiler.since("missing") == profiler.total

    def test_reset(self):
        profiler = KernelProfiler()
        profiler.launch("a")
        profiler.mark("m")
        profiler.reset()
        assert profiler.total == 0
        assert profiler.since("m") == 0

    def test_summary_format(self):
        profiler = KernelProfiler()
        profiler.launch("alpha", 7)
        text = profiler.summary()
        assert "alpha" in text and "7" in text

    def test_wirelength_op_combination_reduces_launches(self):
        """Combined WA op dispatches fewer reductions than split mode."""
        from repro.benchgen import CircuitSpec, generate_circuit
        from repro.wirelength import WirelengthOp

        nl = generate_circuit(CircuitSpec("prof", num_cells=80, num_macros=0))
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 50, nl.num_cells)
        y = rng.uniform(0, 50, nl.num_cells)
        with use_profiler() as fused:
            WirelengthOp(nl, combined=True)(x, y, 1.0)
        with use_profiler() as split:
            WirelengthOp(nl, combined=False)(x, y, 1.0)
        assert fused.total < split.total

    def test_density_extraction_reduces_launches(self):
        from repro.benchgen import CircuitSpec, generate_circuit
        from repro.density import DensitySystem

        nl = generate_circuit(CircuitSpec("prof2", num_cells=150))
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 100, nl.num_cells)
        y = rng.uniform(0, 100, nl.num_cells)
        with use_profiler() as extracted:
            DensitySystem(nl, 0.9, extraction=True,
                          rng=np.random.default_rng(1)).evaluate(x, y)
        with use_profiler() as fused:
            DensitySystem(nl, 0.9, extraction=False,
                          rng=np.random.default_rng(1)).evaluate(x, y)
        # The fused path scatters the movable cells twice (once inside the
        # union pass, once for the overflow map): strictly more cell–bin
        # entries.  Entries are work, not launches: the launch totals
        # count each scatter once.
        assert (
            extracted.entries["density_scatter_cells"]
            < fused.entries["density_scatter_cells"]
        )
        for profiler in (extracted, fused):
            assert "density_scatter_cells" not in profiler.counts
            assert profiler.total == sum(profiler.counts.values()) < 20

    def test_entries_stay_out_of_launch_totals(self):
        profiler = KernelProfiler()
        profiler.launch("a", 2)
        profiler.mark("m")
        profiler.add_entries("a_cells", 5000)
        profiler.add_entries("a_cells", 1)
        assert profiler.entries["a_cells"] == 5001
        assert profiler.total == 2
        assert profiler.since("m") == 0
        assert "a_cells" not in profiler.summary()
        assert profiler.snapshot() == {"a": 2}
        profiler.reset()
        assert not profiler.entries
        with use_profiler() as active:
            get_profiler().add_entries("b_cells", 7)
        assert active.entries["b_cells"] == 7 and active.total == 0
        get_profiler().add_entries("b_cells", 7)  # the null profiler drops it
        assert get_profiler().entries == {}


class TestSkipController:
    def test_computes_when_ratio_large(self):
        ctrl = DensitySkipController()
        ctrl.observe_ratio(0.5)
        assert ctrl.should_compute(iteration=5)
        assert not ctrl.skipping

    def test_skips_when_ratio_small_and_early(self):
        ctrl = DensitySkipController()
        ctrl.observe_ratio(0.001)
        assert ctrl.should_compute(10)  # first time: cache is stale
        ctrl.notify_computed(10)
        assert not ctrl.should_compute(11)
        assert ctrl.skipping

    def test_recomputes_every_period(self):
        ctrl = DensitySkipController(period=20)
        ctrl.observe_ratio(0.001)
        ctrl.notify_computed(0)
        assert not ctrl.should_compute(19)
        assert ctrl.should_compute(20)

    def test_never_skips_after_max_iteration(self):
        ctrl = DensitySkipController(max_iteration=100)
        ctrl.observe_ratio(0.0001)
        ctrl.notify_computed(99)
        assert ctrl.should_compute(100)
        assert ctrl.should_compute(150)

    def test_disabled_controller_always_computes(self):
        ctrl = DensitySkipController(enabled=False)
        ctrl.observe_ratio(1e-9)
        ctrl.notify_computed(1)
        assert ctrl.should_compute(2)
        assert not ctrl.skipping
