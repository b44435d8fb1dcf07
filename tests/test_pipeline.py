"""Tests for the Stage/Pipeline layer and the flow regressions.

The flows (`run_flow`, `run_mixed_size_flow`) are now pipeline
compositions; the regression classes assert their metrics are identical
to the hand-rolled GP→LG→DP sequences they replaced.
"""

import json

import numpy as np
import pytest

from repro import PlacementParams, make_design, run_flow, run_mixed_size_flow
from repro.benchgen import CircuitSpec, generate_circuit
from repro.core import XPlacer
from repro.detail import DetailedPlacer
from repro.legalize import FenceAwareLegalizer, check_legal
from repro.legalize.macros import MacroLegalizer
from repro.pipeline import (
    DetailStage,
    FlowReport,
    GlobalPlaceStage,
    LegalizeStage,
    Pipeline,
    PlacementContext,
    RouteStage,
    Stage,
    freeze_cells,
    movable_macro_indices,
)
from repro.wirelength import hpwl as hpwl_fn


@pytest.fixture(scope="module")
def netlist():
    return make_design("fft_1", num_cells=300)


@pytest.fixture(scope="module")
def params():
    return PlacementParams(max_iterations=300)


class AddMetric(Stage):
    name = "add"

    def __init__(self, key, value, name=None):
        super().__init__(name)
        self.key = key
        self.value = value

    def execute(self, ctx):
        return {self.key: self.value}


class ReadMetric(Stage):
    """Proves metrics written by one stage are visible to the next."""

    name = "read"

    def __init__(self, key):
        super().__init__()
        self.key = key

    def execute(self, ctx):
        return {"seen": ctx.metrics[self.key]}


class Boom(Stage):
    name = "boom"

    def execute(self, ctx):
        raise RuntimeError("boom")


def _tiny_context():
    nl = generate_circuit(CircuitSpec("tinyctx", num_cells=60))
    return PlacementContext(netlist=nl)


class TestPipelineMechanics:
    def test_metrics_propagate_between_stages(self):
        ctx = _tiny_context()
        report = Pipeline(
            [AddMetric("a", 1.5), ReadMetric("a")], name="prop"
        ).run(ctx)
        assert ctx.metrics == {"a": 1.5, "seen": 1.5}
        assert report.stage("read").metrics["seen"] == 1.5
        assert report.metrics == {"a": 1.5, "seen": 1.5}

    def test_per_stage_timing(self):
        ctx = _tiny_context()
        report = Pipeline(
            [AddMetric("a", 1, name="s1"), AddMetric("b", 2, name="s2")],
            name="timed",
        ).run(ctx)
        assert [s.name for s in report.stages] == ["s1", "s2"]
        assert all(s.seconds >= 0 for s in report.stages)
        assert report.seconds("s1", "s2") <= report.total_seconds + 1e-6
        assert report.ok

    def test_report_serializable(self):
        ctx = _tiny_context()
        report = Pipeline([AddMetric("a", 1.5)], name="ser").run(ctx)
        payload = json.loads(report.to_json())
        assert payload["pipeline"] == "ser"
        assert payload["design"] == "tinyctx"
        assert payload["ok"] is True
        assert payload["stages"][0]["metrics"] == {"a": 1.5}
        assert "tinyctx" in report.summary()

    def test_report_json_round_trip(self):
        ctx = _tiny_context()
        report = Pipeline(
            [AddMetric("a", 1.5, name="s1"), AddMetric("b", 2, name="s2")],
            name="rt",
        ).run(ctx)
        restored = FlowReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.pipeline == "rt"
        assert restored.design == "tinyctx"
        assert [s.name for s in restored.stages] == ["s1", "s2"]
        assert restored.stage("s1").metrics == {"a": 1.5}
        assert restored.total_seconds == report.total_seconds
        assert restored.ok

    def test_failed_report_round_trip(self):
        ctx = _tiny_context()
        pipeline = Pipeline([Boom()], name="failing-rt")
        with pytest.raises(RuntimeError):
            pipeline.run(ctx)
        report = ctx.report
        restored = FlowReport.from_dict(report.to_dict())
        assert not restored.ok
        assert restored.stage("boom").error == report.stage("boom").error

    def test_error_context_attached(self):
        ctx = _tiny_context()
        pipeline = Pipeline([AddMetric("a", 1), Boom()], name="failing")
        with pytest.raises(RuntimeError, match="boom") as excinfo:
            pipeline.run(ctx)
        err = excinfo.value
        assert err.pipeline_name == "failing"
        assert err.pipeline_stage == "boom"
        # Partial report: the successful stage plus the failed one.
        assert [s.name for s in err.flow_report.stages] == ["add", "boom"]
        assert err.flow_report.stages[-1].error == "RuntimeError: boom"
        assert not err.flow_report.ok
        assert ctx.report is err.flow_report

    def test_unknown_stage_lookup(self):
        ctx = _tiny_context()
        report = Pipeline([AddMetric("a", 1)], name="p").run(ctx)
        with pytest.raises(KeyError, match="no stage named"):
            report.stage("nope")

    def test_positions_required_before_consuming_stage(self):
        ctx = _tiny_context()
        with pytest.raises(RuntimeError, match="no positions"):
            Pipeline([LegalizeStage()], name="bad").run(ctx)

    def test_unknown_placer_raises_value_error(self):
        ctx = _tiny_context()
        ctx.placer = "simulated-annealing"
        with pytest.raises(ValueError, match="unknown placer"):
            Pipeline([GlobalPlaceStage()], name="p").run(ctx)


class TestStandardFlowRegression:
    """run_flow must be byte-identical to the hand-rolled sequence it
    replaced (same seeds ⇒ same HPWL, legality and positions)."""

    @pytest.fixture(scope="class")
    def handrolled(self, netlist, params):
        gp = XPlacer(netlist, params).run()
        lx, ly = FenceAwareLegalizer(netlist).legalize(gp.x, gp.y)
        lg_hpwl = hpwl_fn(netlist, lx, ly)
        dp = DetailedPlacer(netlist, max_passes=1).place(lx, ly)
        report = check_legal(netlist, dp.x, dp.y)
        return gp, lg_hpwl, dp, report

    @pytest.fixture(scope="class")
    def piped(self, netlist, params):
        return run_flow(netlist, placer="xplace", params=params, dp_passes=1)

    def test_metrics_unchanged(self, handrolled, piped):
        gp, lg_hpwl, dp, report = handrolled
        assert piped.gp_hpwl == gp.hpwl
        assert piped.gp_iterations == gp.iterations
        assert piped.lg_hpwl == lg_hpwl
        assert piped.dp_hpwl == dp.hpwl_after
        assert piped.legal == report.legal

    def test_dp_moves_by_operator(self, handrolled, piped):
        __, __, dp, __ = handrolled
        metrics = piped.report.stage("dp").metrics
        by_operator = [metrics[f"dp_moves_{op}"] for op in ("reorder", "swap", "ism")]
        assert by_operator == [dp.moves_by_operator[op]
                               for op in ("reorder", "swap", "ism")]
        assert sum(by_operator) == metrics["dp_moves"] == dp.moves_applied

    def test_dp_seconds_by_operator(self, piped):
        metrics = piped.report.stage("dp").metrics
        seconds = [metrics[f"dp_seconds_{op}"] for op in ("reorder", "swap", "ism")]
        assert all(sec > 0 for sec in seconds)
        # The operators are timed inside the DP stage's own wall clock.
        assert sum(seconds) <= piped.report.seconds("dp")

    def test_positions_unchanged(self, handrolled, piped):
        __, __, dp, __ = handrolled
        np.testing.assert_array_equal(piped.x, dp.x)
        np.testing.assert_array_equal(piped.y, dp.y)

    def test_flow_report_attached(self, piped):
        assert isinstance(piped.report, FlowReport)
        assert [s.name for s in piped.report.stages] == ["gp", "lg", "dp"]
        assert piped.report.stage("gp").metrics["gp_hpwl"] == piped.gp_hpwl
        # dp_seconds is the LG+DP wall clock, per the paper's DP/s column.
        assert piped.dp_seconds == piped.report.seconds("lg", "dp")

    def test_route_adds_gr_stage(self, netlist):
        r = run_flow(netlist, dp_passes=0, route=True, route_grid_m=16)
        assert [s.name for s in r.report.stages] == ["gp", "lg", "dp", "gr"]
        assert r.top5_overflow is not None
        assert r.gr_seconds is not None

    def test_quadratic_through_flow(self, netlist):
        r = run_flow(netlist, placer="quadratic", dp_passes=0)
        assert r.legal
        assert r.placer == "quadratic"
        assert r.gp_hpwl > 0

    def test_flow_callbacks_reach_gp_loop(self, netlist):
        seen = []

        class Count:
            def on_start(self, info):
                seen.append("start")

            def on_iteration(self, record):
                seen.append("iter")

            def on_stop(self, info):
                seen.append("stop")

        small = PlacementParams(min_iterations=5, max_iterations=5)
        r = run_flow(netlist, params=small, dp_passes=0, callbacks=[Count()])
        assert seen[0] == "start" and seen[-1] == "stop"
        assert seen.count("iter") == r.gp_iterations == 5


class TestMixedFlowRegression:
    """run_mixed_size_flow as a pipeline == the hand-rolled mGP→mLG→
    freeze→cGP→LG→DP sequence."""

    @pytest.fixture(scope="class")
    def mixed(self):
        return generate_circuit(
            CircuitSpec(
                "mixedpipe",
                num_cells=200,
                num_macros=1,
                num_movable_macros=2,
                movable_macro_fraction=0.15,
                utilization=0.5,
            )
        )

    @pytest.fixture(scope="class")
    def mixed_params(self):
        return PlacementParams(max_iterations=150)

    @pytest.fixture(scope="class")
    def handrolled(self, mixed, mixed_params):
        macros = movable_macro_indices(mixed)
        mgp = XPlacer(mixed, mixed_params).run()
        lx, ly = MacroLegalizer(mixed).legalize(mgp.x, mgp.y, macros)
        frozen = freeze_cells(mixed, macros, lx, ly)
        cgp = XPlacer(frozen, mixed_params).run()
        sx, sy = FenceAwareLegalizer(frozen).legalize(cgp.x, cgp.y)
        dp = DetailedPlacer(frozen, max_passes=0).place(sx, sy)
        report = check_legal(frozen, dp.x, dp.y)
        return dp, hpwl_fn(mixed, dp.x, dp.y), report

    @pytest.fixture(scope="class")
    def piped(self, mixed, mixed_params):
        return run_mixed_size_flow(mixed, mixed_params, dp_passes=0)

    def test_metrics_unchanged(self, handrolled, piped):
        dp, true_hpwl, report = handrolled
        assert piped.hpwl == true_hpwl
        assert piped.legal == report.legal
        assert piped.num_macros == 2
        np.testing.assert_array_equal(piped.x, dp.x)
        np.testing.assert_array_equal(piped.y, dp.y)

    def test_stage_breakdown(self, piped):
        names = [s.name for s in piped.report.stages]
        assert names == ["mgp", "mlg", "freeze", "cgp", "lg", "dp"]
        assert piped.mgp_seconds == piped.report.stage("mgp").seconds
        assert piped.finish_seconds == piped.report.seconds(
            "mlg", "freeze", "cgp", "lg", "dp"
        )


class TestCustomComposition:
    """The extensibility claim: new flows are stage lists, not new code."""

    def test_gp_only_pipeline(self, netlist):
        ctx = PlacementContext(
            netlist=netlist, params=PlacementParams(max_iterations=40,
                                                    min_iterations=40)
        )
        report = Pipeline([GlobalPlaceStage()], name="gp-only").run(ctx)
        assert ctx.gp_result is not None
        assert ctx.x is not None
        assert report.stage("gp").metrics["gp_iterations"] == 40

    def test_route_without_dp(self, netlist):
        ctx = PlacementContext(
            netlist=netlist, params=PlacementParams(max_iterations=40,
                                                    min_iterations=40)
        )
        Pipeline(
            [GlobalPlaceStage(), LegalizeStage(), RouteStage(grid_m=16)],
            name="gp-lg-gr",
        ).run(ctx)
        assert ctx.routing is not None
        assert "top5_overflow" in ctx.metrics
        assert "dp_hpwl" not in ctx.metrics

    def test_two_gp_stages_report_separately(self, netlist):
        small = PlacementParams(max_iterations=20, min_iterations=20)
        ctx = PlacementContext(netlist=netlist, params=small)
        report = Pipeline(
            [GlobalPlaceStage(name="first"), GlobalPlaceStage(name="second")],
            name="twice",
        ).run(ctx)
        assert report.stage("first").metrics["gp_iterations"] == 20
        assert report.stage("second").metrics["gp_iterations"] == 20
