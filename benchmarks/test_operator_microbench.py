"""Operator micro-benchmarks: the techniques of Section 3.1 in isolation.

Times the fused vs split wirelength operator, the extracted vs fused
density evaluation, and the autograd-vs-closed-form gradient — the
per-operator view that Table 3 aggregates per iteration — and one
detailed placement pass on the golden ``fft_1@1000`` legal input
(``tests/data/dp_golden.npz``), plain and with same-width cells shuffled
within their segments so that many moves apply, and Abacus legalization
of the GP run that input was legalized from.  Run from the repository
root (``python -m pytest benchmarks/test_operator_microbench.py``): the
DP and LG rows take their input from ``tests``.
"""

import time

import numpy as np
import pytest

from conftest import SCALE, TableCollector
from repro.benchgen import make_design
from repro.density import DensitySystem
from repro.core import XPlacer
from repro.detail import DetailedPlacer
from repro.legalize import AbacusLegalizer, check_legal
from repro.ops import use_profiler
from repro.runtime.job import PlacementJob
from repro.wirelength import WirelengthOp
from repro.wirelength.wa_autograd import AutogradWirelengthOp
from tests.test_dp_golden import DESIGNS, GOLDEN
from tests.test_dp_batched import shuffled

_table = TableCollector(
    "Operator microbenchmarks (one evaluation each)",
    f"{'operator':<36} {'launches':>9} {'entries':>9}",
)

_dp_table = TableCollector(
    "Detailed placement, one pass on golden fft_1@1000 (moves; ms per operator)",
    f"{'input':<10} {'reorder':>8} {'swap':>6} {'ism':>5} "
    f"{'reorder ms':>11} {'swap ms':>8} {'ism ms':>7}",
)


_lg_table = TableCollector(
    "Abacus legalization of the golden fft_1@1000 GP output",
    f"{'input':<10} {'cells':>6} {'ms':>7}",
)


@pytest.fixture(scope="module")
def workload():
    netlist = make_design("adaptec3", scale=SCALE)
    rng = np.random.default_rng(0)
    region = netlist.region
    x = rng.uniform(region.xl, region.xh, netlist.num_cells)
    y = rng.uniform(region.yl, region.yh, netlist.num_cells)
    return netlist, x, y


def test_wirelength_combined(benchmark, workload):
    netlist, x, y = workload
    op = WirelengthOp(netlist, combined=True)
    benchmark(lambda: op(x, y, 2.0))
    with use_profiler() as profiler:
        op(x, y, 2.0)
    _table.add(f"{'WA combined (OC on)':<36} {profiler.total:>9}")


def test_wirelength_split(benchmark, workload):
    netlist, x, y = workload
    op = WirelengthOp(netlist, combined=False)
    benchmark(lambda: op(x, y, 2.0))
    with use_profiler() as profiler:
        op(x, y, 2.0)
    _table.add(f"{'WA split (OC off)':<36} {profiler.total:>9}")


def test_wirelength_autograd(benchmark, workload):
    netlist, x, y = workload
    op = AutogradWirelengthOp(netlist)
    benchmark(lambda: op(x, y, 2.0))
    with use_profiler() as profiler:
        op(x, y, 2.0)
    _table.add(f"{'WA autograd (OR off)':<36} {profiler.total:>9}")

    # Parity: the tape computes the same objective and gradient.
    fused = WirelengthOp(netlist)(x, y, 2.0)
    taped = op(x, y, 2.0)
    assert taped.wa == pytest.approx(fused.wa, rel=1e-9)
    np.testing.assert_allclose(taped.grad_x, fused.grad_x, atol=1e-9)


def test_density_extracted(benchmark, workload):
    netlist, x, y = workload
    system = DensitySystem(netlist, 0.9, extraction=True,
                           rng=np.random.default_rng(1))
    benchmark(lambda: system.evaluate(x, y))
    with use_profiler() as profiler:
        system.evaluate(x, y)
    _table.add(f"{'density extracted (OE on)':<36} {profiler.total:>9} "
               f"{profiler.entries['density_scatter_cells']:>9}")


def test_density_fused(benchmark, workload):
    netlist, x, y = workload
    system = DensitySystem(netlist, 0.9, extraction=False,
                           rng=np.random.default_rng(1))
    benchmark(lambda: system.evaluate(x, y))
    with use_profiler() as profiler:
        system.evaluate(x, y)
    _table.add(f"{'density fused (OE off)':<36} {profiler.total:>9} "
               f"{profiler.entries['density_scatter_cells']:>9}")


@pytest.fixture(scope="module")
def dp_input():
    with np.load(GOLDEN) as data:
        return DESIGNS["fft1"](), data["fft1_x"], data["fft1_y"]


@pytest.mark.parametrize("shuffle", [False, True], ids=["plain", "shuffled"])
def test_detailed_placement_pass(benchmark, dp_input, shuffle):
    netlist, x, y = dp_input
    if shuffle:
        x, y = shuffled(netlist, x, y, seed=3)
    result = benchmark(
        lambda: DetailedPlacer(netlist, max_passes=1).place(x, y)
    )
    moves = result.moves_by_operator
    ms = {op: 1e3 * s for op, s in result.seconds_by_operator.items()}
    _dp_table.add(
        f"{'shuffled' if shuffle else 'plain':<10} {moves['reorder']:>8} "
        f"{moves['swap']:>6} {moves['ism']:>5} {ms['reorder']:>11.1f} "
        f"{ms['swap']:>8.1f} {ms['ism']:>7.1f}"
    )
    assert result.hpwl_after < result.hpwl_before


@pytest.fixture(scope="module")
def lg_input():
    """The GP output the golden ``fft1`` legal input was legalized from
    (the recipe in ``tests/test_dp_golden.py``)."""
    job = PlacementJob(design="fft_1", cells=1000, seed=1,
                       params={"max_iterations": 1000})
    netlist = job.load_netlist()
    gp = XPlacer(netlist, job.effective_params()).run()
    return netlist, gp.x, gp.y


def test_abacus_legalization(benchmark, lg_input):
    netlist, x, y = lg_input
    lx, ly = benchmark(lambda: AbacusLegalizer(netlist).legalize(x, y))
    assert check_legal(netlist, lx, ly).legal
    began = time.perf_counter()
    AbacusLegalizer(netlist).legalize(x, y)
    ms = 1e3 * (time.perf_counter() - began)
    _lg_table.add(f"{'fft1 GP':<10} {len(netlist.movable_index):>6} {ms:>7.1f}")
