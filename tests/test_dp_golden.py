"""Golden detailed placement: DP from stored legal inputs must reproduce
the stored outputs exactly.

``tests/data/dp_golden.npz`` holds, for three designs, the legal input
positions (``{design}_x``/``_y``) and, after ``DetailedPlacer(nl,
max_passes=p)`` for p in 1 and 2, the output positions
(``{design}_p{p}_x``/``_y``), ``hpwl_after`` and the applied moves per
operator (``{design}_p{p}_moves``: reorder, swap, ism).  The data was
captured with the one-candidate-at-a-time scorer that the batched scorer
replaced, so this test pins the batched decisions to the sequential
rule.  Regenerate only for an intended change of DP behaviour::

    import numpy as np
    from repro import PlacementParams, make_design
    from repro.benchgen import CircuitSpec, generate_circuit
    from repro.core import XPlacer
    from repro.detail import DetailedPlacer
    from repro.legalize import AbacusLegalizer, FenceAwareLegalizer
    from repro.runtime.job import PlacementJob

    job = PlacementJob(design="fft_1", cells=1000, seed=1,
                       params={"max_iterations": 1000})
    cases = {
        "fft1": (job.load_netlist(), job.effective_params(),
                 FenceAwareLegalizer),
        "fenced": (generate_circuit(CircuitSpec(
            "fenced", num_cells=400, num_macros=2, num_fences=2,
            utilization=0.5)), PlacementParams(max_iterations=500),
            FenceAwareLegalizer),
        "macro": (generate_circuit(CircuitSpec(
            "dp", num_cells=300, num_macros=2, num_pads=16)),
            PlacementParams(max_iterations=400), AbacusLegalizer),
    }
    out = {}
    for name, (nl, params, legalizer) in cases.items():
        gp = XPlacer(nl, params).run()
        lx, ly = legalizer(nl).legalize(gp.x, gp.y)
        out[f"{name}_x"], out[f"{name}_y"] = lx, ly
        for p in (1, 2):
            r = DetailedPlacer(nl, max_passes=p).place(lx, ly)
            key = f"{name}_p{p}"
            out[f"{key}_x"], out[f"{key}_y"] = r.x, r.y
            out[f"{key}_hpwl_after"] = np.float64(r.hpwl_after)
            out[f"{key}_moves"] = np.array(
                [r.moves_by_operator[op] for op in ("reorder", "swap", "ism")])
    np.savez_compressed("tests/data/dp_golden.npz", **out)
"""

from pathlib import Path

import numpy as np
import pytest

from repro import make_design
from repro.benchgen import CircuitSpec, generate_circuit
from repro.detail import DetailedPlacer
from repro.legalize import check_legal

GOLDEN = Path(__file__).parent / "data" / "dp_golden.npz"
OPERATORS = ("reorder", "swap", "ism")

#: The golden designs: a batch-sized fft_1 job, the fenced fixture of
#: ``test_fences.py`` and the macro fixture of ``test_detail.py``.
DESIGNS = {
    "fft1": lambda: make_design("fft_1", num_cells=1000),
    "fenced": lambda: generate_circuit(
        CircuitSpec("fenced", num_cells=400, num_macros=2, num_fences=2,
                    utilization=0.5)
    ),
    "macro": lambda: generate_circuit(
        CircuitSpec("dp", num_cells=300, num_macros=2, num_pads=16)
    ),
}


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.fixture(scope="module")
def netlists():
    return {}


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_dp_matches_golden(design, passes, golden, netlists):
    if design not in netlists:
        netlists[design] = DESIGNS[design]()
    nl = netlists[design]
    key = f"{design}_p{passes}"
    result = DetailedPlacer(nl, max_passes=passes).place(
        golden[f"{design}_x"], golden[f"{design}_y"]
    )
    np.testing.assert_array_equal(result.x, golden[f"{key}_x"])
    np.testing.assert_array_equal(result.y, golden[f"{key}_y"])
    assert result.hpwl_after == golden[f"{key}_hpwl_after"]
    moves = [result.moves_by_operator[op] for op in OPERATORS]
    assert moves == golden[f"{key}_moves"].tolist()
    assert result.moves_applied == sum(moves)
    report = check_legal(nl, result.x, result.y)
    assert report.legal, report.summary()
