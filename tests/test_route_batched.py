"""The batched decomposition and scalar router against the per-edge router.

``GlobalRouter.route`` decomposes every net in one batched pass
(:func:`decompose_nets`) and routes in scalar Python over list copies of
the demand maps, summing each run's penalties in ``np.sum``'s pairwise
order (:func:`pairwise_sum`).  :func:`reference_route` is the per-edge
router it replaced, kept here as the reference: ``np.unique`` and Prim
per net, then a numpy slice, ``clip``, ``**2`` and ``np.sum`` per run,
shapes named ``"h"``/``"v"``/``"hv"``/``"vh"``/``"z:<k>"``.  Routes must
be identical, demand map for demand map.
"""

from typing import List, Tuple

import numpy as np
import pytest

from repro import run_flow
from repro.benchgen import CircuitSpec, generate_circuit, make_design
from repro.core import PlacementParams
from repro.netlist import PlacementRegion
from repro.route import GlobalRouter, RoutingGrid, decompose_net
from repro.route.grid import pairwise_sum
from repro.route.router import _z_columns
from repro.route.steiner import decompose_nets


# ----------------------------------------------------------------------
# The reference: one net, one edge, one run at a time.
# ----------------------------------------------------------------------
def reference_decompose(xs, ys) -> List[Tuple[int, int, int, int]]:
    """Prim over one net's ``np.unique`` terminals, one node per step."""
    points = np.unique(np.stack([xs, ys], axis=1), axis=0)
    n = points.shape[0]
    if n < 2:
        return []
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_dist = np.abs(points[:, 0] - points[0, 0]) + np.abs(
        points[:, 1] - points[0, 1]
    )
    best_from = np.zeros(n, dtype=np.int64)
    edges = []
    for __ in range(n - 1):
        nxt = int(np.argmin(np.where(~in_tree, best_dist, np.inf)))
        a, b = points[best_from[nxt]], points[nxt]
        edges.append((int(a[0]), int(a[1]), int(b[0]), int(b[1])))
        in_tree[nxt] = True
        dist = np.abs(points[:, 0] - points[nxt, 0]) + np.abs(
            points[:, 1] - points[nxt, 1]
        )
        closer = dist < best_dist
        best_dist = np.where(closer, dist, best_dist)
        best_from = np.where(closer, nxt, best_from)
    return edges


def h_cost(grid: RoutingGrid, i0, i1, j) -> float:
    lo, hi = min(i0, i1), max(i0, i1)
    if hi == lo:
        return 0.0
    over = np.clip(grid.h_demand[lo:hi, j] + 1.0 - grid.h_capacity, 0.0, None)
    return float((hi - lo) + np.sum(over**2))


def v_cost(grid: RoutingGrid, i, j0, j1) -> float:
    lo, hi = min(j0, j1), max(j0, j1)
    if hi == lo:
        return 0.0
    over = np.clip(grid.v_demand[i, lo:hi] + 1.0 - grid.v_capacity, 0.0, None)
    return float((hi - lo) + np.sum(over**2))


def add_shape(grid: RoutingGrid, edge, shape: str, amount: float) -> None:
    i0, j0, i1, j1 = edge
    if shape == "v":
        grid.add_vertical(i0, j0, j1, amount)
    elif shape == "h":
        grid.add_horizontal(i0, i1, j0, amount)
    elif shape == "hv":
        grid.add_horizontal(i0, i1, j0, amount)
        grid.add_vertical(i1, j0, j1, amount)
    elif shape == "vh":
        grid.add_vertical(i0, j0, j1, amount)
        grid.add_horizontal(i0, i1, j1, amount)
    else:
        k = int(shape.split(":")[1])
        grid.add_horizontal(i0, k, j0, amount)
        grid.add_vertical(k, j0, j1, amount)
        grid.add_horizontal(k, i1, j1, amount)


def best_shape(grid: RoutingGrid, edge, with_z: bool) -> str:
    i0, j0, i1, j1 = edge
    if i0 == i1:
        return "v"
    if j0 == j1:
        return "h"
    options = [
        ("hv", h_cost(grid, i0, i1, j0) + v_cost(grid, i1, j0, j1)),
        ("vh", h_cost(grid, i0, i1, j1) + v_cost(grid, i0, j0, j1)),
    ]
    lo, hi = min(i0, i1), max(i0, i1)
    if with_z and hi - lo > 1:
        for k in np.linspace(lo + 1, hi - 1, num=min(3, hi - lo - 1)).astype(int):
            k = int(k)
            cost = (
                h_cost(grid, i0, k, j0) + v_cost(grid, k, j0, j1)
                + h_cost(grid, k, i1, j1)
            )
            options.append((f"z:{k}", cost))
    return min(options, key=lambda t: t[1])[0]


def reference_route(netlist, x, y, grid_m, capacity, rrr_passes):
    """Per-edge L pass, then rip-up-and-reroute of every edge whose
    bounding box holds an overflowed g-cell.  Returns the grid, the
    edges and each edge's shape."""
    grid = RoutingGrid(netlist.region, m=grid_m, h_capacity=capacity,
                       v_capacity=capacity)
    px, py = netlist.pin_positions(x, y)
    gi, gj = grid.gcell_of(px, py)
    edges = []
    for e in range(netlist.num_nets):
        lo, hi = netlist.net_start[e], netlist.net_start[e + 1]
        if hi - lo >= 2:
            edges.extend(reference_decompose(gi[lo:hi], gj[lo:hi]))
    shapes = []
    for edge in edges:
        shapes.append(best_shape(grid, edge, with_z=False))
        add_shape(grid, edge, shapes[-1], 1.0)
    for __ in range(rrr_passes):
        if grid.total_overflow() <= 0:
            break
        over = grid.overflow_map()
        for index, edge in enumerate(edges):
            i0, j0, i1, j1 = edge
            box = over[min(i0, i1): max(i0, i1) + 1, min(j0, j1): max(j0, j1) + 1]
            if not np.any(box > 0):
                continue
            add_shape(grid, edge, shapes[index], -1.0)
            shapes[index] = best_shape(grid, edge, with_z=True)
            add_shape(grid, edge, shapes[index], 1.0)
    return grid, edges, shapes


def shape_column(edge, shape: str) -> int:
    """The column a reference shape turns at (``GlobalRouter``'s form)."""
    i0, __, i1, __ = edge
    if shape == "vh":
        return i0
    if shape.startswith("z:"):
        return int(shape[2:])
    return i1


# ----------------------------------------------------------------------
def assert_same_routes(netlist, x, y, grid_m=32, capacity=None, rrr_passes=1):
    router = GlobalRouter(netlist, grid_m=grid_m, capacity_per_gcell=capacity,
                          rrr_passes=rrr_passes)
    result = router.route(x, y)
    ref, ref_edges, ref_shapes = reference_route(
        netlist, x, y, grid_m, router.grid.h_capacity, rrr_passes
    )
    assert np.array_equal(result.grid.h_demand, ref.h_demand)
    assert np.array_equal(result.grid.v_demand, ref.v_demand)
    assert result.num_edges == len(ref_edges)
    assert result.top5_overflow == ref.top_overflow(0.05)
    assert result.total_overflow == ref.total_overflow()
    assert result.wirelength == ref.wirelength()

    px, py = netlist.pin_positions(x, y)
    gi, gj = router.grid.gcell_of(px, py)
    edges = decompose_nets(gi, gj, netlist.net_start)
    assert edges.tolist() == [list(edge) for edge in ref_edges]
    columns = GlobalRouter(
        netlist, grid_m=grid_m, capacity_per_gcell=capacity,
        rrr_passes=rrr_passes,
    )._route_edges(edges)
    assert columns == [shape_column(e, s) for e, s in zip(ref_edges, ref_shapes)]
    return result


FLOW_DESIGNS = [("adaptec1", 0.006), ("matrix_mult_a", 0.007), ("fft_2", 0.015)]


@pytest.mark.parametrize("name,scale", FLOW_DESIGNS)
def test_flow_designs_route_identically(name, scale):
    netlist = make_design(name, scale=scale)
    flow = run_flow(netlist, params=PlacementParams(max_iterations=120))
    result = assert_same_routes(netlist, flow.x, flow.y)
    # Congested, so rip-up-and-reroute ran, under a fractional capacity,
    # so the penalty sums depend on their order.
    assert result.total_overflow > 0
    capacity = result.grid.h_capacity
    assert capacity != int(capacity)


@pytest.fixture(scope="module")
def layouts():
    """A small mixed-size design with a uniformly random and a clustered
    placement of its movable cells."""
    netlist = generate_circuit(
        CircuitSpec("grb", num_cells=150, num_macros=2, num_pads=16)
    )
    region = netlist.region
    mov = netlist.movable_index
    rng = np.random.default_rng(5)
    x = netlist.fixed_x.copy()
    y = netlist.fixed_y.copy()
    placements = {}
    x[mov] = rng.uniform(region.xl, region.xh, len(mov))
    y[mov] = rng.uniform(region.yl, region.yh, len(mov))
    placements["random"] = (x.copy(), y.copy())
    x[mov] = np.clip(rng.normal(region.xl + 0.35 * region.width,
                                0.12 * region.width, len(mov)),
                     region.xl, region.xh)
    y[mov] = np.clip(rng.normal(region.yl + 0.6 * region.height,
                                0.12 * region.height, len(mov)),
                     region.yl, region.yh)
    placements["clustered"] = (x.copy(), y.copy())
    return netlist, placements


@pytest.mark.parametrize("placement", ["random", "clustered"])
@pytest.mark.parametrize("grid_m", [16, 32, 64, 150])
# Auto capacity is fractional only on the coarse grids here; 2.35 makes
# the penalties fractional on every grid, and on the 150 grid it puts
# overflowed runs of more than 128 edges through the split sum.
@pytest.mark.parametrize("capacity", [None, 2.35, 3.0, 5.5])
@pytest.mark.parametrize("rrr_passes", [0, 1, 2])
def test_layouts_route_identically(layouts, placement, grid_m, capacity,
                                   rrr_passes):
    netlist, placements = layouts
    assert_same_routes(netlist, *placements[placement], grid_m=grid_m,
                       capacity=capacity, rrr_passes=rrr_passes)


# ----------------------------------------------------------------------
class TestPairwiseSum:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_numpy_sum(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(1, 301):
            values = rng.random(n) * 10.0 ** rng.integers(-8, 9, n)
            values[rng.random(n) < 0.4] = 0.0
            assert pairwise_sum(values.tolist()) == float(np.sum(values))

    def test_sub_range(self):
        values = (np.arange(300) * 0.1).tolist()
        assert pairwise_sum(values, 7, 250) == float(np.sum(values[7:250]))
        assert pairwise_sum(values, 5, 5) == 0.0


def test_z_columns_match_linspace():
    for lo in (0, 3):
        for span in range(0, 160):
            hi = lo + span
            expected = (
                np.linspace(lo + 1, hi - 1, num=min(3, span - 1)).astype(int)
                if span > 1 else []
            )
            assert list(_z_columns(lo, hi)) == [int(k) for k in expected]


# ----------------------------------------------------------------------
def random_layout(rng, degrees, m):
    net_start = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    xs = rng.integers(0, m, net_start[-1])
    ys = rng.integers(0, m, net_start[-1])
    return xs, ys, net_start


def per_net(decompose, xs, ys, net_start) -> List[List[int]]:
    edges = []
    for e in range(len(net_start) - 1):
        lo, hi = net_start[e], net_start[e + 1]
        for edge in decompose(xs[lo:hi], ys[lo:hi]):
            edges.append(list(edge))
    return edges


def flat_decompose_net(xs, ys):
    return [(a[0], a[1], b[0], b[1]) for a, b in decompose_net(xs, ys)]


class TestDecomposeNets:
    @pytest.mark.parametrize("m", [8, 32, 150])
    def test_equals_per_net(self, m):
        rng = np.random.default_rng(m)
        for trial in range(10):
            degrees = rng.integers(0, 12, int(rng.integers(1, 40)))
            degrees[rng.integers(0, len(degrees))] = 0          # empty net
            degrees[rng.integers(0, len(degrees))] = 1          # one pin
            if trial % 3 == 0:
                degrees[rng.integers(0, len(degrees))] = 300    # large net
            xs, ys, net_start = random_layout(rng, degrees, m)
            # Duplicate terminals: copy some pins onto their neighbours.
            dup = rng.random(len(xs)) < 0.2
            dup[0] = False
            xs[dup] = xs[np.flatnonzero(dup) - 1]
            ys[dup] = ys[np.flatnonzero(dup) - 1]
            batched = decompose_nets(xs, ys, net_start).tolist()
            assert batched == per_net(reference_decompose, xs, ys, net_start)
            assert batched == per_net(flat_decompose_net, xs, ys, net_start)

    def test_collapse_and_order(self):
        xs = np.array([1, 1, 4, 2, 2, 7, 0, 9, 9])
        ys = np.array([3, 3, 5, 2, 2, 2, 0, 1, 1])
        net_start = np.array([0, 3, 3, 5, 7, 9])
        edges = decompose_nets(xs, ys, net_start)
        # Nets: 2 distinct → 1 edge, empty, all-duplicate, 2 distinct, one
        # g-cell.
        assert edges.tolist() == [[1, 3, 4, 5], [0, 0, 7, 2]]

    def test_no_nets(self):
        edges = decompose_nets(np.array([], dtype=np.int64),
                               np.array([], dtype=np.int64), np.array([0]))
        assert edges.shape == (0, 4)


def test_single_net_wrapper_returns_python_ints():
    edges = decompose_net(np.array([4, 1, 1]), np.array([0, 2, 2]))
    assert edges == [((1, 2), (4, 0))]
    assert all(type(v) is int for edge in edges for point in edge for v in point)


def test_grid_costs_equal_reference():
    """``RoutingGrid._h_cost``/``_v_cost`` use the same run cost."""
    rng = np.random.default_rng(3)
    grid = RoutingGrid(PlacementRegion(0, 0, 300, 300), m=150, h_capacity=2.7,
                       v_capacity=3.3)
    grid.h_demand[:] = rng.integers(0, 7, grid.h_demand.shape)
    grid.v_demand[:] = rng.integers(0, 7, grid.v_demand.shape)
    for __ in range(300):
        i0, i1, j = (int(v) for v in rng.integers(0, 149, 3))
        assert grid._h_cost(i0, i1, j) == h_cost(grid, i0, i1, j)
        assert grid._v_cost(j, i0, i1) == v_cost(grid, j, i0, i1)
