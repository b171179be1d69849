"""Floorplan SA and legalization: worked demands, brute-force placement
oracle, KOZ charging rules."""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from meshstack import floorplan
from meshstack.anneal import SaParams
from meshstack.area_kernel import LpResult, min_area_lp, sorted_grid
from meshstack.floorplan import (
    _state_floorplan,
    _step2_objective,
    _xy_pricer,
    floorplan_layer,
    grid_dims,
    legalize,
)
from meshstack.model import (
    ROUTER_2D,
    ROUTER_3D_BOTH,
    ROUTER_3D_DOWN,
    ROUTER_3D_UP,
    Component,
    Flow,
    ObjectiveWeights,
    VerticalLink,
    demand_grid,
)

from conftest import chain_flows, default_tech, make_fp, make_instance

SA = SaParams(initial_temp=20.0, iterations=120, cooling=0.97, seed=5)
W = ObjectiveWeights()


def _state_demands(inst, layer, state, rows, cols):
    return demand_grid(inst, _state_floorplan(layer, state, rows, cols))


def test_grid_dims_near_square():
    assert grid_dims(0) == (0, 0)
    assert grid_dims(1) == (1, 1)
    assert grid_dims(2) == (1, 2)
    assert grid_dims(3) == (2, 2)
    assert grid_dims(5) == (2, 3)
    assert grid_dims(9) == (3, 3)
    assert grid_dims(10) == (3, 4)
    for n in range(1, 40):
        r, c = grid_dims(n)
        assert r * c >= n


def test_single_component_layer():
    inst = make_instance([Component("c0", "CPU")], [], ["28nm"])
    fp = floorplan_layer(inst, 0, ["c0"], W, SA)
    assert (fp.rows, fp.cols) == (1, 1)
    assert fp.area == pytest.approx(35.8 + 1.3, rel=1e-9)
    assert fp.router_kind[0][0] == ROUTER_2D


def test_empty_layer_trivial_plan():
    inst = make_instance([Component("c0", "CPU")], [], ["28nm", "28nm"])
    fp = floorplan_layer(inst, 1, [], W, SA)
    assert fp.rows == 0 and fp.cols == 0 and fp.area == 0.0


def test_two_cpu_layer_area():
    # one row: area is exactly the demand sum 2*35.8 + 2*1.3 = 74.2
    inst = make_instance([Component("c0", "CPU"), Component("c1", "CPU")],
                         [], ["28nm"])
    fp = floorplan_layer(inst, 0, ["c0", "c1"], W, SA)
    assert fp.area == pytest.approx(74.2, rel=1e-9)


def _normal_form_lp(demands):
    """The uncached pricing of a demand grid: min_area_lp on its sorted_grid
    normal form, un-permuted back to the grid's own rows and columns."""
    grid, row_order, col_order = sorted_grid(demands)
    lp = min_area_lp(grid)
    widths, heights = [0.0] * len(col_order), [0.0] * len(row_order)
    for c, w in zip(col_order, lp.col_widths):
        widths[c] = w
    for r, h in zip(row_order, lp.row_heights):
        heights[r] = h
    return LpResult(tuple(widths), tuple(heights), sum(widths) * sum(heights))


def _reference_xy_cost(state, cols: int, widths: Sequence[float],
                       heights: Sequence[float], intra_flows, capacity: float,
                       w_peak: float, w_util: float) -> float:
    """Dimension-order routing over the full grid: columns first, then rows.
    Per-hop length is the center-to-center distance of the kernel geometry."""
    if not intra_flows or (w_peak == 0.0 and w_util == 0.0):
        return 0.0
    cell_index = {comp: i for i, comp in enumerate(state) if comp is not None}
    xs = []
    acc = 0.0
    for w in widths:
        xs.append(acc + w / 2.0)
        acc += w
    ys = []
    acc = 0.0
    for h in heights:
        ys.append(acc + h / 2.0)
        acc += h

    util = 0.0
    loads: dict[tuple[int, int, int, int], float] = {}
    for src, dst, bw in intra_flows:
        si, di = cell_index[src], cell_index[dst]
        r1, c1 = si // cols, si % cols
        r2, c2 = di // cols, di % cols
        util += bw * (abs(xs[c2] - xs[c1]) + abs(ys[r2] - ys[r1]))
        if w_peak > 0.0:
            r, c = r1, c1
            step = 1 if c2 > c else -1
            while c != c2:
                key = (r, c, r, c + step)
                loads[key] = loads.get(key, 0.0) + bw
                c += step
            step = 1 if r2 > r else -1
            while r != r2:
                key = (r, c, r + step, c)
                loads[key] = loads.get(key, 0.0) + bw
                r += step
    peak = sum(max(0.0, load - capacity) for load in loads.values())
    return w_peak * peak + w_util * util


def _state_cost(inst, layer, state, rows, cols, flows, weights):
    demands = _state_demands(inst, layer, state, rows, cols)
    lp = _normal_form_lp(demands)
    comm = _reference_xy_cost(state, cols, lp.col_widths, lp.row_heights, flows,
                              inst.tech.link_capacity, weights.w_peak, weights.w_util)
    return weights.w_area * lp.area + comm


def test_chain_of_four_matches_bruteforce():
    ids = ["a", "b", "c", "d"]
    inst = make_instance([Component(i, "CPU") for i in ids],
                         chain_flows(ids, 10.0), ["28nm"])
    fp = floorplan_layer(inst, 0, ids, W, SA)
    flows = [(f.src, f.dst, f.bandwidth) for f in inst.core_graph.flows]

    best = math.inf
    for perm in itertools.permutations(ids):
        best = min(best, _state_cost(inst, 0, perm, 2, 2, flows, W))
    got = _state_cost(inst, 0, tuple(fp.cell_of[0] + fp.cell_of[1]), 2, 2, flows, W)
    assert got == pytest.approx(best, rel=1e-9)


def test_components_conserved_and_placed_once():
    ids = [f"c{i}" for i in range(5)]
    inst = make_instance([Component(i, "CPU") for i in ids],
                         chain_flows(ids), ["28nm"])
    fp = floorplan_layer(inst, 0, ids, W, SA)
    placed = [comp for _cell, comp in fp.occupied_cells()]
    assert sorted(placed) == sorted(ids)


def test_area_only_mode_matches_bruteforce_area():
    ids = ["a", "b", "c"]
    inst = make_instance([Component("a", "CPU"), Component("b", "SIMD"),
                          Component("c", "CPU")], [], ["28nm"])
    weights = ObjectiveWeights(w_area=1.0, w_power=0.0, w_perf=0.0, w_peak=0.0, w_util=0.0)
    fp = floorplan_layer(inst, 0, ids, weights, SA)
    states = set()
    for perm in itertools.permutations(ids + [None]):
        states.add(perm)
    best = min(min_area_lp(_state_demands(inst, 0, s, 2, 2)).area for s in states)
    got = min_area_lp(_state_demands(
        inst, 0, tuple(fp.cell_of[0] + fp.cell_of[1]), 2, 2)).area
    assert got == pytest.approx(best, rel=1e-9)


def _counted_solves(monkeypatch, inst, ids):
    """The grids one anneal hands min_area_lp, and its kernel_trace."""
    solves, trace = [], []

    def counted(demands):
        solves.append(demands)
        return min_area_lp(demands)

    monkeypatch.setattr(floorplan, "min_area_lp", counted)
    floorplan_layer(inst, 0, ids, W, SA, kernel_trace=trace)
    return solves, trace


def test_equal_demand_grids_share_one_lp_solve(monkeypatch):
    """Four identical CPUs: swapping two of them leaves the demand grid as it
    was, and grids that permute each other's rows or columns share a normal
    form, so the anneal solves the LP once per distinct normal form, while
    the trace still gets one record per evaluation."""
    ids = ["c0", "c1", "c2", "c3", "s0"]
    inst = make_instance([Component(i, "CPU") for i in ids[:4]] + [Component("s0", "SIMD")],
                         chain_flows(ids, 10.0), ["28nm"])
    solves, trace = _counted_solves(monkeypatch, inst, ids)
    distinct = {tuple(map(tuple, call["demands"])) for call in trace}
    classes = {sorted_grid(grid)[0] for grid in distinct}
    assert len(trace) == SA.iterations + 1
    assert len(solves) == len(classes) <= len(distinct) < len(trace)
    for call in trace:
        assert call["area"] == _normal_form_lp(call["demands"]).area
        assert call["area"] == pytest.approx(min_area_lp(call["demands"]).area, rel=1e-12)


def test_one_component_kind_solves_one_lp(monkeypatch):
    """Eleven identical CPUs on 3x4: every state's grid is one empty cell
    among equal demands, and every empty-cell position is one row/column
    permutation class, so the anneal solves a single LP."""
    ids = [f"c{i:02d}" for i in range(11)]
    inst = make_instance([Component(i, "CPU") for i in ids], chain_flows(ids, 10.0),
                         ["28nm"])
    solves, trace = _counted_solves(monkeypatch, inst, ids)
    assert len(solves) == 1
    assert len(trace) == SA.iterations + 1 == 121


def test_large_vsoc_shaped_layer_solves_fewer_lps_than_grids(monkeypatch):
    """Seven CPUs and three SIMDs on 3x4, as a large_vsoc layer: grids that
    permute each other's rows or columns share one solve."""
    ids = [f"c{i}" for i in range(7)] + [f"s{i}" for i in range(3)]
    inst = make_instance([Component(i, "CPU" if i[0] == "c" else "SIMD") for i in ids],
                         chain_flows(ids, 10.0), ["28nm"])
    solves, trace = _counted_solves(monkeypatch, inst, ids)
    distinct = {tuple(map(tuple, call["demands"])) for call in trace}
    assert len(trace[0]["demands"]) == 3 and len(trace[0]["demands"][0]) == 4
    assert len(solves) < len(distinct)


@st.composite
def layers_and_walks(draw):
    """A one-layer instance with identical components on purpose, and a walk
    of cell swaps that is then retraced, so every state recurs."""
    kinds = draw(st.lists(st.sampled_from(["CPU", "SIMD", "ADC"]), min_size=1, max_size=4))
    kinds += [kinds[0]] * draw(st.integers(1, 3))
    comps = [Component(f"c{i}", kind) for i, kind in enumerate(kinds)]
    ends = st.lists(st.sampled_from([c.id for c in comps]), min_size=2, max_size=2,
                    unique=True)
    flows = [Flow(a, b, bw) for (a, b), bw in draw(
        st.lists(st.tuples(ends, st.floats(0.1, 200.0)), max_size=8))]
    node = "45nm" if "ADC" in kinds else draw(st.sampled_from(["28nm", "45nm"]))
    inst = make_instance(comps, flows, [node],
                         tech=default_tech(link_capacity=draw(st.sampled_from([5.0, 100.0]))))
    rows, cols = grid_dims(len(comps))
    cell = st.integers(0, rows * cols - 1)
    swaps = draw(st.lists(st.tuples(cell, cell), max_size=25))
    return inst, rows, cols, swaps + swaps[::-1]


@given(case=layers_and_walks(),
       weights=st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 3.0])] * 5).filter(any).map(
           lambda w: ObjectiveWeights(*w)))
def test_step2_objective_equals_uncached_pricing(case, weights):
    """Sharing LP solves between demand grids of one normal form changes no
    cost: every state of the walk prices exactly as a fresh solve of its
    normal form plus XY routing, and its area is the plain LP's to 1e-12."""
    inst, rows, cols, swaps = case
    members = sorted(c.id for c in inst.core_graph.components)
    flows = [(f.src, f.dst, f.bandwidth) for f in inst.core_graph.flows]
    cost = _step2_objective(inst, 0, members, rows, cols, weights)
    state = tuple(members) + (None,) * (rows * cols - len(members))
    for i, j in [(0, 0)] + swaps:  # the no-op (0, 0) prices the initial state
        cells = list(state)
        cells[i], cells[j] = cells[j], cells[i]
        state = tuple(cells)
        assert cost(state) == _state_cost(inst, 0, state, rows, cols, flows, weights)
        demands = _state_demands(inst, 0, state, rows, cols)
        assert _normal_form_lp(demands).area == pytest.approx(min_area_lp(demands).area,
                                                             rel=1e-12)


@st.composite
def xy_layers(draw):
    """Members on a grid of up to 4x4 with empty cells, flows with repeated
    ends and bandwidths whose sums round differently in another order, and
    several states, each with its own kernel geometry."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    members = [f"c{i}" for i in range(rows * cols - draw(st.integers(0, rows * cols - 1)))]
    ends = st.lists(st.sampled_from(members), min_size=2, max_size=2,
                    unique=len(members) > 1)
    bw = st.sampled_from([0.1, 1 / 3, 0.7, 2.0, 45.0]) | st.floats(0.01, 60.0)
    count = draw(st.integers(0, 3) | st.integers(0, 40))
    flows = [(a, b, w) for (a, b), w in draw(
        st.lists(st.tuples(ends, bw), min_size=count, max_size=count))]
    cells = members + [None] * (rows * cols - len(members))
    size = st.sampled_from([0.1, 1 / 3, 1.0, 6.1, 8.6]) | st.floats(0.01, 20.0)
    states = draw(st.lists(st.tuples(st.permutations(cells),
                                     st.lists(size, min_size=cols, max_size=cols),
                                     st.lists(size, min_size=rows, max_size=rows)),
                           min_size=1, max_size=4))
    return members, rows, cols, flows, states


def _heading_capacities(state, cols, flows):
    """Each flow-ordered bandwidth total of the state's eastbound, westbound,
    southbound and northbound flows, and the float just under it."""
    cell = {comp: divmod(i, cols) for i, comp in enumerate(state) if comp is not None}
    totals = {}
    for src, dst, bw in flows:
        (r1, c1), (r2, c2) = cell[src], cell[dst]
        headings = []
        if c1 != c2:
            headings.append("east" if c2 > c1 else "west")
        if r1 != r2:
            headings.append("south" if r2 > r1 else "north")
        for heading in headings:
            totals[heading] = totals.get(heading, 0.0) + bw
    return [cap for total in totals.values() for cap in (total, math.nextafter(total, 0))]


# two flows leave (1, 0) of a 3x2 grid eastward, one turning south and one
# north, and share link (1, 0) -> (1, 1): just under the eastbound total it
# exceeds capacity, while each row heading carries one of them
SHARED_EAST_LINK = ([f"c{i}" for i in range(6)], 3, 2, [("c2", "c5", 1.0), ("c2", "c1", 1.0)],
                    [(tuple(f"c{i}" for i in range(6)), [1.0, 1.0], [1.0, 1.0, 1.0])])


@given(case=xy_layers(), w_peak=st.sampled_from([1.0, 0.5, 3.0, 0.0]),
       w_util=st.sampled_from([1.0, 0.5, 3.0, 0.0]))
@example(case=SHARED_EAST_LINK, w_peak=1.0, w_util=0.0)
def test_xy_pricer_equals_reference_walk(case, w_peak, w_util):
    """The pricer's tables, memoized paths and skipped load walks change no
    bit of the XY term, at capacities below, at and just under the
    flow-ordered bandwidth total of the layer and of each heading of each
    state (just under a heading's total, a link that carries all of that
    heading's flows exceeds it)."""
    members, rows, cols, flows, states = case
    total = 0.0
    for _src, _dst, bw in flows:
        total += bw
    layer_capacities = [5.0, 100.0, total or 5.0, math.nextafter(total, 0) or 5.0,
                        0.6 * total or 5.0]
    for state, widths, heights in states:
        for capacity in layer_capacities + _heading_capacities(state, cols, flows):
            price = _xy_pricer(members, rows, cols, flows, capacity, w_peak, w_util)
            want = _reference_xy_cost(state, cols, widths, heights, flows, capacity,
                                      w_peak, w_util)
            assert price(state, widths, heights).hex() == want.hex()


# ---------------------------------------------------------------------------
# legalization
# ---------------------------------------------------------------------------

def test_legalize_without_vlinks_keeps_area():
    ids = ["a", "b", "c"]
    inst = make_instance([Component(i, "CPU") for i in ids], [], ["28nm"])
    fp = floorplan_layer(inst, 0, ids, W, SA)
    legal = legalize(inst, [fp], vlinks=[])[0]
    assert legal.cell_of == fp.cell_of
    assert legal.area == pytest.approx(fp.area, rel=1e-9)
    assert all(k in (ROUTER_2D, None) for row in legal.router_kind for k in row)


def test_downward_router_charges_koz():
    # 1x1 layers: upper cell demand = 35.8 + 1.8 + 2.0 = 39.6
    inst = make_instance([Component("lo", "CPU"), Component("hi", "CPU")],
                         [], ["28nm", "28nm"])
    fps = [make_fp(0, [["lo"]], [6.1], [6.1]), make_fp(1, [["hi"]], [6.1], [6.1])]
    vlinks = [VerticalLink(lower=(0, 0, 0), upper=(1, 0, 0), rd_length=0.0)]
    lower, upper = legalize(inst, fps, vlinks)
    assert upper.router_kind[0][0] == ROUTER_3D_DOWN
    assert upper.koz_of[0][0] == 1
    assert upper.area == pytest.approx(39.6, rel=1e-9)
    # upward-only side carries no KOZ: 35.8 + 1.8 = 37.6
    assert lower.router_kind[0][0] == ROUTER_3D_UP
    assert lower.koz_of[0][0] == 0
    assert lower.area == pytest.approx(37.6, rel=1e-9)


def test_legalized_area_never_shrinks():
    ids = [f"c{i}" for i in range(4)]
    inst = make_instance([Component(i, "CPU") for i in ids],
                         chain_flows(ids), ["28nm", "28nm"])
    fp0 = floorplan_layer(inst, 0, ids[:2], W, SA)
    fp1 = floorplan_layer(inst, 1, ids[2:], W, SA)
    pos0 = next(iter([cell for cell, _ in fp0.occupied_cells()]))
    pos1 = next(iter([cell for cell, _ in fp1.occupied_cells()]))
    vlinks = [VerticalLink(lower=(0, *pos0), upper=(1, *pos1), rd_length=0.0)]
    legal = legalize(inst, [fp0, fp1], vlinks)
    assert legal[0].area >= fp0.area - 1e-9
    assert legal[1].area >= fp1.area - 1e-9
    assert legal[1].area > fp1.area  # KOZ landed on the upper layer


def test_both_directions_router():
    inst = make_instance([Component("a", "CPU"), Component("b", "CPU"),
                          Component("c", "CPU")], [], ["28nm", "28nm", "28nm"])
    fps = [make_fp(l, [[cid]], [6.1], [6.1]) for l, cid in enumerate(["a", "b", "c"])]
    vlinks = [VerticalLink(lower=(0, 0, 0), upper=(1, 0, 0), rd_length=0.0),
              VerticalLink(lower=(1, 0, 0), upper=(2, 0, 0), rd_length=0.0)]
    legal = legalize(inst, fps, vlinks)
    assert legal[1].router_kind[0][0] == ROUTER_3D_BOTH
    assert legal[1].koz_of[0][0] == 1  # only the downward connection pays


def test_koz_redistribution_picks_area_minimizing_cell():
    """With a generous reach, the KOZ moves to whichever cell (within reach
    of the downward router) keeps the layer area smallest."""
    from meshstack.area_kernel import min_area_exact
    from meshstack.model import demand_grid

    # the upper router of the link connects downward, so redistribution acts
    # on the 2x2 upper layer
    inst2 = make_instance(
        [Component("base", "CPU")] + [Component(i, "CPU") for i in ("a", "b", "c")],
        [], ["28nm", "28nm"],
        tech=default_tech(rd=50.0))
    base = make_fp(0, [["base"]], [6.2], [6.2])
    top = make_fp(1, [["a", "b"], ["c", None]], [6.1, 6.1], [6.1, 6.1])
    links = [VerticalLink(lower=(0, 0, 0), upper=(1, 0, 0), rd_length=0.0)]
    legal = legalize(inst2, [base, top], links)[1]
    assert sum(sum(row) for row in legal.koz_of) == 1

    # oracle: try charging the KOZ to every cell and keep the best area
    best_area = None
    for r in range(2):
        for c in range(2):
            koz = [[0, 0], [0, 0]]
            koz[r][c] = 1
            trial = make_fp(1, [["a", "b"], ["c", None]], [6.1, 6.1], [6.1, 6.1],
                            router_kind=[["3d-down", "2d"], ["2d", None]], koz=koz)
            area = min_area_exact(demand_grid(inst2, trial)).area
            best_area = area if best_area is None else min(best_area, area)
    assert legal.area == pytest.approx(best_area, rel=1e-9)
    # the empty cell is the cheapest host here, not the router's own cell
    assert legal.koz_of[1][1] == 1


def test_koz_stays_in_cell_without_redistribution():
    from conftest import default_tech

    inst = make_instance([Component("lo", "CPU"), Component("hi", "CPU")],
                         [], ["28nm", "28nm"], tech=default_tech(rd=0.0))
    fps = [make_fp(0, [["lo", None]], [6.1, 6.1], [6.1]),
           make_fp(1, [["hi", None]], [6.1, 6.1], [6.1])]
    links = [VerticalLink(lower=(0, 0, 0), upper=(1, 0, 0), rd_length=0.0)]
    legal = legalize(inst, fps, links)[1]
    assert legal.koz_of[0][0] == 1 and legal.koz_of[0][1] == 0


def test_joint_sizing_colocates_routers():
    inst = make_instance([Component("a", "CPU"), Component("b", "SIMD")],
                         [], ["28nm", "28nm"])
    fps = [make_fp(0, [["a"]], [6.1], [6.1]), make_fp(1, [["b"]], [8.6], [8.6])]
    shared = legalize(inst, fps, (), colocated=True)
    assert shared[0].col_widths == shared[1].col_widths
    assert shared[0].row_heights == shared[1].row_heights
    # shared cell must fit the bigger demand (SIMD 71 + router 1.3)
    assert shared[0].area == pytest.approx(72.3, rel=1e-9)
    assert shared[0].cell_center(0, 0) == shared[1].cell_center(0, 0)
