"""Network construction and routing: worked examples, all-pairs oracle,
per-flow routing oracle, conservation, determinism, vertical-link
monotonicity, and step 4's selection pricer against route_all."""

from __future__ import annotations

import heapq
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from meshstack.errors import UnreachableError
from meshstack.model import Component, CoreGraph, Flow, VerticalLink
from meshstack.netgraph import build_network, route_all, selection_pricer, shortest_path

from conftest import make_fp


def test_single_edge_flow():
    fp = make_fp(0, [["a", "b"]], [6.0, 6.0], [6.0])
    net = build_network([fp])
    cg = CoreGraph(components=(Component("a", "CPU"), Component("b", "CPU")),
                   flows=(Flow("a", "b", 10.0),))
    te = route_all(net, cg, link_capacity=100.0)
    assert te.bw_times_distance == pytest.approx(60.0)
    assert te.loads[((0, 0, 0), (0, 0, 1))] == pytest.approx(10.0)
    assert te.max_link_load == pytest.approx(10.0)
    assert te.peak_penalty == 0.0


def test_peak_penalty_arithmetic():
    fp = make_fp(0, [["a", "b"]], [6.0, 6.0], [6.0])
    net = build_network([fp])
    cg = CoreGraph(components=(Component("a", "CPU"), Component("b", "CPU")),
                   flows=(Flow("a", "b", 60.0), Flow("a", "b", 60.0)))
    te = route_all(net, cg, link_capacity=100.0)
    assert te.loads[((0, 0, 0), (0, 0, 1))] == pytest.approx(120.0)
    assert te.peak_penalty == pytest.approx(20.0)
    assert te.max_link_load == pytest.approx(120.0)


def test_links_span_empty_cells():
    fp = make_fp(0, [["a", None, "b"]], [4.0, 4.0, 4.0], [4.0])
    net = build_network([fp])
    result = shortest_path(net, (0, 0, 0), (0, 0, 2))
    assert result is not None
    dist, hops, path = result
    assert hops == 1                       # one link, spanning the hole
    assert dist == pytest.approx(8.0)      # center-to-center distance


def test_unreachable_names_flow():
    fps = [make_fp(0, [["a"]], [6.0], [6.0]), make_fp(1, [["b"]], [6.0], [6.0])]
    net = build_network(fps)  # no vertical links
    cg = CoreGraph(components=(Component("a", "CPU"), Component("b", "CPU")),
                   flows=(Flow("a", "b", 1.0),))
    with pytest.raises(UnreachableError) as err:
        route_all(net, cg, 100.0)
    assert "a" in str(err.value) and "b" in str(err.value)


def random_network(rng):
    """Two random 3x3 layers plus random vertical links."""
    fps = []
    comps = []
    for layer in range(2):
        cells = [[None] * 3 for _ in range(3)]
        n = rng.randint(3, 9)
        spots = rng.sample([(r, c) for r in range(3) for c in range(3)], n)
        for k, (r, c) in enumerate(spots):
            cid = f"l{layer}n{k}"
            cells[r][c] = cid
            comps.append(Component(cid, "CPU"))
        widths = [rng.uniform(2.0, 8.0) for _ in range(3)]
        heights = [rng.uniform(2.0, 8.0) for _ in range(3)]
        fps.append(make_fp(layer, cells, widths, heights))
    pairs = [(l, u) for _cell, l in [((r, c), (0, r, c)) for (r, c), _ in fps[0].occupied_cells()]
             for u in [(1, r2, c2) for (r2, c2), _ in fps[1].occupied_cells()]]
    vlinks = []
    for lower, upper in rng.sample(pairs, min(len(pairs), rng.randint(0, 4))):
        vlinks.append(VerticalLink(lower=lower, upper=upper, rd_length=0.0))
    return fps, comps, vlinks


def floyd_warshall(net):
    nodes = list(net.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for a in nodes:
        for b, length in net.adjacency[a]:
            dist[idx[a]][idx[b]] = min(dist[idx[a]][idx[b]], length)
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            for j in range(n):
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return idx, dist


def test_paths_match_floyd_warshall_oracle():
    rng = random.Random(321)
    for _ in range(50):
        fps, comps, vlinks = random_network(rng)
        net = build_network(fps, vlinks)
        idx, dist = floyd_warshall(net)
        ids = [c.id for c in comps]
        for _ in range(6):
            a, b = rng.sample(ids, 2)
            na, nb = net.component_router[a], net.component_router[b]
            expected = dist[idx[na]][idx[nb]]
            got = shortest_path(net, na, nb)
            if expected == math.inf:
                assert got is None
            else:
                assert got is not None
                assert got[0] == pytest.approx(expected, abs=1e-9)


def test_load_conservation_and_determinism():
    rng = random.Random(654)
    for _ in range(30):
        fps, comps, vlinks = random_network(rng)
        net = build_network(fps, vlinks)
        idx, dist = floyd_warshall(net)
        ids = [c.id for c in comps]
        flows = []
        for _ in range(8):
            a, b = rng.sample(ids, 2)
            if dist[idx[net.component_router[a]]][idx[net.component_router[b]]] < math.inf:
                flows.append(Flow(a, b, rng.uniform(1.0, 20.0)))
        cg = CoreGraph(components=tuple(comps), flows=tuple(flows))
        te1 = route_all(net, cg, 100.0)
        te2 = route_all(net, cg, 100.0)
        assert te1.loads == te2.loads
        assert te1.bw_times_distance == te2.bw_times_distance
        # sum of link loads == sum over flows of bandwidth * hop count
        assert sum(te1.loads.values()) == pytest.approx(te1.bw_times_hops, rel=1e-12)


def early_exit_label(net, src, dst):
    """Reference single-pair Dijkstra: returns as soon as dst pops."""
    heap = [(0.0, 0, (src,))]
    done = set()
    while heap:
        dist, hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        if node == dst:
            return (dist, hops, path)
        for nbr, length in net.adjacency[node]:
            if nbr not in done:
                heapq.heappush(heap, (dist + length, hops + 1, path + (nbr,)))
    return None


def route_each_flow(net, cg, capacity):
    """route_all's metrics from a fresh shortest_path per flow, in flow order."""
    loads = {}
    bw_dist = bw_hops = 0.0
    for flow in cg.flows:
        src, dst = net.component_router[flow.src], net.component_router[flow.dst]
        result = shortest_path(net, src, dst)
        assert result == early_exit_label(net, src, dst)
        if result is None:
            raise UnreachableError(flow.src, flow.dst)
        dist, hops, path = result
        bw_dist += flow.bandwidth * dist
        bw_hops += flow.bandwidth * hops
        for a, b in zip(path, path[1:]):
            loads[(a, b)] = loads.get((a, b), 0.0) + flow.bandwidth
    return (loads, bw_dist, bw_hops, max(loads.values(), default=0.0),
            sum(max(0.0, load - capacity) for load in loads.values()))


@st.composite
def routed_networks(draw):
    """A random_network plus flows that repeat a few sources and
    destinations; with no vertical link, or a layer split by holes, some
    flows are unreachable."""
    fps, comps, vlinks = random_network(draw(st.randoms(use_true_random=False)))
    ids = [c.id for c in comps]
    hubs = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
    end = st.sampled_from(hubs) | st.sampled_from(ids)
    flows = draw(st.lists(st.builds(Flow, end, end, st.floats(0.5, 80.0)), max_size=16))
    return build_network(fps, vlinks), CoreGraph(components=tuple(comps), flows=tuple(flows))


@given(case=routed_networks())
def test_route_all_equals_per_flow_routing(case):
    net, cg = case
    try:
        expected = route_each_flow(net, cg, 100.0)
    except UnreachableError as err:
        with pytest.raises(UnreachableError) as got:
            route_all(net, cg, 100.0)
        assert (got.value.src, got.value.dst) == (err.src, err.dst)
        return
    te = route_all(net, cg, 100.0)
    assert list(te.loads.items()) == list(expected[0].items())
    assert (te.bw_times_distance, te.bw_times_hops, te.max_link_load,
            te.peak_penalty) == expected[1:]


def test_removing_vlink_never_shortens_paths():
    rng = random.Random(987)
    checked = 0
    while checked < 20:
        fps, comps, vlinks = random_network(rng)
        if not vlinks:
            continue
        full = build_network(fps, vlinks)
        reduced = build_network(fps, vlinks[:-1])
        idx_f, dist_f = floyd_warshall(full)
        idx_r, dist_r = floyd_warshall(reduced)
        for a in full.nodes:
            for b in full.nodes:
                if dist_r[idx_r[a]][idx_r[b]] < math.inf:
                    assert (dist_r[idx_r[a]][idx_r[b]]
                            >= dist_f[idx_f[a]][idx_f[b]] - 1e-9)
        checked += 1


def test_tie_break_prefers_fewer_hops_then_lex():
    # square of equal link lengths: two equal-length routes from corner to corner
    fp = make_fp(0, [["a", "b"], ["c", "d"]], [4.0, 4.0], [4.0, 4.0])
    net = build_network([fp])
    dist, hops, path = shortest_path(net, (0, 0, 0), (0, 1, 1))
    assert dist == pytest.approx(8.0)
    assert hops == 2
    # lexicographically smallest node sequence: via (0,0,1)
    assert path == ((0, 0, 0), (0, 0, 1), (0, 1, 1))


@st.composite
def stacked_selections(draw):
    """Two or three layers of up to 3x3 cells, some empty, all cells one size
    so that equal-length paths tie; flows that repeat a few sources, with
    bandwidths whose sums round differently in another order; and a few
    vertical-link selections, each a random matching per boundary, none
    included, so that some flows are unreachable."""
    rng = draw(st.randoms(use_true_random=False))
    size = draw(st.sampled_from([1.0, 2.5, 6.0]))
    fps, ids = [], []
    for layer in range(draw(st.integers(2, 3))):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        spots = rng.sample(range(rows * cols), rng.randint(1, rows * cols))
        cells = [[None] * cols for _ in range(rows)]
        for k, spot in enumerate(spots):
            cells[spot // cols][spot % cols] = f"l{layer}n{k}"
            ids.append(f"l{layer}n{k}")
        fps.append(make_fp(layer, cells, [size] * cols, [size] * rows))
    hubs = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
    end = st.sampled_from(hubs) | st.sampled_from(ids)
    bw = st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7, 45.0]) | st.floats(0.01, 60.0)
    flows = draw(st.lists(st.builds(Flow, end, end, bw), max_size=24))
    selections = []
    for _ in range(draw(st.integers(1, 3))):
        links = []
        for lower, upper in zip(fps, fps[1:]):
            los = [(lower.layer, r, c) for (r, c), _comp in lower.occupied_cells()]
            ups = [(upper.layer, r, c) for (r, c), _comp in upper.occupied_cells()]
            count = rng.randint(0, min(len(los), len(ups)))
            links += [VerticalLink(lower=lo, upper=up, rd_length=0.0)
                      for lo, up in zip(rng.sample(los, count), rng.sample(ups, count))]
        selections.append(links)
    components = tuple(Component(i, "CPU") for i in ids)
    return fps, CoreGraph(components=components, flows=tuple(flows)), selections


# a row a-b-c-d: flows a->d (0.1), b->d (0.2), b->d (0.3) load b->c and
# c->d with 0.1 + 0.2 + 0.3 = 0.6000000000000001 in flow order, while per
# source they sum to 0.1 + (0.2 + 0.3) = 0.6, just under
ROUNDED_DOWN_BOUND = (
    [make_fp(0, [["a", "b", "c", "d"]], [1.0] * 4, [1.0]), make_fp(1, [["e"]], [1.0], [1.0])],
    CoreGraph(components=tuple(Component(i, "CPU") for i in "abcde"),
              flows=(Flow("a", "d", 0.1), Flow("b", "d", 0.2), Flow("b", "d", 0.3))),
    [[]])


# a row a-b-c: flows a->c (60) and b->c (40) load b->c with exactly 100;
# integer bandwidths sum exactly, so at a capacity of 100 the pricer skips
# the walk without a rounding margin
INTEGER_LOAD_AT_CAPACITY = (
    [make_fp(0, [["a", "b", "c"]], [1.0] * 3, [1.0]), make_fp(1, [["d"]], [1.0], [1.0])],
    CoreGraph(components=tuple(Component(i, "CPU") for i in "abcd"),
              flows=(Flow("a", "c", 60.0), Flow("b", "c", 40.0))),
    [[]])


@given(case=stacked_selections(), w_peak=st.sampled_from([0.0, 1.0, 2.5]),
       w_util=st.sampled_from([1.0, 0.5]))
@example(case=ROUNDED_DOWN_BOUND, w_peak=1.0, w_util=0.0)
@example(case=INTEGER_LOAD_AT_CAPACITY, w_peak=1.0, w_util=0.0)
def test_selection_pricer_equals_route_all(case, w_peak, w_util):
    """Each selection prices bit for bit as route_all on build_network, or
    inf where a flow is unreachable, at capacities at and just under the
    largest link load (where the skipped walk's bound is tightest), below it
    and far above it. The pricer and route_all run one search, so route_all's
    loads are also checked against route_each_flow, whose every label equals
    early_exit_label's."""
    fps, cg, selections = case
    for links in selections:
        net = build_network(fps, links)
        try:
            expected = route_each_flow(net, cg, 1e9)
        except UnreachableError:
            expected = None
        if expected is None:
            with pytest.raises(UnreachableError):
                route_all(net, cg, 1e9)
            max_load = None
        else:
            assert list(route_all(net, cg, 1e9).loads.items()) == list(expected[0].items())
            max_load = expected[3]
        capacities = ([1e9] if max_load is None else
                      [max_load, math.nextafter(max_load, 0), 0.6 * max_load, 1e9])
        for capacity in capacities:
            price = selection_pricer(fps, cg, capacity, w_peak, w_util)
            if max_load is None:
                assert price(links) == math.inf
                continue
            te = route_all(net, cg, capacity)
            want = w_util * te.bw_times_distance + w_peak * te.peak_penalty
            assert price(links).hex() == want.hex()


@st.composite
def swap_walks(draw):
    """stacked_selections' layers and flows, and a walk of vertical-link
    selections from its first selection: each step takes the newest or an
    earlier selection of the walk and swaps one of a boundary's links out and
    another pair of that boundary in (a vertically aligned pair is a
    zero-length link), or only one of the two where the boundary has no link
    or no free pair, or revisits an earlier selection."""
    fps, cg, selections = draw(stacked_selections())
    rng = draw(st.randoms(use_true_random=False))
    boundaries = [[VerticalLink(lower=(lower.layer, *lo), upper=(upper.layer, *up), rd_length=0.0)
                   for lo, _comp in lower.occupied_cells() for up, _comp2 in upper.occupied_cells()]
                  for lower, upper in zip(fps, fps[1:])]
    walk = [selections[0]]
    for _ in range(draw(st.integers(1, 10))):
        links = walk[-1] if rng.random() < 0.7 else rng.choice(walk)
        if rng.random() < 0.15:
            walk.append(links)
            continue
        pairs = rng.choice(boundaries)
        out = [v for v in links if v in pairs]
        free = [v for v in pairs if v not in links]
        gone = rng.choice(out) if out else None
        walk.append([v for v in links if v != gone] + ([rng.choice(free)] if free else []))
    return fps, cg, walk


# layer 0 routes s -> p -> q -> d (5 mm) and reaches layer 1 through d's
# link only, after d settles; adding a zero-length link at s routes s ->
# d over layer 1 in 3 mm, through a router the old tree never settled
SHORTCUT_THROUGH_AN_UNSETTLED_ROUTER = (
    [make_fp(0, [["s", None, None], [None, None, "d"], ["p", None, "q"]], [1.0] * 3, [1.0] * 3),
     make_fp(1, [[f"u{r}{c}" for c in range(3)] for r in range(3)], [1.0] * 3, [1.0] * 3)],
    CoreGraph(components=tuple(Component(i, "CPU") for i in
                               ["s", "d", "p", "q"] + [f"u{r}{c}" for r in range(3) for c in range(3)]),
              flows=(Flow("s", "d", 10.0),)),
    [[VerticalLink(lower=(0, 1, 2), upper=(1, 1, 2), rd_length=0.0)],
     [VerticalLink(lower=(0, 1, 2), upper=(1, 1, 2), rd_length=0.0),
      VerticalLink(lower=(0, 0, 0), upper=(1, 0, 0), rd_length=0.0)]])


# s -> d runs over the zero-length link s-d; swapping it for p-q takes away
# d's tree edge, so d's old label is the horizon and must not be kept
SWAP_OUT_A_TREE_LINK = (
    [make_fp(0, [["s", "p"]], [1.0] * 2, [1.0]), make_fp(1, [["d", "q"]], [1.0] * 2, [1.0])],
    CoreGraph(components=tuple(Component(i, "CPU") for i in "spdq"),
              flows=(Flow("s", "d", 10.0), Flow("s", "q", 5.0))),
    [[VerticalLink(lower=(0, 0, 0), upper=(1, 0, 0), rd_length=0.0)],
     [VerticalLink(lower=(0, 0, 1), upper=(1, 0, 1), rd_length=0.0)]])


@given(case=swap_walks())
@example(case=SHORTCUT_THROUGH_AN_UNSETTLED_ROUTER)
@example(case=SWAP_OUT_A_TREE_LINK)
def test_selection_pricer_equals_route_all_along_a_swap_walk(case):
    """One pricer prices a walk of selections one swap apart, resuming its
    searches from the trees of earlier selections, each bit for bit as
    route_all on build_network, or inf where a flow is unreachable, at a
    capacity at and just under the largest link load of the walk."""
    fps, cg, walk = case
    nets = [build_network(fps, links) for links in walk]
    largest = []
    for net in nets:
        try:
            largest.append(route_all(net, cg, 1e9).max_link_load)
        except UnreachableError:
            largest.append(None)
    top = max((load for load in largest if load is not None), default=1e9)
    for capacity in (top, math.nextafter(top, 0)):
        price = selection_pricer(fps, cg, capacity, 1.0, 1.0)
        for links, net, load in zip(walk, nets, largest):
            if load is None:
                assert price(links) == math.inf
                continue
            te = route_all(net, cg, capacity)
            assert price(links).hex() == (te.bw_times_distance + te.peak_penalty).hex()
