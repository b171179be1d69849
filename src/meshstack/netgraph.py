"""3D network construction and shortest-path traffic evaluation.

Routers sit at the centers of occupied floorplan cells. Within a layer each
router links to the nearest occupied cell in each grid direction, so links
span empty cells; the link length is the planar Manhattan center distance
either way. Vertical links join routers of adjacent layers and cost their
redistribution length (the through-silicon hop itself is sub-mm and ignored).

Every link is a pair of directed edges with independent loads. Routing is
static single-path: Dijkstra on mm length with ties broken by hop count and
then by the lexicographically smallest (layer, row, col) node sequence, which
makes paths fully deterministic. A search pops labels in an order that does
not depend on its destination, so there is one resumable search per source
router, shared by `route_all` and the pricer: it is asked for each of the
source's destinations in turn, and every flow reads the same label a
single-pair search gives.

`route_all` is the reference: it routes one network and returns every load.
Step 4 prices many vertical-link selections on one set of floorplans, and
`selection_pricer` builds the intra-layer graph once for all of them, on
integer router ids, and returns each selection's cost bit for bit as
`route_all` on `build_network` would give it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import UnreachableError
from .model import CoreGraph, MeshFloorplan, NodeKey, TrafficEval, VerticalLink


@dataclass
class NetworkGraph:
    nodes: tuple[NodeKey, ...]
    adjacency: dict[NodeKey, tuple[tuple[NodeKey, float], ...]]
    component_router: dict[str, NodeKey]
    vlinks: tuple[VerticalLink, ...] = ()


def _planar_distance(pa: tuple[float, float], pb: tuple[float, float]) -> float:
    return abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])


def router_centres(floorplans: Sequence[MeshFloorplan]) -> dict[NodeKey, tuple[float, float]]:
    """Each router's (layer, row, col) -> the center of its cell."""
    return {(fp.layer, r, c): fp.cell_center(r, c)
            for fp in floorplans for (r, c), _comp in fp.occupied_cells()}


def build_network(floorplans: Sequence[MeshFloorplan],
                  vlinks: Iterable[VerticalLink] = ()) -> NetworkGraph:
    """Assemble the router graph from legalized floorplans and chosen
    vertical links. Vertical link lengths are recomputed from the current
    router centers so the graph always matches the geometry it was built from."""
    positions = router_centres(floorplans)
    component_router = {comp: (fp.layer, r, c)
                        for fp in floorplans for (r, c), comp in fp.occupied_cells()}
    edges: dict[NodeKey, list[tuple[NodeKey, float]]] = {key: [] for key in positions}

    def connect(a: NodeKey, b: NodeKey, length: float) -> None:
        edges[a].append((b, length))
        edges[b].append((a, length))

    for fp in floorplans:
        # row-wise: consecutive occupied cells, skipping empty ones
        for r in range(fp.rows):
            prev: Optional[int] = None
            for c in range(fp.cols):
                if fp.cell_of[r][c] is None:
                    continue
                if prev is not None:
                    a, b = (fp.layer, r, prev), (fp.layer, r, c)
                    connect(a, b, _planar_distance(positions[a], positions[b]))
                prev = c
        # column-wise
        for c in range(fp.cols):
            prev = None
            for r in range(fp.rows):
                if fp.cell_of[r][c] is None:
                    continue
                if prev is not None:
                    a, b = (fp.layer, prev, c), (fp.layer, r, c)
                    connect(a, b, _planar_distance(positions[a], positions[b]))
                prev = r

    refreshed = []
    for v in vlinks:
        rd = _planar_distance(positions[v.lower], positions[v.upper])
        connect(v.lower, v.upper, rd)
        refreshed.append(VerticalLink(lower=v.lower, upper=v.upper, rd_length=rd))

    nodes = tuple(sorted(positions))
    adjacency = {k: tuple(sorted(edges[k])) for k in nodes}
    return NetworkGraph(nodes=nodes, adjacency=adjacency,
                        component_router=component_router, vlinks=tuple(refreshed))


# a node is a NodeKey in a NetworkGraph's adjacency and an integer router id
# in the pricer's
Label = tuple[float, int, tuple]


class _Search:
    """Dijkstra from one source that stops once the asked-for node settles
    and resumes from there on the next request. Each settled node is expanded
    before the search yields, so a resumed search pops the same labels, in
    the same order, as a fresh search for the new destination. `settled`
    maps each node settled so far to its label, in settle order: the
    shortest-path tree from `src`."""

    def __init__(self, adjacency: Union[Mapping, Sequence], src):
        self.adjacency = adjacency
        self.heap: list[Label] = [(0.0, 0, (src,))]
        self.settled: dict = {}

    def label(self, dst) -> Optional[Label]:
        settled = self.settled
        if dst in settled:
            return settled[dst]
        heap, adjacency = self.heap, self.adjacency
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            entry = pop(heap)
            dist, hops, path = entry
            node = path[-1]
            if node in settled:
                continue
            settled[node] = entry
            hops += 1
            for nbr, length in adjacency[node]:
                if nbr not in settled:
                    push(heap, (dist + length, hops, path + (nbr,)))
            if node == dst:
                return entry
        return None


def shortest_path(network: NetworkGraph, src: NodeKey, dst: NodeKey,
                  searches: Optional[dict[NodeKey, _Search]] = None) -> Optional[Label]:
    """Dijkstra label: (mm length, hops, node sequence); None if unreachable.

    The full label is the heap key, so equal-length routes resolve by hop
    count and then by lexicographic node sequence. `searches` holds resumable
    searches by source router: the request continues `src`'s search there,
    starting one if it has none, and gets the label a fresh search gives.
    Without it the search is one-shot.
    """
    if searches is None:
        return _Search(network.adjacency, src).label(dst)
    search = searches.get(src)
    if search is None:
        search = searches[src] = _Search(network.adjacency, src)
    return search.label(dst)


def route_all(network: NetworkGraph, core_graph: CoreGraph,
              link_capacity: float) -> TrafficEval:
    """Route every flow, in flow order, on its shortest path and accumulate
    per-link loads. Flows from one source router share one resumable search,
    continued through `shortest_path`, so each source's labels are settled
    once; raises UnreachableError for the first flow that has no route."""
    loads: dict[tuple[NodeKey, NodeKey], float] = {}
    bw_dist = 0.0
    bw_hops = 0.0
    searches: dict[NodeKey, _Search] = {}
    for flow in core_graph.flows:
        src = network.component_router.get(flow.src)
        dst = network.component_router.get(flow.dst)
        if src is None or dst is None:
            raise UnreachableError(flow.src, flow.dst)
        result = shortest_path(network, src, dst, searches)
        if result is None:
            raise UnreachableError(flow.src, flow.dst)
        dist, hops, path = result
        bw_dist += flow.bandwidth * dist
        bw_hops += flow.bandwidth * hops
        for a, b in zip(path, path[1:]):
            loads[(a, b)] = loads.get((a, b), 0.0) + flow.bandwidth

    max_load = max(loads.values(), default=0.0)
    peak = sum(max(0.0, load - link_capacity) for load in loads.values())
    return TrafficEval(loads=loads, bw_times_distance=bw_dist, bw_times_hops=bw_hops,
                       max_link_load=max_load, peak_penalty=peak)


def selection_pricer(floorplans: Sequence[MeshFloorplan], core_graph: CoreGraph,
                     link_capacity: float, w_peak: float,
                     w_util: float) -> Callable[[Iterable[VerticalLink]], float]:
    """Step 4's cost of vertical-link selections on fixed floorplans, as
    price(links): w_util * bw_times_distance + w_peak * peak_penalty of
    route_all on build_network(floorplans, links), or inf where a flow has no
    route. The floorplans' graph is built once; each price appends the
    selection's vertical edges, asks one resumable search per source router
    for that source's destinations, and walks link loads only where one can
    exceed `link_capacity`.

    Labels are route_all's: each comes from the same search, on router ids
    that number build_network's nodes in sorted (layer, row, col) order, so
    integer paths compare as key paths do, and on build_network's edge
    lengths, a vertical edge's recomputed from the same cell centres. The
    heap key is the whole label, so the order in which vertical edges are
    appended to the adjacency lists does not matter.

    bw_times_distance adds bandwidth x label length in flow order, and the
    walk adds loads in flow order and sums the peak in first-touch order, as
    route_all does.

    A skipped walk's peak is exactly 0. Let u = 2**-53 and F the number of
    flows. In exact arithmetic the load L of link p -> v is the sum of the
    k <= F bandwidths of the flows whose path uses it: the flows from each
    source whose destination lies below v in that source's shortest-path
    tree. The walk adds those k terms in flow order to L'; the bound adds the
    same terms, per source and destination, up the tree and then over
    sources, to B. Bandwidths are > 0 (validate_instance) and float addition
    does not underflow, so a float sum of k such terms in any order is within
    a factor of 1 +- g of L, g = (k-1)u / (1 - (k-1)u) <= Fu / (1 - Fu)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2):
    L' <= (1+g) L and B >= (1-g) L. With M = 1 + 4Fu, (1+g)/(1-g) <=
    1/(1 - 2Fu) <= M while 4Fu <= 1, so B * M >= L' in exact arithmetic, and
    since L' is a float and rounding is monotone, fl(max B * M) >= L'. The
    same chain bounds every partial sum of L', so none overflows where
    fl(max B * M) is finite. If fl(max B * M) <= link_capacity, every L' is,
    every L' - link_capacity rounds to <= 0, and the peak is 0.0."""
    base = build_network(floorplans)
    node = {key: i for i, key in enumerate(base.nodes)}
    n = len(base.nodes)
    adjacency = [tuple((node[b], length) for b, length in base.adjacency[key])
                 for key in base.nodes]
    centre = router_centres(floorplans)
    router = {comp: node[key] for comp, key in base.component_router.items()}
    flows = [(router.get(f.src), router.get(f.dst), f.bandwidth) for f in core_graph.flows]
    if any(src is None or dst is None for src, dst, _bw in flows):
        return lambda links: math.inf
    ends: dict[int, dict[int, None]] = {}  # source -> its destinations, in flow order
    for src, dst, _bw in flows:
        ends.setdefault(src, {})[dst] = None
    margin = 1.0 + len(flows) * 2.0 ** -51

    def price(links: Iterable[VerticalLink]) -> float:
        graph = list(adjacency)
        for v in links:
            a, b = node[v.lower], node[v.upper]
            rd = _planar_distance(centre[v.lower], centre[v.upper])
            graph[a] += ((b, rd),)
            graph[b] += ((a, rd),)
        trees: dict[int, dict[int, Label]] = {}
        for src, dsts in ends.items():
            search = _Search(graph, src)
            tree = trees[src] = search.settled
            for dst in dsts:  # most settle while the search seeks an earlier one
                if dst not in tree and search.label(dst) is None:
                    return math.inf
        bw_dist = peak = 0.0
        for src, dst, bw in flows:
            bw_dist += bw * trees[src][dst][0]
        if w_peak > 0.0 and _max_tree_load(trees, flows, n) * margin > link_capacity:
            loads: dict[int, float] = {}
            for src, dst, bw in flows:
                path = trees[src][dst][2]
                for a, b in zip(path, path[1:]):
                    loads[a * n + b] = loads.get(a * n + b, 0.0) + bw
            peak = sum(max(0.0, load - link_capacity) for load in loads.values())
        return w_util * bw_dist + w_peak * peak
    return price


def _max_tree_load(trees: dict[int, dict[int, Label]],
                   flows: Sequence[tuple[int, int, float]], n: int) -> float:
    """The largest link load, summed per source tree: each destination's
    bandwidth total, then a node's subtree total passes to its parent, in
    reverse settle order (a node settles after its parent), and onto the
    link from the parent."""
    below_of = {src: [0.0] * n for src in trees}
    for src, dst, bw in flows:
        below_of[src][dst] += bw
    loads = [0.0] * (n * n)  # link p -> v at p * n + v
    for src, tree in trees.items():
        below = below_of[src]
        for v in reversed(tree):
            total = below[v]
            if total and v != src:
                p = tree[v][2][-2]
                below[p] += total
                loads[p * n + v] += total
    return max(loads, default=0.0)
