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
`route_all` on `build_network` would give it. A selection one link swap
away from one it priced before resumes each source's search after the part
of the old shortest-path tree that the swap cannot change.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
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
        # each row, then each column: link consecutive occupied cells, skipping empty ones
        lines = ([[(r, c) for c in range(fp.cols)] for r in range(fp.rows)]
                 + [[(r, c) for r in range(fp.rows)] for c in range(fp.cols)])
        for line in lines:
            routers = [(fp.layer, r, c) for r, c in line if fp.cell_of[r][c] is not None]
            for a, b in zip(routers, routers[1:]):
                connect(a, b, _planar_distance(positions[a], positions[b]))

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
    shortest-path tree from `src`.

    `prefix`, if given, is the settled map (from `src`, in settle order)
    that a fresh search on `adjacency` settles first; the search takes it
    over and resumes after it, its heap holding every label that extends a
    prefix node to a node outside it. A fresh search's heap holds those
    labels at that point too, besides labels of prefix nodes, which it
    skips, so both settle the same labels from there on."""

    def __init__(self, adjacency: Union[Mapping, Sequence], src,
                 prefix: Optional[dict] = None):
        self.adjacency = adjacency
        if prefix is None:
            self.heap: list[Label] = [(0.0, 0, (src,))]
            self.settled: dict = {}
        else:
            self.heap = [(dist + length, hops + 1, path + (nbr,))
                         for node, (dist, hops, path) in prefix.items()
                         for nbr, length in adjacency[node] if nbr not in prefix]
            heapq.heapify(self.heap)
            self.settled = prefix

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


_KEPT = 8  # selections whose trees a pricer keeps


def selection_pricer(floorplans: Sequence[MeshFloorplan], core_graph: CoreGraph,
                     link_capacity: float, w_peak: float,
                     w_util: float) -> Callable[[Iterable[VerticalLink]], float]:
    """Step 4's cost of vertical-link selections on fixed floorplans, as
    price(links): w_util * bw_times_distance + w_peak * peak_penalty of
    route_all on build_network(floorplans, links), or inf where a flow has no
    route. The floorplans' graph is built once; each price appends the
    selection's vertical edges, takes each source router's shortest-path
    tree up to its last destination, reusing what it can of the trees of
    selections priced before, and walks link loads only where one can
    exceed `link_capacity`.

    Labels are route_all's: each comes from the same search, on router ids
    that number build_network's nodes in sorted (layer, row, col) order, so
    integer paths compare as key paths do, and on build_network's edge
    lengths, a vertical edge's recomputed from the same cell centres. The
    heap key is the whole label, so the order in which vertical edges are
    appended to the adjacency lists does not matter.

    Reuse. price keeps the trees of the last `_KEPT` selections it priced
    finite, the most recently used last. Its bases for a selection are the
    kept ones that differ from it by at most one removed and one added
    vertical edge. A search pops labels in increasing order (a pushed label
    extends the popped one by an edge of length >= 0 and one more hop) and
    each label once (each node settles once, so each path is pushed once),
    so its i-th settled label is the least label that extends one of the
    first i - 1 along an edge to a node outside them. On the new graph those
    candidates lose the extensions along the removed edge and gain those
    along the added one. For a base's tree of a source, the horizon tau is
    the least of: the old label of a node whose tree parent edge is the
    removed edge; and, for each direction (u, v) of the added edge with u
    settled, ext = u's label extended along it to v, where ext is below v's
    old label, or below the last settled label if v is unsettled. By
    induction every old label s < tau is also the new search's next
    settled label: s does not end on the removed edge, so it is still a
    candidate; the labels settled before s are the old ones, so each new
    candidate ext from one of them to a node v outside them either is >= tau
    > s, or is at least v's old label or the last settled label, both >= s
    as v settles at or after s or not at all, and ext != s as it ends on the
    added edge. So the new search settles exactly the old labels below tau
    first, and a search resumed after them settles what it settles from
    there (_Search). Without a tau the new search settles the whole old tree
    first, and that tree ends where the source's last destination settles,
    so the old tree is the new one and is shared. price takes the base with
    the largest tau, or one without.

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
    every L' - link_capacity rounds to <= 0, and the peak is 0.0. Where
    every bandwidth is an integer and their total is at most 2**53, every
    sum of some of them, in any order, is an integer of at most 2**53, which
    a float holds exactly, so every addition is exact, B = L = L', and M = 1
    is enough."""
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
    demand: dict[int, list[float]] = {}  # source -> bandwidth total per destination
    for src, dst, bw in flows:
        if src not in ends:
            ends[src], demand[src] = {}, [0.0] * n
        ends[src][dst] = None
        demand[src][dst] += bw
    exact = (all(float(bw).is_integer() for _src, _dst, bw in flows)
             and sum(int(bw) for _src, _dst, bw in flows) <= 2 ** 53)
    margin = 1.0 if exact else 1.0 + len(flows) * 2.0 ** -51
    kept: dict[frozenset, dict[int, dict[int, Label]]] = {}  # selection -> its trees

    def price(links: Iterable[VerticalLink]) -> float:
        graph = list(adjacency)
        vertical: dict[tuple[int, int], float] = {}
        for v in links:
            a, b = node[v.lower], node[v.upper]
            rd = vertical[a, b] = _planar_distance(centre[v.lower], centre[v.upper])
            graph[a] += ((b, rd),)
            graph[b] += ((a, rd),)
        selection = frozenset(vertical)
        bases = []  # (old selection, its trees, removed edges, added edges with lengths)
        for old, old_trees in kept.items():
            removed, added = old - selection, selection - old
            if len(removed) <= 1 and len(added) <= 1:
                bases.append((old, old_trees, removed, [(edge, vertical[edge]) for edge in added]))
        trees: dict[int, dict[int, Label]] = {}
        for src, dsts in ends.items():
            tree = resume = None
            for _old, old_trees, removed, added in bases:
                old_tree = old_trees[src]
                tau = _horizon(old_tree, removed, added)
                if tau is None:
                    tree = old_tree
                    break
                if resume is None or tau > resume[0]:
                    resume = (tau, old_tree)
            if tree is None:
                prefix = None
                if resume is not None:  # the old labels below tau, in settle order
                    tau, old_tree = resume
                    below = bisect.bisect_left(list(old_tree.values()), tau)
                    prefix = dict(itertools.islice(old_tree.items(), below))
                search = _Search(graph, src, prefix)
                tree = search.settled
                for dst in dsts:  # most settle while the search seeks an earlier one
                    if dst not in tree and search.label(dst) is None:
                        return math.inf
            trees[src] = tree
        for old, *_ in bases:
            kept[old] = kept.pop(old)
        kept[selection] = trees
        if len(kept) > _KEPT:
            del kept[next(iter(kept))]
        bw_dist = peak = 0.0
        for src, dst, bw in flows:
            bw_dist += bw * trees[src][dst][0]
        if w_peak > 0.0 and _max_tree_load(trees, demand, n) * margin > link_capacity:
            loads: dict[int, float] = {}
            for src, dst, bw in flows:
                path = trees[src][dst][2]
                for a, b in zip(path, path[1:]):
                    loads[a * n + b] = loads.get(a * n + b, 0.0) + bw
            peak = sum(max(0.0, load - link_capacity) for load in loads.values())
        return w_util * bw_dist + w_peak * peak
    return price


def _horizon(tree: dict[int, Label], removed: Iterable[tuple[int, int]],
             added: Iterable[tuple[tuple[int, int], float]]) -> Optional[Label]:
    """The least label of `tree` that removing the `removed` edges and adding
    the `added` (edge, length) pairs can change (selection_pricer's tau), or
    None if it changes none."""
    tau = None
    for a, b in removed:
        for parent, v in ((a, b), (b, a)):
            label = tree.get(v)
            if label is not None and label[1] and label[2][-2] == parent and (tau is None or label < tau):
                tau = label
    last = next(reversed(tree.values()))
    for (a, b), length in added:
        for u, v in ((a, b), (b, a)):
            label = tree.get(u)
            if label is not None:
                ext = (label[0] + length, label[1] + 1, label[2] + (v,))
                if ext < tree.get(v, last) and (tau is None or ext < tau):
                    tau = ext
    return tau


def _max_tree_load(trees: dict[int, dict[int, Label]],
                   demand: Mapping[int, Sequence[float]], n: int) -> float:
    """The largest link load, summed per source tree: each destination's
    bandwidth total (`demand`, per source), then a node's subtree total
    passes to its parent, in reverse settle order (a node settles after its
    parent), and onto the link from the parent."""
    loads = [0.0] * (n * n)  # link p -> v at p * n + v
    for src, tree in trees.items():
        below = list(demand[src])
        for v, (_dist, _hops, path) in reversed(tree.items()):
            total = below[v]
            if total and v != src:
                p = path[-2]
                below[p] += total
                loads[p * n + v] += total
    return max(loads, default=0.0)
