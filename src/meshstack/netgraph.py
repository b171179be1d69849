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
not depend on its destination, so `route_all` keeps one resumable search per
source router, continued through `shortest_path` for each flow, and every
flow reads the same label a single-pair search gives.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


def build_network(floorplans: Sequence[MeshFloorplan],
                  vlinks: Iterable[VerticalLink] = ()) -> NetworkGraph:
    """Assemble the router graph from legalized floorplans and chosen
    vertical links. Vertical link lengths are recomputed from the current
    router centers so the graph always matches the geometry it was built from."""
    positions: dict[NodeKey, tuple[float, float]] = {}
    component_router: dict[str, NodeKey] = {}
    edges: dict[NodeKey, list[tuple[NodeKey, float]]] = {}

    for fp in floorplans:
        for (r, c), comp in fp.occupied_cells():
            key = (fp.layer, r, c)
            positions[key] = fp.cell_center(r, c)
            component_router[comp] = key
            edges[key] = []

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


Label = tuple[float, int, tuple[NodeKey, ...]]


class _Search:
    """Dijkstra from one source that stops once the asked-for node settles
    and resumes from there on the next request. Each settled node is expanded
    before the search yields, so a resumed search pops the same labels, in
    the same order, as a fresh search for the new destination."""

    def __init__(self, network: NetworkGraph, src: NodeKey):
        self.adjacency = network.adjacency
        self.heap: list[Label] = [(0.0, 0, (src,))]
        self.settled: dict[NodeKey, Label] = {}

    def label(self, dst: NodeKey) -> Optional[Label]:
        settled = self.settled
        if dst in settled:
            return settled[dst]
        heap, adjacency = self.heap, self.adjacency
        while heap:
            entry = heapq.heappop(heap)
            dist, hops, path = entry
            node = path[-1]
            if node in settled:
                continue
            settled[node] = entry
            for nbr, length in adjacency[node]:
                if nbr not in settled:
                    heapq.heappush(heap, (dist + length, hops + 1, path + (nbr,)))
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
        return _Search(network, src).label(dst)
    search = searches.get(src)
    if search is None:
        search = searches[src] = _Search(network, src)
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
