"""3D network construction and shortest-path traffic evaluation.

Routers sit at the centers of occupied floorplan cells. Within a layer each
router links to the nearest occupied cell in each grid direction, so links
span empty cells; the link length is the planar Manhattan center distance
either way. Vertical links join routers of adjacent layers and cost their
redistribution length (the through-silicon hop itself is sub-mm and ignored).

Every link is a pair of directed edges with independent loads. Routing is
static single-path: Dijkstra on mm length with ties broken by hop count and
then by the lexicographically smallest (layer, row, col) node sequence, which
makes paths fully deterministic.
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


def shortest_path(network: NetworkGraph, src: NodeKey, dst: NodeKey
                  ) -> Optional[tuple[float, int, tuple[NodeKey, ...]]]:
    """Dijkstra label: (mm length, hops, node sequence); None if unreachable.

    The full label is the heap key, so equal-length routes resolve by hop
    count and then by lexicographic node sequence.
    """
    if src == dst:
        return (0.0, 0, (src,))
    heap: list[tuple[float, int, tuple[NodeKey, ...]]] = [(0.0, 0, (src,))]
    done: set[NodeKey] = set()
    while heap:
        dist, hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        if node == dst:
            return (dist, hops, path)
        for nbr, length in network.adjacency[node]:
            if nbr not in done:
                heapq.heappush(heap, (dist + length, hops + 1, path + (nbr,)))
    return None


def route_all(network: NetworkGraph, core_graph: CoreGraph,
              link_capacity: float) -> TrafficEval:
    """Route every flow on its shortest path and accumulate per-link loads."""
    loads: dict[tuple[NodeKey, NodeKey], float] = {}
    bw_dist = 0.0
    bw_hops = 0.0
    for flow in core_graph.flows:
        src = network.component_router.get(flow.src)
        dst = network.component_router.get(flow.dst)
        if src is None or dst is None:
            raise UnreachableError(flow.src, flow.dst)
        result = shortest_path(network, src, dst)
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
