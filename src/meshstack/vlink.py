"""Vertical-link placement: which router pairs get a TSV array (Step 4 SA).

Candidates are router pairs of adjacent layers whose planar Manhattan
distance fits the redistribution reach. The annealer keeps one fixed-size
subset per boundary (each router carries at most one vertical link per
direction, so subsets are bipartite matchings) and swaps a selected candidate
against an unselected compatible one. Cost is the routed network outcome:
w_util * bandwidth-distance + w_peak * overload excess, priced by one
netgraph.selection_pricer per call: the floorplans' graph is built once and
each distinct selection is routed once on it, bit for bit as route_all on
build_network would route it.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from .anneal import SaParams, anneal
from .errors import InsufficientCandidatesError, NoCandidatesError
from .model import Instance, MeshFloorplan, NodeKey, ObjectiveWeights, VerticalLink
# build_network and route_all are unused here but kept: perfbench/layertrace.py
# patches vlink.build_network and vlink.route_all
from .netgraph import build_network, route_all, router_centres, selection_pricer  # noqa: F401
from .tsv_count import cross_boundary_traffic, _component_positions, _layer_of


def candidate_links(floorplans: Sequence[MeshFloorplan], boundary: int,
                    reach: float) -> list[VerticalLink]:
    """All lower/upper router pairs within the redistribution reach, sorted by
    (rd_length, lower, upper). Raises NoCandidatesError with the minimum
    reach that would yield at least one pair."""
    lower = next(fp for fp in floorplans if fp.layer == boundary)
    upper = next(fp for fp in floorplans if fp.layer == boundary + 1)
    pairs: list[VerticalLink] = []
    best_dist = None
    for (lr, lc), _comp in lower.occupied_cells():
        lx, ly = lower.cell_center(lr, lc)
        for (ur, uc), _comp2 in upper.occupied_cells():
            ux, uy = upper.cell_center(ur, uc)
            dist = abs(lx - ux) + abs(ly - uy)
            best_dist = dist if best_dist is None else min(best_dist, dist)
            if dist <= reach + 1e-9:
                pairs.append(VerticalLink(lower=(boundary, lr, lc),
                                          upper=(boundary + 1, ur, uc),
                                          rd_length=dist))
    if not pairs:
        hint = ("no routers exist on one side of the boundary" if best_dist is None
                else f"the smallest pair distance is {best_dist:.3f} mm")
        raise NoCandidatesError(
            f"boundary {boundary}: no router pair within reach {reach:.3f} mm; {hint}")
    pairs.sort(key=lambda v: (v.rd_length, v.lower, v.upper))
    return pairs


def _matching(candidates: Sequence[VerticalLink], order: Sequence[int]) -> list[int]:
    """A maximum matching (one link per router and direction) as candidate
    indices: classic augmenting paths over the lower routers in sorted order,
    each trying its candidates in the given preference order."""
    adjacency: dict[NodeKey, list[int]] = {}
    for i in order:
        adjacency.setdefault(candidates[i].lower, []).append(i)
    match_upper: dict[NodeKey, int] = {}

    def augment(low: NodeKey, visited: set[NodeKey]) -> bool:
        for i in adjacency[low]:
            up = candidates[i].upper
            if up in visited:
                continue
            visited.add(up)
            if up not in match_upper or augment(candidates[match_upper[up]].lower, visited):
                match_upper[up] = i
                return True
        return False

    for low in sorted(adjacency):
        augment(low, set())
    return list(match_upper.values())


def max_matching_size(candidates: Sequence[VerticalLink]) -> int:
    """Maximum number of candidates usable at once."""
    return len(_matching(candidates, range(len(candidates))))


def _compatible(link: VerticalLink, chosen: Sequence[VerticalLink]) -> bool:
    return all(link.lower != o.lower and link.upper != o.upper for o in chosen)


def _greedy(candidates: Sequence[VerticalLink], order: Sequence[int],
            count: int) -> list[int]:
    """Up to `count` pairwise compatible candidates, taken in the given order."""
    chosen: list[int] = []
    for i in order:
        if len(chosen) == count:
            break
        if _compatible(candidates[i], [candidates[j] for j in chosen]):
            chosen.append(i)
    return chosen


def _initial_selection(candidates: Sequence[VerticalLink], count: int,
                       centroid: tuple[float, float],
                       positions: Mapping[NodeKey, tuple[float, float]]) -> tuple[int, ...]:
    """Greedy start: candidates nearest (midpoint) to the traffic centroid,
    completed by augmenting paths when the greedy order runs into conflicts."""
    def midpoint_dist(v: VerticalLink) -> float:
        lx, ly = positions[v.lower]
        ux, uy = positions[v.upper]
        mx, my = (lx + ux) / 2.0, (ly + uy) / 2.0
        return abs(mx - centroid[0]) + abs(my - centroid[1])

    order = sorted(range(len(candidates)),
                   key=lambda i: (midpoint_dist(candidates[i]), i))
    chosen = _greedy(candidates, order, count)
    if len(chosen) < count:
        # greedy blocked itself; rebuild via matching over the preferred order
        chosen = sorted(_matching(candidates, order),
                        key=lambda i: (midpoint_dist(candidates[i]), i))[:count]
        if len(chosen) < count:
            raise InsufficientCandidatesError(
                f"only {len(chosen)} compatible candidates for count {count}")
    return tuple(sorted(chosen))


def _shortest_selection(candidates: Sequence[VerticalLink], count: int) -> tuple[int, ...]:
    """Alternative start: the `count` shortest-RD compatible candidates, or
    () when the greedy pass blocks (the caller keeps the centroid start)."""
    # candidates are already sorted by (rd_length, lower, upper)
    chosen = _greedy(candidates, range(len(candidates)), count)
    return tuple(sorted(chosen)) if len(chosen) == count else ()


def place_vlinks(instance: Instance, floorplans: Sequence[MeshFloorplan],
                 counts: Mapping[int, int], weights: ObjectiveWeights,
                 sa_params: SaParams) -> tuple[list[VerticalLink], float]:
    """Choose counts[b] vertical links per boundary b by simulated annealing;
    returns the links and their cost.

    Cost routes the entire core graph over the full 3D network of the
    current selection, once per distinct selection (selection_pricer);
    states that leave a flow unreachable price as +inf. With no count above
    0 the empty selection is priced and returned.
    """
    boundaries = sorted(b for b, cnt in counts.items() if cnt > 0)
    reach = instance.tech.rd_max_length
    cands: dict[int, list[VerticalLink]] = {}
    for b in boundaries:
        cands[b] = candidate_links(floorplans, b, reach)
        if counts[b] > len(cands[b]):
            raise InsufficientCandidatesError(
                f"boundary {b}: {counts[b]} links requested but only "
                f"{len(cands[b])} candidates within reach {reach:.3f} mm")
        most = max_matching_size(cands[b])
        if counts[b] > most:
            raise InsufficientCandidatesError(
                f"boundary {b}: {counts[b]} links requested but at most {most} "
                "can coexist (one per router and direction)")

    def links_of(state) -> list[VerticalLink]:
        return [cands[b][i] for b, sel in zip(boundaries, state) for i in sel]

    price = selection_pricer(floorplans, instance.core_graph, instance.tech.link_capacity,
                             weights.w_peak, weights.w_util)
    if not boundaries:
        return [], price([])

    positions = _component_positions(floorplans)
    layer_of = _layer_of(floorplans)
    router_pos = router_centres(floorplans)

    centroid_parts = []
    shortest_parts = []
    for b in boundaries:
        traffic = cross_boundary_traffic(instance.core_graph, layer_of, b)
        total = sum(traffic.values())
        if total > 0:
            cx = sum(positions[c][0] * bw for c, bw in sorted(traffic.items())) / total
            cy = sum(positions[c][1] * bw for c, bw in sorted(traffic.items())) / total
        else:
            cx = cy = 0.0
        centroid_parts.append(_initial_selection(cands[b], counts[b], (cx, cy), router_pos))
        shortest_parts.append(_shortest_selection(cands[b], counts[b]))

    # the annealer proposes many states more than once (no-op proposals,
    # swaps undone); each distinct state is routed once
    priced: dict[tuple, float] = {}

    def cost(state) -> float:
        if state not in priced:
            priced[state] = price(links_of(state))
        return priced[state]

    # the centroid start chases traffic, the shortest-RD start keeps vertical
    # hops cheap; begin from whichever prices better
    initial = tuple(centroid_parts)
    alt = tuple(shortest_parts)
    alt_complete = all(len(sel) == counts[b] for b, sel in zip(boundaries, alt))
    if alt_complete and alt != initial and cost(alt) < cost(initial):
        initial = alt

    swappable = [bi for bi, b in enumerate(boundaries)
                 if 0 < counts[b] < len(cands[b])]

    def neighbor(state, rng: random.Random):
        if not swappable:
            return state
        for _ in range(32):
            bi = rng.choice(swappable)
            b = boundaries[bi]
            sel = state[bi]
            out_idx = rng.choice(sel)
            in_idx = rng.randrange(len(cands[b]))
            if in_idx in sel:
                continue
            remaining = [cands[b][i] for i in sel if i != out_idx]
            if not _compatible(cands[b][in_idx], remaining):
                continue
            new_sel = tuple(sorted([i for i in sel if i != out_idx] + [in_idx]))
            return state[:bi] + (new_sel,) + state[bi + 1:]
        return state

    best, best_cost, _ = anneal(initial, neighbor, cost, sa_params)
    return links_of(best), best_cost
