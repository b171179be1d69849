"""Vertical-link placement: which router pairs get a TSV array (Step 4 SA).

Candidates are router pairs of adjacent layers whose planar Manhattan
distance fits the redistribution reach. The annealer keeps one fixed-size
subset per boundary (each router carries at most one vertical link per
direction, so subsets are bipartite matchings) and swaps a selected candidate
against an unselected compatible one. It starts from each boundary's shortest
compatible links, completed by augmenting paths where the greedy pass in
candidate order blocks itself. Cost is the routed network outcome:
w_util * bandwidth-distance + w_peak * overload excess, priced by one
netgraph.selection_pricer per call: the floorplans' graph is built once and
each distinct selection is routed once on it, bit for bit as route_all on
build_network would route it. Each proposal is one swap away from a state
already priced, so each source's search resumes from the part of that
state's shortest-path tree that the swap cannot change.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from .anneal import SaParams, anneal
from .errors import InsufficientCandidatesError, NoCandidatesError
from .model import Instance, MeshFloorplan, NodeKey, ObjectiveWeights, VerticalLink
# build_network and route_all are unused here but kept: perfbench/layertrace.py
# patches vlink.build_network and vlink.route_all
from .netgraph import build_network, route_all, selection_pricer  # noqa: F401


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


def links_in_reach(floorplans: Sequence[MeshFloorplan], boundary: int,
                   reach: float) -> list[VerticalLink]:
    """candidate_links, or none when no router pair is in reach."""
    try:
        return candidate_links(floorplans, boundary, reach)
    except NoCandidatesError:
        return []


def _matching(candidates: Sequence[VerticalLink]) -> list[int]:
    """A maximum matching (one link per router and direction) as candidate
    indices: classic augmenting paths over the lower routers in sorted order,
    each trying its candidates in their order."""
    adjacency: dict[NodeKey, list[int]] = {}
    for i, link in enumerate(candidates):
        adjacency.setdefault(link.lower, []).append(i)
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
    return len(_matching(candidates))


def _compatible(link: VerticalLink, chosen: Sequence[VerticalLink]) -> bool:
    return all(link.lower != o.lower and link.upper != o.upper for o in chosen)


def _initial_selection(candidates: Sequence[VerticalLink], count: int) -> tuple[int, ...]:
    """The annealer's start: the `count` shortest-RD compatible candidates
    (candidate_links sorts them by (rd_length, lower, upper)), taken greedily;
    when the greedy pass blocks itself, the first `count` links, in that
    order, of a maximum matching built by augmenting paths."""
    chosen: list[int] = []
    for i, link in enumerate(candidates):
        if len(chosen) == count:
            break
        if _compatible(link, [candidates[j] for j in chosen]):
            chosen.append(i)
    if len(chosen) < count:
        chosen = sorted(_matching(candidates))[:count]
        if len(chosen) < count:
            raise InsufficientCandidatesError(
                f"only {len(chosen)} compatible candidates for count {count}")
    return tuple(chosen)


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

    # the annealer proposes many states more than once (no-op proposals,
    # swaps undone); each distinct state is routed once
    priced: dict[tuple, float] = {}

    def cost(state) -> float:
        if state not in priced:
            priced[state] = price(links_of(state))
        return priced[state]

    initial = tuple(_initial_selection(cands[b], counts[b]) for b in boundaries)

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
