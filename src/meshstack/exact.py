"""Exact joint optimization for tiny instances by exhaustive enumeration.

Enumerates every (layer assignment) x (cell placement per layer) x
(vertical-link matching), evaluates each through the same legalization and
routing used for heuristic solutions, and returns the cheapest. The design
space mirrors the heuristic's conventions (near-square grids, one link per
router and direction), so the result is a true lower bound for the pipeline
and serves as its oracle. Complexity is factorial; MAX_PLACEMENTS and
MAX_VCANDS keep it at desk scale.

Only configurations that can still win are routed. Each one first gets a
cost floor: the weighted area, power and perf of its legalized layers plus
w_util * sum over flows of bw * |dx| + |dy| between the two components'
router centers. One that this floor does not skip gets a second, linked
floor: the same, except that a flow from layer a to layer b > a pays its
shortest chain, the planar distance from its source to a link of boundary
a, that link's rd, on to a link of boundary a + 1, and so on through
boundary b - 1 to its destination, minimised over the configuration's own
links (a small DP over boundaries); inf if one of those boundaries has no
link, since the flow cannot route. Neither floor exceeds the cost, so
skipping by them is exact: every network edge, mesh hop or vertical link,
is as long as the planar Manhattan distance between its ends
(netgraph.build_network), so a route is no shorter than the chain through
any ordered subsequence of its nodes, and w_peak * peak >= 0 because
weights are nonnegative. Take the route's source, then, walking back from
its destination, the last crossing of boundary b - 1, the last crossing of
b - 2 before it, ..., of a: each must go upward, since after it the route
ends above the boundary without crossing it again. Then the destination.
That chain passes one of the configuration's links per boundary in order,
so it is one of those the DP minimises over; the first floor is the chain
through the ends alone. A configuration whose floor exceeds the best cost
so far (strictly, with 1e-9 relative slack for rounding) can neither win
nor tie, so it is skipped; the rest go through legalize and
evaluate_solution unchanged, and since the winner is the least
(cost, key), the result does not depend on the visit order. Until a
configuration has routed nothing is skipped.

Identical components give identical work. The placed geometry, and so the
vertical-link candidates and their matchings, depends only on the layers'
kind grids (the component kind in each cell); a layer's floor terms and
router centers, only on its kind grid and the router kinds its links give
it. One memo maps each kind pattern to its link configurations, each with
its layers' terms (computed once per layer, kind grid and router kinds)
summed, their router centers in one tuple by flat cell index (the cells of
the layers below plus the row-major index), and their links per boundary as
flat-cell pairs with their rd. Per assignment, each layer's cell choices
are listed once with their kind grids, equal grids one tuple. A placement
sets the flat cells of a changed layer's members in one list by component,
so a configuration's only work before routing is its two floors' indexed
reads. A layer is placed only for a new kind pattern or a routed configuration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InstanceTooLargeError, NoCandidatesError, UnreachableError
from .floorplan import grid_dims, legalize, legalize_layer, placed_floorplan, router_kinds
from .model import Instance, MeshFloorplan, ObjectiveWeights, VerticalLink
from .objective import evaluate_solution, power_perf_cost
from .vlink import candidate_links


MAX_PLACEMENTS = 23040  # six components on two layers, all feasible on both
MAX_VCANDS = 6  # vertical-link candidates per boundary


@dataclass
class ExactSolution:
    """The optimum and the enumeration's size. configurations_visited counts
    every enumerated (placement, link matching) pair, the ones skipped by
    either floor included, so it does not depend on the floors."""

    assignment: dict[str, int]
    floorplans: list[MeshFloorplan]
    vlinks: list[VerticalLink]
    cost: float
    metrics: dict
    placements_visited: int = 0
    configurations_visited: int = 0


def enumeration_estimate(instance: Instance) -> int:
    """Count of (assignment, placement) pairs to be visited: the sum over
    layer assignments of prod_l P(cells_l, k_l), k_l components on layer l's
    grid of cells_l. Assignments are counted per vector of per-layer counts,
    one component at a time, so none is enumerated."""
    assignments = {(0,) * len(instance.layers): 1}  # per-layer counts -> assignments
    for comp in instance.core_graph.components:
        extended: dict[tuple[int, ...], int] = {}
        for counts, ways in assignments.items():
            for l in instance.feasible_layers(comp.id):
                key = counts[:l] + (counts[l] + 1,) + counts[l + 1:]
                extended[key] = extended.get(key, 0) + ways
        assignments = extended
    return sum(ways * math.prod(math.perm(math.prod(grid_dims(k)), k) for k in counts)
               for counts, ways in assignments.items())


def _layer_floorplan(instance: Instance, layer: int, members: Sequence[str],
                     cells: Sequence[int]) -> MeshFloorplan:
    """Floorplan with `members` (sorted) in the given flat cell indices."""
    rows, cols = grid_dims(len(members))
    state: list[Optional[str]] = [None] * (rows * cols)
    for comp, idx in zip(members, cells):
        state[idx] = comp
    return placed_floorplan(instance, layer, tuple(state), rows, cols)


def _matchings(candidates: Sequence[VerticalLink]):
    """All subsets with pairwise-distinct lower and upper routers (any size,
    including the empty one), in deterministic order."""
    out = [()]
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            lowers = {candidates[i].lower for i in combo}
            uppers = {candidates[i].upper for i in combo}
            if len(lowers) == size and len(uppers) == size:
                out.append(combo)
    return out


FloorTerms = tuple[float, tuple[tuple[float, float], ...]]  # weighted terms, router centers


def _layer_floor(instance: Instance, fp: MeshFloorplan, kinds,
                 weights: ObjectiveWeights) -> FloorTerms:
    """One layer's share of the cost floor: the weighted area, power and perf
    of the layer legalized with `kinds`, and its router centers by flat cell index."""
    legal = legalize_layer(instance, fp, kinds)
    cells = list(legal.occupied_cells())
    power, perf = power_perf_cost(instance, {comp: legal.layer for _cell, comp in cells},
                                  [legal])
    return (weights.w_area * legal.area + weights.w_power * power + weights.w_perf * perf,
            tuple(legal.cell_center(r, c) for r in range(legal.rows) for c in range(legal.cols)))


def _stacked(layers: Sequence[FloorTerms]) -> FloorTerms:
    """The layers' terms summed in layer order and their router centers in one
    tuple: layer l's cell i at the cells of the layers below l plus i."""
    return (sum(term for term, _centers in layers),
            tuple(itertools.chain.from_iterable(centers for _term, centers in layers)))


def _flow_ends(instance: Instance, index: dict[str, int],
               w_util: float) -> list[tuple[float, int, int]]:
    """Each flow's weighted bandwidth and its ends' indices by `index`, in
    flow order; none when wiring carries no weight."""
    if not w_util:
        return []
    return [(w_util * flow.bandwidth, index[flow.src], index[flow.dst])
            for flow in instance.core_graph.flows]


def _floor(total: float, centers: Sequence[tuple[float, float]],
           ends: Sequence[tuple[float, int, int]]) -> float:
    """`total` plus each flow's weight times its ends' centre distance."""
    for weight, src, dst in ends:
        (xs, ys), (xd, yd) = centers[src], centers[dst]
        total += weight * (abs(xs - xd) + abs(ys - yd))
    return total


Chains = tuple[tuple[tuple[int, int, float], ...], ...]  # per boundary: (lower, upper, rd)


def _chains(floorplans: Sequence[MeshFloorplan], links: Sequence[VerticalLink],
            centers: Sequence[tuple[float, float]]) -> Chains:
    """The links of each boundary as (lower flat cell, upper flat cell, rd),
    rd the planar distance of their router `centers` as build_network prices it."""
    offsets = list(itertools.accumulate((fp.rows * fp.cols for fp in floorplans), initial=0))
    per_boundary: list[list[tuple[int, int, float]]] = [[] for _ in floorplans[1:]]
    for v in links:
        lower, upper = (offsets[layer] + r * floorplans[layer].cols + c
                        for layer, r, c in (v.lower, v.upper))
        (xl, yl), (xu, yu) = centers[lower], centers[upper]
        per_boundary[v.lower[0]].append((lower, upper, abs(xl - xu) + abs(yl - yu)))
    return tuple(map(tuple, per_boundary))


def _cell_layers(sizes: Sequence[int]) -> tuple[int, ...]:
    """Each flat cell's layer, for layers of `sizes` cells in layer order."""
    return tuple(layer for layer, size in enumerate(sizes) for _ in range(size))


def _linked_floor(total: float, centers: Sequence[tuple[float, float]], chains: Chains,
                  ends: Sequence[tuple[float, int, int]], layer_of: Sequence[int]) -> float:
    """`total` plus each flow's weight times its shortest chain: its ends'
    centre distance on one layer; across layers, the shortest way from its
    lower end through one of `chains`' links per boundary, in order, to its
    upper end (a DP over boundaries), inf if a boundary on the way has none."""
    for weight, src, dst in ends:
        low, high = layer_of[src], layer_of[dst]
        if low > high:
            src, dst, low, high = dst, src, high, low
        (xs, ys), (xd, yd) = centers[src], centers[dst]
        if low == high:
            total += weight * (abs(xs - xd) + abs(ys - yd))
            continue
        reach = [(0.0, xs, ys)]  # (shortest chain to a router, its center)
        for links in chains[low:high]:
            if not links:
                return math.inf
            steps = []
            for lower, upper, rd in links:
                xl, yl = centers[lower]
                steps.append((min([length + abs(x - xl) + abs(y - yl) for length, x, y in reach])
                               + rd, *centers[upper]))
            reach = steps
        total += weight * min([length + abs(x - xd) + abs(y - yd) for length, x, y in reach])
    return total


def _floor_tables(instance: Instance, floorplans: Sequence[MeshFloorplan],
                  vlinks: Sequence[VerticalLink], weights: ObjectiveWeights):
    """The placed `floorplans`' _stacked floor terms with `vlinks` and their
    flow ends by flat cell, as solve_exact builds them."""
    kinds = router_kinds(vlinks)
    total, centers = _stacked([_layer_floor(instance, fp, kinds, weights) for fp in floorplans])
    offsets = itertools.accumulate((fp.rows * fp.cols for fp in floorplans), initial=0)
    flat = {comp: offset + r * fp.cols + c for fp, offset in zip(floorplans, offsets)
            for (r, c), comp in fp.occupied_cells()}
    return total, centers, _flow_ends(instance, flat, weights.w_util)


def cost_floor(instance: Instance, floorplans: Sequence[MeshFloorplan],
               vlinks: Sequence[VerticalLink], weights: ObjectiveWeights) -> float:
    """A lower bound on the total cost of the placed `floorplans` with
    `vlinks`, after legalize, that routes nothing (see the module docstring)."""
    return _floor(*_floor_tables(instance, floorplans, vlinks, weights))


def linked_cost_floor(instance: Instance, floorplans: Sequence[MeshFloorplan],
                      vlinks: Sequence[VerticalLink], weights: ObjectiveWeights) -> float:
    """cost_floor with each cross-layer flow charged its shortest chain
    through `vlinks` (see the module docstring): still a lower bound on the
    total cost, and inf where a flow crosses a boundary without a link."""
    total, centers, ends = _floor_tables(instance, floorplans, vlinks, weights)
    return _linked_floor(total, centers, _chains(floorplans, vlinks, centers), ends,
                         _cell_layers([fp.rows * fp.cols for fp in floorplans]))


def _cell_choices(instance: Instance, members: Sequence[str],
                  interned: dict[tuple, tuple]) -> list[tuple[tuple[int, ...], tuple]]:
    """Every (cells, kind grid) of a layer's sorted `members` in enumeration
    order: their flat cells and the kind in each cell (row-major, None where
    empty). Equal kind grids are one tuple, the one kept in `interned`."""
    rows, cols = grid_dims(len(members))
    choices = []
    for cells in itertools.permutations(range(rows * cols), len(members)):
        grid: list[Optional[str]] = [None] * (rows * cols)
        for comp, idx in zip(members, cells):
            grid[idx] = instance.kinds[comp]
        kinds = tuple(grid)
        choices.append((cells, interned.setdefault(kinds, kinds)))
    return choices


# links, their _stacked floor terms, and their _chains
LinkConfig = tuple[list[VerticalLink], float, tuple, Chains]


def _link_configurations(instance: Instance, floorplans: Sequence[MeshFloorplan],
                         grids: Sequence[tuple], weights: ObjectiveWeights,
                         floors: dict[tuple, FloorTerms]) -> list[LinkConfig]:
    """Every vertical-link matching of the placed floorplans in enumeration
    order, with its layers' floor terms _stacked, each looked up in `floors`
    by (layer, kind grid, the layer's router kinds, sorted) and added on a
    miss, and its links' _chains on the stacked router centers. Only the
    layers' kind grids enter: placed geometry comes from the demand grid,
    and a VerticalLink names positions, not components."""
    boundary_cands: list[list[VerticalLink]] = []
    for b in instance.boundaries():
        try:
            cands = candidate_links(floorplans, b, instance.tech.rd_max_length)
        except NoCandidatesError:
            cands = []
        if len(cands) > MAX_VCANDS:
            raise InstanceTooLargeError(
                f"boundary {b} has {len(cands)} vertical-link candidates, "
                f"limit {MAX_VCANDS}")
        boundary_cands.append(cands)
    configs = []
    for selection in itertools.product(*map(_matchings, boundary_cands)):
        links = [boundary_cands[bi][i] for bi, combo_sel in enumerate(selection)
                 for i in combo_sel]
        kinds = router_kinds(links)
        terms = []
        for fp, grid in zip(floorplans, grids):
            key = (fp.layer, grid, tuple(sorted(kv for kv in kinds.items()
                                                if kv[0][0] == fp.layer)))
            if key not in floors:
                floors[key] = _layer_floor(instance, fp, kinds, weights)
            terms.append(floors[key])
        total, centers = _stacked(terms)
        configs.append((links, total, centers, _chains(floorplans, links, centers)))
    return configs


def solve_exact(instance: Instance, weights: ObjectiveWeights) -> ExactSolution:
    """Globally optimal solution when the enumeration visits at most
    MAX_PLACEMENTS placements (enumeration_estimate) and no boundary has more
    than MAX_VCANDS vertical-link candidates; raises InstanceTooLargeError
    otherwise. Deterministic: ties resolve to the lexicographically smallest
    solution. Once a configuration has routed, the rest are routed only if
    neither their cost floor nor their linked floor rules them out (see the
    module docstring)."""
    size = enumeration_estimate(instance)
    if size > MAX_PLACEMENTS:
        raise InstanceTooLargeError(
            f"enumeration would visit {size} placements, "
            f"more than MAX_PLACEMENTS = {MAX_PLACEMENTS}")

    comps = sorted(c.id for c in instance.core_graph.components)
    flows = _flow_ends(instance, {cid: i for i, cid in enumerate(comps)}, weights.w_util)
    num_layers = len(instance.layers)
    best: Optional[tuple] = None  # (cost, key, solution parts)
    # the last unroutable flow's ends; its error is raised anew if nothing routes,
    # so no local holds an error whose traceback holds this frame
    unreachable: Optional[tuple[str, str]] = None
    placements_visited = 0
    configurations_visited = 0
    # kind grids of all layers -> their link configurations
    links_of: dict[tuple, list[LinkConfig]] = {}
    # (layer, kind grid, layer's router kinds) -> floor terms, read only to fill links_of
    floors: dict[tuple, FloorTerms] = {}
    interned: dict[tuple, tuple] = {}  # each kind grid, once

    def placed(l: int) -> MeshFloorplan:
        """Layer l's placed floorplan, built on its first read since it changed."""
        if floorplans[l] is None:
            floorplans[l] = _layer_floorplan(instance, l, members[l], choice[l][0])
        return floorplans[l]

    for combo in itertools.product(*(instance.feasible_layers(cid) for cid in comps)):
        assignment = dict(zip(comps, combo))
        member_ids = [[i for i, at in enumerate(combo) if at == l] for l in range(num_layers)]
        members = [[comps[i] for i in ids] for ids in member_ids]  # sorted, as comps
        sizes = [math.prod(grid_dims(len(m))) for m in members]
        offsets = [0, *itertools.accumulate(sizes)]
        layer_of = _cell_layers(sizes)
        cell_choices = [_cell_choices(instance, m, interned) for m in members]
        previous: tuple = (None,) * num_layers
        floorplans: list[Optional[MeshFloorplan]] = [None] * num_layers
        grids: list[tuple] = [()] * num_layers
        pos = [0] * len(comps)  # each component's flat cell: its layer's offset + cell
        for choice in itertools.product(*cell_choices):
            placements_visited += 1
            # a changed layer moves its members; it is placed only when read
            for l in range(num_layers):
                if choice[l] is not previous[l]:
                    floorplans[l] = None
                    cells, grids[l] = choice[l]
                    for i, idx in zip(member_ids[l], cells):
                        pos[i] = offsets[l] + idx
            previous = choice
            ends = [(weight, pos[src], pos[dst]) for weight, src, dst in flows]
            pattern = tuple(grids)
            if pattern not in links_of:
                links_of[pattern] = _link_configurations(
                    instance, [placed(l) for l in range(num_layers)], pattern, weights,
                    floors)
            for links, total, centers, chains in links_of[pattern]:
                configurations_visited += 1
                if best is not None and (
                        _floor(total, centers, ends) * (1.0 - 1e-9) > best[0]
                        or _linked_floor(total, centers, chains, ends, layer_of)
                        * (1.0 - 1e-9) > best[0]):
                    continue
                legal = legalize(instance, [placed(l) for l in range(num_layers)], links)
                try:
                    metrics = evaluate_solution(instance, legal, links, weights)
                except UnreachableError as exc:
                    unreachable = (exc.src, exc.dst)
                    continue
                cost = metrics["total_cost"]
                cells_combo = tuple(cells for cells, _grid in choice)
                key = (tuple(sorted(assignment.items())), cells_combo,
                       tuple((v.lower, v.upper) for v in links))
                if best is None or (cost, key) < (best[0], best[1]):
                    best = (cost, key, assignment, legal, links, metrics)

    if best is None:
        raise UnreachableError(*unreachable)
    _cost, _key, assignment, legal, links, metrics = best
    return ExactSolution(assignment=dict(assignment), floorplans=list(legal),
                         vlinks=list(links), cost=_cost, metrics=metrics,
                         placements_visited=placements_visited,
                         configurations_visited=configurations_visited)
