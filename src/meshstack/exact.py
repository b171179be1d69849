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
evaluate_solution unchanged.

Whole kind patterns are skipped by a bound on those
floors. A placement's kind pattern p is its layers' kind grids (the
component kind in each cell). Every placement with p has the same link
configurations c, each with the same terms A_c, router centers and links,
and puts each flow's ends in cells of their kinds on their layers. B_p is
the least over c of A_c plus, in flow order, each flow's weight times
m_c(f): on one layer, the least centre distance between two distinct cells
of its ends' kinds; across layers, the chain of the linked floor started
from every cell of its lower end's kind on that layer and ended at the best
cell of its upper end's kind. A placement's own cells are among those, and
m_c(f) is the same float expression as the linked floor's, minimised over
more cells. Rounded +, min and a product with a weight >= 0 are monotone,
so every partial sum, and so B_p, is no larger than the linked floor of
every configuration of every placement with p, in floats. B_p takes no
minimum over router kinds: each configuration keeps its own. A kind pattern
of an assignment with B_p * (1 - 1e-9) > best holds only configurations the
linked floor would skip at that moment, so it is skipped whole.

The (assignment, kind pattern) pairs are visited from one queue by (B_p,
enumeration order), so cheap ones come first and the incumbent early; a
pair's placements and configurations keep enumeration order. Bounds rise
along the queue and the best cost only falls, so the first pair skipped ends
the search. The winner is the least (cost, key) over the routed
configurations, and every configuration that could win or tie is routed in
any order, so neither the order nor the skips change the result. Both counts
are the enumeration's size, summed before the visit, so neither changes them.
Until a configuration has routed nothing is skipped; if none routes, the
error names the unroutable flow of the last configuration in enumeration
order (by assignment index, then each layer's cells), as an exhaustive visit
would.

Identical components give identical work. The placed geometry, and so the
vertical-link candidates and their matchings, depends only on the layers'
kind grids; a layer's floor terms and router centers, only on its kind grid
and the router kinds its links give it. One memo maps each kind pattern to
its link configurations, each with its layers' terms (computed once per
layer, kind grid and router kinds) summed, their router centers in one
tuple by flat cell index (the cells of the layers below plus the row-major
index), and their links per boundary as flat-cell pairs with their rd. A
layer's placements are listed once per tuple of its members' kinds, grouped
by kind grid. A placement sets its members' flat cells in one list by
component, so a configuration's only work before routing is its two floors'
indexed reads. A layer is placed only for a new kind pattern (at its first
cells) or a routed configuration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InstanceTooLargeError, UnreachableError
from .floorplan import grid_dims, legalize, legalize_layer, placed_floorplan, router_kinds
from .model import Instance, MeshFloorplan, ObjectiveWeights, VerticalLink
from .objective import evaluate_solution, power_perf_cost
from .vlink import links_in_reach


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
# links, their _stacked floor terms, and their _chains
LinkConfig = tuple[list[VerticalLink], float, tuple, Chains]


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


def _least_chain(centers: Sequence[tuple[float, float]], chains: Chains,
                 starts: Sequence[int], stops: Sequence[int]) -> float:
    """The shortest chain from one of the cells `starts` through one of
    `chains`' links per boundary, in order, to one of the cells `stops`: a DP
    over boundaries, inf if one has no link."""
    reach = [(0.0, *centers[start]) for start in starts]  # (shortest chain to a router, its center)
    for links in chains:
        if not links:
            return math.inf
        steps = []
        for lower, upper, rd in links:
            xl, yl = centers[lower]
            steps.append((min([length + abs(x - xl) + abs(y - yl) for length, x, y in reach])
                          + rd, *centers[upper]))
        reach = steps
    return min([length + abs(x - xd) + abs(y - yd) for xd, yd in map(centers.__getitem__, stops)
                for length, x, y in reach])


def _linked_floor(total: float, centers: Sequence[tuple[float, float]], chains: Chains,
                  ends: Sequence[tuple[float, int, int]], layer_of: Sequence[int]) -> float:
    """`total` plus each flow's weight times its shortest chain: its ends'
    centre distance on one layer; across layers, the _least_chain from its
    lower end through the boundaries between to its upper end."""
    for weight, src, dst in ends:
        low, high = layer_of[src], layer_of[dst]
        if low > high:
            src, dst, low, high = dst, src, high, low
        if low == high:
            (xs, ys), (xd, yd) = centers[src], centers[dst]
            total += weight * (abs(xs - xd) + abs(ys - yd))
        else:
            total += weight * _least_chain(centers, chains[low:high], (src,), (dst,))
    return total


# per span (a distinct pair of flow ends' (layer, kind)) the cells a flow may
# take: (source, destination) pairs on one layer, or across layers its lower
# end's cells, the boundaries it crosses and its upper end's cells; and each
# flow's weight and span
PatternEnds = tuple[list[tuple[list, Optional[slice], Optional[list]]], list[tuple[float, int]]]


def _pattern_ends(instance: Instance, pattern: Sequence[tuple], offsets: Sequence[int],
                  layer: dict[str, int], w_util: float) -> PatternEnds:
    """The flows of the assignment `layer` on the flat cells of a kind pattern
    (a kind grid per layer, the layers' cells behind `offsets`), none when
    wiring carries no weight: a flow on one layer may take any two distinct
    cells of its ends' kinds, one across layers any cell of its kind on each
    end's layer. Flows whose ends have the same (layer, kind) share one span."""
    cells: dict[tuple, list[int]] = {}
    for l, grid in enumerate(pattern):
        for i, kind in enumerate(grid):
            cells.setdefault((l, kind), []).append(offsets[l] + i)
    spans: dict[tuple, int] = {}
    ends, flows = [], []
    for flow in instance.core_graph.flows if w_util else ():
        low, high = ((layer[comp], instance.kinds[comp]) for comp in (flow.src, flow.dst))
        if low[0] > high[0]:
            low, high = high, low
        if (low, high) not in spans:
            spans[low, high] = len(ends)
            if low[0] == high[0]:  # a pair and its reverse are equally far apart
                ends.append(([(src, dst) for src in cells[low] for dst in cells[high]
                              if low != high or src < dst], None, None))
            else:
                ends.append((cells[low], slice(low[0], high[0]), cells[high]))
        flows.append((w_util * flow.bandwidth, spans[low, high]))
    return ends, flows


def _pattern_bound(configs: Sequence[LinkConfig], ends: PatternEnds) -> float:
    """B_p: the least over a kind pattern's link `configs` of its _stacked
    terms plus, in flow order, each flow's weight times its span's least
    chain over the cells `ends` allows it (see the module docstring)."""
    spans, flows = ends
    bound = math.inf
    for _links, total, centers, chains in configs:
        least = [min([abs(centers[src][0] - centers[dst][0])
                      + abs(centers[src][1] - centers[dst][1]) for src, dst in cells])
                 if crossed is None else _least_chain(centers, chains[crossed], cells, stops)
                 for cells, crossed, stops in spans]
        for weight, span in flows:
            total += weight * least[span]
        bound = min(bound, total)
    return bound


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


def pattern_floor(instance: Instance, floorplans: Sequence[MeshFloorplan],
                  weights: ObjectiveWeights) -> float:
    """The bound B_p of the placed `floorplans`' kind pattern, as solve_exact
    skips by it: no larger than linked_cost_floor of any placement with the
    same kind grids and any of its link matchings (see the module docstring)."""
    grids = tuple(tuple(None if comp is None else instance.kinds[comp]
                        for row in fp.cell_of for comp in row) for fp in floorplans)
    offsets = list(itertools.accumulate((fp.rows * fp.cols for fp in floorplans), initial=0))
    layer = {comp: fp.layer for fp in floorplans for _cell, comp in fp.occupied_cells()}
    return _pattern_bound(_link_configurations(instance, floorplans, grids, weights, {}),
                          _pattern_ends(instance, grids, offsets, layer, weights.w_util))


def _cell_choices(kinds: tuple) -> dict[tuple, list[tuple[int, ...]]]:
    """Every placement of a layer whose sorted members have `kinds`, by its
    kind grid (the kind in each cell, row-major, None where empty): kind
    grids in order of first placement, and each one's flat cells tuples in
    enumeration order."""
    rows, cols = grid_dims(len(kinds))
    choices: dict[tuple, list[tuple[int, ...]]] = {}
    for cells in itertools.permutations(range(rows * cols), len(kinds)):
        grid: list[Optional[str]] = [None] * (rows * cols)
        for kind, idx in zip(kinds, cells):
            grid[idx] = kind
        choices.setdefault(tuple(grid), []).append(cells)
    return choices


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
        cands = links_in_reach(floorplans, b, instance.tech.rd_max_length)
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
    solution. Kind patterns are visited by increasing bound; once a
    configuration has routed, a kind pattern or configuration is routed only
    if its bound and floors do not rule it out (see the module docstring)."""
    size = enumeration_estimate(instance)
    if size > MAX_PLACEMENTS:
        raise InstanceTooLargeError(
            f"enumeration would visit {size} placements, "
            f"more than MAX_PLACEMENTS = {MAX_PLACEMENTS}")

    comps = sorted(c.id for c in instance.core_graph.components)
    flows = _flow_ends(instance, {cid: i for i, cid in enumerate(comps)}, weights.w_util)
    num_layers = len(instance.layers)
    best: Optional[tuple] = None  # (cost, key, solution parts)
    # the enumeration position (assignment index, cells per layer) and ends of
    # the last unroutable flow; its error is raised anew if nothing routes, so
    # no local holds an error whose traceback holds this frame
    unreachable: Optional[tuple[tuple, str, str]] = None
    configurations_visited = 0
    # kind grids of all layers -> their link configurations
    links_of: dict[tuple, list[LinkConfig]] = {}
    # (layer, kind grid, layer's router kinds) -> floor terms, read only to fill links_of
    floors: dict[tuple, FloorTerms] = {}
    # members' kinds -> their layer's cells tuples by kind grid
    tables: dict[tuple, dict[tuple, list[tuple[int, ...]]]] = {}

    # one entry per (assignment, kind pattern): its bound, the assignment's
    # layout, each layer's cells tuples with the pattern's kind grid, and the
    # pattern's link configurations
    queue = []
    for index, combo in enumerate(itertools.product(*(instance.feasible_layers(cid)
                                                      for cid in comps))):
        assignment = dict(zip(comps, combo))
        member_ids = [[i for i, at in enumerate(combo) if at == l] for l in range(num_layers)]
        members = [[comps[i] for i in ids] for ids in member_ids]  # sorted, as comps
        sizes = [math.prod(grid_dims(len(m))) for m in members]
        offsets = [0, *itertools.accumulate(sizes)]
        layer_of = _cell_layers(sizes)
        cell_tables = []
        for m in members:
            kinds = tuple(instance.kinds[comp] for comp in m)
            if kinds not in tables:
                tables[kinds] = _cell_choices(kinds)
            cell_tables.append(tables[kinds])
        for per_layer in itertools.product(*(table.items() for table in cell_tables)):
            pattern = tuple(grid for grid, _cells in per_layer)
            if pattern not in links_of:
                links_of[pattern] = _link_configurations(
                    instance, [_layer_floorplan(instance, l, members[l], cells[0])
                               for l, (_grid, cells) in enumerate(per_layer)],
                    pattern, weights, floors)
            configs = links_of[pattern]
            cell_choices = [cells for _grid, cells in per_layer]
            configurations_visited += math.prod(map(len, cell_choices)) * len(configs)
            bound = _pattern_bound(configs, _pattern_ends(instance, pattern, offsets, assignment,
                                                          weights.w_util))
            queue.append((bound, index, assignment, member_ids, members, offsets, layer_of,
                          cell_choices, configs))

    queue.sort(key=lambda entry: entry[0])  # stable: ties keep insertion order
    for (bound, index, assignment, member_ids, members, offsets, layer_of, cell_choices,
         configs) in queue:
        if best is not None and bound * (1.0 - 1e-9) > best[0]:
            break  # so are all later ones: bounds only rise and best only falls
        pos = [0] * len(comps)  # each component's flat cell: its layer's offset + cell
        for choice in itertools.product(*cell_choices):
            for l in range(num_layers):
                for i, idx in zip(member_ids[l], choice[l]):
                    pos[i] = offsets[l] + idx
            ends = [(weight, pos[src], pos[dst]) for weight, src, dst in flows]
            for links, total, centers, chains in configs:
                if best is not None and (
                        _floor(total, centers, ends) * (1.0 - 1e-9) > best[0]
                        or _linked_floor(total, centers, chains, ends, layer_of)
                        * (1.0 - 1e-9) > best[0]):
                    continue
                legal = legalize(instance, [_layer_floorplan(instance, l, members[l], choice[l])
                                            for l in range(num_layers)], links)
                try:
                    metrics = evaluate_solution(instance, legal, links, weights)
                except UnreachableError as exc:
                    if unreachable is None or (index, choice) >= unreachable[0]:
                        unreachable = ((index, choice), exc.src, exc.dst)
                    continue
                cost = metrics["total_cost"]
                key = (tuple(sorted(assignment.items())), choice,
                       tuple((v.lower, v.upper) for v in links))
                if best is None or (cost, key) < (best[0], best[1]):
                    best = (cost, key, assignment, legal, links, metrics)

    if best is None:
        raise UnreachableError(*unreachable[1:])
    _cost, _key, assignment, legal, links, metrics = best
    return ExactSolution(assignment=dict(assignment), floorplans=list(legal),
                         vlinks=list(links), cost=_cost, metrics=metrics,
                         placements_visited=size,
                         configurations_visited=configurations_visited)
