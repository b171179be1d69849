"""Exact joint optimization for tiny instances by exhaustive enumeration.

Enumerates every (layer assignment) x (cell placement per layer) x
(vertical-link matching), evaluates each through the same legalization and
routing used for heuristic solutions, and returns the cheapest. The design
space mirrors the heuristic's conventions (near-square grids, one link per
router and direction), so the result is a true lower bound for the pipeline
and serves as its oracle. Complexity is factorial; the limits keep it at
desk scale.

Only configurations that can still win are routed. Each one first gets a
cost floor: the weighted area, power and perf of its legalized layers plus
w_util * sum over flows of bw * |dx| + |dy| between the two components'
router centers. The floor never exceeds the cost, so skipping by it is
exact: every network edge, mesh hop or vertical link, is as long as the
planar Manhattan distance between its ends (netgraph.build_network), so no
route is shorter than its ends' distance, and w_peak * peak >= 0 because
weights are nonnegative. A configuration whose floor exceeds the best cost
so far (strictly, with 1e-9 relative slack for rounding) can neither win
nor tie, so it is skipped; the rest go through legalize and
evaluate_solution unchanged, and since the winner is the least
(cost, key), the result does not depend on the visit order.

Identical components give identical work. The placed geometry, and so the
vertical-link candidates and their matchings, depends only on the layers'
kind grids (the component kind in each cell); a layer's floor terms and
router centers by cell, only on its kind grid and the router kinds its links
give it. One memo maps each kind pattern to its link configurations, each
with its layers' floor terms, which are computed once per (layer, kind grid,
router kinds) and shared across patterns; so a configuration's only work
before routing is _floor. A layer's kind grid and its components' sites come
straight from its cells; it is placed only for a new kind pattern or a
configuration that survives its floor and is routed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InstanceTooLargeError, NoCandidatesError, UnreachableError
from .floorplan import grid_dims, legalize, legalize_layer, placed_floorplan, router_kinds
from .model import Cell, Instance, MeshFloorplan, ObjectiveWeights, VerticalLink
from .objective import evaluate_solution, power_perf_cost
from .vlink import candidate_links


MAX_COMPONENTS = 6
MAX_LAYERS = 2
MAX_VCANDS = 6  # vertical-link candidates per boundary


@dataclass
class ExactSolution:
    """The optimum and the enumeration's size. configurations_visited counts
    every enumerated (placement, link matching) pair, the ones skipped by
    their cost floor included, so it does not depend on the floor."""

    assignment: dict[str, int]
    floorplans: list[MeshFloorplan]
    vlinks: list[VerticalLink]
    cost: float
    metrics: dict
    placements_visited: int = 0
    configurations_visited: int = 0


def enumeration_estimate(instance: Instance) -> int:
    """Closed-form count of (assignment, placement) pairs to be visited."""
    comps = sorted(c.id for c in instance.core_graph.components)
    feasible = [instance.feasible_layers(cid) for cid in comps]
    total = 0
    for combo in itertools.product(*feasible):
        per_layer = [0] * len(instance.layers)
        for layer in combo:
            per_layer[layer] += 1
        n = 1
        for k in per_layer:
            rows, cols = grid_dims(k)
            n *= math.perm(rows * cols, k)
        total += n
    return total


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


FloorTerms = tuple[float, dict[Cell, tuple[float, float]]]  # weighted terms, router centers


def _layer_floor(instance: Instance, fp: MeshFloorplan, kinds,
                 weights: ObjectiveWeights) -> FloorTerms:
    """One layer's share of the cost floor: the weighted area, power and perf
    of the layer legalized with `kinds`, and its router centers by cell."""
    legal = legalize_layer(instance, fp, kinds)
    cells = list(legal.occupied_cells())
    power, perf = power_perf_cost(instance, {comp: legal.layer for _cell, comp in cells},
                                  [legal])
    return (weights.w_area * legal.area + weights.w_power * power + weights.w_perf * perf,
            {cell: legal.cell_center(*cell) for cell, _comp in cells})


FlowEnds = tuple[float, int, Cell, int, Cell]  # w_util * bw, src (layer, cell), dst (layer, cell)


def _flow_ends(instance: Instance, sites: dict[str, tuple[int, Cell]],
               w_util: float) -> list[FlowEnds]:
    """Each flow's weighted bandwidth and the sites of its two ends, in flow
    order; none when wiring carries no weight."""
    if not w_util:
        return []
    return [(w_util * flow.bandwidth, *sites[flow.src], *sites[flow.dst])
            for flow in instance.core_graph.flows]


def _floor(layers: Sequence[FloorTerms], ends: Sequence[FlowEnds]) -> float:
    total = sum(term for term, _centers in layers)
    for weight, src_layer, src_cell, dst_layer, dst_cell in ends:
        (xs, ys), (xd, yd) = layers[src_layer][1][src_cell], layers[dst_layer][1][dst_cell]
        total += weight * (abs(xs - xd) + abs(ys - yd))
    return total


def cost_floor(instance: Instance, floorplans: Sequence[MeshFloorplan],
               vlinks: Sequence[VerticalLink], weights: ObjectiveWeights) -> float:
    """A lower bound on the total cost of the placed `floorplans` with
    `vlinks`, after legalize, that routes nothing (see the module docstring)."""
    kinds = router_kinds(vlinks)
    sites = {comp: (fp.layer, cell) for fp in floorplans for cell, comp in fp.occupied_cells()}
    return _floor([_layer_floor(instance, fp, kinds, weights) for fp in floorplans],
                  _flow_ends(instance, sites, weights.w_util))


def _kinds_and_sites(instance: Instance, layer: int, members: Sequence[str],
                     cells: Sequence[int]) -> tuple[tuple, dict[str, tuple[int, Cell]]]:
    """The layer's component kind in each cell (row-major, None where empty)
    and each member's (layer, cell), read off the flat cell indices without
    placing the layer."""
    rows, cols = grid_dims(len(members))
    grid: list[Optional[str]] = [None] * (rows * cols)
    for comp, idx in zip(members, cells):
        grid[idx] = instance.kinds[comp]
    return tuple(grid), {comp: (layer, divmod(idx, cols)) for comp, idx in zip(members, cells)}


LinkConfig = tuple[list[VerticalLink], list[FloorTerms]]  # links, floor terms per layer


def _link_configurations(instance: Instance, floorplans: Sequence[MeshFloorplan],
                         grids: Sequence[tuple], weights: ObjectiveWeights,
                         floors: dict[tuple, FloorTerms]) -> list[LinkConfig]:
    """Every vertical-link matching of the placed floorplans in enumeration
    order, with each layer's floor terms, looked up in `floors` by (layer,
    kind grid, the layer's router kinds, sorted) and added on a miss. Only the
    layers' kind grids enter: placed geometry comes from the demand grid, and
    a VerticalLink names positions, not components."""
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
        configs.append((links, terms))
    return configs


def solve_exact(instance: Instance, weights: ObjectiveWeights) -> ExactSolution:
    """Globally optimal solution within MAX_COMPONENTS, MAX_LAYERS and
    MAX_VCANDS; raises InstanceTooLargeError (with the enumeration size) when
    one is exceeded. Deterministic: ties resolve to the lexicographically
    smallest solution."""
    comps = sorted(c.id for c in instance.core_graph.components)
    n = len(comps)
    if n > MAX_COMPONENTS:
        raise InstanceTooLargeError(
            f"{n} components exceed MAX_COMPONENTS = {MAX_COMPONENTS} "
            f"(enumeration would visit ~{enumeration_estimate(instance)} placements)")
    if len(instance.layers) > MAX_LAYERS:
        raise InstanceTooLargeError(
            f"{len(instance.layers)} layers exceed MAX_LAYERS = {MAX_LAYERS}")

    feasible = {cid: instance.feasible_layers(cid) for cid in comps}
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

    def placed(l: int) -> MeshFloorplan:
        """Layer l's placed floorplan, built on its first read since its cells
        last changed."""
        if floorplans[l] is None:
            floorplans[l] = _layer_floorplan(instance, l, members[l], cells_combo[l])
        return floorplans[l]

    for combo in itertools.product(*(feasible[cid] for cid in comps)):
        assignment = dict(zip(comps, combo))
        members = [sorted(cid for cid in comps if assignment[cid] == l)
                   for l in range(num_layers)]
        cell_choices = []
        for l in range(num_layers):
            rows, cols = grid_dims(len(members[l]))
            cell_choices.append(list(itertools.permutations(range(rows * cols),
                                                            len(members[l]))))
        previous: tuple = (None,) * num_layers
        floorplans: list[Optional[MeshFloorplan]] = [None] * num_layers
        grids: list[tuple] = [()] * num_layers
        sites: dict[str, tuple[int, Cell]] = {}
        for cells_combo in itertools.product(*cell_choices):
            placements_visited += 1
            # a layer whose cells changed gets its kind grid and sites from
            # them and is placed again only when read (placed above)
            for l in range(num_layers):
                if cells_combo[l] != previous[l]:
                    floorplans[l] = None
                    grids[l], layer_sites = _kinds_and_sites(instance, l, members[l],
                                                             cells_combo[l])
                    sites.update(layer_sites)
            previous = cells_combo
            ends = _flow_ends(instance, sites, weights.w_util)
            pattern = tuple(grids)
            if pattern not in links_of:
                links_of[pattern] = _link_configurations(
                    instance, [placed(l) for l in range(num_layers)], pattern, weights,
                    floors)
            for links, terms in links_of[pattern]:
                configurations_visited += 1
                if best is not None and _floor(terms, ends) * (1.0 - 1e-9) > best[0]:
                    continue
                legal = legalize(instance, [placed(l) for l in range(num_layers)], links)
                try:
                    metrics = evaluate_solution(instance, legal, links, weights)
                except UnreachableError as exc:
                    unreachable = (exc.src, exc.dst)
                    continue
                cost = metrics["total_cost"]
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
