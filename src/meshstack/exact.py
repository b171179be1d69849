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

Identical components give identical work. A layer's legalized geometry, and
so its floor terms and router centers by cell, depends only on the component
kind in each cell and the router kinds its links give it; the placed
geometry, and so the vertical-link candidates and their matchings, only on
the layers' kind grids. Both are computed once per solve for each such
pattern, however many permutations of identical components share it. A
layer's kind grid and its components' sites come straight from its cells;
its placed floorplan is built only when something reads it: a new kind
pattern's link candidates, a new floor key's terms, or a configuration that
survives its floor and is routed.
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


@dataclass(frozen=True)
class ExactLimits:
    components: int = 6
    layers: int = 2
    grid_cells: int = 6   # max cells of any per-layer grid
    vcands: int = 6       # max vertical-link candidates per boundary


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


# links, their router kinds, and per layer its sorted share of them (part of its floor key)
LinkConfig = tuple[list[VerticalLink], dict, tuple[tuple, ...]]


def _link_configurations(instance: Instance, floorplans: Sequence[MeshFloorplan],
                         limits: ExactLimits) -> list[LinkConfig]:
    """Every vertical-link matching of the placed floorplans in enumeration
    order, with its router kinds and each layer's share of them, sorted. Only
    the layers' kind grids enter: placed geometry comes from the demand grid,
    and a VerticalLink names positions, not components."""
    boundary_cands: list[list[VerticalLink]] = []
    for b in instance.boundaries():
        try:
            cands = candidate_links(floorplans, b, instance.tech.rd_max_length)
        except NoCandidatesError:
            cands = []
        if len(cands) > limits.vcands:
            raise InstanceTooLargeError(
                f"boundary {b} has {len(cands)} vertical-link candidates, "
                f"limit {limits.vcands}")
        boundary_cands.append(cands)
    configs = []
    for selection in itertools.product(*map(_matchings, boundary_cands)):
        links = [boundary_cands[bi][i] for bi, combo_sel in enumerate(selection)
                 for i in combo_sel]
        kinds = router_kinds(links)
        configs.append((links, kinds, tuple(
            tuple(sorted(kv for kv in kinds.items() if kv[0][0] == fp.layer))
            for fp in floorplans)))
    return configs


def solve_exact(instance: Instance, weights: ObjectiveWeights,
                limits: ExactLimits = ExactLimits()) -> ExactSolution:
    """Globally optimal solution within the limits; raises
    InstanceTooLargeError (with the enumeration size) when they are exceeded.
    Deterministic: ties resolve to the lexicographically smallest solution."""
    comps = sorted(c.id for c in instance.core_graph.components)
    n = len(comps)
    if n > limits.components:
        raise InstanceTooLargeError(
            f"{n} components exceed the exact limit {limits.components} "
            f"(enumeration would visit ~{enumeration_estimate(instance)} placements)")
    if len(instance.layers) > limits.layers:
        raise InstanceTooLargeError(
            f"{len(instance.layers)} layers exceed the exact limit {limits.layers}")
    worst_rows, worst_cols = grid_dims(n)
    if worst_rows * worst_cols > limits.grid_cells:
        raise InstanceTooLargeError(
            f"a {worst_rows}x{worst_cols} grid exceeds the exact limit of "
            f"{limits.grid_cells} cells")

    feasible = {cid: instance.feasible_layers(cid) for cid in comps}
    num_layers = len(instance.layers)
    best: Optional[tuple] = None  # (cost, key, solution parts)
    # the last unroutable flow's ends; its error is raised anew if nothing routes,
    # so no local holds an error whose traceback holds this frame
    unreachable: Optional[tuple[str, str]] = None
    placements_visited = 0
    configurations_visited = 0
    # (layer, kind grid, layer's router kinds) -> floor terms
    floors: dict[tuple, FloorTerms] = {}
    # kind grids of all layers -> their link configurations
    links_of: dict[tuple, list[LinkConfig]] = {}

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
                    instance, [placed(l) for l in range(num_layers)], limits)
            for links, kinds, own in links_of[pattern]:
                configurations_visited += 1
                if best is not None:
                    layers = []
                    for l in range(num_layers):
                        state = (l, grids[l], own[l])
                        terms = floors.get(state)
                        if terms is None:
                            terms = floors[state] = _layer_floor(instance, placed(l), kinds,
                                                                 weights)
                        layers.append(terms)
                    if _floor(layers, ends) * (1.0 - 1e-9) > best[0]:
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
