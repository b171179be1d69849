"""Exact joint optimization for tiny instances by exhaustive enumeration.

Enumerates every (layer assignment) x (cell placement per layer) x
(vertical-link matching), evaluates each through the same legalization and
routing used for heuristic solutions, and returns the cheapest. The design
space mirrors the heuristic's conventions (near-square grids, one link per
router and direction), so the result is a true lower bound for the pipeline
and serves as its oracle. Complexity is factorial; the limits keep it at
desk scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InstanceTooLargeError, NoCandidatesError, UnreachableError
from .floorplan import grid_dims, legalize, placed_floorplan
from .model import Instance, MeshFloorplan, ObjectiveWeights, VerticalLink
from .objective import evaluate_solution
from .vlink import candidate_links


@dataclass(frozen=True)
class ExactLimits:
    components: int = 6
    layers: int = 2
    grid_cells: int = 6   # max cells of any per-layer grid
    vcands: int = 6       # max vertical-link candidates per boundary


@dataclass
class ExactSolution:
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
    unreachable: Optional[UnreachableError] = None  # the last one, raised if none routes
    placements_visited = 0
    configurations_visited = 0

    for combo in itertools.product(*(feasible[cid] for cid in comps)):
        assignment = dict(zip(comps, combo))
        members = [sorted(cid for cid in comps if assignment[cid] == l)
                   for l in range(num_layers)]
        cell_choices = []
        for l in range(num_layers):
            rows, cols = grid_dims(len(members[l]))
            cell_choices.append(list(itertools.permutations(range(rows * cols),
                                                            len(members[l]))))
        for cells_combo in itertools.product(*cell_choices):
            placements_visited += 1
            floorplans = [_layer_floorplan(instance, l, members[l], cells_combo[l])
                          for l in range(num_layers)]
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

            for selection in itertools.product(*(_matchings(c) for c in boundary_cands)):
                configurations_visited += 1
                links = [boundary_cands[bi][i]
                         for bi, combo_sel in enumerate(selection) for i in combo_sel]
                legal = legalize(instance, floorplans, links)
                try:
                    metrics = evaluate_solution(instance, legal, links, weights)
                except UnreachableError as exc:
                    unreachable = exc
                    continue
                cost = metrics["total_cost"]
                key = (tuple(sorted(assignment.items())), cells_combo,
                       tuple((v.lower, v.upper) for v in links))
                if best is None or (cost, key) < (best[0], best[1]):
                    best = (cost, key, assignment, legal, links, metrics)

    if best is None:
        raise unreachable
    _cost, _key, assignment, legal, links, metrics = best
    return ExactSolution(assignment=dict(assignment), floorplans=list(legal),
                         vlinks=list(links), cost=_cost, metrics=metrics,
                         placements_visited=placements_visited,
                         configurations_visited=configurations_visited)
