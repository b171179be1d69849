"""Component-to-layer assignment minimizing the step-1 objective
w1 * max-layer component area + w2 * total power (+ optional w3 * total perf).

assign_layers is exact branch-and-bound seeded with the greedy incumbent;
assign_layers_greedy is the scalability fallback for very large instances.
"""

from __future__ import annotations

from typing import Mapping

from .errors import InstanceTooLargeError, NoFeasibleLayerError
from .model import Instance, ObjectiveWeights

LayerAssignment = dict[str, int]

MAX_COMPONENTS = 30  # assign_layers' branch-and-bound cap


def step1_cost(instance: Instance, assignment: Mapping[str, int],
               weights: ObjectiveWeights) -> float:
    """w1 * max_l sum of component areas + w2 * sum power + w3 * sum perf.

    Components only; routers are not placed yet at this step.
    """
    layer_area = [0.0] * len(instance.layers)
    power = 0.0
    perf = 0.0
    for comp_id, layer in assignment.items():
        entry = instance.component_entry(comp_id, layer)
        if entry is None:
            raise NoFeasibleLayerError(comp_id)
        layer_area[layer] += entry.area
        power += entry.power
        perf += entry.perf
    max_area = max(layer_area) if layer_area else 0.0
    return weights.w_area * max_area + weights.w_power * power + weights.w_perf * perf


def _feasibility(instance: Instance) -> dict[str, tuple[int, ...]]:
    feasible = {}
    for comp in instance.core_graph.components:
        layers = instance.feasible_layers(comp.id)
        if not layers:
            raise NoFeasibleLayerError(comp.id)
        feasible[comp.id] = layers
    return feasible


def assign_layers_greedy(instance: Instance, weights: ObjectiveWeights) -> LayerAssignment:
    """Place components in descending max-feasible-area order, each on the
    layer with the smallest incremental step-1 cost. Ties go to the lowest
    layer index."""
    feasible = _feasibility(instance)

    def max_area(comp_id: str) -> float:
        return max(instance.component_entry(comp_id, l).area for l in feasible[comp_id])

    order = sorted(feasible, key=lambda cid: (-max_area(cid), cid))
    layer_area = [0.0] * len(instance.layers)
    assignment: LayerAssignment = {}
    for comp_id in order:
        best_layer = None
        best_delta = None
        for layer in feasible[comp_id]:
            entry = instance.component_entry(comp_id, layer)
            new_max = max(max(layer_area, default=0.0), layer_area[layer] + entry.area)
            delta = (weights.w_area * new_max + weights.w_power * entry.power
                     + weights.w_perf * entry.perf)
            if best_delta is None or delta < best_delta - 1e-12:
                best_layer, best_delta = layer, delta
        assignment[comp_id] = best_layer
        layer_area[best_layer] += instance.component_entry(comp_id, best_layer).area
    return {cid: assignment[cid] for cid in sorted(assignment)}


def assign_layers(instance: Instance, weights: ObjectiveWeights) -> LayerAssignment:
    """Exact assignment by branch-and-bound over components.

    Lower bound of a partial assignment: w1 * max(current max-layer area,
    committed-plus-remaining-minimum area averaged over layers) plus the
    per-component minima of power/perf over feasible layers. Components with
    a single feasible layer are committed first (no branching). Raises
    InstanceTooLargeError beyond MAX_COMPONENTS; callers may fall back to
    assign_layers_greedy.
    """
    feasible = _feasibility(instance)
    n = len(feasible)
    if n == 0:
        return {}
    if n > MAX_COMPONENTS:
        raise InstanceTooLargeError(
            f"{n} components exceed the exact-assignment cap of {MAX_COMPONENTS}; "
            "use assign_layers_greedy")

    num_layers = len(instance.layers)

    def entry(cid, l):
        return instance.component_entry(cid, l)

    def max_area(cid):
        return max(entry(cid, l).area for l in feasible[cid])

    # forced components first, then descending area for strong early bounds
    order = sorted(feasible, key=lambda cid: (len(feasible[cid]) > 1, -max_area(cid), cid))
    min_power = {cid: min(entry(cid, l).power for l in feasible[cid]) for cid in order}
    min_perf = {cid: min(entry(cid, l).perf for l in feasible[cid]) for cid in order}
    min_area = {cid: min(entry(cid, l).area for l in feasible[cid]) for cid in order}

    # suffix sums of the per-component minima
    suffix_power = [0.0] * (n + 1)
    suffix_perf = [0.0] * (n + 1)
    suffix_area = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_power[i] = suffix_power[i + 1] + min_power[order[i]]
        suffix_perf[i] = suffix_perf[i + 1] + min_perf[order[i]]
        suffix_area[i] = suffix_area[i + 1] + min_area[order[i]]

    # greedy incumbent
    incumbent = assign_layers_greedy(instance, weights)
    best_cost = step1_cost(instance, incumbent, weights)
    best_assignment = incumbent

    layer_area = [0.0] * num_layers
    current: LayerAssignment = {}

    def bound(i: int, power: float, perf: float) -> float:
        committed_total = sum(layer_area)
        avg = (committed_total + suffix_area[i]) / num_layers
        area_lb = max(max(layer_area), avg)
        return (weights.w_area * area_lb
                + weights.w_power * (power + suffix_power[i])
                + weights.w_perf * (perf + suffix_perf[i]))

    def dfs(i: int, power: float, perf: float) -> None:
        nonlocal best_cost, best_assignment
        if bound(i, power, perf) >= best_cost:
            return
        if i == n:
            # evaluate leaves freshly so incremental float drift cannot leak
            # into the reported optimum
            cost = step1_cost(instance, current, weights)
            if cost < best_cost:
                best_cost = cost
                best_assignment = dict(current)
            return
        cid = order[i]
        for layer in feasible[cid]:  # ascending index: deterministic ties
            e = entry(cid, layer)
            layer_area[layer] += e.area
            current[cid] = layer
            dfs(i + 1, power + e.power, perf + e.perf)
            del current[cid]
            layer_area[layer] -= e.area

    dfs(0, 0.0, 0.0)
    return {cid: best_assignment[cid] for cid in sorted(best_assignment)}
