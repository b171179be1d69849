"""The five-term design objective and all reported metrics.

total cost = w_area * (sum of layer bounding areas)
           + w_power * (power of components + routers)
           + w_perf  * (perf cost of components + routers; larger = slower)
           + w_peak  * (over-capacity link load excess)
           + w_util  * (bandwidth x routed mm distance)

evaluate_solution prices a legalized design; the pipeline and the exact
oracle both report through it. Step 1 prices assignments with its own
variant (max layer area over component sums, no routers), see
layer_assign.step1_cost. All functions here are pure and reentrant.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from .errors import IncompleteSolutionError
from .model import (
    Instance,
    MeshFloorplan,
    ObjectiveWeights,
    TrafficEval,
    VerticalLink,
    cell_demand,
    router_is_3d,
)
from .netgraph import build_network, route_all


def _check_complete(instance: Instance, assignment: Mapping[str, int],
                    floorplans: Sequence[MeshFloorplan]) -> None:
    ids = {c.id for c in instance.core_graph.components}
    missing = ids - set(assignment)
    if missing:
        raise IncompleteSolutionError(f"components without a layer: {sorted(missing)}")
    placed: dict[str, int] = {}
    for fp in floorplans:
        for _cell, comp in fp.occupied_cells():
            if comp in placed:
                raise IncompleteSolutionError(f"component {comp!r} placed twice")
            placed[comp] = fp.layer
    unplaced = ids - set(placed)
    if unplaced:
        raise IncompleteSolutionError(f"components without a cell: {sorted(unplaced)}")
    for comp, layer in placed.items():
        if assignment[comp] != layer:
            raise IncompleteSolutionError(
                f"component {comp!r} assigned to layer {assignment[comp]} "
                f"but placed in layer {layer}")


def area_cost(floorplans: Sequence[MeshFloorplan]) -> float:
    return sum(fp.area for fp in floorplans)


def power_perf_cost(instance: Instance, assignment: Mapping[str, int],
                    floorplans: Sequence[MeshFloorplan]) -> tuple[float, float]:
    power = 0.0
    perf = 0.0
    for comp_id, layer in sorted(assignment.items()):
        entry = instance.component_entry(comp_id, layer)
        if entry is None:
            raise IncompleteSolutionError(f"component {comp_id!r} infeasible in layer {layer}")
        power += entry.power
        perf += entry.perf
    for fp in floorplans:
        for (r, c), _comp in fp.occupied_cells():
            entry = instance.router_entry(fp.layer, router_is_3d(fp.router_kind[r][c]))
            power += entry.power
            perf += entry.perf
    return power, perf


def cost_terms(instance: Instance, assignment: Mapping[str, int],
               floorplans: Sequence[MeshFloorplan], traffic: TrafficEval
               ) -> tuple[float, float, float, float, float]:
    """The five objective terms (area, power, perf, peak, util), unweighted."""
    _check_complete(instance, assignment, floorplans)
    power, perf = power_perf_cost(instance, assignment, floorplans)
    return (area_cost(floorplans), power, perf,
            traffic.peak_penalty, traffic.bw_times_distance)


def total_cost(instance: Instance, assignment: Mapping[str, int],
               floorplans: Sequence[MeshFloorplan], traffic: TrafficEval,
               weights: ObjectiveWeights) -> float:
    terms = cost_terms(instance, assignment, floorplans, traffic)
    return sum(w * t for w, t in zip(weights.as_tuple(), terms))


def whitespace(instance: Instance, fp: MeshFloorplan) -> float:
    """Bounding area minus everything placed: components, routers, KOZs."""
    used = sum(cell_demand(instance, fp, r, c)
               for r in range(fp.rows) for c in range(fp.cols))
    return fp.area - used


def evaluate_solution(instance: Instance, floorplans: Sequence[MeshFloorplan],
                      vlinks: Sequence[VerticalLink], weights: ObjectiveWeights) -> dict:
    """Final evaluation shared by the pipeline and the exact baseline: build
    the network from the (legalized) floorplans, route all flows, and report
    every metric plus the total cost."""
    assignment = {comp: fp.layer for fp in floorplans
                  for _cell, comp in fp.occupied_cells()}
    network = build_network(floorplans, vlinks)
    traffic = route_all(network, instance.core_graph, instance.tech.link_capacity)
    terms = cost_terms(instance, assignment, floorplans, traffic)
    area, power, perf = terms[:3]
    ws = [whitespace(instance, fp) for fp in floorplans]
    traffic = dataclasses.replace(traffic, whitespace_per_layer=tuple(ws),
                                  whitespace_total=sum(ws))
    return {
        "total_cost": sum(w * t for w, t in zip(weights.as_tuple(), terms)),
        "area_per_layer": [fp.area for fp in floorplans],
        "area_total": area,
        "whitespace_per_layer": ws,
        "whitespace_total": sum(ws),
        "power": power,
        "perf": perf,
        "bw_times_distance": traffic.bw_times_distance,
        "bw_times_hops": traffic.bw_times_hops,
        "max_link_load": traffic.max_link_load,
        "peak_penalty": traffic.peak_penalty,
        "traffic": traffic,
        "network": network,
    }


def metrics_to_json(metrics: dict) -> dict:
    """evaluate_solution's scalar metrics (its traffic and network dropped)."""
    return {k: v for k, v in metrics.items() if k not in ("traffic", "network")}
