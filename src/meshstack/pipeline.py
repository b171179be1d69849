"""Five-step synthesis pipeline and report assembly.

Steps: 1 layer assignment, 2 per-layer floorplanning, 3 TSV array counts,
4 vertical-link placement, 5 legalization + final evaluation. Three protocol
switches cover the conventional comparisons:

  colocate    all layers share one grid sizing so routers stack exactly;
              isolates reach sweeps on a fixed geometry.
  no_rd       redistribution reach forced to 0, plus colocate (otherwise no
              vertical link could ever be placed).
  fixed_mesh  the full conventional protocol: a fixed RxC grid per layer,
              row-major placement (application-blind, no annealing), shared
              sizing, and every stacked router pair vertically connected.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .anneal import SaParams, mix_seed
from .errors import (InstanceTooLargeError, InvalidParamsError, NoCandidatesError,
                     UnreachableError)
from .floorplan import (floorplan_layer, grid_dims, joint_size, legalize, placed_floorplan,
                        step2_cost)
from .layer_assign import assign_layers, assign_layers_greedy, step1_cost
from .model import (
    Instance,
    MeshFloorplan,
    ObjectiveWeights,
    VerticalLink,
    floorplan_to_json,
    traffic_to_json,
    vlink_to_json,
)
from .netgraph import build_network, route_all
from .objective import evaluate_solution
from .tsv_count import choose_count
from .vlink import candidate_links, max_matching_size, place_vlinks


@dataclass(frozen=True)
class SaTriple:
    initial_temp: float
    iterations: int
    cooling: float

    def params(self, seed: int) -> SaParams:
        return SaParams(self.initial_temp, self.iterations, self.cooling, seed)


def _int(v, lo: int, hi: float = math.inf) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi


def _num(v, lo: float) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and lo <= v < math.inf


def _sa_triple(v) -> bool:
    return (isinstance(v, list) and len(v) == 3 and _num(v[0], 0) and v[0] > 0
            and _int(v[1], 1) and _num(v[2], 0) and 0 < v[2] < 1)


_SA_TRIPLE = (_sa_triple, "[initial_temp > 0, iterations >= 1, cooling in (0, 1)]")
_BOOL = (lambda v: isinstance(v, bool), "true or false")

# every key PipelineConfig.from_json reads: (check, what it expects); null
# always means the default
_CONFIG_KEYS = {
    "weights": (lambda v: isinstance(v, list) and len(v) == 5
                and all(_num(w, 0) for w in v) and any(w > 0 for w in v),
                "five finite weights >= 0, not all zero"),
    "seed": (lambda v: _int(v, 0, (1 << 64) - 1), "an integer in [0, 2^64)"),
    "sa_floorplan": _SA_TRIPLE,
    "sa_vlink": _SA_TRIPLE,
    "samples": (lambda v: _int(v, 1), "an integer >= 1"),
    "step1_perf_weight": (lambda v: _num(v, 0), "a finite number >= 0"),
    "assign_cap": (lambda v: _int(v, 0), "an integer >= 0"),
    "steps": (lambda v: _int(v, 1, 5), "an integer in 1..5"),
    "rd_max": (lambda v: _num(v, 0), "a finite number >= 0"),
    "no_rd": _BOOL,
    "colocate": _BOOL,
    "fixed_mesh": (lambda v: isinstance(v, list) and len(v) == 2
                   and all(_int(x, 1) for x in v), "[rows >= 1, cols >= 1]"),
    "fixed_tsv_counts": (lambda v: isinstance(v, dict) and all(
        k.isdecimal() and _int(n, 0) for k, n in v.items()),
        "an object of boundary index -> count >= 0"),
    "redistribute_koz": _BOOL,
}


@dataclass(frozen=True)
class PipelineConfig:
    weights: ObjectiveWeights = ObjectiveWeights()
    seed: int = 1
    sa_floorplan: SaTriple = SaTriple(20.0, 120, 0.97)
    sa_vlink: SaTriple = SaTriple(100.0, 50, 0.97)
    samples: int = 64
    step1_perf_weight: float = 0.0
    assign_cap: int = 30
    steps: int = 5
    rd_max: Optional[float] = None             # override the instance reach
    no_rd: bool = False
    colocate: bool = False
    fixed_mesh: Optional[tuple[int, int]] = None
    fixed_tsv_counts: Optional[dict[int, int]] = None
    redistribute_koz: Optional[bool] = None    # default: reach > 0 and not colocated

    def to_json(self) -> dict:
        return {
            "weights": list(self.weights.as_tuple()),
            "seed": self.seed,
            "sa_floorplan": [self.sa_floorplan.initial_temp,
                             self.sa_floorplan.iterations, self.sa_floorplan.cooling],
            "sa_vlink": [self.sa_vlink.initial_temp,
                         self.sa_vlink.iterations, self.sa_vlink.cooling],
            "samples": self.samples,
            "step1_perf_weight": self.step1_perf_weight,
            "assign_cap": self.assign_cap,
            "steps": self.steps,
            "rd_max": self.rd_max,
            "no_rd": self.no_rd,
            "colocate": self.colocate,
            "fixed_mesh": list(self.fixed_mesh) if self.fixed_mesh else None,
            "fixed_tsv_counts": ({str(k): v for k, v in self.fixed_tsv_counts.items()}
                                 if self.fixed_tsv_counts else None),
            "redistribute_koz": self.redistribute_koz,
        }

    @staticmethod
    def from_json(doc: dict) -> "PipelineConfig":
        """Parse a config document; raises InvalidParamsError naming the
        first unknown key or the first key with a wrong type or value."""
        if not isinstance(doc, dict):
            raise InvalidParamsError("config must be a JSON object")
        for key, value in doc.items():
            if key not in _CONFIG_KEYS:
                raise InvalidParamsError(f"unknown config key {key!r}")
            check, expected = _CONFIG_KEYS[key]
            if value is not None and not check(value):
                raise InvalidParamsError(
                    f"config key {key!r} must be {expected}, got {value!r}")
        kwargs = {key: value for key, value in doc.items() if value is not None}
        if "weights" in kwargs:
            kwargs["weights"] = ObjectiveWeights(*kwargs["weights"])
        for key in ("sa_floorplan", "sa_vlink"):
            if key in kwargs:
                t, i, c = kwargs[key]
                kwargs[key] = SaTriple(float(t), i, float(c))
        if "fixed_mesh" in kwargs:
            kwargs["fixed_mesh"] = tuple(kwargs["fixed_mesh"])
        if "fixed_tsv_counts" in kwargs:
            kwargs["fixed_tsv_counts"] = {int(k): n for k, n
                                          in kwargs["fixed_tsv_counts"].items()}
        return PipelineConfig(**kwargs)


@dataclass
class PipelineResult:
    instance: Instance
    config: PipelineConfig
    assignment: dict[str, int] = field(default_factory=dict)
    step1_cost: float = 0.0
    step2_floorplans: list[MeshFloorplan] = field(default_factory=list)
    floorplans: list[MeshFloorplan] = field(default_factory=list)
    tsv_counts: dict[int, int] = field(default_factory=dict)
    tsv_curves: dict[int, dict[int, float]] = field(default_factory=dict)
    vlinks: list[VerticalLink] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    per_step_costs: dict = field(default_factory=dict)
    timing: dict[str, float] = field(default_factory=dict)

    def report(self) -> dict:
        """Self-contained, deterministic report (timing isolated on top)."""
        doc = {
            "config": self.config.to_json(),
            "instance": {
                "components": len(self.instance.core_graph.components),
                "flows": len(self.instance.core_graph.flows),
                "layers": [{"index": l.index, "node": l.node_name}
                           for l in self.instance.layers],
                "link_capacity": self.instance.tech.link_capacity,
                "koz_area": self.instance.tech.koz_area,
                "rd_max_length": self.instance.tech.rd_max_length,
            },
            "assignment": dict(sorted(self.assignment.items())),
            "step1_cost": self.step1_cost,
            "floorplans_step2": [floorplan_to_json(fp) for fp in self.step2_floorplans],
            "floorplans": [floorplan_to_json(fp) for fp in self.floorplans],
            "tsv": {
                "counts": {str(b): n for b, n in sorted(self.tsv_counts.items())},
                "c3_curves": {str(b): {str(i): v for i, v in sorted(curve.items())}
                              for b, curve in sorted(self.tsv_curves.items())},
            },
            "vlinks": [vlink_to_json(v) for v in self.vlinks],
            "per_step_costs": self.per_step_costs,
            "metrics": {k: v for k, v in self.metrics.items()
                        if k not in ("traffic", "network")},
            "timing": dict(self.timing),
        }
        if "traffic" in self.metrics:
            doc["traffic"] = traffic_to_json(self.metrics["traffic"])
        return doc


def _effective_instance(instance: Instance, config: PipelineConfig) -> Instance:
    reach = instance.tech.rd_max_length
    if config.rd_max is not None:
        reach = config.rd_max
    if config.no_rd:
        reach = 0.0
    if reach == instance.tech.rd_max_length:
        return instance
    tech = dataclasses.replace(instance.tech, rd_max_length=reach)
    return dataclasses.replace(instance, tech=tech)


def run_pipeline(instance: Instance, config: PipelineConfig,
                 kernel_trace: Optional[list] = None) -> PipelineResult:
    instance = _effective_instance(instance, config)
    colocated = config.no_rd or config.colocate or config.fixed_mesh is not None
    result = PipelineResult(instance=instance, config=config)
    timing = result.timing

    # step 1: component-to-layer assignment
    t0 = time.perf_counter()
    step1_weights = ObjectiveWeights(
        w_area=config.weights.w_area, w_power=config.weights.w_power,
        w_perf=config.step1_perf_weight, w_peak=config.weights.w_peak,
        w_util=config.weights.w_util)
    try:
        assignment = assign_layers(instance, step1_weights, config.assign_cap)
    except InstanceTooLargeError:
        assignment = assign_layers_greedy(instance, step1_weights)
    result.assignment = assignment
    result.step1_cost = step1_cost(instance, assignment, step1_weights)
    timing["step1_assign"] = time.perf_counter() - t0
    if config.steps < 2:
        return result

    # step 2: per-layer floorplanning
    t0 = time.perf_counter()
    members = {l.index: sorted(c for c, lay in assignment.items() if lay == l.index)
               for l in instance.layers}
    dims = None
    if config.fixed_mesh is not None:
        dims = config.fixed_mesh
        for l, mem in members.items():
            if len(mem) > dims[0] * dims[1]:
                raise InstanceTooLargeError(
                    f"fixed mesh {dims[0]}x{dims[1]} cannot hold {len(mem)} "
                    f"components of layer {l}")
    elif colocated:
        per_layer = [grid_dims(len(mem)) for mem in members.values()]
        dims = (max(r for r, _ in per_layer), max(c for _, c in per_layer))

    floorplans = []
    for l in sorted(members):
        if config.fixed_mesh is not None:
            # application-blind: fill the fixed grid row-major in id order
            state = tuple(members[l]) + (None,) * (dims[0] * dims[1] - len(members[l]))
            floorplans.append(placed_floorplan(instance, l, state, *dims))
        else:
            sa = config.sa_floorplan.params(mix_seed(config.seed, 2, l))
            floorplans.append(floorplan_layer(instance, l, members[l],
                                              config.weights, sa, dims=dims,
                                              kernel_trace=kernel_trace))
    if colocated:
        floorplans = joint_size(instance, floorplans)
    result.step2_floorplans = floorplans
    result.per_step_costs["step1"] = result.step1_cost
    result.per_step_costs["step2_per_layer"] = {
        str(fp.layer): step2_cost(instance, fp, config.weights) for fp in floorplans}
    timing["step2_floorplan"] = time.perf_counter() - t0
    if config.steps < 3:
        return result

    # step 3: TSV array count per boundary
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    curves: dict[int, dict[int, float]] = {}
    for b in instance.boundaries():
        cap = _boundary_capacity(instance, floorplans, b)
        if config.fixed_mesh is not None:
            counts[b] = cap  # conventional: fully vertically connected
            curves[b] = {}
            continue
        if config.fixed_tsv_counts is not None and b in config.fixed_tsv_counts:
            counts[b] = min(config.fixed_tsv_counts[b], cap)
            curves[b] = {}
            continue
        upper = next(fp for fp in floorplans if fp.layer == b + 1)
        max_i = min(upper.rows * upper.cols, cap) if cap > 0 else 0
        if max_i == 0:
            counts[b] = 0
            curves[b] = {0: 0.0}
            continue
        choice = choose_count(floorplans, b, instance.core_graph,
                              instance.tech.koz_area, config.weights,
                              max_i=max_i, samples=config.samples,
                              seed=mix_seed(config.seed, 3, b))
        counts[b] = min(choice.count, cap)
        curves[b] = choice.c3_by_count
    result.tsv_counts = counts
    result.tsv_curves = curves
    result.per_step_costs["step3_c3"] = {
        str(b): curves[b].get(counts[b]) for b in counts}
    timing["step3_tsv_count"] = time.perf_counter() - t0
    if config.steps < 4:
        return result

    # step 4: vertical-link placement
    t0 = time.perf_counter()
    if any(n > 0 for n in counts.values()):
        vlinks = place_vlinks(instance, floorplans, counts, config.weights,
                              config.sa_vlink.params(mix_seed(config.seed, 4)))
    else:
        vlinks = []
    result.vlinks = vlinks
    try:
        net4 = build_network(floorplans, vlinks)
        traffic4 = route_all(net4, instance.core_graph, instance.tech.link_capacity)
        result.per_step_costs["step4"] = (
            config.weights.w_util * traffic4.bw_times_distance
            + config.weights.w_peak * traffic4.peak_penalty)
    except UnreachableError:
        result.per_step_costs["step4"] = None
    timing["step4_vlinks"] = time.perf_counter() - t0
    if config.steps < 5:
        return result

    # step 5: legalization + final evaluation
    t0 = time.perf_counter()
    redistribute = config.redistribute_koz
    if redistribute is None:
        redistribute = instance.tech.rd_max_length > 0 and not colocated
    legal = legalize(instance, floorplans, vlinks, redistribute=redistribute,
                     colocated=colocated)
    result.floorplans = legal
    metrics = evaluate_solution(instance, legal, vlinks, config.weights)
    result.metrics = metrics
    result.vlinks = list(metrics["network"].vlinks)  # rd refreshed to final geometry
    timing["step5_legalize_eval"] = time.perf_counter() - t0
    return result


def _boundary_capacity(instance: Instance, floorplans: Sequence[MeshFloorplan],
                       boundary: int) -> int:
    """Most vertical links the boundary can carry: the maximum matching of
    candidate pairs (zero when either side has no routers in reach)."""
    try:
        cands = candidate_links(floorplans, boundary, instance.tech.rd_max_length)
    except NoCandidatesError:
        return 0
    return max_matching_size(cands)


def write_report(result: PipelineResult, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(result.report(), f, indent=2, sort_keys=True)
        f.write("\n")
