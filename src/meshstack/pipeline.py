"""Five-step synthesis pipeline and report assembly.

Steps: 1 layer assignment, 2 per-layer floorplanning, 3 TSV array counts,
4 vertical-link placement, 5 legalization + final evaluation. Three protocol
switches cover the conventional comparisons:

  colocate    all layers share one grid sizing so routers stack exactly
              and KOZs stay in their routers' cells (floorplan.legalize
              owns that rule); isolates reach sweeps on a fixed geometry.
  no_rd       redistribution reach forced to 0, plus colocate (otherwise no
              vertical link could ever be placed).
  fixed_mesh  the full conventional protocol: a fixed RxC grid per layer,
              row-major placement (application-blind, no annealing), shared
              sizing, and every stacked router pair vertically connected.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .anneal import SaParams, mix_seed
from .errors import InputError, InstanceTooLargeError, InvalidParamsError
from .floorplan import floorplan_layer, grid_dims, legalize, placed_floorplan, step2_cost
from .layer_assign import assign_layers, assign_layers_greedy, step1_cost
from .model import (
    Instance,
    MeshFloorplan,
    ObjectiveWeights,
    VerticalLink,
    check_vlink_ends,
    finite_number,
    floorplan_to_json,
    json_typed,
    nonnegative_number,
    parse_layers,
    parse_vlink,
    read_json,
    tech_to_json,
    traffic_to_json,
    vlink_to_json,
)
# route_all is unused here but kept: perfbench/layertrace.py patches pipeline.route_all
from .netgraph import build_network, route_all  # noqa: F401
from .objective import evaluate_solution, metrics_to_json
from .tsv_count import choose_count
from .vlink import links_in_reach, max_matching_size, place_vlinks


MAX_FIXED_MESH_CELLS = 4096  # rows * cols of fixed_mesh; its grid is allocated cell by cell


@dataclass(frozen=True)
class SaTriple:
    initial_temp: float
    iterations: int
    cooling: float

    def params(self, seed: int) -> SaParams:
        return SaParams(self.initial_temp, self.iterations, self.cooling, seed)


def _int(v, lo: int, hi: float = math.inf) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi


def _sa_triple(v) -> bool:
    return (isinstance(v, list) and len(v) == 3 and finite_number(v[0], 0) and v[0] > 0
            and _int(v[1], 1) and finite_number(v[2], 0) and 0 < v[2] < 1)


def _index_key(k: str) -> bool:
    """An index's one spelling as a JSON key, so "0" and "00" cannot both
    name index 0; the length bound keeps int() below Python's digit limit."""
    return len(k) <= 9 and k.isdecimal() and str(int(k)) == k


_SA_TRIPLE = (_sa_triple, "[initial_temp > 0, iterations >= 1, cooling in (0, 1)]",
              lambda v: SaTriple(float(v[0]), v[1], float(v[2])))
_BOOL = (lambda v: isinstance(v, bool), "true or false", bool)

# every config key: (check, what it expects, its field from the JSON); null means default
_CONFIG_KEYS = {
    "weights": (lambda v: isinstance(v, list) and len(v) == 5
                and all(finite_number(w, 0) for w in v) and any(w > 0 for w in v),
                "five finite weights >= 0, not all zero", lambda v: ObjectiveWeights(*v)),
    "seed": (lambda v: _int(v, 0, (1 << 64) - 1), "an integer in [0, 2^64)", int),
    "sa_floorplan": _SA_TRIPLE,
    "sa_vlink": _SA_TRIPLE,
    "steps": (lambda v: _int(v, 1, 5), "an integer in 1..5", int),
    "rd_max": (lambda v: finite_number(v, 0), "a finite number >= 0", lambda v: v),
    "no_rd": _BOOL,
    "colocate": _BOOL,
    "fixed_mesh": (lambda v: isinstance(v, list) and len(v) == 2
                   and all(_int(x, 1) for x in v) and v[0] * v[1] <= MAX_FIXED_MESH_CELLS,
                   f"[rows >= 1, cols >= 1] of at most {MAX_FIXED_MESH_CELLS} cells", tuple),
    "fixed_tsv_counts": (lambda v: isinstance(v, dict) and all(
        _index_key(k) and _int(n, 0) for k, n in v.items()),
        "an object of boundary index (no leading zeros) -> count >= 0",
        lambda v: {int(k): n for k, n in v.items()}),
}


@dataclass(frozen=True)
class PipelineConfig:
    weights: ObjectiveWeights = ObjectiveWeights()
    seed: int = 1
    sa_floorplan: SaTriple = SaTriple(20.0, 120, 0.97)
    sa_vlink: SaTriple = SaTriple(100.0, 50, 0.97)
    steps: int = 5
    rd_max: Optional[float] = None             # override the instance reach
    no_rd: bool = False
    colocate: bool = False
    fixed_mesh: Optional[tuple[int, int]] = None
    fixed_tsv_counts: Optional[dict[int, int]] = None

    def to_json(self) -> dict:
        def plain(v):
            if dataclasses.is_dataclass(v):
                return list(dataclasses.astuple(v))
            if isinstance(v, dict):
                return {str(k): n for k, n in v.items()} or None
            return list(v) if isinstance(v, tuple) else v
        return {f.name: plain(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @staticmethod
    def from_json(doc: dict) -> "PipelineConfig":
        """Parse a config document; raises InvalidParamsError naming the
        first unknown key or the first key with a wrong type or value."""
        if not isinstance(doc, dict):
            raise InvalidParamsError("config must be a JSON object")
        for key, value in doc.items():
            if key not in _CONFIG_KEYS:
                raise InvalidParamsError(f"unknown config key {key!r}")
            check, expected, _ = _CONFIG_KEYS[key]
            if value is not None and not check(value):
                raise InvalidParamsError(
                    f"config key {key!r} must be {expected}, got {value!r}")
        return PipelineConfig(**{key: _CONFIG_KEYS[key][2](value)
                                 for key, value in doc.items() if value is not None})


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
    kernel_calls: Optional[list] = None  # if a list, step 2's cost evaluations; not reported

    def report(self) -> dict:
        """Self-contained, deterministic report (timing isolated on top).
        Its step outputs are the stage artifacts, serialized the same way."""
        artifact = {stage.command: stage.to_json(self) for stage in STAGES}
        doc = {
            "instance": {
                "components": len(self.instance.core_graph.components),
                "flows": len(self.instance.core_graph.flows),
                "layers": [{"index": l.index, "node": l.node_name}
                           for l in self.instance.layers],
                **tech_to_json(self.instance.tech),
            },
            **artifact["assign"],  # config, assignment, step1_cost
            "floorplans_step2": artifact["floorplan"]["layers"],
            "floorplans": artifact["legalize"]["layers"],
            "tsv": artifact["tsv"],
            **artifact["place3d"],
            "per_step_costs": self.per_step_costs,
            "metrics": metrics_to_json(self.metrics),
            "timing": dict(self.timing),
        }
        if "traffic" in self.metrics:
            doc["traffic"] = traffic_to_json(self.metrics["traffic"])
        return doc

    @staticmethod
    def from_report(instance: Instance, doc: dict) -> "PipelineResult":
        """The five steps' outputs embedded in a report() doc, under its own
        config: each stage's loader reads its artifact, so a report gets
        every check the step artifacts get."""
        try:  # a hand edit, or a key removed since: named with the report
            config = PipelineConfig.from_json(doc["config"])
            instance = _effective_instance(instance, config)
        except InvalidParamsError as exc:
            raise ValueError(f"malformed or outdated config: {exc}") from exc
        result = PipelineResult(instance, config)
        artifacts = (doc, {"layers": doc["floorplans_step2"]}, doc["tsv"], doc,
                     {"layers": doc["floorplans"]})
        for stage, artifact in zip(STAGES, artifacts):
            stage.load(result, artifact)
        return result


def _effective_instance(instance: Instance, config: PipelineConfig) -> Instance:
    unknown = sorted(set(config.fixed_tsv_counts or {}) - set(instance.boundaries()))
    if unknown:
        raise InvalidParamsError(f"fixed_tsv_counts names boundaries {unknown}, but the "
                                 f"instance's boundaries are {list(instance.boundaries())}")
    reach = instance.tech.rd_max_length
    if config.rd_max is not None:
        reach = config.rd_max
    if config.no_rd:
        reach = 0.0
    if reach == instance.tech.rd_max_length:
        return instance
    tech = dataclasses.replace(instance.tech, rd_max_length=reach)
    return dataclasses.replace(instance, tech=tech)


def _colocated(config: PipelineConfig) -> bool:
    return config.no_rd or config.colocate or config.fixed_mesh is not None


# the five stages; each reads what the earlier ones left on the result

def _assign(result: PipelineResult) -> None:
    instance, config = result.instance, result.config
    # step 1 prices area and power; w_util = 1, never read there, keeps perf-only weights valid
    step1_weights = dataclasses.replace(config.weights, w_perf=0.0, w_util=1.0)
    try:
        assignment = assign_layers(instance, step1_weights)
    except InstanceTooLargeError:
        assignment = assign_layers_greedy(instance, step1_weights)
    result.assignment = assignment
    result.step1_cost = step1_cost(instance, assignment, step1_weights)


def _floorplan(result: PipelineResult) -> None:
    instance, config = result.instance, result.config
    members = {l.index: sorted(c for c, lay in result.assignment.items() if lay == l.index)
               for l in instance.layers}
    dims = None
    if config.fixed_mesh is not None:
        dims = config.fixed_mesh
        for l, mem in members.items():
            if len(mem) > dims[0] * dims[1]:
                raise InstanceTooLargeError(
                    f"fixed mesh {dims[0]}x{dims[1]} cannot hold {len(mem)} "
                    f"components of layer {l}")
    elif _colocated(config):
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
                                              kernel_trace=result.kernel_calls))
    if _colocated(config):  # one shared sizing keeps the routers stacked
        floorplans = legalize(instance, floorplans, (), colocated=True)
    result.step2_floorplans = floorplans
    result.per_step_costs["step1"] = result.step1_cost
    result.per_step_costs["step2_per_layer"] = {
        str(fp.layer): step2_cost(instance, fp, config.weights) for fp in floorplans}


def _tsv(result: PipelineResult) -> None:
    instance, config = result.instance, result.config
    floorplans = result.step2_floorplans
    counts: dict[int, int] = {}
    curves: dict[int, dict[int, float]] = {}
    for b in instance.boundaries():
        # most links it can carry
        cap = max_matching_size(links_in_reach(floorplans, b, instance.tech.rd_max_length))
        fixed = (config.fixed_tsv_counts or {}).get(b)
        if fixed is not None or config.fixed_mesh is not None:
            # an explicit count wins; else the conventional protocol connects fully
            counts[b] = cap if fixed is None else min(fixed, cap)
            curves[b] = {}
            continue
        if cap == 0:
            counts[b] = 0
            curves[b] = {0: 0.0}
            continue
        # a matching uses each upper router once, so cap never exceeds the upper grid's cells
        choice = choose_count(floorplans, b, instance.core_graph,
                              instance.tech.koz_area, config.weights, max_i=cap)
        counts[b] = choice.count
        curves[b] = choice.c3_by_count
    result.tsv_counts = counts
    result.tsv_curves = curves
    result.per_step_costs["step3_c3"] = {
        str(b): curves[b].get(counts[b]) for b in counts}


def _place3d(result: PipelineResult) -> None:
    instance, config = result.instance, result.config
    floorplans, counts = result.step2_floorplans, result.tsv_counts
    result.vlinks, cost = place_vlinks(instance, floorplans, counts, config.weights,
                                       config.sa_vlink.params(mix_seed(config.seed, 4)))
    result.per_step_costs["step4"] = None if math.isinf(cost) else cost


def _legalize(result: PipelineResult) -> None:
    instance, config = result.instance, result.config
    legal = legalize(instance, result.step2_floorplans, result.vlinks,
                     colocated=_colocated(config))
    result.floorplans = legal
    metrics = evaluate_solution(instance, legal, result.vlinks, config.weights)
    result.metrics = metrics
    result.vlinks = list(metrics["network"].vlinks)  # rd refreshed to final geometry


# the stage table; each artifact's parser puts it back onto a result

def _load_assignment(result: PipelineResult, doc: dict) -> None:
    # every later step must run with the config the chain started with
    try:
        made_with = PipelineConfig.from_json(doc["config"]).to_json()
    except InvalidParamsError as exc:  # a hand edit, or a key removed since
        raise ValueError(f"malformed or outdated config: {exc}; re-run `meshstack assign`") from exc
    for key, value in sorted(result.config.to_json().items()):  # one form per value
        if made_with[key] != value:
            raise ValueError(f"made with config {key}={made_with[key]!r} but this step "
                             f"runs with {key}={value!r}; give every step the "
                             f"same flags and --config")
    assignment, kinds = dict(_items(doc["assignment"], "assignment")), result.instance.kinds
    for comp in sorted(set(assignment) | set(kinds)):
        feasible = result.instance.feasible_layers(comp) if comp in kinds else ()
        layer = assignment.get(comp)
        if type(layer) is not int or layer not in feasible:
            raise ValueError(f"component {comp!r} cannot sit on layer {layer!r}: "
                             f"its feasible layers are {list(feasible)}")
    result.assignment = assignment
    result.step1_cost = nonnegative_number(doc["step1_cost"], "step1_cost")


def _load_floorplan(result: PipelineResult, doc: dict) -> None:
    floorplans = parse_layers(result.instance, doc["layers"])
    grids = {fp.layer: (fp.rows, fp.cols) for fp in floorplans if fp.rows > 0}
    if _colocated(result.config) and len(set(grids.values())) > 1:
        raise ValueError("colocated layers must share one grid, but " + ", ".join(
            f"layer {l} is {r}x{c}" for l, (r, c) in grids.items()))
    result.step2_floorplans = floorplans


def _items(doc, what: str):
    return json_typed(doc, "object", what).items()


def _indexed(doc, what: str) -> dict:
    """A JSON object keyed by indices (one spelling each), as {index: value}."""
    indexed = {}
    for k, v in _items(doc, what):
        if not _index_key(k):
            raise ValueError(f"{what} key {k!r} is not an index without leading zeros")
        indexed[int(k)] = v
    return indexed


def _load_tsv(result: PipelineResult, doc: dict) -> None:
    counts = _indexed(doc["counts"], "counts")
    boundaries = list(result.instance.boundaries())
    if sorted(counts) != boundaries or not all(type(n) is int and n >= 0
                                               for n in counts.values()):
        raise ValueError(f"counts must map each boundary {boundaries} to an integer >= 0")
    curves = _indexed(doc["c3_curves"], "c3_curves")
    unknown = sorted(set(curves) - set(boundaries))
    if unknown:
        raise ValueError(f"c3_curves names boundaries {unknown}, but the instance's "
                         f"boundaries are {boundaries}")
    result.tsv_counts = counts
    result.tsv_curves = {b: {i: nonnegative_number(v, f"c3 curve {b}")
                             for i, v in _indexed(curve, f"c3 curve {b}").items()}
                         for b, curve in curves.items()}


def _check_reach(instance: Instance, floorplans: Sequence[MeshFloorplan],
                 vlinks: Sequence[VerticalLink]) -> None:
    """ValueError for a link that is no candidate of its boundary within the
    instance's reach on the step-2 `floorplans`."""
    in_reach = {(c.lower, c.upper) for b in {v.lower[0] for v in vlinks}
                for c in links_in_reach(floorplans, b, instance.tech.rd_max_length)}
    for v in vlinks:
        if (v.lower, v.upper) not in in_reach:
            raise ValueError(f"vertical link {list(v.lower)} -> {list(v.upper)} is longer "
                             f"than the reach {instance.tech.rd_max_length} mm on the "
                             f"step-2 floorplans")


def _load_place3d(result: PipelineResult, doc: dict) -> None:
    result.vlinks = [parse_vlink(d) for d in doc["vlinks"]]
    check_vlink_ends(result.vlinks, result.step2_floorplans)
    _check_reach(result.instance, result.step2_floorplans, result.vlinks)


def _load_legalize(result: PipelineResult, doc: dict) -> None:
    result.floorplans = parse_layers(result.instance, doc["layers"])
    check_vlink_ends(result.vlinks, result.floorplans)
    # the vertical-link lengths step 5 leaves on the result: final geometry
    result.vlinks = list(build_network(result.floorplans, result.vlinks).vlinks)


@dataclass(frozen=True)
class Stage:
    command: str       # CLI subcommand that runs this stage alone
    title: str
    timing_key: str    # its entry in PipelineResult.timing
    run: Callable[[PipelineResult], None]
    artifact: str      # file the subcommand writes to the output directory
    to_json: Callable[[PipelineResult], dict]     # the artifact; report() reuses it
    load: Callable[[PipelineResult, dict], None]  # the artifact back onto a result


STAGES = (
    Stage("assign", "component-to-layer assignment", "step1_assign", _assign,
          "assignment.json", lambda r: {"config": r.config.to_json(),
                                        "assignment": dict(sorted(r.assignment.items())),
                                        "step1_cost": r.step1_cost},
          _load_assignment),
    Stage("floorplan", "per-layer floorplans", "step2_floorplan", _floorplan,
          "floorplan.json",
          lambda r: {"layers": [floorplan_to_json(fp) for fp in r.step2_floorplans]},
          _load_floorplan),
    Stage("tsv", "TSV array count per boundary", "step3_tsv_count", _tsv,
          "tsv_plan.json", lambda r: {
              "counts": {str(b): n for b, n in sorted(r.tsv_counts.items())},
              "c3_curves": {str(b): {str(i): v for i, v in sorted(curve.items())}
                            for b, curve in sorted(r.tsv_curves.items())}},
          _load_tsv),
    Stage("place3d", "vertical-link placement", "step4_vlinks", _place3d,
          "vlinks.json", lambda r: {"vlinks": [vlink_to_json(v) for v in r.vlinks]},
          _load_place3d),
    Stage("legalize", "legalization and final evaluation", "step5_legalize_eval", _legalize,
          "floorplan_legal.json",
          lambda r: {"layers": [floorplan_to_json(fp) for fp in r.floorplans]}, _load_legalize),
)


def check_finite_costs(costs: Iterable[float], weights: ObjectiveWeights, what: str) -> None:
    """InvalidParamsError if a cost overflowed: weights that are each finite
    can still overflow a weighted sum."""
    if not all(map(math.isfinite, costs)):
        raise InvalidParamsError(f"config key 'weights' {list(weights.as_tuple())} overflows "
                                 f"the {what} cost; scale the weights down")


def run_stage(stage: Stage, result: PipelineResult) -> None:
    t0 = time.perf_counter()
    stage.run(result)
    result.timing[stage.timing_key] = time.perf_counter() - t0
    check_finite_costs([result.step1_cost, result.metrics.get("total_cost", 0.0),
                        *result.per_step_costs.get("step2_per_layer", {}).values(),
                        *(v for curve in result.tsv_curves.values() for v in curve.values())],
                       result.config.weights, stage.title)


def run_pipeline(instance: Instance, config: PipelineConfig) -> PipelineResult:
    result = PipelineResult(_effective_instance(instance, config), config)
    for stage in STAGES[:config.steps]:
        run_stage(stage, result)
    return result


def load_artifacts(instance: Instance, config: PipelineConfig, out_dir: Path,
                   stages: Sequence[Stage]) -> PipelineResult:
    """A result holding the artifacts of `stages`, read in order from out_dir.
    Raises InputError if assignment.json was made with another config."""
    result = PipelineResult(_effective_instance(instance, config), config)
    for stage in stages:
        path = Path(out_dir) / stage.artifact
        if not path.is_file():
            raise InputError(f"{path} is missing; run `meshstack {stage.command}` first")
        read_json(path, lambda doc: stage.load(result, doc))
    return result
