"""The benchmark's workloads: the instances each one designs, derived from
the workload seed, the one design call each one times, and the output checks
run on every design outside the timed region.

Everything here goes through meshstack's public modules; instances are
built with the public model types and passed through validate_instance.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from meshstack import area_kernel, exact, model, objective, pipeline
from meshstack.corpus import case_study_ppa, default_tech, uniform_traffic
from meshstack.errors import MeshstackError
from meshstack.model import (
    Component,
    CoreGraph,
    Flow,
    Instance,
    Layer,
    ObjectiveWeights,
    core_graph_to_json,
    floorplan_to_json,
    ppa_to_json,
    tech_to_json,
    traffic_to_json,
    vlink_to_json,
)

WEIGHTS = ObjectiveWeights()
ORACLE_BANDWIDTH = 80.0  # Mb/s each way, split over an oracle instance's pairs
DOMINANCE_TOL = 1e-9     # same absolute slack as the acceptance suite


@dataclass
class Design:
    """One finished design, in the shape the checks and metrics read."""

    instance: Instance
    assignment: dict
    floorplans: list
    vlinks: list
    metrics: dict            # evaluate_solution output (with "traffic")
    canonical: str           # deterministic report, timing left out
    steps: dict = field(default_factory=dict)   # pipeline result.timing
    placements: int = 0
    configurations: int = 0

    @property
    def cost(self) -> float:
        return self.metrics["total_cost"]


def _pipeline_design(result: pipeline.PipelineResult) -> Design:
    report = result.report()
    del report["timing"]
    return Design(instance=result.instance, assignment=dict(result.assignment),
                  floorplans=list(result.floorplans), vlinks=list(result.vlinks),
                  metrics=result.metrics, canonical=json.dumps(report, sort_keys=True),
                  steps=dict(result.timing))


def _exact_design(instance: Instance, sol: exact.ExactSolution) -> Design:
    doc = {
        "assignment": dict(sorted(sol.assignment.items())),
        "floorplans": [floorplan_to_json(fp) for fp in sol.floorplans],
        "vlinks": [vlink_to_json(v) for v in sol.vlinks],
        "cost": sol.cost,
        "metrics": {k: v for k, v in sol.metrics.items() if k not in ("traffic", "network")},
        "traffic": traffic_to_json(sol.metrics["traffic"]),
        "placements_visited": sol.placements_visited,
        "configurations_visited": sol.configurations_visited,
    }
    return Design(instance=instance, assignment=dict(sol.assignment),
                  floorplans=list(sol.floorplans), vlinks=list(sol.vlinks),
                  metrics=sol.metrics, canonical=json.dumps(doc, sort_keys=True),
                  placements=sol.placements_visited,
                  configurations=sol.configurations_visited)


def derived_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def oracle_instance(seed: int, k: int) -> Instance:
    """Five CPUs on two 28nm layers, four random component pairs exchanging
    bidirectional flows. The bandwidths are random shares of a fixed total
    (ORACLE_BANDWIDTH each way), so instances differ in shape, not in load."""
    rng = random.Random(f"oracle_tiny:{seed}:{k}")
    ids = [f"cpu{i}" for i in range(5)]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    chosen = rng.sample(pairs, 4)
    shares = [rng.uniform(1.0, 3.0) for _ in chosen]
    flows = []
    for (a, b), share in zip(chosen, shares):
        bw = round(ORACLE_BANDWIDTH * share / sum(shares), 3)
        flows += [Flow(a, b, bw), Flow(b, a, bw)]
    core_graph = CoreGraph(components=tuple(Component(i, "CPU") for i in ids),
                           flows=tuple(flows))
    layers = (Layer(0, "28nm"), Layer(1, "28nm"))
    return model.validate_instance(core_graph, case_study_ppa(), default_tech(), layers)


def instance_bytes(instance: Instance) -> bytes:
    """Canonical serialization, for comparing generated instances."""
    doc = {"coregraph": core_graph_to_json(instance.core_graph),
           "ppa": ppa_to_json(instance.ppa, instance.layers),
           "tech": tech_to_json(instance.tech)}
    return json.dumps(doc, sort_keys=True).encode()


class Workload:
    """A list of design inputs and the call that turns input i into a design.

    A design is split into call(i), the timed part, and finish(i, raw),
    which packages the raw result for the checks; check(i, design) returns
    the failures found.
    """

    panel: int     # design inputs per run; the loop cycles over them

    def call(self, i: int):
        raise NotImplementedError

    def finish(self, i: int, raw) -> Design:
        raise NotImplementedError

    def extra_checks(self, i: int, design: Design) -> list[str]:
        return []

    def check(self, i: int, design: Design) -> list[str]:
        failures = []
        recheck = objective.evaluate_solution(design.instance, design.floorplans,
                                              design.vlinks, WEIGHTS)["total_cost"]
        if recheck != design.cost:
            failures.append(f"evaluate_solution gives {recheck!r}, "
                            f"the design reports {design.cost!r}")
        try:
            objective.cost_terms(design.instance, design.assignment,
                                 design.floorplans, design.metrics["traffic"])
        except MeshstackError as exc:
            failures.append(f"cost_terms rejects it: {exc}")
        return failures + self.extra_checks(i, design)


class PipelineWorkload(Workload):
    """run_pipeline on one instance with the default config, one design per
    derived SA seed."""

    def __init__(self, instance: Instance, seed: int, panel: int):
        self.instance = instance
        self.seeds = derived_seeds(seed, panel)
        self.panel = panel

    def call(self, i: int):
        config = pipeline.PipelineConfig(seed=self.seeds[i])
        return pipeline.run_pipeline(self.instance, config)

    def finish(self, i: int, raw) -> Design:
        return _pipeline_design(raw)


class OracleWorkload(Workload):
    """solve_exact on tiny_soc, then on seeded 5-CPU instances."""

    def __init__(self, root: Path, seed: int, panel: int):
        self.instances = ([model.load_instance(root / "corpus" / "tiny_soc")]
                          + [oracle_instance(seed, k) for k in range(1, panel)])
        self.seeds = derived_seeds(seed, panel)
        self.panel = panel
        self.pipeline_steps: list[dict] = []
        self.dominance: dict[int, list[str]] = {}   # input -> its check's failures

    def call(self, i: int):
        return exact.solve_exact(self.instances[i], WEIGHTS)

    def finish(self, i: int, raw) -> Design:
        return _exact_design(self.instances[i], raw)

    def extra_checks(self, i: int, design: Design) -> list[str]:
        """The heuristic pipeline never beats the exact optimum. It runs once
        per input: every repeat must reproduce the first report exactly
        (repeat_failures), so it has the same optimum."""
        if i not in self.dominance:
            config = pipeline.PipelineConfig(seed=self.seeds[i])
            result = pipeline.run_pipeline(design.instance, config)
            self.pipeline_steps.append(dict(result.timing))
            heuristic = result.metrics["total_cost"]
            self.dominance[i] = ([f"run_pipeline costs {heuristic!r}, below the "
                                  f"exact optimum {design.cost!r}"]
                                 if heuristic < design.cost - DOMINANCE_TOL else [])
        return self.dominance[i]


def large_vsoc(root: Path) -> Instance:
    return model.load_instance(root / "corpus" / "large_vsoc")


def uniform_large(root: Path) -> Instance:
    """large_vsoc with spatially uniform traffic of the same total bandwidth."""
    base = large_vsoc(root)
    return model.validate_instance(uniform_traffic(base.core_graph), base.ppa,
                                   base.tech, base.layers)


BUILDERS: dict[str, Callable[[Path, int], Workload]] = {
    "app_large": lambda root, seed: PipelineWorkload(large_vsoc(root), seed, panel=9),
    "uniform_large": lambda root, seed: PipelineWorkload(uniform_large(root), seed, panel=5),
    "oracle_tiny": lambda root, seed: OracleWorkload(root, seed, panel=12),
}


def build(name: str, root: Path, seed: int) -> Workload:
    return BUILDERS[name](root, seed)


def reset_kernel_cache() -> None:
    """Cold exact-kernel cache, as every CLI run starts with."""
    area_kernel._min_area_exact_cached.cache_clear()


def kernel_cache_info():
    return area_kernel._min_area_exact_cached.cache_info()


def repeat_failures(first: Design, again: Design) -> list[str]:
    if first.canonical != again.canonical:
        return ["repeating it gave a different report"]
    return []
