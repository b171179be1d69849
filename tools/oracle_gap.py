"""Print how far the pipeline's designs lie from the exact optimum.

On small instances `exact.solve_exact` finds the least `total_cost` over the
pipeline's own design space, so gap = pipeline / optimum - 1 measures what
the five-step heuristic gives up. The panels are fixed and seeded:

  - oracle_tiny: the benchmark's inputs and pipeline seeds at workload seeds
    1 and 7 (tiny_soc and eleven 5-CPU instances each), taken from
    perfbench/workloads.py;
  - drawn2, drawn3: 150 two-layer and 60 three-layer draws. Draw i uses
    random.Random(f"gap:{layers}:{i}") and draws 2-5 components (2-4 on
    three layers) of kind CPU, ADC or SIMD, 1-6 flows of 1-60 Mb/s between
    distinct components, each layer's node (28nm or 45nm), a KOZ area of 0, 2
    or 8 mm^2, a reach uniform in 0-10 mm and a link capacity of 5 or 100
    Mb/s, with the case-study PPA table. Draws that do not validate are
    skipped; the pipeline runs the default config at seed i.

One line per instance: its status (ok, pipeline-fails, or no-optimum, each
failure with the error's class) and the gap where both return; then one
summary line per panel: failures, the mean, median and maximum gap, and the
count at 0 (|gap| <= 1e-9). The output is deterministic.

Usage (from the root of a checkout):

    PYTHONPATH=src python tools/oracle_gap.py
"""

from __future__ import annotations

import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from meshstack.corpus import case_study_ppa  # noqa: E402
from meshstack.errors import MeshstackError, ValidationError  # noqa: E402
from meshstack.exact import solve_exact  # noqa: E402
from meshstack.model import (Component, CoreGraph, Flow, Instance, Layer,  # noqa: E402
                             ObjectiveWeights, TechParams, validate_instance)
from meshstack.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from perfbench.workloads import build  # noqa: E402

ORACLE_SEEDS = (1, 7)
DRAWS = {2: 150, 3: 60}  # layers -> draws
AT_ZERO = 1e-9


@dataclass(frozen=True)
class Gap:
    label: str
    pipeline: Optional[float]  # total_cost, or None when it raised
    optimum: Optional[float]
    error: str = ""            # the class of the error raised, if any

    @property
    def status(self) -> str:
        if self.optimum is None:
            return "no-optimum"
        return "ok" if self.pipeline is not None else "pipeline-fails"

    @property
    def gap(self) -> Optional[float]:
        if self.pipeline is None or self.optimum is None:
            return None
        return self.pipeline / self.optimum - 1.0


def oracle_tiny() -> Iterator[tuple[str, Instance, int]]:
    for seed in ORACLE_SEEDS:
        workload = build("oracle_tiny", ROOT, seed)
        for i, (instance, sa_seed) in enumerate(zip(workload.instances, workload.seeds)):
            yield f"oracle_tiny seed {seed} input {i}", instance, sa_seed


def drawn_instance(layers: int, i: int) -> Optional[Instance]:
    """Draw i of the layers-deep panel, or None when it does not validate."""
    rng = random.Random(f"gap:{layers}:{i}")
    ids = [f"c{k}" for k in range(rng.randint(2, 5 if layers == 2 else 4))]
    comps = tuple(Component(c, rng.choice(("CPU", "ADC", "SIMD"))) for c in ids)
    flows = tuple(Flow(*rng.sample(ids, 2), round(rng.uniform(1.0, 60.0), 3))
                  for _ in range(rng.randint(1, 6)))
    nodes = [rng.choice(("28nm", "45nm")) for _ in range(layers)]
    tech = TechParams(koz_area=rng.choice((0.0, 2.0, 8.0)),
                      rd_max_length=round(rng.uniform(0.0, 10.0), 3),
                      link_capacity=rng.choice((5.0, 100.0)))
    try:
        return validate_instance(CoreGraph(comps, flows), case_study_ppa(), tech,
                                 tuple(Layer(l, node) for l, node in enumerate(nodes)))
    except ValidationError:
        return None


def drawn(layers: int) -> Iterator[tuple[str, Instance, int]]:
    for i in range(DRAWS[layers]):
        instance = drawn_instance(layers, i)
        if instance is not None:
            yield f"drawn{layers} {i}", instance, i


PANELS = {"oracle_tiny": oracle_tiny, "drawn2": lambda: drawn(2), "drawn3": lambda: drawn(3)}


def measure(label: str, instance: Instance, seed: int) -> Gap:
    try:
        optimum = solve_exact(instance, ObjectiveWeights()).cost
    except MeshstackError as exc:
        return Gap(label, None, None, type(exc).__name__)
    try:
        cost = run_pipeline(instance, PipelineConfig(seed=seed)).metrics["total_cost"]
    except MeshstackError as exc:
        return Gap(label, None, optimum, type(exc).__name__)
    return Gap(label, cost, optimum)


def line(g: Gap) -> str:
    if g.gap is None:
        return f"{g.label}: {g.status} {g.error}"
    return f"{g.label}: ok pipeline {g.pipeline:.6f} optimum {g.optimum:.6f} gap {g.gap:.6f}"


def summary(panel: str, gaps: list[Gap]) -> str:
    values = [g.gap for g in gaps if g.gap is not None]
    failures = sum(g.status == "pipeline-fails" for g in gaps)
    unsolved = sum(g.status == "no-optimum" for g in gaps)
    text = (f"summary {panel}: {len(gaps)} instances, {failures} pipeline failures, "
            f"{unsolved} without optimum")
    if values:
        text += (f"; gap mean {statistics.fmean(values):.6f} median "
                 f"{statistics.median(values):.6f} max {max(values):.6f}, "
                 f"{sum(abs(v) <= AT_ZERO for v in values)} at 0")
    return text


def main() -> int:
    summaries = []
    for panel, instances in PANELS.items():
        gaps = [measure(*args) for args in instances()]
        for g in gaps:
            print(line(g), flush=True)
        summaries.append(summary(panel, gaps))
    print("\n".join(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
