"""Print one sha256 per pipeline report over a fixed corpus matrix.

A refactor that must not change behaviour passes when two source trees print
the same digests. Each digest covers the report's JSON (sorted keys, the
`timing` block removed) as written by the CLI:

  - tiny_soc, small_vsoc, large_vsoc, vopd at seeds 1-3, default config;
  - the same with --fixed-mesh (2x2, 3x3, 4x4, 3x3) and --no-rd;
  - --no-rd, colocate and --rd-max 2.5 at seed 1 (the last searches KOZ
    hosts within a reach other than the instance's);
  - large_vsoc at seeds 1-3 and small_vsoc at seed 1 with uniform traffic
    (`corpus.uniform_traffic`), where step 4 routes every component pair;
  - large_vsoc and vopd at seed 1 with a link capacity of 20 Mb/s, where
    step 2's peak term is positive on many evaluations;
  - large_vsoc at seed 1 with a KOZ area of 20 and --weights 1,1,1,1,0.02,
    where step 3 picks fewer arrays than the boundary's matching allows, so
    step 4 places fewer links than it could;
  - `meshstack baseline` on tiny_soc, and the solve_exact result on tiny_soc
    (its traffic included);
  - `meshstack baseline` on three CPUs on three 28nm layers with a 100 Mb/s
    chain c0 -> c1 -> c2, whose optimum links the middle router both up and
    down;
  - `meshstack baseline` on two CPUs, a SIMD and an ADC on 28nm/45nm layers
    with flows a -> d, d -> c and b -> a, where a layer's kind grid (the
    component kind in each cell) differs from its component grid;
  - `meshstack baseline` on tiny_soc with --weights 1,1,1,1,0, where no flow
    enters the oracle's cost floor;
  - `meshstack baseline` on five CPUs on three 28nm layers with a chain
    c0 -> c1 -> ... -> c4 of 10, 20, 30 and 40 Mb/s, whose optimum puts c0
    on layer 0 and c1 on layer 2, so the oracle's linked floor chains a flow
    through both boundaries;
  - `meshstack baseline` on five CPUs on two 28nm layers with bidirectional
    pairs c0 <-> c1 (30 Mb/s), c1 <-> c2 (20), c2 <-> c3 (20) and c3 <-> c4
    (10), oracle_tiny's shape, where the oracle's queue of kind patterns
    interleaves assignments;
  - the step subcommand chain (assign, floorplan, tsv, place3d, legalize,
    eval) on the four instances at seed 1: its floorplan_legal.json and
    traffic.json;
  - `run --steps 1..4` on tiny_soc at seed 1;
  - `eval --report` on the seed-1 reports of the four instances and on
    large_vsoc's seed-1 --fixed-mesh 4x4 --no-rd report: its traffic.json.

67 digests in all.

Usage (from the root of a checkout):

    PYTHONPATH=src python tools/report_digests.py [--corpus corpus]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional

from meshstack.cli import main as cli_main
from meshstack.corpus import case_study_ppa, default_tech, uniform_traffic
from meshstack.exact import solve_exact
from meshstack.model import (Component, CoreGraph, Flow, Layer, ObjectiveWeights,
                             floorplan_to_json, load_instance, save_instance, traffic_to_json,
                             validate_instance, vlink_to_json)

INSTANCES = (("tiny_soc", "2x2"), ("small_vsoc", "3x3"),
             ("large_vsoc", "4x4"), ("vopd", "3x3"))
SEEDS = (1, 2, 3)
UNIFORM = (("large_vsoc", SEEDS), ("small_vsoc", (1,)))
LOW_CAPACITY = ("large_vsoc", "vopd")  # run at link_capacity 20 Mb/s, seed 1
FEW_ARRAYS = "large_vsoc"  # run at koz_area 20 with a light wiring weight, seed 1
CHAIN = ("assign", "floorplan", "tsv", "place3d", "legalize", "eval")
# the `run` cases whose report `eval --report` reads back
EVAL_REPORT = (*(f"{name} seed 1" for name, _mesh in INSTANCES),
               "large_vsoc seed 1 fixed-mesh 4x4 no-rd")


def digest(doc: dict) -> str:
    doc = {k: v for k, v in doc.items() if k != "timing"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def run_cli(argv: list[str], artifact: Optional[Path] = None) -> Optional[dict]:
    """Run one CLI command quietly; return the artifact it wrote, if named."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return read_json(artifact) if artifact is not None else None


def tech_copy(instance_dir: Path, out: Path, **tech) -> str:
    """Save the instance with the given technology numbers replaced; return
    the copy's directory."""
    base = load_instance(instance_dir)
    save_instance(validate_instance(base.core_graph, base.ppa,
                                    dataclasses.replace(base.tech, **tech), base.layers), out)
    return str(out)


def cases(corpus: Path, tmp: Path):
    """Yield (label, run flags, instance dir) for every `meshstack run` case."""
    colocate = tmp / "colocate.json"
    colocate.write_text(json.dumps({"colocate": True}))
    for name, mesh in INSTANCES:
        inst = str(corpus / name)
        for seed in SEEDS:
            yield f"{name} seed {seed}", ["--seed", str(seed)], inst
        for seed in SEEDS:
            yield (f"{name} seed {seed} fixed-mesh {mesh} no-rd",
                   ["--seed", str(seed), "--fixed-mesh", mesh, "--no-rd"], inst)
        yield f"{name} seed 1 no-rd", ["--seed", "1", "--no-rd"], inst
        yield f"{name} seed 1 colocate", ["--seed", "1", "--config", str(colocate)], inst
        yield f"{name} seed 1 rd-max 2.5", ["--seed", "1", "--rd-max", "2.5"], inst
    for name, seeds in UNIFORM:
        base = load_instance(corpus / name)
        inst = tmp / f"{name}_uniform"
        save_instance(validate_instance(uniform_traffic(base.core_graph), base.ppa,
                                        base.tech, base.layers), inst)
        for seed in seeds:
            yield f"{name} uniform seed {seed}", ["--seed", str(seed)], str(inst)
    for name in LOW_CAPACITY:
        inst = tech_copy(corpus / name, tmp / f"{name}_capacity20", link_capacity=20.0)
        yield f"{name} link-capacity 20 seed 1", ["--seed", "1"], inst
    inst = tech_copy(corpus / FEW_ARRAYS, tmp / f"{FEW_ARRAYS}_koz20", koz_area=20.0)
    yield (f"{FEW_ARRAYS} koz-area 20 weights 1,1,1,1,0.02 seed 1",
           ["--seed", "1", "--weights", "1,1,1,1,0.02"], inst)


def save_case_study(out: Path, components, flows, nodes) -> str:
    """Save case-study components and flows on layers of the given nodes with
    the default technology numbers; return the instance's directory."""
    cg = CoreGraph(tuple(components), tuple(flows))
    save_instance(validate_instance(cg, case_study_ppa(), default_tech(),
                                    tuple(Layer(i, node) for i, node in enumerate(nodes))), out)
    return str(out)


def three_cpu_tower(out: Path) -> str:
    """Three CPUs on three 28nm layers with a 100 Mb/s chain c0 -> c1 -> c2."""
    return save_case_study(out, (Component(f"c{i}", "CPU") for i in range(3)),
                           (Flow("c0", "c1", 100.0), Flow("c1", "c2", 100.0)), ["28nm"] * 3)


def mixed_kinds(out: Path) -> str:
    """Two CPUs, a SIMD and an ADC (45nm only) on 28nm/45nm layers."""
    return save_case_study(out, (Component("a", "CPU"), Component("b", "SIMD"),
                                 Component("c", "CPU"), Component("d", "ADC")),
                           (Flow("a", "d", 40.0), Flow("d", "c", 25.0), Flow("b", "a", 10.0)),
                           ["28nm", "45nm"])


def five_cpu_chain(out: Path) -> str:
    """Five CPUs on three 28nm layers with a chain c0 -> ... -> c4 of
    10, 20, 30 and 40 Mb/s."""
    return save_case_study(out, (Component(f"c{i}", "CPU") for i in range(5)),
                           (Flow(f"c{i}", f"c{i + 1}", 10.0 * (i + 1)) for i in range(4)),
                           ["28nm"] * 3)


def five_cpu_pairs(out: Path) -> str:
    """Five CPUs on two 28nm layers with bidirectional pairs c0 <-> c1 (30
    Mb/s), c1 <-> c2 (20), c2 <-> c3 (20) and c3 <-> c4 (10)."""
    pairs = ((0, 1, 30.0), (1, 2, 20.0), (2, 3, 20.0), (3, 4, 10.0))
    return save_case_study(out, (Component(f"c{i}", "CPU") for i in range(5)),
                           (Flow(f"c{src}", f"c{dst}", bw) for a, b, bw in pairs
                            for src, dst in ((a, b), (b, a))),
                           ["28nm"] * 2)


def exact_doc(instance_dir: Path) -> dict:
    sol = solve_exact(load_instance(instance_dir), ObjectiveWeights())
    return {
        "assignment": dict(sorted(sol.assignment.items())),
        "cost": sol.cost,
        "floorplans": [floorplan_to_json(fp) for fp in sol.floorplans],
        "vlinks": [vlink_to_json(v) for v in sol.vlinks],
        "metrics": {k: v for k, v in sol.metrics.items() if k not in ("traffic", "network")},
        "traffic": traffic_to_json(sol.metrics["traffic"]),
        "placements_visited": sol.placements_visited,
        "configurations_visited": sol.configurations_visited,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", default="corpus", help="corpus directory (default: corpus)")
    args = parser.parse_args(argv)
    corpus = Path(args.corpus)
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        runs = {}
        for i, (label, flags, inst) in enumerate(cases(corpus, tmp)):
            out = tmp / f"run{i}"
            runs[label] = inst, out
            doc = run_cli(["run", inst, "--out", str(out)] + flags, out / "report.json")
            print(f"{digest(doc)}  {label}", flush=True)
        tiny = str(corpus / "tiny_soc")
        for i, (label, inst, flags) in enumerate((
                ("tiny_soc", tiny, []),
                ("three-cpu three-layer", three_cpu_tower(tmp / "tower"), []),
                ("mixed-kind two-layer", mixed_kinds(tmp / "mixed"), []),
                ("tiny_soc weights 1,1,1,1,0", tiny, ["--weights", "1,1,1,1,0"]),
                ("five-cpu three-layer chain", five_cpu_chain(tmp / "five"), []),
                ("five-cpu two-layer pairs", five_cpu_pairs(tmp / "pairs"), []))):
            out = tmp / f"baseline{i}"
            doc = run_cli(["baseline", inst, "--out", str(out)] + flags,
                          out / "exact_solution.json")
            print(f"{digest(doc)}  {label} baseline", flush=True)
        print(f"{digest(exact_doc(corpus / 'tiny_soc'))}  tiny_soc solve_exact", flush=True)
        for name, _mesh in INSTANCES:
            out = tmp / f"chain_{name}"
            for command in CHAIN:
                run_cli([command, str(corpus / name), "--out", str(out), "--seed", "1"])
            for artifact in ("floorplan_legal.json", "traffic.json"):
                print(f"{digest(read_json(out / artifact))}  {name} seed 1 chain {artifact}",
                      flush=True)
        for steps in (1, 2, 3, 4):
            out = tmp / f"steps{steps}"
            doc = run_cli(["run", str(corpus / "tiny_soc"), "--out", str(out), "--seed", "1",
                           "--steps", str(steps)], out / "report.json")
            print(f"{digest(doc)}  tiny_soc seed 1 steps {steps}", flush=True)
        for label in EVAL_REPORT:
            inst, out = runs[label]
            run_cli(["eval", inst, "--out", str(out), "--report", str(out / "report.json")])
            print(f"{digest(read_json(out / 'traffic.json'))}  {label} eval --report",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
