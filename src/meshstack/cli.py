"""Command-line interface.

    meshstack run INSTANCE_DIR --out OUT [--seed N] [--weights a,b,c,d,e]
                                [--steps N] [--fixed-mesh RxC] [--no-rd]
                                [--rd-max MM] [--config FILE]
    meshstack validate INSTANCE_DIR
    meshstack assign | floorplan | tsv | place3d | legalize | eval | render
    meshstack baseline INSTANCE_DIR --out OUT

Step subcommands chain through artifacts in the output directory
(assignment.json, floorplan.json, tsv_plan.json, vlinks.json,
floorplan_legal.json, traffic.json, report.json, layer*.svg).

Exit codes: 0 ok, 2 invalid instance or parameters (including --config), 3
infeasible, 4 limits exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import corpus
from .errors import (
    InstanceTooLargeError,
    InsufficientCandidatesError,
    InvalidParamsError,
    MeshstackError,
    NoCandidatesError,
    NoFeasibleLayerError,
    TooManyArraysError,
    UnreachableError,
    ValidationError,
)
from .exact import ExactLimits, solve_exact
from .model import (
    Instance,
    ObjectiveWeights,
    floorplan_to_json,
    load_instance,
    parse_floorplan,
    parse_vlink,
    traffic_to_json,
    vlink_to_json,
)
from .objective import evaluate_solution
from .pipeline import PipelineConfig, run_pipeline, write_report
from .render import render_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_LIMITS = 4


def _dump(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def _parse_weights(text: str) -> ObjectiveWeights:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("expected 5 comma-separated weights")
    return ObjectiveWeights(*parts)


def _parse_mesh(text: str) -> tuple[int, int]:
    try:
        r, c = text.lower().split("x")
        return (int(r), int(c))
    except Exception as exc:
        raise argparse.ArgumentTypeError("expected RxC, e.g. 3x3") from exc


def _config_from_args(args) -> PipelineConfig:
    if getattr(args, "config", None):
        config = PipelineConfig.from_json(_load_json(Path(args.config)))
    else:
        config = PipelineConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "weights", None) is not None:
        overrides["weights"] = args.weights
    if getattr(args, "steps", None) is not None:
        overrides["steps"] = args.steps
    if getattr(args, "fixed_mesh", None) is not None:
        overrides["fixed_mesh"] = args.fixed_mesh
    if getattr(args, "no_rd", False):
        overrides["no_rd"] = True
    if getattr(args, "rd_max", None) is not None:
        overrides["rd_max"] = args.rd_max
    if getattr(args, "samples", None) is not None:
        overrides["samples"] = args.samples
    return dataclasses.replace(config, **overrides) if overrides else config


def _instance(args) -> Instance:
    return load_instance(Path(args.instance))


def _run_steps(args, steps: int):
    instance = _instance(args)
    config = dataclasses.replace(_config_from_args(args), steps=steps)
    return instance, config, run_pipeline(instance, config)


def cmd_validate(args) -> int:
    load_instance(Path(args.instance))
    print(f"{args.instance}: valid")
    return EXIT_OK


def cmd_assign(args) -> int:
    _instance_, _config, result = _run_steps(args, steps=1)
    out = Path(args.out)
    _dump({"assignment": dict(sorted(result.assignment.items())),
           "step1_cost": result.step1_cost}, out / "assignment.json")
    print(f"wrote {out / 'assignment.json'}")
    return EXIT_OK


def cmd_floorplan(args) -> int:
    instance = _instance(args)
    config = dataclasses.replace(_config_from_args(args), steps=2)
    trace: list | None = [] if args.dump_kernel else None
    result = run_pipeline(instance, config, kernel_trace=trace)
    out = Path(args.out)
    doc = {"layers": [floorplan_to_json(fp) for fp in result.step2_floorplans]}
    _dump(doc, out / "floorplan.json")
    if trace is not None:
        _dump({"kernel_calls": trace}, out / "kernel_trace.json")
        print(f"wrote {out / 'kernel_trace.json'} ({len(trace)} kernel calls)")
    print(f"wrote {out / 'floorplan.json'}")
    return EXIT_OK


def cmd_tsv(args) -> int:
    _instance_, _config, result = _run_steps(args, steps=3)
    out = Path(args.out)
    _dump({"counts": {str(b): n for b, n in sorted(result.tsv_counts.items())},
           "c3_curves": {str(b): {str(i): v for i, v in sorted(curve.items())}
                         for b, curve in sorted(result.tsv_curves.items())}},
          out / "tsv_plan.json")
    print(f"wrote {out / 'tsv_plan.json'}")
    return EXIT_OK


def cmd_place3d(args) -> int:
    _instance_, _config, result = _run_steps(args, steps=4)
    out = Path(args.out)
    _dump({"vlinks": [vlink_to_json(v) for v in result.vlinks]}, out / "vlinks.json")
    print(f"wrote {out / 'vlinks.json'}")
    return EXIT_OK


def cmd_legalize(args) -> int:
    _instance_, _config, result = _run_steps(args, steps=5)
    out = Path(args.out)
    _dump({"layers": [floorplan_to_json(fp) for fp in result.floorplans]},
          out / "floorplan_legal.json")
    print(f"wrote {out / 'floorplan_legal.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    instance = _instance(args)
    out = Path(args.out)
    if args.report:
        doc = _load_json(Path(args.report))
        fps = [parse_floorplan(d) for d in doc["floorplans"]]
        vlinks = [parse_vlink(d) for d in doc["vlinks"]]
        weights = ObjectiveWeights(*doc["config"]["weights"])
    else:
        fps = [parse_floorplan(d)
               for d in _load_json(out / "floorplan_legal.json")["layers"]]
        vlinks = [parse_vlink(d)
                  for d in _load_json(out / "vlinks.json")["vlinks"]]
        weights = _config_from_args(args).weights
    metrics = evaluate_solution(instance, fps, vlinks, weights)
    doc = {k: v for k, v in metrics.items() if k not in ("traffic", "network")}
    doc["traffic"] = traffic_to_json(metrics["traffic"])
    _dump(doc, out / "traffic.json")
    print(f"wrote {out / 'traffic.json'}  "
          f"(cost {metrics['total_cost']:.4f}, "
          f"bw*dist {metrics['bw_times_distance']:.4f})")
    return EXIT_OK


def cmd_run(args) -> int:
    instance, config, result = _run_steps(args, steps=getattr(args, "steps", None) or 5)
    out = Path(args.out)
    write_report(result, out / "report.json")
    if result.floorplans:
        for layer, svg in render_svg(result.floorplans, result.vlinks,
                                     instance.tech.koz_area).items():
            (out / f"layer{layer}.svg").write_text(svg)
    print(f"wrote {out / 'report.json'}")
    if result.metrics:
        m = result.metrics
        print(f"cost {m['total_cost']:.4f}  area {m['area_total']:.4f}  "
              f"whitespace {m['whitespace_total']:.4f}  "
              f"bw*dist {m['bw_times_distance']:.4f}  "
              f"max load {m['max_link_load']:.4f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    instance = _instance(args)
    config = _config_from_args(args)
    limits = ExactLimits()
    solution = solve_exact(instance, config.weights, limits)
    out = Path(args.out)
    doc = {
        "assignment": dict(sorted(solution.assignment.items())),
        "cost": solution.cost,
        "floorplans": [floorplan_to_json(fp) for fp in solution.floorplans],
        "vlinks": [vlink_to_json(v) for v in solution.vlinks],
        "metrics": {k: v for k, v in solution.metrics.items()
                    if k not in ("traffic", "network")},
        "placements_visited": solution.placements_visited,
        "configurations_visited": solution.configurations_visited,
    }
    _dump(doc, out / "exact_solution.json")
    print(f"wrote {out / 'exact_solution.json'}  (cost {solution.cost:.4f})")
    return EXIT_OK


def cmd_render(args) -> int:
    instance = _instance(args)
    out = Path(args.out)
    source = out / "floorplan_legal.json"
    if not source.exists():
        source = out / "floorplan.json"
    fps = [parse_floorplan(d) for d in _load_json(source)["layers"]]
    vlinks_path = out / "vlinks.json"
    vlinks = ([parse_vlink(d) for d in _load_json(vlinks_path)["vlinks"]]
              if vlinks_path.exists() else [])
    for layer, svg in render_svg(fps, vlinks, instance.tech.koz_area).items():
        (out / f"layer{layer}.svg").write_text(svg)
        print(f"wrote {out / f'layer{layer}.svg'}")
    return EXIT_OK


def cmd_corpus(args) -> int:
    corpus.write_corpus(Path(args.out))
    print(f"wrote corpus to {args.out}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, with_out: bool = True) -> None:
    p.add_argument("instance", help="instance directory (coregraph/ppa/tech JSON)")
    if with_out:
        p.add_argument("--out", default="out", help="artifact directory (default: out)")
    p.add_argument("--config", default=None, help="pipeline config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--weights", type=_parse_weights, default=None,
                   metavar="A,P,F,K,U", help="five objective weights")
    p.add_argument("--fixed-mesh", type=_parse_mesh, default=None, metavar="RxC",
                   help="conventional protocol: fixed grid, row-major placement, "
                        "shared sizing, full vertical connectivity")
    p.add_argument("--no-rd", action="store_true",
                   help="redistribution reach 0 (co-located routers only)")
    p.add_argument("--rd-max", type=float, default=None, metavar="MM",
                   help="override the redistribution reach")
    p.add_argument("--samples", type=int, default=None,
                   help="TSV estimation trials per count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshstack",
        description="Synthesize partially vertically connected 3D mesh NoC designs")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("validate", cmd_validate, "check an instance against the schema invariants", False),
        ("assign", cmd_assign, "step 1: component-to-layer assignment", True),
        ("floorplan", cmd_floorplan, "steps 1-2: per-layer floorplans", True),
        ("tsv", cmd_tsv, "steps 1-3: TSV array counts", True),
        ("place3d", cmd_place3d, "steps 1-4: vertical-link placement", True),
        ("legalize", cmd_legalize, "steps 1-5: legalized floorplans", True),
        ("eval", cmd_eval, "evaluate a stored solution", True),
        ("run", cmd_run, "full pipeline, report + SVGs", True),
        ("baseline", cmd_baseline, "exact tiny-instance solver", True),
        ("render", cmd_render, "render stored floorplans to SVG", True),
    ]
    for name, fn, help_text, with_out in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, with_out=with_out)
        if name == "run":
            p.add_argument("--steps", type=int, choices=range(1, 6), default=None,
                           help="run only the first N steps")
        if name == "floorplan":
            p.add_argument("--dump-kernel", action="store_true",
                           help="emit kernel_trace.json for the chosen placements")
        if name == "eval":
            p.add_argument("--report", default=None,
                           help="evaluate the solution embedded in a report.json")
        p.set_defaults(handler=fn)

    p = sub.add_parser("corpus", help="write the bundled benchmark corpus")
    p.add_argument("--out", default="corpus")
    p.set_defaults(handler=cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, InvalidParamsError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc!r}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NoFeasibleLayerError, NoCandidatesError, InsufficientCandidatesError,
            UnreachableError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InstanceTooLargeError, TooManyArraysError) as exc:
        print(f"limits exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMITS
    except MeshstackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
