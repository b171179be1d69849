"""Command-line interface: `meshstack {validate,run,baseline,corpus}` and the
step chain `assign, floorplan, tsv, place3d, legalize, eval, render`.

The five step subcommands come from pipeline.STAGES: each reads the earlier
steps' artifacts from --out, runs its own step and writes its artifact
(assignment.json, floorplan.json, tsv_plan.json, vlinks.json,
floorplan_legal.json). eval reads all five and writes traffic.json; render
draws the chain as far as it has run (layer*.svg). Flags are laid over the
--config document and validated with it. validate takes only the instance;
eval --report evaluates under the report's own config and refuses --config
and config flags (exit 2).

Exit codes: 0 ok, 2 invalid instance, parameters or artifact, 3 infeasible,
4 limits exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from . import corpus
from .errors import (
    InputError,
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
from .exact import solve_exact
from .model import (
    check_vlink_ends,
    floorplan_to_json,
    load_instance,
    parse_layers,
    parse_vlink,
    read_json,
    traffic_to_json,
    vlink_to_json,
    write_json,
)
from .objective import evaluate_solution, metrics_to_json
from .pipeline import (_CONFIG_KEYS, STAGES, PipelineConfig, PipelineResult,
                       _effective_instance, load_artifacts, run_pipeline, run_stage)
from .render import render_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_LIMITS = 4


def _parse_weights(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _parse_mesh(text: str) -> list[int]:
    return [int(n) for n in text.lower().split("x")]


def _flags(args) -> dict:  # the config flags given: every flag's dest is its config key
    return {key: value for key, value in vars(args).items()
            if key in _CONFIG_KEYS and value is not None}


def _config_from_args(args) -> PipelineConfig:
    """--config with the flags laid over it, validated as one document."""
    doc = read_json(args.config) if args.config else {}
    return PipelineConfig.from_json({**doc, **_flags(args)} if isinstance(doc, dict) else doc)


def _resume(args, stages) -> PipelineResult:
    return load_artifacts(load_instance(args.instance), _config_from_args(args),
                          Path(args.out), stages)


def cmd_validate(args) -> int:
    load_instance(args.instance)
    print(f"{args.instance}: valid")
    return EXIT_OK


def cmd_stage(args) -> int:
    """A step subcommand: read the earlier artifacts, run the step, write its own."""
    i = [stage.command for stage in STAGES].index(args.command)
    result, stage = _resume(args, STAGES[:i]), STAGES[i]
    trace = result.kernel_calls = [] if getattr(args, "dump_kernel", False) else None
    run_stage(stage, result)
    out = Path(args.out)
    write_json(stage.to_json(result), out / stage.artifact)
    if trace is not None:
        write_json({"kernel_calls": trace}, out / "kernel_trace.json")
        print(f"wrote {out / 'kernel_trace.json'} ({len(trace)} kernel calls)")
    print(f"wrote {out / stage.artifact}")
    return EXIT_OK


def _report_solution(instance, doc: dict):
    floorplans = parse_layers(instance, doc["floorplans"])
    vlinks = [parse_vlink(d) for d in doc["vlinks"]]
    check_vlink_ends(vlinks, floorplans)
    return floorplans, vlinks, PipelineConfig.from_json(doc["config"]).weights


def cmd_eval(args) -> int:
    out = Path(args.out)
    if args.report:
        given = (["config"] if args.config else []) + list(_flags(args))
        if given:
            raise InvalidParamsError("eval --report takes the report's own config; drop "
                                     + ", ".join("--" + key.replace("_", "-") for key in given))
        instance = load_instance(args.instance)
        fps, vlinks, weights = read_json(args.report,
                                         lambda doc: _report_solution(instance, doc))
    else:
        result = _resume(args, STAGES)
        instance, fps, vlinks = result.instance, result.floorplans, result.vlinks
        weights = result.config.weights
    metrics = evaluate_solution(instance, fps, vlinks, weights)
    write_json({**metrics_to_json(metrics), "traffic": traffic_to_json(metrics["traffic"])},
               out / "traffic.json")
    print(f"wrote {out / 'traffic.json'}  (cost {metrics['total_cost']:.4f}, "
          f"bw*dist {metrics['bw_times_distance']:.4f})")
    return EXIT_OK


def _write_svgs(result: PipelineResult, out: Path) -> list[Path]:
    paths = []
    for layer, svg in render_svg(result.floorplans or result.step2_floorplans,
                                 result.vlinks, result.instance.tech.koz_area).items():
        paths.append(out / f"layer{layer}.svg")
        paths[-1].write_text(svg)
    return paths


def cmd_run(args) -> int:
    result = run_pipeline(load_instance(args.instance), _config_from_args(args))
    out = Path(args.out)
    write_json(result.report(), out / "report.json")
    if result.floorplans:
        _write_svgs(result, out)
    print(f"wrote {out / 'report.json'}")
    if result.metrics:
        m = result.metrics
        print(f"cost {m['total_cost']:.4f}  area {m['area_total']:.4f}  "
              f"whitespace {m['whitespace_total']:.4f}  "
              f"bw*dist {m['bw_times_distance']:.4f}  "
              f"max load {m['max_link_load']:.4f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    config = _config_from_args(args)
    instance = _effective_instance(load_instance(args.instance), config)
    for key in ("no_rd", "colocate", "fixed_mesh", "fixed_tsv_counts"):
        if getattr(config, key):
            raise InvalidParamsError(f"baseline cannot honour config key {key!r}: the exact "
                                     f"oracle models no shared sizing, fixed grid or fixed count")
    solution = solve_exact(instance, config.weights)
    out = Path(args.out)
    doc = {
        "assignment": dict(sorted(solution.assignment.items())),
        "cost": solution.cost,
        "floorplans": [floorplan_to_json(fp) for fp in solution.floorplans],
        "vlinks": [vlink_to_json(v) for v in solution.vlinks],
        "metrics": metrics_to_json(solution.metrics),
        "placements_visited": solution.placements_visited,
        "configurations_visited": solution.configurations_visited,
    }
    write_json(doc, out / "exact_solution.json")
    print(f"wrote {out / 'exact_solution.json'}  (cost {solution.cost:.4f})")
    return EXIT_OK


def cmd_render(args) -> int:
    """Draw the step chain as far as it has run."""
    out = Path(args.out)
    done = list(itertools.takewhile(lambda stage: (out / stage.artifact).is_file(), STAGES))
    for path in _write_svgs(_resume(args, STAGES[:max(2, len(done))]), out):
        print(f"wrote {path}")
    return EXIT_OK


def cmd_corpus(args) -> int:
    corpus.write_corpus(Path(args.out))
    print(f"wrote corpus to {args.out}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="out", help="artifact directory (default: out)")
    p.add_argument("--config", default=None, help="pipeline config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--weights", type=_parse_weights, default=None, metavar="A,P,F,K,U",
                   help="five objective weights; write a leading '-' as --weights=-1,...")
    p.add_argument("--fixed-mesh", type=_parse_mesh, default=None, metavar="RxC",
                   help="conventional protocol: fixed grid, row-major placement, "
                        "shared sizing, full vertical connectivity")
    p.add_argument("--no-rd", action="store_true", default=None,
                   help="redistribution reach 0 (co-located routers only)")
    p.add_argument("--rd-max", type=float, default=None, metavar="MM",
                   help="override the redistribution reach")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshstack",
        description="Synthesize partially vertically connected 3D mesh NoC designs")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = ([("validate", cmd_validate, "check an instance against the schema invariants")]
             + [(stage.command, cmd_stage, f"step {i + 1}: {stage.title}; reads the earlier "
                 f"steps' artifacts, writes {stage.artifact}") for i, stage in enumerate(STAGES)]
             + [("eval", cmd_eval, "evaluate the step artifacts' solution, or --report's"),
                ("run", cmd_run, "full pipeline, report + SVGs"),
                ("baseline", cmd_baseline, "exact tiny-instance solver"),
                ("render", cmd_render, "render the step artifacts' floorplans to SVG")])
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance directory (coregraph/ppa/tech JSON)")
        if fn is not cmd_validate:
            _add_common(p)
        p.set_defaults(handler=fn)
    sub.choices["floorplan"].add_argument(
        "--dump-kernel", action="store_true",
        help="also write kernel_trace.json: the demand grid and LP area of "
             "every annealing cost evaluation")
    sub.choices["run"].add_argument("--steps", type=int, choices=range(1, 6), default=None,
                                    help="run only the first N steps")
    sub.choices["eval"].add_argument("--report", default=None,
                                     help="evaluate the solution embedded in a report.json")

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
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
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
