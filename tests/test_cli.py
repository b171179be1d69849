"""CLI surface: subcommand chaining, exit codes, determinism of artifacts."""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meshstack import cli, model, pipeline
from meshstack.cli import main
from meshstack.corpus import write_corpus
from meshstack.errors import InvalidParamsError
from meshstack.exact import solve_exact
from meshstack.model import (Component, CoreGraph, Flow, Layer, ObjectiveWeights,
                             floorplan_to_json, load_instance, save_instance, validate_instance,
                             vlink_to_json)

from conftest import case_study_ppa, default_tech
from test_pipeline import valid_instances


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    write_corpus(base)
    return base


def read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def test_validate_ok(corpus_dir):
    assert main(["validate", str(corpus_dir / "tiny_soc")]) == 0


def test_validate_takes_only_the_instance(corpus_dir, capsys):
    for flags in (["--seed", "1"], ["--config", "x.json"]):  # argparse refuses them
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(corpus_dir / "tiny_soc"), *flags])
        assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "instance" in usage and "--out" not in usage
    assert not any(flag in usage for flag in ("--config", "--seed", "--weights",
                                               "--fixed-mesh", "--no-rd", "--rd-max"))


def test_validate_rejects_bad_instance(tmp_path, corpus_dir):
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("coregraph.json", "ppa.json", "tech.json"):
        bad.joinpath(name).write_text((corpus_dir / "tiny_soc" / name).read_text())
    doc = read_json(bad / "coregraph.json")
    doc["flows"][0]["bandwidth"] = 0.0
    bad.joinpath("coregraph.json").write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2


def test_step_chain_and_eval(tmp_path, corpus_dir):
    inst = str(corpus_dir / "tiny_soc")
    out = str(tmp_path / "chain")
    for cmd in ("assign", "floorplan", "tsv", "place3d", "legalize", "eval", "render"):
        assert main([cmd, inst, "--out", out, "--seed", "4"]) == 0
    assert (tmp_path / "chain" / "assignment.json").exists()
    traffic = read_json(tmp_path / "chain" / "traffic.json")
    assert traffic["total_cost"] > 0
    svg = (tmp_path / "chain" / "layer0.svg").read_text()
    assert svg.startswith("<svg")


def test_run_emits_report_and_svgs(tmp_path, corpus_dir):
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "run"
    assert main(["run", inst, "--out", str(out), "--seed", "4"]) == 0
    report = read_json(out / "report.json")
    assert len(report["floorplans"]) == 2
    assert len(report["vlinks"]) >= 1
    assert report["metrics"]["total_cost"] > 0
    assert (out / "layer0.svg").exists() and (out / "layer1.svg").exists()


def test_run_deterministic_reports(tmp_path, corpus_dir):
    inst = str(corpus_dir / "tiny_soc")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", inst, "--out", str(out1), "--seed", "9"]) == 0
    assert main(["run", inst, "--out", str(out2), "--seed", "9"]) == 0
    r1, r2 = read_json(out1 / "report.json"), read_json(out2 / "report.json")
    r1.pop("timing"), r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    # and the SVGs are byte-identical outright
    assert (out1 / "layer0.svg").read_bytes() == (out2 / "layer0.svg").read_bytes()


def test_eval_report_reproduces_metrics(tmp_path, corpus_dir):
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "r"
    assert main(["run", inst, "--out", str(out), "--seed", "6"]) == 0
    assert main(["eval", inst, "--out", str(out),
                 "--report", str(out / "report.json")]) == 0
    report = read_json(out / "report.json")
    traffic = read_json(out / "traffic.json")
    for key in ("total_cost", "bw_times_distance", "whitespace_total"):
        assert traffic[key] == report["metrics"][key]


@pytest.mark.parametrize("flags, named", [
    (["--weights", "9,9,9,9,9"], "--weights"),
    (["--config", "cfg.json"], "--config"),
    (["--seed", "2", "--no-rd"], "--no-rd"),
])
def test_eval_report_refuses_config_flags(tmp_path, tiny_chain, corpus_dir, capsys,
                                          flags, named):
    # the report's own config prices it; a flag would be silently overridden
    inst, report = str(corpus_dir / "tiny_soc"), str(tiny_chain[1] / "report.json")
    code = main(["eval", inst, "--out", str(tmp_path), "--report", report, *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "traffic.json").exists()
    assert main(["eval", inst, "--out", str(tmp_path), "--report", report]) == 0
    metrics = read_json(tiny_chain[1] / "report.json")["metrics"]
    traffic = read_json(tmp_path / "traffic.json")
    assert {k: traffic[k] for k in metrics} == metrics


def test_steps_flag(tmp_path, corpus_dir):
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "s1"
    assert main(["run", inst, "--out", str(out), "--steps", "1"]) == 0
    report = read_json(out / "report.json")
    assert report["assignment"]
    assert report["floorplans"] == [] and report["vlinks"] == []
    assert "metrics" in report and report["metrics"] == {}


def test_fixed_mesh_flag(tmp_path, corpus_dir):
    inst = str(corpus_dir / "small_vsoc")
    out = tmp_path / "conv"
    assert main(["run", inst, "--out", str(out),
                 "--fixed-mesh", "3x3", "--no-rd"]) == 0
    report = read_json(out / "report.json")
    assert all(fp["rows"] == 3 and fp["cols"] == 3 for fp in report["floorplans"])
    assert len(report["vlinks"]) == 9


def test_baseline_subcommand(tmp_path, corpus_dir):
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "exact"
    assert main(["baseline", inst, "--out", str(out)]) == 0
    doc = read_json(out / "exact_solution.json")
    assert doc["cost"] > 0
    assert doc["placements_visited"] == 2640


def test_infeasible_exit_code(tmp_path, corpus_dir):
    # reach 0 without co-location: layers size differently, no stacked pairs
    inst = str(corpus_dir / "small_vsoc")
    out = tmp_path / "nr"
    code = main(["run", inst, "--out", str(out), "--rd-max", "0"])
    assert code == 3


def test_limits_exit_code(tmp_path, corpus_dir):
    """Both refuse on their enumeration size, counted without enumerating:
    large_vsoc's three layers give 3^30 layer assignments."""
    for name in ("small_vsoc", "large_vsoc"):
        start = time.perf_counter()
        code = main(["baseline", str(corpus_dir / name), "--out", str(tmp_path / name)])
        assert code == 4
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("flags, doc, key", [
    (["--no-rd"], {}, "no_rd"),
    (["--fixed-mesh", "3x3"], {}, "fixed_mesh"),
    ([], {"colocate": True}, "colocate"),
    ([], {"fixed_tsv_counts": {"0": 1}}, "fixed_tsv_counts"),
    ([], {"fixed_tsv_counts": {"7": 1}}, "fixed_tsv_counts"),  # tiny_soc has boundary 0 only
])
def test_baseline_unsupported_config_exit_code(tmp_path, corpus_dir, capsys, flags, doc, key):
    # the oracle models neither shared sizing, fixed grids nor fixed TSV counts
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    code = main(["baseline", str(corpus_dir / "tiny_soc"), "--out", str(out),
                 "--config", str(cfg)] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert key in err and "Traceback" not in err
    assert not (out / "exact_solution.json").exists()


def test_baseline_rd_max_sets_oracle_reach(tmp_path, corpus_dir):
    inst = corpus_dir / "tiny_soc"
    out = tmp_path / "o"
    assert main(["baseline", str(inst), "--out", str(out), "--rd-max", "2.5"]) == 0
    got = read_json(out / "exact_solution.json")
    instance = load_instance(inst)
    tech = dataclasses.replace(instance.tech, rd_max_length=2.5)
    want = solve_exact(dataclasses.replace(instance, tech=tech), ObjectiveWeights())
    assert got["cost"] == want.cost
    assert got["assignment"] == want.assignment
    assert got["floorplans"] == json.loads(json.dumps(
        [floorplan_to_json(fp) for fp in want.floorplans]))
    assert got["vlinks"] == json.loads(json.dumps([vlink_to_json(v) for v in want.vlinks]))
    # the 5 mm default reach enumerates more configurations
    assert got["configurations_visited"] == want.configurations_visited < 5520


def test_underflowing_sa_schedule_runs(tmp_path, corpus_dir):
    # cooling 0.4 over 2000 iterations drives the temperature to 0.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sa_floorplan": [20.0, 2000, 0.4]}))
    out = tmp_path / "cold"
    assert main(["run", str(corpus_dir / "tiny_soc"), "--out", str(out),
                 "--config", str(cfg)]) == 0
    assert read_json(out / "report.json")["metrics"]["total_cost"] > 0


@pytest.mark.parametrize("doc, key", [
    ([], None),
    ({"bogus": 1}, "bogus"),
    ({"steps": "x"}, "steps"),
    ({"steps": 0}, "steps"),
    ({"steps": 6}, "steps"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"samples": 0}, "samples"),  # a removed key: now unknown
    ({"assign_cap": -1}, "assign_cap"),
    ({"step1_perf_weight": -0.5}, "step1_perf_weight"),
    ({"weights": [1, 1, 1]}, "weights"),
    ({"weights": [-1, 1, 1, 1, 1]}, "weights"),
    ({"weights": [0, 0, 0, 0, 0]}, "weights"),
    ({"sa_floorplan": [20.0, 0, 0.9]}, "sa_floorplan"),
    ({"sa_floorplan": [20.0, 100, 1.0]}, "sa_floorplan"),
    ({"sa_vlink": [0.0, 10, 0.5]}, "sa_vlink"),
    ({"sa_vlink": "hot"}, "sa_vlink"),
    ({"rd_max": -1.0}, "rd_max"),
    ({"rd_max": float("nan")}, "rd_max"),
    ({"no_rd": "yes"}, "no_rd"),
    ({"colocate": 1}, "colocate"),
    ({"redistribute_koz": 0}, "redistribute_koz"),
    ({"fixed_mesh": [0, 3]}, "fixed_mesh"),
    ({"fixed_mesh": "3x3"}, "fixed_mesh"),
    ({"fixed_tsv_counts": {"a": 1}}, "fixed_tsv_counts"),
    ({"fixed_tsv_counts": {"0": -1}}, "fixed_tsv_counts"),
    # keys that were removed, with a value they used to accept: now unknown
    ({"assign_cap": 30}, "assign_cap"),
    ({"step1_perf_weight": 0.0}, "step1_perf_weight"),
    ({"redistribute_koz": True}, "redistribute_koz"),
    # one spelling per boundary: "00" would silently overwrite "0"
    ({"fixed_tsv_counts": {"0": 1, "00": 3}}, "fixed_tsv_counts"),
    ({"fixed_tsv_counts": {"00": 3}}, "fixed_tsv_counts"),
    ({"fixed_tsv_counts": {"\u0660": 1}}, "fixed_tsv_counts"),
    # longer than Python's int() digit limit
    ({"fixed_tsv_counts": {"1" * 5000: 1}}, "fixed_tsv_counts"),
])
def test_bad_config_exit_code(tmp_path, corpus_dir, capsys, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["run", str(corpus_dir / "tiny_soc"), "--out", str(tmp_path / "o"),
                 "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert key is None or repr(key) in err


@pytest.mark.parametrize("weights", ["1,0,0,0,0", "0,1,0,0,0", "0,0,1,0,0", "0,0,0,1,0",
                                     "0,0,0,0,1"])
def test_one_hot_weights_run(tmp_path, corpus_dir, capsys, weights):
    # step 1 ignores perf, so with perf alone it is indifferent and keeps
    # its greedy incumbent, as with peak or util alone
    out = tmp_path / "o"
    assert main(["run", str(corpus_dir / "tiny_soc"), "--out", str(out),
                 "--weights", weights]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert read_json(out / "report.json")["config"]["weights"] == [
        float(w) for w in weights.split(",")]


_SA = st.tuples(st.floats(0.1, 100.0), st.integers(1, 30), st.floats(0.05, 0.99)).map(list)
_VALID_CONFIG = st.fixed_dictionaries({}, optional={
    "weights": st.lists(st.sampled_from([0, 1, 2.5]), min_size=5, max_size=5)
               .filter(any),
    "seed": st.integers(0, 2**64 - 1),
    "sa_floorplan": _SA,
    "sa_vlink": _SA,
    "steps": st.integers(1, 5),
    "rd_max": st.sampled_from([0, 0.5, 2.5, 5.0, 20.0]),
    "no_rd": st.booleans(),
    "colocate": st.booleans(),
    # tiny_soc has one boundary; other keys are rejected (test_unknown_tsv_boundary_exit_code)
    "fixed_tsv_counts": st.dictionaries(st.just("0"), st.integers(0, 4)),
})


@settings(max_examples=50)
@given(doc=_VALID_CONFIG)
def test_valid_config_never_raises(corpus_dir, tmp_path_factory, doc):
    # a config --config accepts either runs or is infeasible / over a limit
    base = tmp_path_factory.mktemp("valid_config")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["run", str(corpus_dir / "tiny_soc"), "--out", str(base / "o"),
                 "--config", str(cfg)])
    assert code in (0, 3, 4)


@pytest.mark.parametrize("counts", [{"7": 3}, {"0": 1, "1": 0}])
@pytest.mark.parametrize("command", ["run", "assign", "legalize"])
def test_unknown_tsv_boundary_exit_code(tmp_path, corpus_dir, capsys, command, counts):
    # tiny_soc's two layers meet at boundary 0 only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixed_tsv_counts": counts}))
    code = main([command, str(corpus_dir / "tiny_soc"), "--out", str(tmp_path / "o"),
                 "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "fixed_tsv_counts" in err and str(max(map(int, counts))) in err
    assert "[0]" in err and "Traceback" not in err


def test_colocated_chain_with_unequal_grids_exit_code(tmp_path, corpus_dir, capsys):
    # a floorplan.json edited by hand: under --no-rd every layer must share one grid
    inst = str(corpus_dir / "small_vsoc")
    out = tmp_path / "o"
    for cmd in ("assign", "floorplan"):
        assert main([cmd, inst, "--out", str(out), "--no-rd"]) == 0
    doc = read_json(out / "floorplan.json")
    layer = doc["layers"][1]
    assert layer["rows"] > 1
    for key in ("cells", "router_kind", "koz"):  # the same cells, laid out in one row
        layer[key] = [[v for row in layer[key] for v in row]]
    layer["col_widths"] = layer["col_widths"] * layer["rows"]
    layer["row_heights"] = [max(layer["row_heights"])]
    layer["cols"], layer["rows"] = layer["rows"] * layer["cols"], 1
    (out / "floorplan.json").write_text(json.dumps(doc))
    for cmd in ("tsv", "legalize"):
        capsys.readouterr()
        assert main([cmd, inst, "--out", str(out), "--no-rd"]) == 2
        err = capsys.readouterr().err
        assert str(out / "floorplan.json") in err and "one grid" in err
        assert "Traceback" not in err


def test_artifact_with_removed_key_exit_code(tmp_path, corpus_dir, capsys):
    # an assignment.json written before a config key was removed
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "o"
    assert main(["assign", inst, "--out", str(out)]) == 0
    doc = read_json(out / "assignment.json")
    doc["config"]["assign_cap"] = 30
    (out / "assignment.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["floorplan", inst, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / "assignment.json") in err and "assign_cap" in err


@pytest.mark.parametrize("config, said", [
    ({"samples": 64}, "unknown config key 'samples'"),  # a removed key
    ({"seed": "x"}, "config key 'seed' must be"),
    ([], "config must be a JSON object"),
])
def test_artifact_with_unreadable_config_exit_code(tmp_path, corpus_dir, capsys,
                                                   config, said):
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "o"
    assert main(["assign", inst, "--out", str(out)]) == 0
    doc = read_json(out / "assignment.json")
    doc["config"] = {**doc["config"], **config} if isinstance(config, dict) else config
    (out / "assignment.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["floorplan", inst, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / "assignment.json") in err and said in err
    assert "meshstack assign" in err and "runs with" not in err and "Traceback" not in err


def test_artifact_config_missing_key_means_default(tmp_path, corpus_dir, capsys):
    # as in --config, a key left out of the recorded config is its default
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "o"
    assert main(["assign", inst, "--out", str(out)]) == 0
    doc = read_json(out / "assignment.json")
    del doc["config"]["seed"], doc["config"]["weights"]
    (out / "assignment.json").write_text(json.dumps(doc))
    assert main(["floorplan", inst, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["floorplan", inst, "--out", str(out), "--seed", "2"]) == 2
    assert "made with config seed=1 but this step runs with seed=2" in capsys.readouterr().err


def test_report_with_removed_key_exit_code(tmp_path, corpus_dir, capsys):
    # a report.json written while `samples` still set step 3's sampling trials
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "o"
    assert main(["run", inst, "--out", str(out)]) == 0
    doc = read_json(out / "report.json")
    doc["config"]["samples"] = 64
    (out / "report.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", inst, "--out", str(out), "--report", str(out / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "'samples'" in err and "Traceback" not in err
    assert str(out / "report.json") in err


@pytest.mark.parametrize("flags, key", [
    (["--weights", "0,0,0,0,0"], "weights"),
    (["--weights", "nan,1,1,1,1"], "weights"),
    (["--weights", "1,1,1"], "weights"),
    (["--weights=-1,1,1,1,1"], "weights"),
    (["--rd-max", "-1"], "rd_max"),
    (["--rd-max", "nan"], "rd_max"),
    (["--fixed-mesh", "0x3"], "fixed_mesh"),
    (["--seed", "-1"], "seed"),
])
@pytest.mark.parametrize("command", ["run", "assign"])
def test_bad_flag_exit_code(tmp_path, corpus_dir, capsys, command, flags, key):
    code = main([command, str(corpus_dir / "tiny_soc"), "--out", str(tmp_path / "o")]
                + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert repr(key) in err


def test_flags_lay_over_config(tmp_path, corpus_dir, capsys):
    inst = str(corpus_dir / "tiny_soc")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "sa_vlink": [50.0, 8, 0.9]}))
    out = tmp_path / "o"
    assert main(["run", inst, "--out", str(out), "--config", str(cfg), "--seed", "5",
                 "--steps", "1"]) == 0
    config = read_json(out / "report.json")["config"]
    assert (config["seed"], config["sa_vlink"], config["steps"]) == (5, [50.0, 8, 0.9], 1)
    cfg.write_text("[]")  # a non-object config stays an error with flags given
    assert main(["run", inst, "--out", str(out), "--config", str(cfg), "--seed", "5"]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


CHAIN = ("assign", "floorplan", "tsv", "place3d", "legalize", "eval", "render")


@pytest.fixture(scope="module")
def tiny_chain(tmp_path_factory, corpus_dir):
    """The step chain and `run` on tiny_soc at seed 4: (chain dir, run dir)."""
    base = tmp_path_factory.mktemp("tiny_chain")
    inst = str(corpus_dir / "tiny_soc")
    for cmd in CHAIN:
        assert main([cmd, inst, "--out", str(base / "chain"), "--seed", "4"]) == 0
    assert main(["run", inst, "--out", str(base / "run"), "--seed", "4"]) == 0
    return base / "chain", base / "run"


_RUN_FLAGS = st.sampled_from([[], ["--no-rd"], ["--fixed-mesh", "3x3", "--no-rd"],
                              ["--rd-max", "2.5"]])


@settings(max_examples=100)
@given(inst=valid_instances(), flags=_RUN_FLAGS,
       weights=st.lists(st.sampled_from([0, 1, 2.5]), min_size=5, max_size=5).filter(any))
def test_eval_report_reproduces_generated_runs(tmp_path_factory, inst, flags, weights):
    base = tmp_path_factory.mktemp("eval_report")
    save_instance(inst, base / "inst")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps({"weights": weights, "sa_floorplan": [20.0, 8, 0.9],
                               "sa_vlink": [100.0, 8, 0.9]}))
    out = base / "o"
    code = main(["run", str(base / "inst"), "--out", str(out), "--config", str(cfg)] + flags)
    assume(code not in (3, 4))  # infeasible or over a limit: no report to re-evaluate
    assert code == 0
    assert main(["eval", str(base / "inst"), "--out", str(out),
                 "--report", str(out / "report.json")]) == 0
    report, traffic = read_json(out / "report.json"), read_json(out / "traffic.json")
    assert {k: traffic[k] for k in report["metrics"]} == report["metrics"]
    assert traffic["traffic"] == report["traffic"]


def test_chain_matches_run(tiny_chain):
    chain, run = tiny_chain
    report = read_json(run / "report.json")
    assert read_json(chain / "floorplan_legal.json")["layers"] == report["floorplans"]
    traffic = read_json(chain / "traffic.json")
    assert {k: traffic[k] for k in report["metrics"]} == report["metrics"]
    assert traffic["traffic"] == report["traffic"]


def test_chain_render_matches_run_svgs(tiny_chain):
    # render after legalize draws the vertical links at their final lengths
    chain, run = tiny_chain
    for layer in (0, 1):
        svg = f"layer{layer}.svg"
        assert (chain / svg).read_bytes() == (run / svg).read_bytes()


def test_edited_assignment_flows_into_floorplan(tmp_path, corpus_dir):
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "edit"
    assert main(["assign", inst, "--out", str(out), "--seed", "4"]) == 0
    doc = read_json(out / "assignment.json")
    assert doc["assignment"]["cpu4"] == 0
    doc["assignment"]["cpu4"] = 1
    (out / "assignment.json").write_text(json.dumps(doc))
    assert main(["floorplan", inst, "--out", str(out), "--seed", "4"]) == 0
    layers = read_json(out / "floorplan.json")["layers"]
    placed = {comp: fp["layer"] for fp in layers for row in fp["cells"] for comp in row
              if comp is not None}
    assert placed == doc["assignment"]


def test_chain_with_other_flags_exit_code(tmp_path, corpus_dir, capsys):
    # the first steps ran the fixed-mesh protocol; the later ones must too
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "o"
    flags = ["--fixed-mesh", "2x2", "--no-rd"]
    for cmd in ("assign", "floorplan"):
        assert main([cmd, inst, "--out", str(out), *flags]) == 0
    for cmd in ("tsv", "place3d", "legalize", "eval"):
        capsys.readouterr()
        assert main([cmd, inst, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / "assignment.json") in err and "fixed_mesh" in err
        assert "Traceback" not in err
    assert main(["tsv", inst, "--out", str(out), *flags]) == 0


@pytest.mark.parametrize("done, command, missing", [
    ((), "floorplan", "assignment.json"),
    (("assign",), "place3d", "floorplan.json"),
    (("assign",), "eval", "floorplan.json"),
    ((), "render", "assignment.json"),
])
def test_missing_artifact_exit_code(tmp_path, corpus_dir, capsys, done, command, missing):
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "o"
    for cmd in done:
        assert main([cmd, inst, "--out", str(out)]) == 0
    capsys.readouterr()
    code = main([command, inst, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(out / missing) in err and "Traceback" not in err


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


@pytest.mark.parametrize("artifact, keys, value", [
    ("assignment.json", ["assignment", "cpu9"], 0),
    ("assignment.json", ["assignment", "cpu4"], 7),
    ("assignment.json", ["assignment", "cpu4"], "1"),
    ("assignment.json", ["step1_cost"], "cheap"),
    ("floorplan.json", ["layers", 0, "cells", 0, 0], "ghost"),
    ("floorplan.json", ["layers", 0, "layer"], "x"),
    ("floorplan.json", ["layers", 1, "rows"], 7),
    ("tsv_plan.json", ["counts", "0"], -1),
    ("tsv_plan.json", ["counts"], {}),
    ("vlinks.json", ["vlinks", 0, "lower"], [0, 9, 9]),
    ("vlinks.json", ["vlinks", 0, "upper"], [3, 0, 0]),
    ("floorplan_legal.json", ["layers", 1, "col_widths"], []),
    ("floorplan_legal.json", ["layers"], []),
    ("floorplan_legal.json", ["layers", 0, "col_widths", 0], float("nan")),
    ("floorplan_legal.json", ["layers", 0, "row_heights", 0], -1.0),
    ("floorplan_legal.json", ["layers", 0, "koz", 0, 0], -1),
    ("tsv_plan.json", ["counts"], [3]),
    ("tsv_plan.json", ["c3_curves"], []),
    ("tsv_plan.json", ["c3_curves", "0"], [1.0]),
    # the chain's own assignment as [component, layer] pairs: not an object
    ("assignment.json", ["assignment"],
     [["cpu0", 0], ["cpu1", 1], ["cpu2", 0], ["cpu3", 1], ["cpu4", 0]]),
    ("assignment.json", ["assignment"], [1, 2]),
    # a number where an integer belongs, a string where a number does: no
    # cast rounds or parses them into a value the chain then runs with
    ("vlinks.json", ["vlinks", 0, "lower"], [0.0, 0.9, 0]),
    ("vlinks.json", ["vlinks", 0, "rd_length"], "1e3"),
    ("assignment.json", ["step1_cost"], "1e3"),
    ("tsv_plan.json", ["c3_curves", "0", "1"], "1e3"),
    ("floorplan.json", ["layers", 0, "layer"], 0.0),
    ("floorplan_legal.json", ["layers", 0, "rows"], 2.0),
    ("floorplan_legal.json", ["layers", 0, "col_widths", 0], "1e3"),
    ("floorplan_legal.json", ["layers", 0, "koz", 0, 0], 0.5),
    ("floorplan_legal.json", ["layers", 0, "router_kind", 0, 0], 3),
    # JSON numbers that json.load takes as an extension, and a negative cost
    ("assignment.json", ["step1_cost"], float("nan")),
    ("tsv_plan.json", ["c3_curves", "0", "1"], float("inf")),
    ("vlinks.json", ["vlinks", 0, "rd_length"], float("nan")),
    ("vlinks.json", ["vlinks", 0, "rd_length"], -1),
])
def test_bad_artifact_exit_code(tmp_path, tiny_chain, corpus_dir, capsys,
                                artifact, keys, value):
    out = tmp_path / "chain"
    shutil.copytree(tiny_chain[0], out)
    doc = read_json(out / artifact)
    _set(doc, keys, value)
    (out / artifact).write_text(json.dumps(doc))
    code = main(["eval", str(corpus_dir / "tiny_soc"), "--out", str(out), "--seed", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert str(out / artifact) in err and "Traceback" not in err


# tiny_soc at seed 4 links (0, 0, 0) -> (1, 0, 0) and (0, 0, 1) -> (1, 0, 1);
# each case replaces the second link
@pytest.mark.parametrize("lower, upper, says", [
    ([0, 0, 0], [1, 0, 1], "shares its lower end"),  # two links on one router's one KOZ
    ([0, 0, 1], [1, 0, 0], "shares its upper end"),
    ([0, 1, 0], [1, 0, 1], "longer than the reach"),  # 8.24 mm apart, against 5 mm
])
def test_vlinks_off_the_design_space_exit_code(tmp_path, tiny_chain, corpus_dir, capsys,
                                               lower, upper, says):
    out = tmp_path / "chain"
    shutil.copytree(tiny_chain[0], out)
    doc = read_json(out / "vlinks.json")
    doc["vlinks"][1].update(lower=lower, upper=upper)
    (out / "vlinks.json").write_text(json.dumps(doc))
    code = main(["legalize", str(corpus_dir / "tiny_soc"), "--out", str(out), "--seed", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert str(out / "vlinks.json") in err and f"{lower} -> {upper} " in err
    assert says in err and "Traceback" not in err


def test_report_with_shared_vlink_end_exit_code(tmp_path, tiny_chain, corpus_dir, capsys):
    report = read_json(tiny_chain[1] / "report.json")
    report["vlinks"][1]["lower"] = report["vlinks"][0]["lower"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code = main(["eval", str(corpus_dir / "tiny_soc"), "--out", str(tmp_path),
                 "--report", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err and "shares its lower end" in err
    assert not (tmp_path / "traffic.json").exists()


def test_report_with_vlink_out_of_reach_exit_code(tmp_path, tiny_chain, corpus_dir, capsys):
    """eval --report applies place3d's reach rule, on the report's step-2
    floorplans: the second link moved to (0, 1, 0) -> (1, 0, 1), 8.24 mm
    apart against 5 mm, is refused as it is in vlinks.json."""
    report = read_json(tiny_chain[1] / "report.json")
    report["vlinks"][1]["lower"] = [0, 1, 0]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code = main(["eval", str(corpus_dir / "tiny_soc"), "--out", str(tmp_path),
                 "--report", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err and "[0, 1, 0] -> [1, 0, 1] " in err
    assert "longer than the reach" in err and "Traceback" not in err
    assert not (tmp_path / "traffic.json").exists()


@pytest.mark.parametrize("edit, says", [
    (lambda doc: doc["tsv"].update(counts={"00": 2}), "'00'"),
    (lambda doc: doc["assignment"].update(cpu0=7), "'cpu0' cannot sit on layer 7"),
    (lambda doc: doc.update(step1_cost=float("nan")), "step1_cost"),
], ids=["tsv-count-key", "layer-out-of-range", "nan-step1-cost"])
def test_report_gets_every_artifact_check_exit_code(tmp_path, corpus_dir, capsys, edit, says):
    """eval --report reads the report's embedded artifacts with the step
    loaders, so it refuses what `place3d` or `floorplan` would refuse in
    tsv_plan.json or assignment.json, naming the report."""
    inst = str(corpus_dir / "tiny_soc")
    assert main(["run", inst, "--out", str(tmp_path), "--seed", "1"]) == 0
    report = read_json(tmp_path / "report.json")
    edit(report)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["eval", inst, "--out", str(tmp_path), "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and says in err and "Traceback" not in err
    assert not (tmp_path / "traffic.json").exists()


# each key names one index in one spelling, and curves only the instance's
# boundaries (tiny_soc has boundary 0 alone)
@pytest.mark.parametrize("key, value, says", [
    ("counts", {"00": 2}, "'00'"),
    ("counts", {"0": 1, " 0": 2}, "' 0'"),
    ("c3_curves", {"0": {"1": 64.0}, "9": {"1": 64.0}}, "boundaries [9]"),
    ("c3_curves", {"0": {"1": 64.0, "01": 35.0}}, "'01'"),
])
def test_tsv_plan_keys_exit_code(tmp_path, tiny_chain, corpus_dir, capsys, key, value, says):
    out = tmp_path / "chain"
    shutil.copytree(tiny_chain[0], out)
    doc = read_json(out / "tsv_plan.json")
    doc[key] = value
    (out / "tsv_plan.json").write_text(json.dumps(doc))
    code = main(["place3d", str(corpus_dir / "tiny_soc"), "--out", str(out), "--seed", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert str(out / "tsv_plan.json") in err and says in err and "Traceback" not in err


def test_not_json_artifact_exit_code(tmp_path, corpus_dir, capsys):
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "o"
    out.mkdir()
    (out / "assignment.json").write_text("{cpu0: 0")
    assert main(["floorplan", inst, "--out", str(out)]) == 2
    assert str(out / "assignment.json") in capsys.readouterr().err


@pytest.mark.parametrize("adc0", [0, 2])
def test_assignment_off_feasible_layers_exit_code(tmp_path, corpus_dir, capsys, adc0):
    # small_vsoc: layer 0 is 28nm, where the ADC is infeasible; layer 2 is none
    inst = str(corpus_dir / "small_vsoc")
    out = tmp_path / "o"
    assert main(["assign", inst, "--out", str(out)]) == 0
    doc = read_json(out / "assignment.json")
    doc["assignment"]["adc0"] = adc0
    (out / "assignment.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["floorplan", inst, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / "assignment.json") in err and "'adc0'" in err


def test_bad_report_exit_code(tmp_path, tiny_chain, corpus_dir, capsys):
    report = read_json(tiny_chain[1] / "report.json")
    report["floorplans"][0]["layer"] = "x"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code = main(["eval", str(corpus_dir / "tiny_soc"), "--out", str(tmp_path),
                 "--report", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err and "Traceback" not in err


def test_malformed_instance_file_exit_code(tmp_path, corpus_dir, capsys):
    bad = tmp_path / "bad"
    shutil.copytree(corpus_dir / "tiny_soc", bad)
    doc = read_json(bad / "tech.json")
    del doc["koz_area"]
    (bad / "tech.json").write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert str(bad / "tech.json") in capsys.readouterr().err


INSTANCE_FILES = {"coregraph.json": "coregraph", "ppa.json": "ppa", "tech.json": "tech"}
SCHEMA = read_json(Path(__file__).resolve().parent.parent / "schemas" / "instance.schema.json")
OTHER_TYPES = (None, True, 3, 0.5, "x", [], {})  # one value of each JSON type


def _node_paths(doc, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _node_paths(value, path + (key,))


def _replaced(doc, path, value):
    """A copy of doc with the value at path replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _exit_code(docs: dict) -> int:
    """validate, then run if the instance is valid, on the three documents."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            (Path(tmp) / name).write_text(json.dumps(doc))
        code = main(["validate", tmp])
        return main(["run", tmp, "--out", str(Path(tmp) / "out")]) if code == 0 else code


@pytest.mark.parametrize("name,path,value", [
    ("ppa.json", ("routers",), 0.5),
    ("ppa.json", ("components",), []),
    ("ppa.json", ("components", "CPU"), 3),
    ("coregraph.json", (), True),
])
def test_instance_file_of_the_wrong_type_exit_code(tmp_path, corpus_dir, capsys, name, path,
                                                   value):
    bad = tmp_path / "bad"
    shutil.copytree(corpus_dir / "tiny_soc", bad)
    (bad / name).write_text(json.dumps(_replaced(read_json(bad / name), path, value)))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad / name) in err and "must be a JSON" in err


@pytest.mark.parametrize("name,edit", [
    ("coregraph.json", lambda doc: doc.pop("flows")),
    ("coregraph.json", lambda doc: doc.pop("components")),
    ("coregraph.json", lambda doc: doc.update(note="x")),
    ("coregraph.json", lambda doc: doc["components"][0].update(area=1.0)),
    ("coregraph.json", lambda doc: doc["flows"][0].update(latency=1.0)),
    ("ppa.json", lambda doc: doc.update(version=2)),
    ("ppa.json", lambda doc: doc["routers"].update(tsv={})),
    ("ppa.json", lambda doc: doc["components"]["CPU"]["28nm"].update(leakage=0.1)),
    ("ppa.json", lambda doc: doc["components"]["ADC"].update({"28nm": "INFEASIBLE "})),
    ("ppa.json", lambda doc: doc["components"]["ADC"].update({"28nm": "N/A"})),
    ("tech.json", lambda doc: doc.update(tsv_pitch=0.01)),
], ids=["no-flows", "no-components", "coregraph-key", "component-key", "flow-key", "ppa-key",
        "routers-key", "entry-key", "marker-case-space", "marker-upper", "tech-key"])
def test_instance_file_the_schema_rejects_exit_code(tmp_path, corpus_dir, capsys, name, edit):
    """A missing or unknown key, or an infeasibility marker outside the
    schema's exact enum: each document exits 2 naming its file, as a wrong
    JSON type does."""
    import jsonschema

    bad = tmp_path / "bad"
    shutil.copytree(corpus_dir / "tiny_soc", bad)
    doc = read_json(bad / name)
    edit(doc)
    schema = jsonschema.Draft202012Validator({**SCHEMA, "$ref": f"#/$defs/{INSTANCE_FILES[name]}"})
    assert not schema.is_valid(doc)
    (bad / name).write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad / name) in err and "Traceback" not in err


@given(data=st.data())
def test_type_mutations_of_instance_files_exit_2(corpus_dir, data):
    """Replace one value of one tiny_soc document, container or leaf, by a
    value of another JSON type: a document the schema rejects exits 2, and
    nothing raises past main."""
    import jsonschema

    docs = {name: read_json(corpus_dir / "tiny_soc" / name) for name in INSTANCE_FILES}
    name = data.draw(st.sampled_from(sorted(INSTANCE_FILES)))
    path = data.draw(st.sampled_from(list(_node_paths(docs[name]))))
    value = data.draw(st.sampled_from(OTHER_TYPES))
    old = docs[name]
    for key in path:
        old = old[key]
    assume(type(value) is not type(old))
    mutated = _replaced(docs[name], path, value)
    schema = jsonschema.Draft202012Validator({**SCHEMA, "$ref": f"#/$defs/{INSTANCE_FILES[name]}"})
    code = _exit_code({**docs, name: mutated})
    assert code in (0, 2, 3, 4)
    if not schema.is_valid(mutated):
        assert code == 2


def _same_type_values(value, ids):
    """The mutations of a value: each candidate of its own JSON type."""
    if isinstance(value, str):
        return ["", " ", "x" * 300, next(i for i in ids if i != value), "a\x01b", "\ud800"]
    if isinstance(value, (int, float)):
        return [0, -1, 1e-13, 1e13, 1e308, 5e-324, 10**400]
    return [[]] if isinstance(value, list) else [{}]


def test_same_type_mutations_the_schema_rejects_exit_2(tmp_path, corpus_dir):
    """Replace each value of tiny_soc's three documents, in turn, by each
    other candidate of the same JSON type: wherever the schema rejects the
    document, `validate` exits 2. A component id is renamed in the flows
    that name it too, so that the id rules, not the unknown flow end, decide.
    The other direction is not asserted. The validator also rejects
    documents the schema accepts, such as unknown flow ends, duplicate ids
    and ints beyond every float: cross-reference and float rules that the
    schema cannot state."""
    import jsonschema

    docs = {name: read_json(corpus_dir / "tiny_soc" / name) for name in INSTANCE_FILES}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    ids = [c["id"] for c in docs["coregraph.json"]["components"]]
    wrong, tried = [], 0
    for name, doc in docs.items():
        schema = jsonschema.Draft202012Validator({**SCHEMA, "$ref": f"#/$defs/{INSTANCE_FILES[name]}"})
        for path in list(_node_paths(doc))[1:]:
            old = doc
            for key in path:
                old = old[key]
            for value in _same_type_values(old, ids):
                if value == old:
                    continue
                mutated = _replaced(doc, path, value)
                if path[0] == "components" and path[-1] == "id":
                    for flow in mutated["flows"]:
                        for end in ("src", "dst"):
                            if flow[end] == old:
                                flow[end] = value
                (tmp_path / name).write_text(json.dumps(mutated))
                code = main(["validate", str(tmp_path)])
                tried += 1
                if code not in (0, 2) or (code == 0 and not schema.is_valid(mutated)):
                    wrong.append((name, path, value, code))
        (tmp_path / name).write_text(json.dumps(doc))
    assert tried > 400 and wrong == []


def test_svgs_of_ids_with_xml_specials_parse(tmp_path):
    """Component ids are escaped in the layer SVGs, so every SVG is well-formed XML."""
    from xml.etree import ElementTree

    cg = CoreGraph(tuple(Component(i, "CPU") for i in ("a<b", "c&d", "e>f")),
                   (Flow("a<b", "c&d", 10.0), Flow("c&d", "e>f", 10.0)))
    save_instance(validate_instance(cg, case_study_ppa(), default_tech(),
                                    (Layer(0, "28nm"), Layer(1, "28nm"))), tmp_path / "inst")
    assert main(["run", str(tmp_path / "inst"), "--out", str(tmp_path / "o")]) == 0
    svgs = sorted((tmp_path / "o").glob("layer*.svg"))
    assert len(svgs) == 2
    labels = {text.text for svg in svgs
              for text in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")}
    assert {"a<b", "c&d", "e>f"} <= labels


@pytest.mark.parametrize("bad_id", ["a\x01b", "\ud800"], ids=["control", "surrogate"])
def test_ids_that_xml_or_utf8_cannot_hold_exit_code(tmp_path, corpus_dir, capsys, bad_id):
    """An id with a control character (which XML 1.0 cannot hold) or a lone
    surrogate (which UTF-8 cannot) fails validation, so `run` writes no SVG."""
    inst = tmp_path / "inst"
    shutil.copytree(corpus_dir / "tiny_soc", inst)
    doc = read_json(inst / "coregraph.json")
    old = doc["components"][0]["id"]
    (inst / "coregraph.json").write_text(
        json.dumps(doc).replace(json.dumps(old), json.dumps(bad_id)))
    for argv in (["validate", str(inst)], ["run", str(inst), "--out", str(tmp_path / "o")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert repr(bad_id) in err and "Traceback" not in err
    assert not list(tmp_path.glob("o/*.svg"))


def test_corpus_readme_that_cannot_be_written_exit_code(tmp_path, capsys):
    (tmp_path / "README.md").mkdir()
    assert main(["corpus", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "README.md") in err and "Traceback" not in err


def test_internal_key_error_is_not_an_input_error(tmp_path, corpus_dir, monkeypatch):
    def broken(*_args, **_kwargs):
        raise KeyError("internal")
    monkeypatch.setattr(cli, "run_pipeline", broken)
    with pytest.raises(KeyError):
        main(["run", str(corpus_dir / "tiny_soc"), "--out", str(tmp_path / "o")])


def test_dump_kernel_records_every_cost_evaluation(tmp_path, tiny_chain, corpus_dir):
    inst = str(corpus_dir / "tiny_soc")
    out = tmp_path / "k"
    assert main(["assign", inst, "--out", str(out), "--seed", "4"]) == 0
    assert main(["floorplan", inst, "--out", str(out), "--seed", "4", "--dump-kernel"]) == 0
    calls = read_json(out / "kernel_trace.json")["kernel_calls"]
    # 2 layers x (the initial state + 120 SA iterations), default sa_floorplan
    assert len(calls) == 2 * (120 + 1) == 242
    assert {call["layer"] for call in calls} == {0, 1}
    assert ((out / "floorplan.json").read_bytes()
            == (tiny_chain[0] / "floorplan.json").read_bytes())


@pytest.mark.parametrize("command", ["validate", "run", "baseline"])
def test_empty_layer_stack_exit_code(tmp_path, corpus_dir, capsys, command):
    """The schema asks for at least one layer; a stack without one is a
    malformed table under every command, not an infeasible instance."""
    import jsonschema

    bad = tmp_path / "bad"
    shutil.copytree(corpus_dir / "tiny_soc", bad)
    doc = read_json(bad / "ppa.json")
    doc["layers"] = []
    schema = jsonschema.Draft202012Validator({**SCHEMA, "$ref": "#/$defs/ppa"})
    assert not schema.is_valid(doc)
    (bad / "ppa.json").write_text(json.dumps(doc))
    flags = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert main([command, str(bad)] + flags) == 2
    err = capsys.readouterr().err
    assert "MalformedTable" in err and "layer" in err and "Traceback" not in err


HUGE = int("9" * 401)  # a JSON integer beyond every float


@pytest.mark.parametrize("doc, key", [
    ({"rd_max": HUGE}, "rd_max"),
    ({"weights": [1, 1, 1, 1, HUGE]}, "weights"),
    ({"sa_floorplan": [HUGE, 10, 0.5]}, "sa_floorplan"),
    ({"sa_vlink": [HUGE, 50, 0.97]}, "sa_vlink"),
    ({"fixed_mesh": [10 ** 30, 1]}, "fixed_mesh"),
    ({"fixed_mesh": [1, pipeline.MAX_FIXED_MESH_CELLS + 1]}, "fixed_mesh"),
])
def test_out_of_range_config_exit_code(tmp_path, corpus_dir, capsys, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["run", str(corpus_dir / "tiny_soc"), "--out", str(tmp_path / "o"),
                 "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert repr(key) in err and "Traceback" not in err


def test_fixed_mesh_cell_cap_is_inclusive():
    cap = pipeline.MAX_FIXED_MESH_CELLS
    assert pipeline.PipelineConfig.from_json({"fixed_mesh": [cap, 1]}).fixed_mesh == (cap, 1)
    with pytest.raises(InvalidParamsError, match="fixed_mesh"):
        pipeline.PipelineConfig.from_json({"fixed_mesh": [2, cap // 2 + 1]})


@pytest.mark.parametrize("name, edit", [
    ("coregraph.json", lambda doc: doc["flows"][0].update(bandwidth=HUGE)),
    ("ppa.json", lambda doc: doc["components"]["CPU"]["28nm"].update(area=HUGE)),
    ("tech.json", lambda doc: doc.update(koz_area=HUGE)),
])
def test_out_of_range_instance_number_exit_code(tmp_path, corpus_dir, capsys, name, edit):
    bad = tmp_path / "bad"
    shutil.copytree(corpus_dir / "tiny_soc", bad)
    doc = read_json(bad / name)
    edit(doc)
    (bad / name).write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad / name) in err and "Traceback" not in err


def _write_extreme_area_instance(path: Path, tiny: float, huge: float) -> None:
    """One layer n holding an X of area `tiny` and a Y of area `huge`, routers
    of area `tiny` and no KOZ area."""
    path.mkdir()
    entry = {"perf": 1.0, "power": 1.0}
    (path / "coregraph.json").write_text(json.dumps({
        "components": [{"id": "x", "kind": "X"}, {"id": "y", "kind": "Y"}],
        "flows": [{"src": "x", "dst": "y", "bandwidth": 1.0}]}))
    (path / "ppa.json").write_text(json.dumps({
        "components": {"X": {"n": {"area": tiny, **entry}}, "Y": {"n": {"area": huge, **entry}}},
        "layers": [{"index": 0, "node": "n"}],
        "routers": {"2d": {"n": {"area": tiny, **entry}}, "3d": {"n": {"area": tiny, **entry}}}}))
    (path / "tech.json").write_text(json.dumps(
        {"koz_area": 0.0, "link_capacity": 100.0, "rd_max_length": 5.0}))


def test_areas_outside_the_documented_range_exit_code(tmp_path, capsys):
    """Areas 600 decades apart once validated and then crashed the exact kernel
    (log of an underflowed demand ratio); they now fail validation, naming the
    entry, and the same shape at the ends of the range runs."""
    import jsonschema

    bad = tmp_path / "bad"
    _write_extreme_area_instance(bad, 1e-300, 1e300)
    schema = jsonschema.Draft202012Validator({**SCHEMA, "$ref": "#/$defs/ppa"})
    assert not schema.is_valid(read_json(bad / "ppa.json"))
    for args in (["validate", str(bad)], ["run", str(bad), "--out", str(tmp_path / "o")]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "'X' in 'n'" in err and "Traceback" not in err
    edge = tmp_path / "edge"
    _write_extreme_area_instance(edge, *model.AREA_RANGE)
    assert schema.is_valid(read_json(edge / "ppa.json"))
    assert main(["run", str(edge), "--out", str(tmp_path / "e")]) == 0


@pytest.mark.parametrize("command, out", [
    ("run", "file"),          # --out is a regular file
    ("assign", "file/sub"),   # --out lies under a regular file
    ("run", "svg"),           # a layer's SVG path is a directory
])
def test_unwritable_out_exit_code(tmp_path, corpus_dir, capsys, command, out):
    (tmp_path / "file").write_text("")
    (tmp_path / "svg" / "layer0.svg").mkdir(parents=True)
    code = main([command, str(corpus_dir / "tiny_soc"), "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(tmp_path / out) in err and "Traceback" not in err


def _renamed(doc, old: str, new: str):
    """A copy of doc with every string equal to old, key or value, renamed new."""
    if isinstance(doc, dict):
        return {new if k == old else k: _renamed(v, old, new) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_renamed(v, old, new) for v in doc]
    return new if doc == old else doc


@pytest.mark.parametrize("name,old", [("coregraph.json", "cpu0"), ("coregraph.json", "CPU"),
                                      ("ppa.json", "28nm")],
                         ids=["component-id", "component-kind", "layer-node"])
def test_empty_name_exit_code(tmp_path, corpus_dir, capsys, name, old):
    """A component id or kind, or a layer node, renamed '' in every document,
    so that every reference to it still resolves: the schema's minLength
    rejects the named document, and validate and run exit 2."""
    import jsonschema

    docs = {n: _renamed(read_json(corpus_dir / "tiny_soc" / n), old, "")
            for n in INSTANCE_FILES}
    schema = jsonschema.Draft202012Validator({**SCHEMA, "$ref": f"#/$defs/{INSTANCE_FILES[name]}"})
    assert not schema.is_valid(docs[name])
    bad = tmp_path / "bad"
    bad.mkdir()
    for n, doc in docs.items():
        (bad / n).write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "MalformedTable" in err and "non-empty" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "baseline"])
def test_overflowing_cost_exit_code(tmp_path, corpus_dir, capsys, command):
    """Five weights that each pass as finite but whose weighted sum overflows:
    run and baseline exit 2 naming weights, and write no JSON holding Infinity."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": [1e308] * 5}))
    out = tmp_path / "o"
    code = main([command, str(corpus_dir / "tiny_soc"), "--out", str(out), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert repr("weights") in err and "Traceback" not in err
    assert not list(out.glob("*.json"))
