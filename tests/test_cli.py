"""CLI surface: subcommand chaining, exit codes, determinism of artifacts."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from meshstack.cli import main
from meshstack.corpus import write_corpus


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
    inst = str(corpus_dir / "small_vsoc")
    out = tmp_path / "lim"
    code = main(["baseline", inst, "--out", str(out)])
    assert code == 4


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
    ({"samples": 0}, "samples"),
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
