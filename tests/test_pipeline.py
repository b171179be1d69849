"""Pipeline orchestration: determinism, report self-containment, protocols."""

from __future__ import annotations

import copy
import json

import pytest

from meshstack.corpus import small_vsoc, tiny_soc
from meshstack.model import (
    Component,
    ObjectiveWeights,
    parse_floorplan,
    parse_vlink,
)
from meshstack.objective import evaluate_solution
from meshstack.pipeline import PipelineConfig, SaTriple, run_pipeline

from conftest import make_instance


def strip_timing(report: dict) -> dict:
    doc = copy.deepcopy(report)
    doc.pop("timing", None)
    return doc


def test_tiny_end_to_end_smoke():
    result = run_pipeline(tiny_soc(), PipelineConfig(seed=3))
    assert len(result.floorplans) == 2
    placed = [comp for fp in result.floorplans for _c, comp in fp.occupied_cells()]
    assert sorted(placed) == [f"cpu{i}" for i in range(5)]
    assert len(result.vlinks) >= 1
    assert result.metrics["total_cost"] > 0
    assert all(v.rd_length <= 5.0 + 1e-6 for v in result.vlinks)


def test_reports_byte_identical_for_same_seed():
    cfg = PipelineConfig(seed=11)
    r1 = run_pipeline(tiny_soc(), cfg)
    r2 = run_pipeline(tiny_soc(), cfg)
    b1 = json.dumps(strip_timing(r1.report()), sort_keys=True)
    b2 = json.dumps(strip_timing(r2.report()), sort_keys=True)
    assert b1 == b2


def test_report_self_contained():
    result = run_pipeline(tiny_soc(), PipelineConfig(seed=5))
    report = result.report()
    # rebuild the solution purely from the report and re-evaluate
    fps = [parse_floorplan(d) for d in report["floorplans"]]
    vlinks = [parse_vlink(d) for d in report["vlinks"]]
    weights = ObjectiveWeights(*report["config"]["weights"])
    metrics = evaluate_solution(tiny_soc(), fps, vlinks, weights)
    for key in ("total_cost", "bw_times_distance", "max_link_load",
                "peak_penalty", "whitespace_total", "power", "perf"):
        assert metrics[key] == report["metrics"][key], key


def test_steps_prefix_only():
    r1 = run_pipeline(tiny_soc(), PipelineConfig(seed=2, steps=1))
    assert r1.assignment and not r1.step2_floorplans and not r1.vlinks
    r2 = run_pipeline(tiny_soc(), PipelineConfig(seed=2, steps=2))
    assert r2.step2_floorplans and not r2.tsv_counts
    r3 = run_pipeline(tiny_soc(), PipelineConfig(seed=2, steps=3))
    assert r3.tsv_counts and not r3.vlinks
    r4 = run_pipeline(tiny_soc(), PipelineConfig(seed=2, steps=4))
    assert r4.vlinks and not r4.floorplans
    # prefix runs agree with the full run on their common steps
    full = run_pipeline(tiny_soc(), PipelineConfig(seed=2))
    assert full.assignment == r1.assignment
    assert [fp.cell_of for fp in full.step2_floorplans] == \
        [fp.cell_of for fp in r2.step2_floorplans]
    assert full.tsv_counts == r3.tsv_counts


def test_fixed_mesh_conventional_protocol():
    inst = small_vsoc()
    result = run_pipeline(inst, PipelineConfig(seed=1, fixed_mesh=(3, 3), no_rd=True))
    fps = result.floorplans
    assert all((fp.rows, fp.cols) == (3, 3) for fp in fps)
    assert fps[0].col_widths == fps[1].col_widths
    assert fps[0].row_heights == fps[1].row_heights
    # fully vertically connected: every stacked occupied pair carries a link
    assert len(result.vlinks) == 9
    assert all(v.rd_length == pytest.approx(0.0, abs=1e-9) for v in result.vlinks)
    # row-major deterministic placement: independent of the seed
    again = run_pipeline(inst, PipelineConfig(seed=999, fixed_mesh=(3, 3), no_rd=True))
    assert [fp.cell_of for fp in again.floorplans] == [fp.cell_of for fp in fps]
    assert again.metrics["total_cost"] == result.metrics["total_cost"]


def test_empty_instance_pipeline():
    inst = make_instance([], [], ["28nm", "28nm"])
    result = run_pipeline(inst, PipelineConfig(seed=1))
    assert result.assignment == {}
    assert result.vlinks == []
    assert result.metrics["total_cost"] == 0.0
    assert result.metrics["whitespace_total"] == 0.0


def test_single_component_pipeline():
    inst = make_instance([Component("c", "CPU")], [], ["28nm"])
    result = run_pipeline(inst, PipelineConfig(seed=1))
    assert result.metrics["area_total"] == pytest.approx(37.1, rel=1e-9)
    assert result.metrics["bw_times_distance"] == 0.0


def test_config_json_roundtrip():
    cfg = PipelineConfig(
        weights=ObjectiveWeights(1.0, 2.0, 0.5, 1.0, 3.0), seed=42,
        sa_floorplan=SaTriple(30.0, 200, 0.98), sa_vlink=SaTriple(1000.0, 50, 0.97),
        samples=32, steps=4, rd_max=2.5, no_rd=False, colocate=True,
        fixed_mesh=(3, 4), fixed_tsv_counts={0: 2, 1: 3})
    assert PipelineConfig.from_json(cfg.to_json()) == cfg


def test_rd_override_reaches_instance():
    result = run_pipeline(tiny_soc(), PipelineConfig(seed=1, rd_max=0.0, colocate=True))
    assert all(v.rd_length == pytest.approx(0.0, abs=1e-9) for v in result.vlinks)


def test_config_json_null_means_default():
    keys = PipelineConfig().to_json()
    assert PipelineConfig.from_json({key: None for key in keys}) == PipelineConfig()
