"""Pipeline orchestration: determinism, report self-containment, protocols."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meshstack.corpus import case_study_ppa, small_vsoc, tiny_soc
from meshstack.errors import MeshstackError, UnreachableError
from meshstack.model import (
    Component,
    CoreGraph,
    Flow,
    Layer,
    ObjectiveWeights,
    TechParams,
    instance_violations,
    parse_floorplan,
    parse_vlink,
    validate_instance,
)
from meshstack.netgraph import build_network, route_all
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


@pytest.mark.parametrize("inst, counts", [
    (tiny_soc(), None),
    (tiny_soc(), {0: 0}),  # no links: the cross-layer flows cannot route
    (make_instance([Component("a", "CPU"), Component("b", "CPU")], [Flow("a", "b", 3.0)],
                   ["28nm"]), None),  # no boundary
], ids=["annealed", "no-links", "one-layer"])
def test_step4_cost_routes_the_chosen_links(inst, counts):
    """per_step_costs["step4"] is the wiring and peak cost of routing the
    step-2 floorplans with the chosen links, None when a flow cannot route."""
    result = run_pipeline(inst, PipelineConfig(seed=2, steps=4, fixed_tsv_counts=counts))
    weights = result.config.weights
    try:
        traffic = route_all(build_network(result.step2_floorplans, result.vlinks),
                            inst.core_graph, inst.tech.link_capacity)
    except UnreachableError:
        assert result.per_step_costs["step4"] is None
        assert counts == {0: 0}
        return
    assert result.per_step_costs["step4"] == (weights.w_util * traffic.bw_times_distance
                                              + weights.w_peak * traffic.peak_penalty)


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


def test_fixed_tsv_count_wins_over_fixed_mesh():
    # fixed_mesh connects every stacked pair unless the count is given
    config = PipelineConfig(seed=1, fixed_mesh=(2, 2), no_rd=True, fixed_tsv_counts={0: 1})
    result = run_pipeline(tiny_soc(), config)
    assert result.tsv_counts == {0: 1}
    assert len(result.vlinks) == 1


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
        steps=4, rd_max=2.5, no_rd=False, colocate=True,
        fixed_mesh=(3, 4), fixed_tsv_counts={0: 2, 1: 3})
    assert PipelineConfig.from_json(cfg.to_json()) == cfg


def test_rd_override_reaches_instance():
    result = run_pipeline(tiny_soc(), PipelineConfig(seed=1, rd_max=0.0, colocate=True))
    assert all(v.rd_length == pytest.approx(0.0, abs=1e-9) for v in result.vlinks)


def test_config_json_null_means_default():
    keys = PipelineConfig().to_json()
    assert PipelineConfig.from_json({key: None for key in keys}) == PipelineConfig()


_SA = st.builds(SaTriple, st.floats(0.5, 50.0), st.integers(1, 6), st.floats(0.5, 0.99))


@st.composite
def valid_instances(draw):
    kinds = draw(st.lists(st.sampled_from(["CPU", "ADC", "SIMD"]), min_size=1, max_size=6))
    comps = tuple(Component(f"c{i}", kind) for i, kind in enumerate(kinds))
    ids = [c.id for c in comps]
    flows = ()
    if len(ids) > 1:
        ends = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        flows = tuple(Flow(a, b, bw) for (a, b), bw in draw(
            st.lists(st.tuples(ends, st.floats(0.1, 200.0)), max_size=10)))
    nodes = draw(st.lists(st.sampled_from(["28nm", "45nm"]), min_size=1, max_size=3))
    layers = tuple(Layer(i, node) for i, node in enumerate(nodes))
    tech = TechParams(koz_area=draw(st.sampled_from([0.0, 2.0, 8.0])),
                      rd_max_length=draw(st.sampled_from([0.0, 2.5, 5.0, 30.0])),
                      link_capacity=draw(st.sampled_from([5.0, 100.0])))
    cg = CoreGraph(components=comps, flows=flows)
    assume(not instance_violations(cg, case_study_ppa(), tech, layers))
    return validate_instance(cg, case_study_ppa(), tech, layers)


@settings(max_examples=100)
@given(inst=valid_instances(), seed=st.integers(0, 2**64 - 1), sa_fp=_SA, sa_vl=_SA)
def test_valid_instance_never_raises(inst, seed, sa_fp, sa_vl):
    # a valid instance either yields a design or a MeshstackError (exit 3/4)
    config = PipelineConfig(seed=seed, sa_floorplan=sa_fp, sa_vlink=sa_vl)
    try:
        run_pipeline(inst, config)
    except MeshstackError:
        pass
