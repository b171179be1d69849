"""Model validation, serialization round-trips, and mutation properties."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from meshstack.corpus import write_corpus
from meshstack.errors import InputError, ValidationError
from meshstack.model import (
    Component,
    CoreGraph,
    Flow,
    Layer,
    ObjectiveWeights,
    PpaEntry,
    PpaTable,
    TechParams,
    core_graph_to_json,
    instance_violations,
    parse_core_graph,
    parse_ppa,
    parse_tech,
    ppa_to_json,
    tech_to_json,
    validate_instance,
    write_json,
)

from conftest import case_study_ppa, default_tech, make_instance


def layers_2x(nodes=("28nm", "45nm")):
    return tuple(Layer(index=i, node_name=n) for i, n in enumerate(nodes))


def test_adc_feasible_only_in_45nm():
    inst = make_instance(
        [Component("adc0", "ADC"), Component("cpu0", "CPU")],
        [Flow("adc0", "cpu0", 10.0)],
        ["28nm", "45nm"],
    )
    assert inst.feasible_layers("adc0") == (1,)
    assert inst.feasible_layers("cpu0") == (0, 1)
    assert inst.component_entry("adc0", 1).area == 53.0
    assert inst.component_entry("adc0", 0) is None


def test_zero_bandwidth_flow_rejected():
    cg = CoreGraph(
        components=(Component("a", "CPU"), Component("b", "CPU")),
        flows=(Flow("a", "b", 0.0),),
    )
    violations = instance_violations(cg, case_study_ppa(), default_tech(), layers_2x())
    assert any(v.code == "NegativeBandwidth" for v in violations)
    with pytest.raises(ValidationError):
        validate_instance(cg, case_study_ppa(), default_tech(), layers_2x())


def test_empty_core_graph_is_valid():
    inst = make_instance([], [], ["28nm"])
    assert inst.core_graph.components == ()
    assert inst.core_graph.flows == ()


def test_unknown_flow_endpoint():
    cg = CoreGraph(components=(Component("a", "CPU"),), flows=(Flow("a", "ghost", 1.0),))
    violations = instance_violations(cg, case_study_ppa(), default_tech(), layers_2x())
    assert any(v.code == "UnknownComponent" for v in violations)


def test_all_infeasible_component():
    cg = CoreGraph(components=(Component("a0", "ADC"),), flows=())
    violations = instance_violations(cg, case_study_ppa(), default_tech(),
                                     (Layer(0, "28nm"),))
    assert any(v.code == "NoFeasibleLayer" and "a0" in v.message for v in violations)


def test_noncontiguous_layer_indices():
    cg = CoreGraph(components=(), flows=())
    layers = (Layer(0, "28nm"), Layer(2, "28nm"))
    violations = instance_violations(cg, case_study_ppa(), default_tech(), layers)
    assert any(v.code == "MalformedTable" for v in violations)


def test_weights_validation():
    with pytest.raises(ValueError):
        ObjectiveWeights(w_area=-1.0)
    with pytest.raises(ValueError):
        ObjectiveWeights(0.0, 0.0, 0.0, 0.0, 0.0)
    assert ObjectiveWeights().as_tuple() == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_roundtrip_core_graph():
    cg = CoreGraph(
        components=(Component("a", "CPU"), Component("b", "ADC")),
        flows=(Flow("a", "b", 12.5), Flow("b", "a", 3.25)),
    )
    assert parse_core_graph(core_graph_to_json(cg)) == cg


def test_roundtrip_ppa_and_tech():
    ppa = case_study_ppa()
    layers = layers_2x()
    ppa2, layers2 = parse_ppa(ppa_to_json(ppa, layers))
    assert layers2 == layers
    assert ppa2.router_2d == dict(ppa.router_2d)
    assert ppa2.router_3d == dict(ppa.router_3d)
    assert {k: dict(v) for k, v in ppa2.components.items()} == \
        {k: dict(v) for k, v in ppa.components.items()}

    tech = default_tech()
    assert parse_tech(tech_to_json(tech)) == tech


def test_ppa_accepts_na_marker():
    doc = {
        "layers": [{"index": 0, "node": "45nm"}],
        "components": {"ADC": {"28nm": "n.a.", "45nm": {"area": 53, "perf": 1, "power": 1}}},
        "routers": {
            "2d": {"45nm": {"area": 2.25, "perf": 1.34, "power": 1.34}},
            "3d": {"45nm": {"area": 3.15, "perf": 1.34, "power": 1.34}},
        },
    }
    ppa, _ = parse_ppa(doc)
    assert ppa.component_entry("ADC", "28nm") is None
    assert ppa.component_entry("ADC", "45nm").area == 53.0


def test_instance_file_roundtrip(tmp_path):
    """save_instance(load_instance(x)) is semantically identical to x for the
    whole corpus."""
    from meshstack.corpus import INSTANCES
    from meshstack.model import load_instance, save_instance

    for name, builder in INSTANCES.items():
        inst = builder()
        save_instance(inst, tmp_path / name)
        again = load_instance(tmp_path / name)
        assert again.core_graph == inst.core_graph, name
        assert again.tech == inst.tech, name
        assert again.layers == inst.layers, name
        assert dict(again.ppa.router_2d) == dict(inst.ppa.router_2d), name
        assert {k: dict(v) for k, v in again.ppa.components.items()} == \
            {k: dict(v) for k, v in inst.ppa.components.items()}, name
        save_instance(again, tmp_path / (name + "_2"))
        for doc in ("coregraph.json", "ppa.json", "tech.json"):
            assert (tmp_path / name / doc).read_bytes() == \
                (tmp_path / (name + "_2") / doc).read_bytes(), (name, doc)


def test_corpus_documents_match_schema(tmp_path):
    """The shipped corpus validates against the published JSON schema."""
    import json
    from pathlib import Path

    import jsonschema

    from meshstack.corpus import write_corpus

    schema_path = Path(__file__).resolve().parent.parent / "schemas" / "instance.schema.json"
    schema = json.loads(schema_path.read_text())
    write_corpus(tmp_path)
    for inst_dir in sorted(p for p in tmp_path.iterdir() if p.is_dir()):
        for doc_name, def_name in (("coregraph.json", "coregraph"),
                                   ("ppa.json", "ppa"), ("tech.json", "tech")):
            doc = json.loads((inst_dir / doc_name).read_text())
            jsonschema.validate(doc, {**schema, "$ref": f"#/$defs/{def_name}"})


def _random_valid_instance(rng: random.Random):
    kinds = ["CPU", "ADC", "SIMD"]
    n = rng.randint(1, 8)
    comps = [Component(f"c{i}", rng.choice(kinds)) for i in range(n)]
    flows = []
    if n >= 2:
        for _ in range(rng.randint(0, 6)):
            a, b = rng.sample(range(n), 2)
            flows.append(Flow(f"c{a}", f"c{b}", rng.uniform(0.5, 50.0)))
    return CoreGraph(components=tuple(comps), flows=tuple(flows))


MUTATIONS = ["dup_id", "zero_bw", "neg_bw", "self_flow", "ghost_endpoint"]


def test_validation_rejects_exactly_the_mutants():
    """Property: valid instances pass; each injected defect is caught with the
    matching violation code."""
    rng = random.Random(20260810)
    layers = layers_2x(("28nm", "45nm"))
    checked = 0
    for _ in range(120):
        cg = _random_valid_instance(rng)
        assert instance_violations(cg, case_study_ppa(), default_tech(), layers) == []

        mutation = rng.choice(MUTATIONS)
        comps, flows = list(cg.components), list(cg.flows)
        if mutation == "dup_id":
            comps.append(Component(comps[0].id, "CPU"))
            expect = "DuplicateComponent"
        elif mutation == "zero_bw":
            flows.append(Flow(comps[0].id, comps[0].id + "x", 0.0))
            comps.append(Component(comps[0].id + "x", "CPU"))
            expect = "NegativeBandwidth"
        elif mutation == "neg_bw":
            flows.append(Flow(comps[0].id, comps[0].id + "x", -3.0))
            comps.append(Component(comps[0].id + "x", "CPU"))
            expect = "NegativeBandwidth"
        elif mutation == "self_flow":
            flows.append(Flow(comps[0].id, comps[0].id, 5.0))
            expect = "SelfFlow"
        else:
            flows.append(Flow(comps[0].id, "missing", 5.0))
            expect = "UnknownComponent"
        mutant = CoreGraph(components=tuple(comps), flows=tuple(flows))
        violations = instance_violations(mutant, case_study_ppa(), default_tech(), layers)
        assert any(v.code == expect for v in violations), (mutation, violations)
        checked += 1
    assert checked == 120


def test_committed_corpus_matches_builders(tmp_path):
    # the CLI, perfbench and tools/report_digests.py read corpus/; the tests
    # build the same instances with corpus.*()
    committed = Path(__file__).resolve().parents[1] / "corpus"
    write_corpus(tmp_path)

    def files(base):
        return {p.relative_to(base): p.read_bytes() for p in sorted(base.rglob("*"))
                if p.is_file()}
    assert files(tmp_path) == files(committed)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    """JSON holds no Infinity or NaN: the writer names the file and writes nothing."""
    path = tmp_path / "out" / "report.json"
    with pytest.raises(InputError, match="report.json"):
        write_json({"metrics": {"total_cost": value}}, path)
    assert not path.exists()



@pytest.mark.parametrize("bandwidth, tech", [
    (10**400, TechParams(2.0, 5.0, 100.0)),
    (1.0, TechParams(2.0, 10**400, 100.0)),
    (1.0, TechParams(10**400, 5.0, 100.0)),
], ids=["bandwidth", "rd_max_length", "koz_area"])
def test_int_beyond_every_float_is_a_violation(bandwidth, tech):
    """An int that no float can hold is refused by comparison, never
    converted: a validation error, not an OverflowError."""
    cg = CoreGraph(components=(Component("a", "CPU"), Component("b", "CPU")),
                   flows=(Flow("a", "b", bandwidth),))
    with pytest.raises(ValidationError):
        validate_instance(cg, case_study_ppa(), tech, layers_2x())
