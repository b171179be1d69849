"""The benchmark's own tests: python -m pytest perfbench -q"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_meshstack()

import layertrace  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from meshstack import model, pipeline  # noqa: E402

ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny_workload(seed: int) -> workloads.PipelineWorkload:
    tiny = model.load_instance(ROOT / "corpus" / "tiny_soc")
    return workloads.PipelineWorkload(tiny, seed, panel=1)


def test_same_seed_gives_identical_instances():
    first = workloads.build("oracle_tiny", ROOT, 7)
    again = workloads.build("oracle_tiny", ROOT, 7)
    other = workloads.build("oracle_tiny", ROOT, 8)
    as_bytes = lambda wl: [workloads.instance_bytes(i) for i in wl.instances]
    assert as_bytes(first) == as_bytes(again)
    assert as_bytes(first)[1:] != as_bytes(other)[1:]
    assert first.seeds == again.seeds

    uniform = workloads.build("uniform_large", ROOT, 7)
    uniform_again = workloads.build("uniform_large", ROOT, 7)
    assert (workloads.instance_bytes(uniform.instance)
            == workloads.instance_bytes(uniform_again.instance))
    assert len(uniform.instance.core_graph.flows) == 870
    assert uniform.seeds == uniform_again.seeds


def test_tracer_restores_every_wrapped_function():
    originals = [(m, a, getattr(m, a)) for m, a in layertrace.sites()]
    tracer = layertrace.Tracer()
    wl = tiny_workload(3)
    with tracer:
        assert all(getattr(m, a) is not f for m, a, f in originals)
        pipeline.run_pipeline(wl.instance, pipeline.PipelineConfig(seed=3))
    assert all(getattr(m, a) is f for m, a, f in originals)
    assert tracer.spans["simplex.solve_cover_lp"].calls > 0
    assert tracer.spans["netgraph.shortest_path"].calls > 0
    assert tracer.anneals["floorplan.anneal"].iterations > 0

    with pytest.raises(ZeroDivisionError):
        with tracer:
            1 / 0
    assert all(getattr(m, a) is f for m, a, f in originals)


def test_traced_design_matches_untraced():
    raw = worker.trace(tiny_workload(5), 0.0, layertrace.Tracer())
    assert raw["failures"] == []
    assert len(raw["traced"]) == 2
    assert [d["cost"] for d in raw["traced"]] == [d["cost"] for d in raw["designs"]]


def test_metric_names_and_benchmark_json_agree():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.BUILDERS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(metrics.PER_LAYER)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)

    measured = worker.measure(tiny_workload(5), 0.0)
    assert measured["failures"] == [] and measured["attempted"] == 2  # one repeat
    measured.update(panel=1, peak_rss_mb=1.0)
    e2e = metrics.end_to_end(measured, [0.1])
    assert list(e2e) == [m["name"] for m in doc["end_to_end"]]

    traced = worker.trace(tiny_workload(5), 0.0, layertrace.Tracer())
    layers = metrics.per_layer(traced)
    assert sorted(layers) == sorted(m["name"] for m in doc["per_layer"])
    assert all(NAME.fullmatch(n) for n in layers)
