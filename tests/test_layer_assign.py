"""Step-1 assignment: worked examples, brute-force oracle, greedy dominance."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from meshstack.errors import InstanceTooLargeError, NoFeasibleLayerError
from meshstack.layer_assign import MAX_COMPONENTS, assign_layers, assign_layers_greedy, step1_cost
from meshstack.model import Component, CoreGraph, Flow, Layer, ObjectiveWeights, PpaEntry, PpaTable, TechParams, validate_instance

from conftest import default_tech, make_instance


STEP1_WEIGHTS = ObjectiveWeights(w_area=1.0, w_power=1.0, w_perf=0.0, w_peak=1.0, w_util=1.0)


def brute_force(instance, weights):
    ids = [c.id for c in instance.core_graph.components]
    choices = [instance.feasible_layers(cid) for cid in ids]
    best = math.inf
    for combo in itertools.product(*choices):
        cost = step1_cost(instance, dict(zip(ids, combo)), weights)
        best = min(best, cost)
    return best


def test_adc_forced_cpu_prefers_small_node():
    inst = make_instance(
        [Component("adc0", "ADC"), Component("cpu0", "CPU")],
        [],
        ["28nm", "45nm"],
    )
    assignment = assign_layers(inst, STEP1_WEIGHTS)
    assert assignment["adc0"] == 1          # only feasible layer
    assert assignment["cpu0"] == 0          # 35.8 < 62.2 and max stays at 53


def test_single_component_single_layer():
    inst = make_instance([Component("c", "CPU")], [], ["28nm"])
    assert assign_layers(inst, STEP1_WEIGHTS) == {"c": 0}
    assert assign_layers_greedy(inst, STEP1_WEIGHTS) == {"c": 0}


def test_five_cpus_split_three_two():
    ids = [f"c{i}" for i in range(5)]
    inst = make_instance([Component(i, "CPU") for i in ids], [], ["28nm", "28nm"])
    weights = ObjectiveWeights(w_area=1.0, w_power=0.0, w_perf=0.0, w_peak=0.0, w_util=1.0)
    assignment = assign_layers(inst, weights)
    per_layer = [0.0, 0.0]
    for cid, l in assignment.items():
        per_layer[l] += 35.8
    assert max(per_layer) == pytest.approx(3 * 35.8)

    # exhaustive check over all 2^5 assignments
    best = brute_force(inst, weights)
    assert step1_cost(inst, assignment, weights) == pytest.approx(best, rel=1e-12)
    assert best == pytest.approx(107.4)


def random_instance(rng):
    kinds = ["CPU", "ADC", "SIMD"]
    n = rng.randint(1, 9)
    comps = [Component(f"c{i}", rng.choice(kinds)) for i in range(n)]
    n_layers = rng.randint(1, 3)
    nodes = [rng.choice(["28nm", "45nm"]) for _ in range(n_layers)]
    if all(c.kind != "ADC" for c in comps) or "45nm" in nodes:
        pass
    else:
        nodes[0] = "45nm"  # keep ADCs feasible
    return make_instance(comps, [], nodes)


def test_bnb_matches_enumeration():
    rng = random.Random(100)
    for _ in range(60):
        inst = random_instance(rng)
        weights = ObjectiveWeights(
            w_area=rng.uniform(0.1, 2.0),
            w_power=rng.uniform(0.0, 2.0),
            w_perf=rng.choice([0.0, rng.uniform(0.0, 1.0)]),
            w_peak=1.0, w_util=1.0,
        )
        exact = assign_layers(inst, weights)
        assert math.isclose(step1_cost(inst, exact, weights),
                            brute_force(inst, weights),
                            rel_tol=1e-9, abs_tol=1e-12)


def test_greedy_never_beats_exact():
    rng = random.Random(200)
    for _ in range(60):
        inst = random_instance(rng)
        weights = ObjectiveWeights(w_area=rng.uniform(0.1, 2.0), w_power=1.0,
                                   w_perf=0.0, w_peak=1.0, w_util=1.0)
        exact_cost = step1_cost(inst, assign_layers(inst, weights), weights)
        greedy_cost = step1_cost(inst, assign_layers_greedy(inst, weights), weights)
        assert greedy_cost >= exact_cost - 1e-9


def test_permutation_invariance_of_cost():
    rng = random.Random(300)
    ids = [f"c{i}" for i in range(6)]
    kinds = {i: rng.choice(["CPU", "SIMD"]) for i in ids}
    for _ in range(10):
        order = ids[:]
        rng.shuffle(order)
        inst = make_instance([Component(i, kinds[i]) for i in order], [], ["28nm", "28nm"])
        cost = step1_cost(inst, assign_layers(inst, STEP1_WEIGHTS), STEP1_WEIGHTS)
        inst0 = make_instance([Component(i, kinds[i]) for i in ids], [], ["28nm", "28nm"])
        cost0 = step1_cost(inst0, assign_layers(inst0, STEP1_WEIGHTS), STEP1_WEIGHTS)
        assert cost == pytest.approx(cost0, rel=1e-12)


def test_component_cap():
    comps = [Component(f"c{i}", "CPU") for i in range(MAX_COMPONENTS + 1)]
    inst = make_instance(comps, [], ["28nm", "28nm"])
    with pytest.raises(InstanceTooLargeError):
        assign_layers(inst, STEP1_WEIGHTS)
    # fallback still works
    assert len(assign_layers_greedy(inst, STEP1_WEIGHTS)) == MAX_COMPONENTS + 1


def test_no_feasible_layer_raises():
    ppa = PpaTable(
        components={"ADC": {"45nm": PpaEntry(53.0, 1.0, 1.0), "28nm": None}},
        router_2d={"28nm": PpaEntry(1.3, 1.0, 1.0)},
        router_3d={"28nm": PpaEntry(1.8, 1.0, 1.0)},
    )
    cg = CoreGraph(components=(Component("a", "ADC"),), flows=())
    layers = (Layer(0, "28nm"),)
    # bypass validate_instance to exercise the solver-side error
    from meshstack.model import Instance
    inst = Instance(core_graph=cg, ppa=ppa, tech=default_tech(), layers=layers)
    with pytest.raises(NoFeasibleLayerError):
        assign_layers(inst, STEP1_WEIGHTS)
