"""Exact baseline: trivial costs, hand enumeration, counting invariants."""

from __future__ import annotations

import itertools
import math

import pytest

from meshstack.cli import main
from meshstack.errors import InstanceTooLargeError, UnreachableError
from meshstack.exact import ExactLimits, enumeration_estimate, solve_exact
from meshstack.floorplan import grid_dims, legalize
from meshstack.model import (
    Component,
    CoreGraph,
    Flow,
    Layer,
    ObjectiveWeights,
    PpaEntry,
    PpaTable,
    TechParams,
    save_instance,
    validate_instance,
)
from meshstack.objective import evaluate_solution

from conftest import make_instance

W = ObjectiveWeights()


def test_single_component_trivial():
    inst = make_instance([Component("c", "CPU")], [], ["28nm"])
    sol = solve_exact(inst, W)
    # cell area = component + 2D router; power/perf = component + router
    assert sol.cost == pytest.approx((35.8 + 1.3) + (1 + 1) + (1 + 1))
    assert sol.assignment == {"c": 0}
    assert sol.placements_visited == 1
    assert sol.configurations_visited == 1


def test_two_components_hand_enumeration():
    inst = make_instance(
        [Component("a", "CPU"), Component("b", "CPU")],
        [Flow("a", "b", 10.0)],
        ["28nm", "28nm"],
    )
    sol = solve_exact(inst, W)

    # independent enumeration of the whole space through the public evaluator
    best = math.inf
    for la, lb in itertools.product((0, 1), repeat=2):
        assignment = {"a": la, "b": lb}
        members = [sorted(c for c in assignment if assignment[c] == l) for l in (0, 1)]
        placements = [list(itertools.permutations(range(math.prod(grid_dims(len(m)))),
                                                  len(m))) for m in members]
        for cells in itertools.product(*placements):
            from meshstack.exact import _layer_floorplan
            fps = [_layer_floorplan(inst, l, members[l], cells[l]) for l in (0, 1)]
            from meshstack.vlink import candidate_links
            from meshstack.errors import NoCandidatesError, UnreachableError
            try:
                cands = candidate_links(fps, 0, inst.tech.rd_max_length)
            except NoCandidatesError:
                cands = []
            subsets = [()] + [(v,) for v in cands]
            for subset in subsets:
                legal = legalize(inst, fps, list(subset))
                try:
                    metrics = evaluate_solution(inst, legal, list(subset), W)
                except UnreachableError:
                    continue
                best = min(best, metrics["total_cost"])
    assert sol.cost == pytest.approx(best, rel=1e-12)
    # stacking wins here: the vertical hop costs only its small RD length,
    # far below a ~4 mm horizontal hop, and outweighs the KOZ + 3D router area
    assert sol.assignment in ({"a": 0, "b": 1}, {"a": 1, "b": 0})
    assert len(sol.vlinks) == 1
    # the reported optimum re-evaluates to itself through the public evaluator
    again = evaluate_solution(inst, sol.floorplans, sol.vlinks, W)
    assert again["total_cost"] == pytest.approx(sol.cost, rel=1e-12)


def test_enumeration_count_matches_closed_form():
    inst = make_instance(
        [Component("a", "CPU"), Component("b", "CPU"), Component("c", "SIMD")],
        [Flow("a", "b", 5.0)],
        ["28nm", "28nm"],
    )
    sol = solve_exact(inst, W)
    # closed form: sum over assignments of prod_l P(cells_l, k_l)
    expected = 0
    for combo in itertools.product((0, 1), repeat=3):
        n = 1
        for l in (0, 1):
            k = sum(1 for x in combo if x == l)
            rows, cols = grid_dims(k)
            n *= math.perm(rows * cols, k)
        expected += n
    assert enumeration_estimate(inst) == expected
    assert sol.placements_visited == expected


def test_limits_raise():
    comps = [Component(f"c{i}", "CPU") for i in range(7)]
    inst = make_instance(comps, [], ["28nm", "28nm"])
    with pytest.raises(InstanceTooLargeError):
        solve_exact(inst, W, ExactLimits(components=6))
    inst3 = make_instance(comps[:2], [], ["28nm", "28nm", "28nm"])
    with pytest.raises(InstanceTooLargeError):
        solve_exact(inst3, W, ExactLimits(layers=2))


def test_exact_dominates_any_feasible_solution():
    """Oracle property on a 3-component instance: no manually constructed
    feasible solution may beat the exact optimum."""
    inst = make_instance(
        [Component("a", "CPU"), Component("b", "CPU"), Component("c", "CPU")],
        [Flow("a", "b", 5.0), Flow("b", "c", 5.0)],
        ["28nm", "28nm"],
    )
    sol = solve_exact(inst, W)
    from meshstack.exact import _layer_floorplan
    from meshstack.errors import UnreachableError
    from meshstack.vlink import candidate_links
    import random

    rng = random.Random(12)
    for _ in range(60):
        assignment = {c: rng.choice((0, 1)) for c in ("a", "b", "c")}
        members = [sorted(c for c in assignment if assignment[c] == l) for l in (0, 1)]
        fps = []
        for l in (0, 1):
            rows, cols = grid_dims(len(members[l]))
            cells = tuple(rng.sample(range(rows * cols), len(members[l])))
            fps.append(_layer_floorplan(inst, l, members[l], cells))
        try:
            cands = candidate_links(fps, 0, inst.tech.rd_max_length)
            subset = [rng.choice(cands)]
        except Exception:
            subset = []
        legal = legalize(inst, fps, subset)
        try:
            metrics = evaluate_solution(inst, legal, subset, W)
        except UnreachableError:
            continue
        assert metrics["total_cost"] >= sol.cost - 1e-9


def test_unreachable_names_a_real_flow(tmp_path):
    # ADC only in 45nm, DSP only in 28nm, reach 0: the two 1x1 layers size
    # differently, so no router pair stacks and the flow can never route
    entry = PpaEntry(area=1.3, perf=1.0, power=1.0)
    ppa = PpaTable(components={"ADC": {"45nm": PpaEntry(53.0, 1.0, 1.0)},
                               "DSP": {"28nm": PpaEntry(20.0, 1.0, 1.0)}},
                   router_2d={"28nm": entry, "45nm": entry},
                   router_3d={"28nm": entry, "45nm": entry})
    inst = validate_instance(
        CoreGraph((Component("adc0", "ADC"), Component("dsp0", "DSP")),
                  (Flow("adc0", "dsp0", 10.0),)),
        ppa, TechParams(koz_area=2.0, rd_max_length=0.0, link_capacity=100.0),
        (Layer(0, "28nm"), Layer(1, "45nm")))
    with pytest.raises(UnreachableError) as err:
        solve_exact(inst, W)
    assert (err.value.src, err.value.dst) == ("adc0", "dsp0")
    save_instance(inst, tmp_path / "inst")
    assert main(["baseline", str(tmp_path / "inst"), "--out", str(tmp_path / "o")]) == 3
