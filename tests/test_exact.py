"""Exact baseline: trivial costs, hand enumeration, counting invariants."""

from __future__ import annotations

import gc
import itertools
import math
import sys

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from meshstack import exact, vlink
from meshstack.cli import main
from meshstack.corpus import case_study_ppa, tiny_soc
from meshstack.errors import (InstanceTooLargeError, MeshstackError, NoCandidatesError,
                              UnreachableError)
from meshstack.exact import (MAX_VCANDS, _layer_floorplan, _matchings, cost_floor,
                             enumeration_estimate, linked_cost_floor, pattern_floor,
                             solve_exact)
from meshstack.floorplan import grid_dims, legalize, legalize_layer, router_kinds
from meshstack.model import (
    Component,
    CoreGraph,
    Flow,
    Layer,
    ObjectiveWeights,
    PpaEntry,
    PpaTable,
    TechParams,
    instance_violations,
    save_instance,
    validate_instance,
)
from meshstack.objective import evaluate_solution, power_perf_cost
from meshstack.pipeline import PipelineConfig, SaTriple, run_pipeline
from meshstack.vlink import candidate_links

from conftest import chain_flows, default_tech, make_instance

W = ObjectiveWeights()
# a failing example is reported as drawn: each shrink step would enumerate and
# route every configuration of the candidate instance again
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


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
            fps = [_layer_floorplan(inst, l, members[l], cells[l]) for l in (0, 1)]
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


@st.composite
def counted_instances(draw):
    """1-8 case-study components of mixed kinds on 1-3 layers, no flows."""
    kinds = draw(st.lists(st.sampled_from(["CPU", "ADC", "SIMD"]), min_size=1,
                          max_size=8))
    nodes = draw(st.lists(st.sampled_from(["28nm", "45nm"]), min_size=1, max_size=3))
    comps = tuple(Component(f"c{i}", kind) for i, kind in enumerate(kinds))
    layers = tuple(Layer(i, node) for i, node in enumerate(nodes))
    cg = CoreGraph(components=comps, flows=())
    assume(not instance_violations(cg, case_study_ppa(), default_tech(), layers))
    return validate_instance(cg, case_study_ppa(), default_tech(), layers)


@settings(max_examples=100)
@example(inst=make_instance(
    [Component("a", "CPU"), Component("b", "CPU"), Component("c", "SIMD")],
    [Flow("a", "b", 5.0)], ["28nm", "28nm"]))
@given(inst=counted_instances())
def test_enumeration_count_matches_closed_form(inst):
    """The estimate, counted per vector of per-layer component counts, is the
    sum over every layer assignment of prod_l P(cells_l, k_l); where the
    enumeration is small, solve_exact visits exactly that many placements."""
    comps = sorted(c.id for c in inst.core_graph.components)
    expected = 0
    for combo in itertools.product(*(inst.feasible_layers(c) for c in comps)):
        n = 1
        for l in range(len(inst.layers)):
            k = combo.count(l)
            rows, cols = grid_dims(k)
            n *= math.perm(rows * cols, k)
        expected += n
    assert enumeration_estimate(inst) == expected
    if expected <= 200:
        assert solve_exact(inst, W).placements_visited == expected


def test_limits_raise():
    """Beyond MAX_PLACEMENTS placements, solve_exact refuses before it
    enumerates: seven CPUs on two layers (473,760) and six on three
    (87,120)."""
    comps = [Component(f"c{i}", "CPU") for i in range(7)]
    with pytest.raises(InstanceTooLargeError,
                       match="visit 473760 placements, more than MAX_PLACEMENTS = 23040"):
        solve_exact(make_instance(comps, [], ["28nm", "28nm"]), W)
    with pytest.raises(InstanceTooLargeError,
                       match="visit 87120 placements, more than MAX_PLACEMENTS = 23040"):
        solve_exact(make_instance(comps[:6], [], ["28nm", "28nm", "28nm"]), W)


def test_limit_admits_its_own_size(monkeypatch):
    """An enumeration of exactly MAX_PLACEMENTS placements is solved; one
    placement fewer allowed refuses it."""
    inst = make_instance([Component("a", "CPU"), Component("b", "CPU")],
                         [Flow("a", "b", 10.0)], ["28nm", "28nm"])
    size = enumeration_estimate(inst)
    monkeypatch.setattr(exact, "MAX_PLACEMENTS", size)
    assert solve_exact(inst, W).placements_visited == size
    monkeypatch.setattr(exact, "MAX_PLACEMENTS", size - 1)
    with pytest.raises(InstanceTooLargeError, match=f"MAX_PLACEMENTS = {size - 1}"):
        solve_exact(inst, W)


def test_vertical_link_candidate_limit_raises(tmp_path):
    """Within reach of every router, four CPUs below two give a boundary 8
    candidate links, more than MAX_VCANDS; baseline exits 4."""
    comps = [Component(f"c{i}", "CPU") for i in range(6)]
    inst = make_instance(comps, [], ["28nm", "28nm"], default_tech(rd=100.0))
    with pytest.raises(InstanceTooLargeError,
                       match="^boundary 0 has 8 vertical-link candidates, limit 6$"):
        solve_exact(inst, W)
    save_instance(inst, tmp_path / "inst")
    assert main(["baseline", str(tmp_path / "inst"), "--out", str(tmp_path / "o")]) == 4


def test_exact_dominates_any_feasible_solution():
    """Oracle property on a 3-component instance: no manually constructed
    feasible solution may beat the exact optimum."""
    inst = make_instance(
        [Component("a", "CPU"), Component("b", "CPU"), Component("c", "CPU")],
        [Flow("a", "b", 5.0), Flow("b", "c", 5.0)],
        ["28nm", "28nm"],
    )
    sol = solve_exact(inst, W)
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


def test_layers_are_placed_only_when_read(monkeypatch):
    """A layer is placed only when something reads its floorplan: a new kind
    pattern's link candidates and floor terms, or a routed configuration. On
    tiny_soc that is at most one _layer_floorplan call per layer for each of
    those, and fewer than 200 calls in all against the 2,912 layer cell
    changes, each of which was once placed."""
    inst = tiny_soc()
    calls, patterns, routed = [], [], []

    def counted(log, fn):
        def wrapped(*args):
            log.append(args)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(exact, "_layer_floorplan", counted(calls, exact._layer_floorplan))
    monkeypatch.setattr(exact, "_link_configurations",
                        counted(patterns, exact._link_configurations))
    monkeypatch.setattr(exact, "legalize", counted(routed, exact.legalize))
    sol = solve_exact(inst, W)

    layers = len(inst.layers)
    assert len(calls) <= layers * len(patterns) + layers * len(routed)
    assert len(calls) < 200
    assert sol.placements_visited == 2640
    assert sol.cost == 245.98884748530335
    assert sol.assignment == {"cpu0": 1, "cpu1": 0, "cpu2": 0, "cpu3": 0, "cpu4": 0}


def _kind_grid(instance, fp):
    return tuple(None if comp is None else instance.kinds[comp]
                 for row in fp.cell_of for comp in row)


def test_floor_terms_once_per_kind_pattern(monkeypatch):
    """Identical components share floor terms: on tiny_soc (five CPUs) each
    (layer, kind grid, layer's router kinds) is floored once, and fewer kind
    grids are floored than component grids are placed."""
    inst = tiny_soc()
    calls, states = [], set()

    def counted(instance, fp, kinds, weights):
        own = tuple(sorted(kv for kv in kinds.items() if kv[0][0] == fp.layer))
        calls.append((fp.layer, _kind_grid(instance, fp), own))
        return layer_floor(instance, fp, kinds, weights)

    def placed(instance, layer, members, cells):
        fp = _layer_floorplan(instance, layer, members, cells)
        states.add((layer, fp.cell_of))
        return fp

    layer_floor = exact._layer_floor
    monkeypatch.setattr(exact, "_layer_floor", counted)
    monkeypatch.setattr(exact, "_layer_floorplan", placed)
    sol = solve_exact(inst, W)
    assert len(calls) == len(set(calls)) > 0
    assert len({(layer, grid) for layer, grid, _own in calls}) < len(states)
    assert sol.cost == 245.98884748530335


def _mixed_instance():
    """Two CPUs, a SIMD and an ADC (45nm only) on 28nm/45nm layers."""
    comps = [Component("a", "CPU"), Component("b", "SIMD"), Component("c", "CPU"),
             Component("d", "ADC")]
    return make_instance(comps, [Flow("a", "d", 40.0), Flow("d", "c", 25.0),
                                 Flow("b", "a", 10.0)], ["28nm", "45nm"])


@pytest.mark.parametrize("inst", [tiny_soc(), _mixed_instance()], ids=["tiny_soc", "mixed"])
def test_shared_floor_terms_equal_the_configurations_own(monkeypatch, inst):
    """The floors solve_exact skips by are built from terms shared across
    permutations of identical components; each equals cost_floor of the
    configuration it is checked for (up to the order power is summed in).
    The pattern bound is held at 0, so it skips nothing and floors cover the
    enumeration once a configuration has routed. Each recorded floor is
    matched to its configuration by the solution key (assignment, cells,
    links) of the call's frame; at least 200 evenly spaced ones are checked."""
    floors = {}

    def recorded(*args):
        at = sys._getframe(1).f_locals
        key = (tuple(sorted(at["assignment"].items())),
               at["choice"],
               tuple((v.lower, v.upper) for v in at["links"]))
        floors[key] = shared(*args)
        return floors[key]

    shared = exact._floor
    monkeypatch.setattr(exact, "_floor", recorded)
    monkeypatch.setattr(exact, "_pattern_bound", lambda configs, ends: 0.0)
    solve_exact(inst, W)
    monkeypatch.undo()
    configurations = {(tuple(sorted(assignment.items())), cells,
                       tuple((v.lower, v.upper) for v in links)): (fps, links)
                      for assignment, cells, fps, links, _new in _configurations(inst)}
    keys = sorted(floors)
    assert len(keys) > 200
    for key in keys[::len(keys) // 200]:
        fps, links = configurations[key]
        assert floors[key] == pytest.approx(cost_floor(inst, fps, links, W), rel=1e-12)


def test_candidates_once_per_kind_grid_pair(monkeypatch):
    """Vertical-link candidates depend only on the two layers' kind grids: on
    tiny_soc, candidate_links runs once per distinct pair of kind grids over
    all placements, not once per placement."""
    inst = tiny_soc()
    calls = []

    def counted(floorplans, boundary, reach):
        calls.append(tuple(_kind_grid(inst, fp) for fp in floorplans))
        return candidate_links(floorplans, boundary, reach)

    monkeypatch.setattr(vlink, "candidate_links", counted)
    sol = solve_exact(inst, W)

    comps = sorted(c.id for c in inst.core_graph.components)
    patterns = set()
    for combo in itertools.product(*(inst.feasible_layers(c) for c in comps)):
        members = [[c for c, l in zip(comps, combo) if l == layer]
                   for layer in range(len(inst.layers))]
        for cells in itertools.product(*(
                itertools.permutations(range(math.prod(grid_dims(len(m)))), len(m))
                for m in members)):
            grids = []
            for m, placed in zip(members, cells):
                grid = [None] * math.prod(grid_dims(len(m)))
                for comp, i in zip(m, placed):
                    grid[i] = inst.kinds[comp]
                grids.append(tuple(grid))
            patterns.add(tuple(grids))
    assert sorted(calls, key=repr) == sorted(patterns, key=repr)
    assert len(calls) < sol.placements_visited == 2640


def test_solve_leaves_no_reference_cycles():
    """tiny_soc's link-free configurations cannot route; the UnreachableError
    solve_exact keeps must not hold the traceback that would tie its frame,
    memos included, into a cycle only the garbage collector frees."""
    gc.collect()
    gc.disable()
    try:
        solve_exact(tiny_soc(), W)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _unroutable_instance():
    """ADC only in 45nm, DSP only in 28nm, reach 0: the two 1x1 layers size
    differently, so no router pair stacks and the flow can never route."""
    entry = PpaEntry(area=1.3, perf=1.0, power=1.0)
    ppa = PpaTable(components={"ADC": {"45nm": PpaEntry(53.0, 1.0, 1.0)},
                               "DSP": {"28nm": PpaEntry(20.0, 1.0, 1.0)}},
                   router_2d={"28nm": entry, "45nm": entry},
                   router_3d={"28nm": entry, "45nm": entry})
    return validate_instance(
        CoreGraph((Component("adc0", "ADC"), Component("dsp0", "DSP")),
                  (Flow("adc0", "dsp0", 10.0),)),
        ppa, TechParams(koz_area=2.0, rd_max_length=0.0, link_capacity=100.0),
        (Layer(0, "28nm"), Layer(1, "45nm")))


def test_unreachable_names_a_real_flow(tmp_path):
    inst = _unroutable_instance()
    with pytest.raises(UnreachableError) as err:
        solve_exact(inst, W)
    assert (err.value.src, err.value.dst) == ("adc0", "dsp0")
    save_instance(inst, tmp_path / "inst")
    assert main(["baseline", str(tmp_path / "inst"), "--out", str(tmp_path / "o")]) == 3


def _two_unroutable_flows():
    """_unroutable_instance's ADC and DSP with a MEM, far smaller in 45nm, in
    between: flows adc0 -> mem0 and mem0 -> dsp0. Whichever layer mem0 takes,
    one of the two flows crosses a boundary that never has a link."""
    entry = PpaEntry(area=1.3, perf=1.0, power=1.0)
    ppa = PpaTable(components={"ADC": {"45nm": PpaEntry(53.0, 1.0, 1.0)},
                               "DSP": {"28nm": PpaEntry(20.0, 1.0, 1.0)},
                               "MEM": {"28nm": PpaEntry(90.0, 1.0, 1.0),
                                       "45nm": PpaEntry(10.0, 1.0, 1.0)}},
                   router_2d={"28nm": entry, "45nm": entry},
                   router_3d={"28nm": entry, "45nm": entry})
    return validate_instance(
        CoreGraph((Component("adc0", "ADC"), Component("dsp0", "DSP"), Component("mem0", "MEM")),
                  (Flow("adc0", "mem0", 10.0), Flow("mem0", "dsp0", 10.0))),
        ppa, TechParams(koz_area=2.0, rd_max_length=0.0, link_capacity=100.0),
        (Layer(0, "28nm"), Layer(1, "45nm")))


def test_unreachable_names_the_last_enumerated_flow():
    """When nothing routes, solve_exact names the unroutable flow of the last
    configuration in enumeration order, as the reference does, though it
    visits assignments best first: without wiring weight, mem0 on the 45nm
    layer (the second assignment, where mem0 -> dsp0 cannot route) has the
    lower bound and is visited first."""
    inst = _two_unroutable_flows()
    weights = ObjectiveWeights(1, 1, 1, 1, 0)
    assert _outcome(lambda: solve_exact(inst, weights)) == ("unreachable", "mem0", "dsp0")
    assert _outcome(lambda: _exhaustive(inst, weights)) == ("unreachable", "mem0", "dsp0")


def test_unroutable_solve_leaves_no_reference_cycles():
    """When nothing routes, the UnreachableError solve_exact raises carries a
    traceback through its frame; no local of that frame may hold the error,
    or frame and error, memos included, form a cycle only the collector
    frees."""
    inst = _unroutable_instance()
    gc.collect()
    gc.disable()
    try:
        try:
            solve_exact(inst, W)
        except UnreachableError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def small_instances(draw):
    """Case-study components, random flows, reach 0-10 mm, and 1-3 layers:
    2-5 components on one or two, 2-4 on three."""
    nodes = draw(st.lists(st.sampled_from(["28nm", "45nm"]), min_size=1, max_size=3))
    kinds = draw(st.lists(st.sampled_from(["CPU", "ADC", "SIMD"]), min_size=2,
                          max_size=4 if len(nodes) == 3 else 5))
    comps = tuple(Component(f"c{i}", kind) for i, kind in enumerate(kinds))
    ends = st.lists(st.sampled_from([c.id for c in comps]), min_size=2, max_size=2,
                    unique=True)
    flows = tuple(Flow(a, b, bw) for (a, b), bw in draw(
        st.lists(st.tuples(ends, st.floats(0.1, 200.0)), max_size=6)))
    layers = tuple(Layer(i, node) for i, node in enumerate(nodes))
    tech = TechParams(koz_area=draw(st.sampled_from([0.0, 2.0, 8.0])),
                      rd_max_length=draw(st.floats(0.0, 10.0)),
                      link_capacity=draw(st.sampled_from([5.0, 100.0])))
    cg = CoreGraph(components=comps, flows=flows)
    assume(not instance_violations(cg, case_study_ppa(), tech, layers))
    return validate_instance(cg, case_study_ppa(), tech, layers)


WEIGHTS = st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 3.0])] * 5).filter(any).map(
    lambda w: ObjectiveWeights(*w))


def _configurations(instance):
    """Every (assignment, placement, link matching) in solve_exact's order, as
    (assignment, cells per layer, placed floorplans, links, new placement?)."""
    comps = sorted(c.id for c in instance.core_graph.components)
    layers = range(len(instance.layers))
    for combo in itertools.product(*(instance.feasible_layers(c) for c in comps)):
        assignment = dict(zip(comps, combo))
        members = [sorted(c for c in comps if assignment[c] == l) for l in layers]
        for cells in itertools.product(*(
                itertools.permutations(range(math.prod(grid_dims(len(m)))), len(m))
                for m in members)):
            fps = [_layer_floorplan(instance, l, members[l], cells[l]) for l in layers]
            cands = []
            for b in instance.boundaries():
                try:
                    cands.append(candidate_links(fps, b, instance.tech.rd_max_length))
                except NoCandidatesError:
                    cands.append([])
                if len(cands[-1]) > MAX_VCANDS:
                    raise InstanceTooLargeError(f"boundary {b}")
            for i, selection in enumerate(itertools.product(*map(_matchings, cands))):
                links = [cands[b][k] for b, picked in enumerate(selection) for k in picked]
                yield assignment, cells, fps, links, i == 0


def _exhaustive(instance, weights):
    """Reference oracle: legalize and evaluate every configuration."""
    best, unreachable, placements, configurations = None, None, 0, 0
    for assignment, cells, fps, links, new_placement in _configurations(instance):
        placements += new_placement
        configurations += 1
        legal = legalize(instance, fps, links)
        try:
            cost = evaluate_solution(instance, legal, links, weights)["total_cost"]
        except UnreachableError as exc:
            unreachable = exc
            continue
        key = (tuple(sorted(assignment.items())), cells,
               tuple((v.lower, v.upper) for v in links))
        if best is None or (cost, key) < best[:2]:
            best = (cost, key, assignment, legal, links)
    if best is None:
        raise unreachable
    return best[0], best[2], best[3], best[4], placements, configurations


def _outcome(solve):
    try:
        return solve()
    except UnreachableError as exc:
        return ("unreachable", exc.src, exc.dst)
    except InstanceTooLargeError:
        return "too large"


def _three_cpu_tower():
    """Three CPUs on three 28nm layers with a 100 Mb/s chain c0 -> c1 -> c2:
    the optimum stacks one CPU per layer, and the middle one's router links
    both up and down (3d-both), over two boundaries."""
    comps = [Component(f"c{i}", "CPU") for i in range(3)]
    flows = [Flow("c0", "c1", 100.0), Flow("c1", "c2", 100.0)]
    return make_instance(comps, flows, ["28nm", "28nm", "28nm"])


def test_three_layer_optimum_links_the_middle_router_both_ways():
    sol = solve_exact(_three_cpu_tower(), W)
    assert sol.assignment == {"c0": 0, "c1": 1, "c2": 2}
    assert [fp.router_kind for fp in sol.floorplans] == [
        (("3d-up",),), (("3d-both",),), (("3d-down",),)]
    assert (sol.placements_visited, sol.configurations_visited) == (114, 180)


def test_largest_three_layer_enumeration():
    """Five CPUs on three 28nm layers with a four-flow chain: 7,560
    placements, the largest three-layer enumeration MAX_PLACEMENTS admits,
    and one whose middle and top layers' cells sit behind nonzero offsets in
    the oracle's flat router-center tables."""
    comps = [Component(f"c{i}", "CPU") for i in range(5)]
    flows = [Flow(f"c{i}", f"c{i + 1}", 10.0 * (i + 1)) for i in range(4)]
    inst = make_instance(comps, flows, ["28nm"] * 3)
    sol = solve_exact(inst, W)
    assert sol.placements_visited == enumeration_estimate(inst) == 7560
    assert sol.configurations_visited == 22560
    assert sol.cost == 373.12544479176495
    assert sol.assignment == {"c0": 0, "c1": 2, "c2": 1, "c3": 1, "c4": 2}


@settings(max_examples=40, phases=NO_SHRINK)
@example(inst=_unroutable_instance(), weights=ObjectiveWeights())
@example(inst=_three_cpu_tower(), weights=ObjectiveWeights())
@given(inst=small_instances(), weights=WEIGHTS)
def test_exact_equals_exhaustive_reference(inst, weights):
    """Skipping configurations by their cost floor changes nothing: the same
    optimum (cost, assignment, geometry, links), the same enumeration counts,
    and, where nothing routes, the same unroutable flow. The reference
    enumerates every boundary's matchings, so on three layers it also
    covers middle routers linked both ways."""
    def fast():
        sol = solve_exact(inst, weights)
        return (sol.cost, sol.assignment, sol.floorplans, sol.vlinks,
                sol.placements_visited, sol.configurations_visited)

    assert _outcome(fast) == _outcome(lambda: _exhaustive(inst, weights))


def _four_cpu_chain():
    """Four CPUs on two 28nm layers with a 1 Mb/s bidirectional chain."""
    ids = [f"c{i}" for i in range(4)]
    return make_instance([Component(c, "CPU") for c in ids], chain_flows(ids), ["28nm"] * 2)


@pytest.mark.parametrize("inst, weights", [(_mixed_instance(), ObjectiveWeights(1, 1, 1, 1, 0)),
                                           (_four_cpu_chain(), W)],
                         ids=["mixed without wiring", "four-cpu chain"])
def test_exact_equals_exhaustive_reference_near_the_optimum(inst, weights):
    """On these two instances a floor 1% above the true one would skip the
    optimum: the best cost found before it is within 1% of it. The exact
    skip keeps it."""
    sol = solve_exact(inst, weights)
    assert (sol.cost, sol.assignment, sol.floorplans, sol.vlinks, sol.placements_visited,
            sol.configurations_visited) == _exhaustive(inst, weights)


def _simd_over_three_cpus():
    """Three CPUs and a SIMD on 45nm/28nm/28nm layers, c0 and c1 sending to
    c2, at a 4.3 mm reach and 5 Mb/s links."""
    flows = [Flow("c0", "c2", 122.5), Flow("c0", "c2", 81.8), Flow("c0", "c2", 175.9),
             Flow("c1", "c2", 21.7)]
    kinds = ["CPU", "CPU", "CPU", "SIMD"]
    return make_instance([Component(f"c{i}", kind) for i, kind in enumerate(kinds)],
                         flows, ["45nm", "28nm", "28nm"], default_tech(5.0, rd=4.3))


def _adcs_with_a_simd():
    """A SIMD, two ADCs and a CPU on two 45nm layers with one flow c2 -> c0."""
    kinds = ["SIMD", "ADC", "ADC", "CPU"]
    return make_instance([Component(f"c{i}", kind) for i, kind in enumerate(kinds)],
                         [Flow("c2", "c0", 5.5)], ["45nm", "45nm"], default_tech(rd=7.3))


@pytest.mark.parametrize("inst, weights", [
    (_simd_over_three_cpus(), ObjectiveWeights(3, 1, 1, 0, 1)),
    (_adcs_with_a_simd(), ObjectiveWeights(3, 3, 1, 3, 0.5))],
    ids=["simd over three cpus", "adcs with a simd"])
def test_exact_equals_exhaustive_reference_behind_a_close_incumbent(inst, weights):
    """Visited best first, these two instances meet their optimum's
    assignment (the first) or kind pattern (both) after a cost within 1% of
    it: a bound 1% above the true one would skip the optimum. The exact skip
    keeps it."""
    sol = solve_exact(inst, weights)
    assert (sol.cost, sol.assignment, sol.floorplans, sol.vlinks, sol.placements_visited,
            sol.configurations_visited) == _exhaustive(inst, weights)


@settings(max_examples=40)
@given(inst=small_instances(), weights=WEIGHTS, pick=st.randoms(use_true_random=False))
def test_cost_floor_never_exceeds_cost(inst, weights, pick):
    """The floor solve_exact skips by is below the legalized, routed cost (up
    to rounding: the terms are summed in another order, which the skip's 1e-9
    relative slack absorbs)."""
    configurations = []
    try:
        for config in _configurations(inst):
            configurations.append(config)
    except InstanceTooLargeError:
        pass
    for _assignment, _cells, fps, links, _new in pick.sample(
            configurations, min(20, len(configurations))):
        try:
            cost = evaluate_solution(inst, legalize(inst, fps, links), links,
                                     weights)["total_cost"]
        except UnreachableError:
            continue
        assert cost_floor(inst, fps, links, weights) <= cost * (1.0 + 1e-12)


@settings(max_examples=60)
@given(inst=small_instances(), weights=WEIGHTS, pick=st.randoms(use_true_random=False))
def test_cost_floor_equals_the_site_formula(inst, weights, pick):
    """cost_floor reads router centers through the flat cell indices that
    solve_exact shares; on a drawn placement and link matching it equals, bit
    for bit, the floor summed in the same order from each layer legalized on
    its own and each flow end's center looked up by its (layer, row, col)."""
    comps = sorted(c.id for c in inst.core_graph.components)
    assignment = {c: pick.choice(inst.feasible_layers(c)) for c in comps}
    fps = []
    for l in range(len(inst.layers)):
        members = [c for c in comps if assignment[c] == l]
        cells = pick.sample(range(math.prod(grid_dims(len(members)))), len(members))
        fps.append(_layer_floorplan(inst, l, members, tuple(cells)))
    links = []
    for b in inst.boundaries():
        try:
            cands = candidate_links(fps, b, inst.tech.rd_max_length)
        except NoCandidatesError:
            cands = []
        links += [cands[i] for i in pick.choice(_matchings(cands))]

    kinds = router_kinds(links)
    legal = [legalize_layer(inst, fp, kinds) for fp in fps]
    floor = 0
    for fp in legal:
        power, perf = power_perf_cost(inst, {comp: fp.layer for _cell, comp in
                                             fp.occupied_cells()}, [fp])
        floor += weights.w_area * fp.area + weights.w_power * power + weights.w_perf * perf
    sites = {comp: (fp.layer, r, c) for fp in fps for (r, c), comp in fp.occupied_cells()}
    if weights.w_util:
        for flow in inst.core_graph.flows:
            (xs, ys), (xd, yd) = (legal[layer].cell_center(r, c)
                                  for layer, r, c in (sites[flow.src], sites[flow.dst]))
            floor += weights.w_util * flow.bandwidth * (abs(xs - xd) + abs(ys - yd))
    assert cost_floor(inst, fps, links, weights) == floor


def _waypoint_floor(inst, fps, links, weights):
    """The linked floor's reference: the layers' terms summed as in the site
    formula, plus each flow's weighted shortest path on the waypoint graph,
    where each layer's legalized routers are pairwise joined by their planar
    Manhattan distance and the links join their two routers at theirs."""
    legal = [legalize_layer(inst, fp, router_kinds(links)) for fp in fps]
    floor = 0
    for fp in legal:
        power, perf = power_perf_cost(inst, {comp: fp.layer for _cell, comp in
                                             fp.occupied_cells()}, [fp])
        floor += weights.w_area * fp.area + weights.w_power * power + weights.w_perf * perf
    if not weights.w_util:
        return floor
    at = {(fp.layer, r, c): fp.cell_center(r, c)
          for fp in legal for (r, c), _comp in fp.occupied_cells()}
    planar = {(a, b): abs(at[a][0] - at[b][0]) + abs(at[a][1] - at[b][1]) for a in at for b in at}
    dist = {(a, b): planar[a, b] if a[0] == b[0] else math.inf for a in at for b in at}
    for v in links:
        dist[v.lower, v.upper] = dist[v.upper, v.lower] = planar[v.lower, v.upper]
    for k, a, b in itertools.product(at, repeat=3):  # Floyd-Warshall, k outermost
        dist[a, b] = min(dist[a, b], dist[a, k] + dist[k, b])
    router = {comp: (fp.layer, r, c) for fp in legal for (r, c), comp in fp.occupied_cells()}
    for flow in inst.core_graph.flows:
        floor += weights.w_util * flow.bandwidth * dist[router[flow.src], router[flow.dst]]
    return floor


@settings(max_examples=40, phases=NO_SHRINK)
@example(inst=_three_cpu_tower(), weights=W, pick=None)
@example(inst=_unroutable_instance(), weights=W, pick=None)
@given(inst=small_instances(), weights=WEIGHTS, pick=st.randoms(use_true_random=False))
def test_linked_floor_bounds_the_cost_and_equals_the_waypoint_path(inst, weights, pick):
    """The linked floor solve_exact skips by is below the routed cost (up to
    rounding), inf only where the configuration cannot route, and equal to the
    waypoint graph's shortest paths (_waypoint_floor). The converse of the
    second does not hold: a layer's mesh can be cut, e.g. between cells (0, 0)
    and (1, 1) of a 2x2 grid. The explicit examples check every configuration:
    on the tower, some chains cross both boundaries."""
    configurations = []
    try:
        for config in _configurations(inst):
            configurations.append(config)
    except InstanceTooLargeError:
        pass
    if pick is not None:
        configurations = pick.sample(configurations, min(20, len(configurations)))
    for _assignment, _cells, fps, links, _new in configurations:
        floor = linked_cost_floor(inst, fps, links, weights)
        assert floor == pytest.approx(_waypoint_floor(inst, fps, links, weights), rel=1e-12)
        try:
            cost = evaluate_solution(inst, legalize(inst, fps, links), links,
                                     weights)["total_cost"]
        except UnreachableError:
            continue
        assert floor <= cost * (1.0 + 1e-12)  # so an inf floor never routes


@settings(max_examples=40, phases=NO_SHRINK)
@example(inst=_three_cpu_tower(), weights=W, pick=None)
@example(inst=_mixed_instance(), weights=W, pick=None)
@given(inst=small_instances(), weights=WEIGHTS, pick=st.randoms(use_true_random=False))
def test_pattern_bound_never_exceeds_its_configurations(inst, weights, pick):
    """The bound solve_exact skips a kind pattern by (pattern_floor of the
    assignment's first placement with that pattern) is below the linked floor
    of every configuration of every placement with that pattern (up to the
    order power is summed in), and so below its routed cost. The explicit
    examples check every configuration."""
    configurations = []
    try:
        for config in _configurations(inst):
            configurations.append(config)
    except InstanceTooLargeError:
        pass
    first = {}  # (assignment, kind grids) -> the first placement's floorplans
    for assignment, _cells, fps, _links, _new in configurations:
        first.setdefault((tuple(sorted(assignment.items())),
                          tuple(_kind_grid(inst, fp) for fp in fps)), fps)
    if pick is not None:
        configurations = pick.sample(configurations, min(20, len(configurations)))
    bounds = {}
    for assignment, _cells, fps, links, _new in configurations:
        pattern = (tuple(sorted(assignment.items())), tuple(_kind_grid(inst, fp) for fp in fps))
        if pattern not in bounds:
            bounds[pattern] = pattern_floor(inst, first[pattern], weights)
        floor = linked_cost_floor(inst, fps, links, weights)
        assert bounds[pattern] <= floor * (1.0 + 1e-12)
        if first[pattern] is fps:
            assert bounds[pattern] <= floor
        try:
            cost = evaluate_solution(inst, legalize(inst, fps, links), links,
                                     weights)["total_cost"]
        except UnreachableError:
            continue
        assert bounds[pattern] <= cost * (1.0 + 1e-12)


def test_linked_floor_routes_fewer_configurations(monkeypatch):
    """On tiny_soc, of 5,520 configurations the linked floor leaves 26 to
    route, against 62 under the cost floor and the pattern bound alone; the
    optimum stays."""
    inst = tiny_soc()
    routed = []

    def counted(*args):
        routed.append(args)
        return legalize(*args)

    monkeypatch.setattr(exact, "legalize", counted)
    sol = solve_exact(inst, W)
    assert len(routed) == 26
    assert sol.cost == 245.98884748530335
    assert sol.placements_visited == 2640


def _six_cpus():
    """Six CPUs on two 28nm layers with a five-flow chain: its enumeration
    is exactly MAX_PLACEMENTS placements, the largest admitted, which
    small_instances does not draw."""
    comps = [Component(f"c{i}", "CPU") for i in range(6)]
    flows = [Flow(f"c{i}", f"c{i + 1}", 10.0 * (i + 1)) for i in range(5)]
    return make_instance(comps, flows, ["28nm", "28nm"], default_tech())


@settings(max_examples=25)
@example(inst=_six_cpus(), weights=ObjectiveWeights(), seed=1)
@given(inst=small_instances(), weights=WEIGHTS, seed=st.integers(0, 2**32))
def test_pipeline_never_beats_exact(inst, weights, seed):
    """The exact oracle's optimum is a lower bound for the heuristic on
    generated instances within the limits, and on six components."""
    try:
        exact = solve_exact(inst, weights).cost
    except MeshstackError:
        assume(False)
    config = PipelineConfig(weights=weights, seed=seed, sa_floorplan=SaTriple(20.0, 20, 0.9),
                            sa_vlink=SaTriple(100.0, 10, 0.9))
    try:
        heuristic = run_pipeline(inst, config).metrics["total_cost"]
    except MeshstackError:
        assume(False)
    assert heuristic >= exact - 1e-9
