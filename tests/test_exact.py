"""Exact baseline: trivial costs, hand enumeration, counting invariants."""

from __future__ import annotations

import gc
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from meshstack import exact
from meshstack.cli import main
from meshstack.corpus import case_study_ppa, tiny_soc
from meshstack.errors import (InstanceTooLargeError, MeshstackError, NoCandidatesError,
                              UnreachableError)
from meshstack.exact import (MAX_VCANDS, _layer_floorplan, _matchings, cost_floor,
                             enumeration_estimate, solve_exact)
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
    instance_violations,
    save_instance,
    validate_instance,
)
from meshstack.objective import evaluate_solution
from meshstack.pipeline import PipelineConfig, SaTriple, run_pipeline
from meshstack.vlink import candidate_links

from conftest import default_tech, make_instance

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
    with pytest.raises(InstanceTooLargeError, match="MAX_COMPONENTS"):
        solve_exact(inst, W)
    inst3 = make_instance(comps[:2], [], ["28nm", "28nm", "28nm"])
    with pytest.raises(InstanceTooLargeError, match="MAX_LAYERS"):
        solve_exact(inst3, W)


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
    pattern's link candidates, a new floor key's terms or a routed
    configuration. On tiny_soc that is at most one _layer_floorplan call per
    layer for each of those, and fewer than 200 calls in all against the
    2,912 layer cell changes, each of which was once placed."""
    inst = tiny_soc()
    calls, patterns, floor_keys, routed = [], [], [], []

    def counted(log, fn):
        def wrapped(*args):
            log.append(args)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(exact, "_layer_floorplan", counted(calls, exact._layer_floorplan))
    monkeypatch.setattr(exact, "_link_configurations",
                        counted(patterns, exact._link_configurations))
    monkeypatch.setattr(exact, "_layer_floor", counted(floor_keys, exact._layer_floor))
    monkeypatch.setattr(exact, "legalize", counted(routed, exact.legalize))
    sol = solve_exact(inst, W)

    layers = len(inst.layers)
    assert len(calls) <= layers * len(patterns) + len(floor_keys) + layers * len(routed)
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
    Floors start once a configuration has routed, so they are the last ones
    of the enumeration; about 200 evenly spaced ones are checked."""
    floors = []

    def recorded(*args):
        floors.append(shared(*args))
        return floors[-1]

    shared = exact._floor
    monkeypatch.setattr(exact, "_floor", recorded)
    solve_exact(inst, W)
    monkeypatch.undo()
    configurations = list(_configurations(inst))[-len(floors):]
    assert len(floors) > 200
    for i in range(0, len(floors), len(floors) // 200):
        _assignment, _cells, fps, links, _new = configurations[i]
        assert floors[i] == pytest.approx(cost_floor(inst, fps, links, W), rel=1e-12)


def test_candidates_once_per_kind_grid_pair(monkeypatch):
    """Vertical-link candidates depend only on the two layers' kind grids: on
    tiny_soc, candidate_links runs once per distinct pair of kind grids over
    all placements, not once per placement."""
    inst = tiny_soc()
    calls = []

    def counted(floorplans, boundary, reach):
        calls.append(tuple(_kind_grid(inst, fp) for fp in floorplans))
        return candidate_links(floorplans, boundary, reach)

    monkeypatch.setattr(exact, "candidate_links", counted)
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
    """Case-study components, random flows, 1-2 layers, reach 0-10 mm."""
    kinds = draw(st.lists(st.sampled_from(["CPU", "ADC", "SIMD"]), min_size=2,
                          max_size=5))
    comps = tuple(Component(f"c{i}", kind) for i, kind in enumerate(kinds))
    ends = st.lists(st.sampled_from([c.id for c in comps]), min_size=2, max_size=2,
                    unique=True)
    flows = tuple(Flow(a, b, bw) for (a, b), bw in draw(
        st.lists(st.tuples(ends, st.floats(0.1, 200.0)), max_size=6)))
    nodes = draw(st.lists(st.sampled_from(["28nm", "45nm"]), min_size=1, max_size=2))
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


@settings(max_examples=40)
@example(inst=_unroutable_instance(), weights=ObjectiveWeights())
@given(inst=small_instances(), weights=WEIGHTS)
def test_exact_equals_exhaustive_reference(inst, weights):
    """Skipping configurations by their cost floor changes nothing: the same
    optimum (cost, assignment, geometry, links), the same enumeration counts,
    and, where nothing routes, the same unroutable flow."""
    def fast():
        sol = solve_exact(inst, weights)
        return (sol.cost, sol.assignment, sol.floorplans, sol.vlinks,
                sol.placements_visited, sol.configurations_visited)

    assert _outcome(fast) == _outcome(lambda: _exhaustive(inst, weights))


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


def _six_cpus():
    """Six CPUs on two 28nm layers with a five-flow chain: the largest
    instance MAX_COMPONENTS admits, which small_instances does not draw."""
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
