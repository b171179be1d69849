"""Vertical-link candidates and placement SA: brute-force subset oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from meshstack import netgraph, vlink
from meshstack.anneal import SaParams
from meshstack.errors import InsufficientCandidatesError, NoCandidatesError
from meshstack.exact import _matchings
from meshstack.model import Component, CoreGraph, Flow, ObjectiveWeights, VerticalLink
from meshstack.netgraph import build_network, route_all
from meshstack.vlink import _initial_selection, candidate_links, max_matching_size, place_vlinks

from conftest import make_fp, make_instance

SA = SaParams(initial_temp=100.0, iterations=50, cooling=0.97, seed=17)
W = ObjectiveWeights()


def stacked_instance(flows, lower_cells, upper_cells, cell=6.0):
    ids = sorted({c for row in lower_cells + upper_cells for c in row if c})
    inst = make_instance([Component(i, "CPU") for i in ids], flows, ["28nm", "28nm"])
    fps = [
        make_fp(0, lower_cells, [cell] * len(lower_cells[0]), [cell] * len(lower_cells)),
        make_fp(1, upper_cells, [cell] * len(upper_cells[0]), [cell] * len(upper_cells)),
    ]
    return inst, fps


def test_candidates_within_reach_only():
    inst, fps = stacked_instance([], [["a", "b"]], [["c", "d"]])
    cands = candidate_links(fps, 0, reach=0.0)
    assert len(cands) == 2
    assert all(v.rd_length == 0.0 for v in cands)
    cands5 = candidate_links(fps, 0, reach=6.0)
    assert len(cands5) == 4
    assert all(v.rd_length <= 6.0 + 1e-9 for v in cands5)
    # nested reaches give nested candidate sets
    assert {(v.lower, v.upper) for v in cands} <= {(v.lower, v.upper) for v in cands5}


def test_no_candidates_suggests_reach():
    inst, fps = stacked_instance([], [["a", None]], [[None, "b"]])
    with pytest.raises(NoCandidatesError) as err:
        candidate_links(fps, 0, reach=1.0)
    assert "6.000" in str(err.value)  # the smallest feasible reach is named


def test_matching_limit():
    inst, fps = stacked_instance([], [["a", "b"]], [["c", None]])
    cands = candidate_links(fps, 0, reach=20.0)
    assert len(cands) == 2          # both lower routers can reach the single upper
    assert max_matching_size(cands) == 1


def test_forced_selection_returned_unchanged():
    inst, fps = stacked_instance([Flow("a", "c", 5.0)], [["a"]], [["c"]])
    links, _cost = place_vlinks(inst, fps, {0: 1}, W, SA)
    assert len(links) == 1
    assert links[0].lower == (0, 0, 0) and links[0].upper == (1, 0, 0)


def test_two_candidate_bruteforce():
    # flow a(cell 0, lower) -> c(cell 0, upper); candidates directly above the
    # source and two cells away must resolve to the near one
    inst, fps = stacked_instance([Flow("a", "c", 10.0)],
                                 [["a", None, "b"]], [["c", None, "d"]])
    cands = candidate_links(fps, 0, reach=0.5)
    assert len(cands) == 2  # stacked pairs at columns 0 and 2
    links, cost = place_vlinks(inst, fps, {0: 1}, W, SA)
    assert len(links) == 1

    # exhaustive check of both single-link subsets
    costs = {}
    for v in cands:
        net = build_network(fps, [v])
        te = route_all(net, inst.core_graph, inst.tech.link_capacity)
        costs[(v.lower, v.upper)] = (W.w_util * te.bw_times_distance
                                     + W.w_peak * te.peak_penalty)
    best = min(costs, key=lambda k: costs[k])
    assert (links[0].lower, links[0].upper) == best
    assert best == ((0, 0, 0), (1, 0, 0))
    assert cost == costs[best]  # the annealer returns the cost it priced


def test_cardinality_preserved():
    ids_l = [["a", "b"], ["e", "f"]]
    ids_u = [["c", "d"], ["g", "h"]]
    flows = [Flow("a", "c", 10.0), Flow("b", "h", 10.0), Flow("e", "d", 4.0)]
    inst, fps = stacked_instance(flows, ids_l, ids_u)
    for count in (1, 2, 3):
        links, _cost = place_vlinks(inst, fps, {0: count}, W, SA)
        assert len(links) == count
        assert len({v.lower for v in links}) == count
        assert len({v.upper for v in links}) == count
        assert all(v.rd_length <= inst.tech.rd_max_length + 1e-9 for v in links)


def test_insufficient_candidates():
    inst, fps = stacked_instance([Flow("a", "c", 1.0)], [["a"]], [["c"]])
    with pytest.raises(InsufficientCandidatesError):
        place_vlinks(inst, fps, {0: 2}, W, SA)


def exhaustive_best(inst, fps, cands, count):
    best = None
    for subset in itertools.combinations(cands, count):
        lowers = {v.lower for v in subset}
        uppers = {v.upper for v in subset}
        if len(lowers) < count or len(uppers) < count:
            continue
        net = build_network(fps, list(subset))
        try:
            te = route_all(net, inst.core_graph, inst.tech.link_capacity)
        except Exception:
            continue
        cost = W.w_util * te.bw_times_distance + W.w_peak * te.peak_penalty
        if best is None or cost < best:
            best = cost
    return best


def test_nested_reach_improves_exhaustive_optimum():
    flows = [Flow("a", "d", 10.0), Flow("b", "c", 10.0)]
    inst, fps = stacked_instance(flows, [["a", "b"]], [["c", "d"]])
    for count in (1, 2):
        small = exhaustive_best(inst, fps, candidate_links(fps, 0, 0.5), count)
        large = exhaustive_best(inst, fps, candidate_links(fps, 0, 10.0), count)
        assert large <= small + 1e-9


def _random_candidates(rng):
    """Up to 8 distinct lower/upper router pairs on small grids, in the
    (rd_length, lower, upper) order candidate_links produces."""
    lowers = [(0, r, c) for r in range(2) for c in range(rng.randint(1, 3))]
    uppers = [(1, r, c) for r in range(2) for c in range(rng.randint(1, 3))]
    pairs = rng.sample([(lo, up) for lo in lowers for up in uppers],
                       rng.randint(1, min(8, len(lowers) * len(uppers))))
    cands = [VerticalLink(lo, up, rd_length=float(rng.randint(0, 3))) for lo, up in pairs]
    cands.sort(key=lambda v: (v.rd_length, v.lower, v.upper))
    positions = {key: (rng.uniform(0, 10), rng.uniform(0, 10))
                 for key in lowers + uppers}
    return cands, positions


def test_matching_size_matches_enumeration_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        cands, _positions = _random_candidates(rng)
        assert max_matching_size(cands) == max(len(m) for m in _matchings(cands))


def test_initial_selection_is_a_matching_of_count(monkeypatch):
    fallbacks = []
    matching = vlink._matching

    def spy(candidates):
        fallbacks.append(len(candidates))
        return matching(candidates)

    monkeypatch.setattr(vlink, "_matching", spy)
    rng = random.Random(7)
    completed = 0  # selections where the greedy pass blocked
    for _ in range(200):
        cands, _positions = _random_candidates(rng)
        most = max(len(m) for m in _matchings(cands))
        for count in range(1, most + 1):
            calls = len(fallbacks)
            sel = _initial_selection(cands, count)
            completed += len(fallbacks) > calls
            assert len(sel) == count == len(set(sel))
            assert len({cands[i].lower for i in sel}) == count
            assert len({cands[i].upper for i in sel}) == count
        with pytest.raises(InsufficientCandidatesError):
            _initial_selection(cands, most + 1)
    assert completed > 0


# a 3x3 stack with six flows from six sources; four links out of its nine
# stacked pairs and more
STACK_FLOWS = [Flow("a", "r", 10.0), Flow("c", "p", 8.0), Flow("e", "j", 6.0),
               Flow("i", "k", 4.0), Flow("q", "d", 5.0), Flow("n", "b", 3.0)]
STACK_LOWER = [["a", "b", "c"], ["d", "e", "f"], ["g", "h", "i"]]
STACK_UPPER = [["j", "k", "l"], ["m", "n", "o"], ["p", "q", "r"]]


def spy_on_pricings(monkeypatch, routed):
    """Record each selection that place_vlinks' pricer prices in `routed`."""
    pricer = vlink.selection_pricer

    def spy_pricer(*args):
        price = pricer(*args)

        def spy_price(links):
            routed.append(tuple((v.lower, v.upper) for v in links))
            return price(links)
        return spy_price

    monkeypatch.setattr(vlink, "selection_pricer", spy_pricer)


def test_each_selection_is_routed_once(monkeypatch):
    # the annealer proposes no-ops and undoes swaps, so it prices some states
    # more than once
    inst, fps = stacked_instance(STACK_FLOWS, STACK_LOWER, STACK_UPPER)
    routed = []
    spy_on_pricings(monkeypatch, routed)
    pricings = []
    anneal = vlink.anneal

    def spy_anneal(initial, neighbor, cost, params):
        def counted(state):
            pricings.append(state)
            return cost(state)
        return anneal(initial, neighbor, counted, params)

    monkeypatch.setattr(vlink, "anneal", spy_anneal)
    first = place_vlinks(inst, fps, {0: 4}, W, SA)
    assert routed and len(routed) == len(set(routed))
    assert len(set(pricings)) < len(pricings)
    assert place_vlinks(inst, fps, {0: 4}, W, SA) == first


def test_most_searches_resume_from_an_earlier_selection(monkeypatch):
    """Each proposal is one swap away from a state already priced, so fewer
    than half of the (source, selection) searches start from scratch; the
    others share or resume a tree of an earlier selection."""
    inst, fps = stacked_instance(STACK_FLOWS, STACK_LOWER, STACK_UPPER)
    unspied = place_vlinks(inst, fps, {0: 4}, W, SA)
    routed, prefixes = [], []
    spy_on_pricings(monkeypatch, routed)
    search = netgraph._Search

    def spy_search(adjacency, src, prefix=None):
        prefixes.append(prefix)
        return search(adjacency, src, prefix)

    monkeypatch.setattr(netgraph, "_Search", spy_search)
    assert place_vlinks(inst, fps, {0: 4}, W, SA) == unspied
    searches = len(set(routed)) * len({flow.src for flow in STACK_FLOWS})
    fresh = sum(prefix is None for prefix in prefixes)
    assert 0 < fresh < searches / 2
