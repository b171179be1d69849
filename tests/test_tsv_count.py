"""TSV count selection: formula examples, placement enumeration, conservation."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshstack import tsv_count
from meshstack.errors import TooManyArraysError
from meshstack.model import Component, CoreGraph, Flow, ObjectiveWeights
from meshstack.tsv_count import (
    ArrayEstimate,
    c3_value,
    choose_count,
    cross_boundary_traffic,
    estimate_arrays,
)

from conftest import make_fp

W = ObjectiveWeights()


def two_layer_grids(flows, lower_cells, upper_cells, cell=6.0):
    comps = sorted({f.src for f in flows} | {f.dst for f in flows}
                   | {c for row in lower_cells for c in row if c}
                   | {c for row in upper_cells for c in row if c})
    cg = CoreGraph(components=tuple(Component(c, "CPU") for c in comps),
                   flows=tuple(flows))
    fps = [
        make_fp(0, lower_cells, [cell] * len(lower_cells[0]), [cell] * len(lower_cells)),
        make_fp(1, upper_cells, [cell] * len(upper_cells[0]), [cell] * len(upper_cells)),
    ]
    return cg, fps


def test_no_cross_traffic_needs_no_arrays():
    cg, fps = two_layer_grids([Flow("a", "b", 5.0)],
                              [["a", "b"]], [["c", None]])
    choice = choose_count(fps, 0, cg, koz_area=2.0, weights=W, max_i=2)
    assert choice.count == 0
    assert choice.c3_by_count == {0: 0.0}


def test_c3_formula_direct():
    # one 10 Mb/s flow, both endpoints 3 mm from the single array:
    # C3 = 1*K + (10+10) * 3 = 2 + 60 = 62
    estimates = [ArrayEstimate(bandwidth=20.0, distance=3.0)]
    assert c3_value(estimates, koz_area=2.0, weights=W) == pytest.approx(62.0)


def test_estimate_geometry_weighted_mean():
    # upper comp sits on the array (0 mm), lower comp 3 mm away:
    # b = 20, d = (10*3 + 10*0)/20 = 1.5
    flows = [Flow("lo", "hi", 10.0)]
    cg = CoreGraph(components=(Component("lo", "CPU"), Component("hi", "CPU")),
                   flows=tuple(flows))
    fps = [make_fp(0, [["lo"]], [8.0], [8.0]),     # center (4, 4)
           make_fp(1, [["hi"]], [5.0], [5.0])]     # center (2.5, 2.5), the array|
    est = estimate_arrays(fps, 0, cg, i=1)
    assert len(est) == 1
    assert est[0].bandwidth == pytest.approx(20.0)
    assert est[0].distance == pytest.approx(1.5)


def test_conservation_per_trial():
    flows = [Flow("a", "x", 7.0), Flow("y", "b", 11.0), Flow("a", "b", 2.0)]
    cg, fps = two_layer_grids(flows, [["a", "b"]], [["x", "y"]])
    total = sum(bw for bw in
                cross_boundary_traffic(cg, {"a": 0, "b": 0, "x": 1, "y": 1}, 0).values())
    assert total == pytest.approx((7.0 + 11.0) * 2)  # both endpoints count
    for i in (1, 2):
        est = estimate_arrays(fps, 0, cg, i=i)
        assert sum(e.bandwidth for e in est) == pytest.approx(total)


def test_choose_count_matches_direct_argmin():
    flows = [Flow("a", "x", 30.0), Flow("b", "y", 30.0),
             Flow("c", "z", 30.0), Flow("d", "w", 30.0)]
    cg, fps = two_layer_grids(flows, [["a", "b"], ["c", "d"]],
                              [["x", "y"], ["z", "w"]])
    choice = choose_count(fps, 0, cg, koz_area=2.0, weights=W, max_i=4)
    direct = {}
    for i in range(1, 5):
        est = estimate_arrays(fps, 0, cg, i)
        direct[i] = c3_value(est, 2.0, W)
    best = min(direct, key=lambda i: (direct[i], i))
    assert choice.count == best
    assert choice.c3_by_count == pytest.approx(direct)
    # C3(i) >= i*K: the wiring term is nonnegative
    assert all(v >= i * 2.0 - 1e-12 for i, v in choice.c3_by_count.items())


def test_sampled_estimate_near_subset_oracle():
    """Exhaustive placement oracle: average the wiring term over all C(4, i)
    array subsets; the exact expectation matches it to rounding."""
    flows = [Flow("a", "x", 30.0), Flow("b", "y", 30.0),
             Flow("c", "z", 30.0), Flow("d", "w", 30.0)]
    cg, fps = two_layer_grids(flows, [["a", "b"], ["c", "d"]],
                              [["x", "y"], ["z", "w"]])
    upper = fps[1]
    layer_of = {c.id: (0 if c.id in "abcd" else 1) for c in cg.components}
    traffic = cross_boundary_traffic(cg, layer_of, 0)
    positions = {comp: fp.cell_center(r, c)
                 for fp in fps for (r, c), comp in fp.occupied_cells()}
    cells = [(r, c) for r in range(2) for c in range(2)]

    for i in (1, 2, 3):
        wiring_values = []
        for subset in itertools.combinations(cells, i):
            spots = [upper.cell_center(r, c) for r, c in subset]
            wiring = 0.0
            for comp, bw in traffic.items():
                px, py = positions[comp]
                wiring += bw * min(abs(px - ax) + abs(py - ay) for ax, ay in spots)
            wiring_values.append(wiring)
        oracle = 2.0 * i + sum(wiring_values) / len(wiring_values)
        est = estimate_arrays(fps, 0, cg, i)
        sampled = c3_value(est, 2.0, W)
        assert sampled == pytest.approx(oracle, rel=1e-9)


def test_koz_term_monotone_and_wiring_shrinks():
    flows = [Flow("a", "x", 30.0), Flow("b", "y", 30.0),
             Flow("c", "z", 30.0), Flow("d", "w", 30.0)]
    cg, fps = two_layer_grids(flows, [["a", "b"], ["c", "d"]],
                              [["x", "y"], ["z", "w"]])
    wiring = []
    for i in (1, 2, 3, 4):
        est = estimate_arrays(fps, 0, cg, i)
        wiring.append(sum(e.bandwidth * e.distance for e in est))
    # more arrays can only bring the nearest one closer, so the expected
    # wiring term is non-increasing in i
    assert all(a >= b - 1e-9 for a, b in zip(wiring, wiring[1:]))


def test_determinism_and_too_many_arrays():
    flows = [Flow("a", "x", 30.0)]
    cg, fps = two_layer_grids(flows, [["a", None]], [["x", None]])
    e1 = estimate_arrays(fps, 0, cg, 2)
    e2 = estimate_arrays(fps, 0, cg, 2)
    assert e1 == e2
    with pytest.raises(TooManyArraysError):
        estimate_arrays(fps, 0, cg, 3)


def enumerated_arrays(fps, boundary, cg, i):
    """Per-array (b_j, d_j) averaged over every C(N, i) placement: arrays
    ranked by position; each component scans them in that order and moves to
    an array only when it is nearer by more than 1e-12."""
    upper = fps[boundary + 1]
    cells = [(r, c) for r in range(upper.rows) for c in range(upper.cols)]
    layer_of = {comp: fp.layer for fp in fps for _cell, comp in fp.occupied_cells()}
    traffic = cross_boundary_traffic(cg, layer_of, boundary)
    positions = {comp: fp.cell_center(r, c)
                 for fp in fps for (r, c), comp in fp.occupied_cells()}
    acc_b, acc_wd = [0.0] * i, [0.0] * i
    for chosen in itertools.combinations(cells, i):
        spots = sorted(upper.cell_center(r, c) for r, c in chosen)
        for comp, bw in traffic.items():
            px, py = positions[comp]
            best_j, best_dist = 0, None
            for j, (ax, ay) in enumerate(spots):
                dist = abs(px - ax) + abs(py - ay)
                if best_dist is None or dist < best_dist - 1e-12:
                    best_j, best_dist = j, dist
            acc_b[best_j] += bw
            acc_wd[best_j] += bw * best_dist
    placements = math.comb(len(cells), i)
    return [ArrayEstimate(b / placements, wd / b if b > 0 else 0.0)
            for b, wd in zip(acc_b, acc_wd)]


@st.composite
def small_two_layer_grids(draw):
    """Two layers of at most 3x3 cells with one cell size per axis, so that
    many approach distances tie (up to float rounding)."""
    size = st.sampled_from([0.1, 0.3, 1.1, 2.7, 6.0])
    layers = []
    for layer in (0, 1):
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        width, height = draw(size), draw(size)
        layers.append((layer, rows, cols, width, height))
    slots = [(layer, r, c) for layer, rows, cols, _w, _h in layers
             for r in range(rows) for c in range(cols)]
    taken = draw(st.lists(st.sampled_from(slots), min_size=2, max_size=len(slots),
                          unique=True))
    names = {slot: f"c{n}" for n, slot in enumerate(taken)}
    fps = [make_fp(layer, [[names.get((layer, r, c)) for c in range(cols)]
                           for r in range(rows)], [width] * cols, [height] * rows)
           for layer, rows, cols, width, height in layers]
    comps = sorted(names.values())
    flows = draw(st.lists(st.tuples(st.sampled_from(comps), st.sampled_from(comps),
                                    st.sampled_from([1.0, 2.5, 7.0])),
                          min_size=1, max_size=6).filter(
        lambda fl: all(a != b for a, b, _bw in fl)))
    cg = CoreGraph(components=tuple(Component(c, "CPU") for c in comps),
                   flows=tuple(Flow(a, b, bw) for a, b, bw in flows))
    return cg, fps


@settings(max_examples=100)
@given(grids=small_two_layer_grids())
def test_exact_estimate_matches_placement_enumeration(grids):
    cg, fps = grids
    for i in range(1, fps[1].rows * fps[1].cols + 1):
        exact = estimate_arrays(fps, 0, cg, i)
        enumerated = enumerated_arrays(fps, 0, cg, i)
        assert len(exact) == i
        for got, want in zip(exact, enumerated):
            assert got.bandwidth == pytest.approx(want.bandwidth, rel=1e-9, abs=1e-12)
            assert got.distance == pytest.approx(want.distance, rel=1e-9, abs=1e-12)
        assert (sum(e.bandwidth * e.distance for e in exact)
                == pytest.approx(sum(e.bandwidth * e.distance for e in enumerated),
                                 rel=1e-9, abs=1e-12))


def raised(call, *args, **kwargs) -> str:
    with pytest.raises(TooManyArraysError) as exc:
        call(*args, **kwargs)
    return str(exc.value)


@settings(max_examples=100)
@given(grids=small_two_layer_grids(), koz_area=st.sampled_from([0.0, 0.5, 2.0, 20.0]),
       w_util=st.sampled_from([0.0, 1.0]))
def test_curve_equals_each_estimate(grids, koz_area, w_util):
    """choose_count's curve is, bit for bit, c3_value of estimate_arrays at
    each count alone; the argmin goes to the smaller count on ties (a zero
    KOZ area and wiring weight tie every count); and out-of-range counts
    raise with the same messages either way."""
    cg, fps = grids
    weights = ObjectiveWeights(w_util=w_util)
    n = fps[1].rows * fps[1].cols
    choice = choose_count(fps, 0, cg, koz_area, weights, max_i=n)
    if choice.count:
        assert list(choice.c3_by_count) == list(range(1, n + 1))
        for i, c3 in choice.c3_by_count.items():
            assert c3 == c3_value(estimate_arrays(fps, 0, cg, i), koz_area, weights)
        assert choice.count == min(choice.c3_by_count,
                                   key=lambda i: (choice.c3_by_count[i], i))
        for max_i in (0, -1):
            assert (raised(choose_count, fps, 0, cg, koz_area, weights, max_i=max_i)
                    == "max_i must be >= 1 for a boundary with traffic")
        assert (raised(choose_count, fps, 0, cg, koz_area, weights, max_i=n + 1)
                == f"{n + 1} arrays requested but the upper grid has only {n} cells")
    else:
        assert choice.c3_by_count == {0: 0.0}
    assert (raised(estimate_arrays, fps, 0, cg, n + 1)
            == f"{n + 1} arrays requested but the upper grid has only {n} cells")
    for i in (0, -2):
        assert raised(estimate_arrays, fps, 0, cg, i) == f"array count must be >= 1, got {i}"
    # boundary 1 has no upper layer: the count is checked before it is looked up
    assert raised(estimate_arrays, fps, 1, cg, 0) == "array count must be >= 1, got 0"


def reference_estimates(fps, boundary, traffic, counts):
    """_estimates as it computed each rank probability inside its per-term
    loop, before the probabilities went into a table: the reference the
    table must match bit for bit."""
    upper = next(fp for fp in fps if fp.layer == boundary + 1)
    spots = sorted(upper.cell_center(r, c) for r in range(upper.rows) for c in range(upper.cols))
    n = len(spots)
    positions = tsv_count._component_positions(fps)
    acc = {i: ([0.0] * i, [0.0] * i) for i in counts}
    for comp in sorted(traffic):
        px, py = positions[comp]
        dist = [abs(px - ax) + abs(py - ay) for ax, ay in spots]
        ties, lead = [], -1.0
        for p in sorted(range(n), key=dist.__getitem__):
            lead = dist[p] if dist[p] > lead + 1e-12 else lead
            ties.append((lead, p))
        order = [p for _lead, p in sorted(ties)]
        earlier = [sum(1 for q in order[k + 1:] if q < p) for k, p in enumerate(order)]
        for i, (acc_b, acc_wd) in acc.items():
            placements = math.comb(n, i)
            for k, p in enumerate(order[:n - i + 1]):
                m = earlier[k]
                for j in range(min(m, i - 1) + 1):
                    w = (math.comb(m, j) * math.comb(n - k - 1 - m, i - 1 - j) / placements
                         * traffic[comp])
                    acc_b[j] += w
                    acc_wd[j] += w * dist[p]
    return {i: [ArrayEstimate(b, wd / b if b > 0 else 0.0) for b, wd in zip(acc_b, acc_wd)]
            for i, (acc_b, acc_wd) in acc.items()}


@settings(max_examples=100)
@given(grids=small_two_layer_grids())
def test_rank_probability_table_changes_no_bit(grids):
    """Every count up to the grid size, all in one call (which shares the
    table) and each alone."""
    cg, fps = grids
    traffic = cross_boundary_traffic(cg, tsv_count._layer_of(fps), 0)
    if not traffic:
        return
    counts = range(1, fps[1].rows * fps[1].cols + 1)
    assert tsv_count._estimates(fps, 0, traffic, counts) == reference_estimates(
        fps, 0, traffic, counts)
    for i in counts:
        assert tsv_count._estimates(fps, 0, traffic, [i]) == reference_estimates(
            fps, 0, traffic, [i])
