"""Area-kernel oracles: closed-form cells, relaxation ordering, feasibility."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.optimize import nnls

from meshstack.area_kernel import (_certify, _check_demands, _interior_point, _log_problem,
                                   min_area_exact, min_area_lp, repair_heights, sorted_grid)
from meshstack.errors import InvalidParamsError


def cell_products_feasible(demands, widths, heights, slack=1e-9):
    for r, row in enumerate(demands):
        for c, a in enumerate(row):
            if a > 0 and widths[c] * heights[r] < a - slack:
                return False
    return True


def test_single_cell_closed_form():
    # one cell of 35.8 -> square sqrt(a) x sqrt(a), area exactly a
    res = min_area_exact([[35.8]])
    assert res.area == pytest.approx(35.8, rel=1e-9)
    assert res.col_widths[0] * res.row_heights[0] >= 35.8 - 1e-9
    lp = min_area_lp([[35.8]])
    assert lp.area <= 35.8 + 1e-9  # relaxation never exceeds the true optimum
    assert lp.area >= 0.9 * 35.8


def test_empty_grid():
    assert min_area_lp([[0.0, 0.0]]).area == 0.0
    res = min_area_exact([[0.0], [0.0]])
    assert res.area == 0.0
    assert res.col_widths == (0.0,)
    assert res.row_heights == (0.0, 0.0)


def test_single_row_sums_exactly():
    # 1x2 demands {4, 9}: (W1 + W2) * H = 4 + 9 = 13 for any feasible H
    res = min_area_exact([[4.0, 9.0]])
    assert res.area == pytest.approx(13.0, rel=1e-9)


def test_uniform_2x2():
    res = min_area_exact([[4.0, 4.0], [4.0, 4.0]])
    assert res.area == pytest.approx(16.0, rel=1e-9)


def test_negative_demand_rejected():
    with pytest.raises(InvalidParamsError):
        min_area_lp([[1.0, -2.0]])


def test_known_kink_instance():
    # cross demands: the optimum is symmetric, 4 * 100 = 400, whatever the
    # (ignored) starting widths
    demands = [[1.0, 100.0], [100.0, 1.0]]
    res = min_area_exact(demands, init_widths=[1.0, 2.0])
    assert res.area == pytest.approx(400.0, rel=1e-6)


def test_nonconvergence_flag():
    # a starved iteration budget must surface, not loop forever
    demands = [[1.0, 100.0, 3.0], [100.0, 1.0, 40.0]]
    res = min_area_exact(demands, init_widths=[1.0, 7.0, 2.0], max_iters=1)
    assert res.converged is False
    assert cell_products_feasible(demands, res.col_widths, res.row_heights)
    full = min_area_exact(demands, init_widths=[1.0, 7.0, 2.0])
    assert full.converged is True
    assert full.area <= res.area + 1e-9  # extra iterations never hurt


def random_grid(rng, max_dim=4, max_demand=60.0, fill=0.8):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.uniform(0.5, max_demand) if rng.random() < fill else 0.0
             for _ in range(cols)] for _ in range(rows)]


def test_exact_beats_repaired_lp_and_packing_bound():
    rng = random.Random(4242)
    for _ in range(200):
        demands = random_grid(rng)
        total = sum(sum(row) for row in demands)
        lp = min_area_lp(demands)
        repaired = repair_heights(demands, lp.col_widths)
        exact = min_area_exact(demands, init_widths=lp.col_widths)
        assert cell_products_feasible(demands, repaired.col_widths, repaired.row_heights)
        assert cell_products_feasible(demands, exact.col_widths, exact.row_heights)
        assert exact.area <= repaired.area * (1 + 1e-6)
        assert exact.area >= total - 1e-6 * max(total, 1.0)
        assert repaired.area >= total - 1e-6 * max(total, 1.0)


def test_monotone_in_demands():
    rng = random.Random(777)
    for _ in range(120):
        demands = random_grid(rng, max_dim=3)
        base = min_area_exact(demands).area
        r = rng.randrange(len(demands))
        c = rng.randrange(len(demands[0]))
        bumped = [row[:] for row in demands]
        bumped[r][c] += rng.uniform(0.5, 20.0)
        assert min_area_exact(bumped).area >= base - 1e-7 * max(base, 1.0)


def test_lp_geometry_feasible_after_one_repair_pass():
    rng = random.Random(11)
    for _ in range(60):
        demands = random_grid(rng)
        lp = min_area_lp(demands)
        repaired = repair_heights(demands, lp.col_widths)
        assert cell_products_feasible(demands, repaired.col_widths, repaired.row_heights)


def test_exact_matches_bruteforce_scan_small():
    """Independent oracle: dense scan over height splits for 2-row grids."""
    rng = random.Random(90)
    for _ in range(25):
        cols = rng.randint(1, 3)
        demands = [[rng.uniform(1.0, 30.0) for _ in range(cols)] for _ in range(2)]
        best = math.inf
        # scan the ratio H0/H1; widths follow in closed form
        for k in range(1, 4000):
            t = k / 400.0
            h = [t, 1.0]
            widths = [max(demands[r][c] / h[r] for r in range(2)) for c in range(cols)]
            best = min(best, sum(widths) * sum(h))
        res = min_area_exact(demands)
        assert res.area <= best * (1 + 1e-3)


# zeros, ties, and demands across four decades
_DEMAND = st.one_of(st.just(0.0), st.sampled_from([0.01, 1.0, 100.0]),
                    st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e))


@st.composite
def demand_grids(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    grid = [[draw(_DEMAND) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):  # a lone small demand in its own column
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        for row in grid:
            row[c] = 0.0
        grid[r][c] = draw(st.floats(-2.0, 0.0).map(lambda e: 10.0 ** e))
    assume(any(any(row) for row in grid))
    return grid


def assert_kkt_point(demands, res):
    widths, heights = res.col_widths, res.row_heights
    cells = [(r, c, a) for r, row in enumerate(demands) for c, a in enumerate(row) if a > 0]
    assert res.converged
    assert all(widths[c] * heights[r] >= a * (1 - 1e-12) for r, c, a in cells)
    assert sum(widths) == pytest.approx(sum(heights), rel=1e-9)
    assert res.area >= sum(a for _, _, a in cells) * (1 - 1e-12)
    # KKT certificate: multipliers >= 0 on the tight cells whose column sums
    # are the widths and whose row sums are the heights
    tight = [(r, c) for r, c, a in cells if widths[c] * heights[r] <= a * (1 + 1e-9)]
    sums = np.zeros((len(widths) + len(heights), len(tight)))
    for k, (r, c) in enumerate(tight):
        sums[c, k] = sums[len(widths) + r, k] = 1.0
    target = np.array(widths + heights)
    multipliers, _ = nnls(sums, target)
    assert np.all(np.abs(sums @ multipliers - target) <= 1e-8 * target)


@given(demands=demand_grids())
def test_exact_is_the_kkt_point(demands):
    res = min_area_exact(demands)
    assert_kkt_point(demands, res)
    # one minimizer: the same bits on every call, from any starting widths
    assert min_area_exact(demands) == res
    cols = len(res.col_widths)
    for init in ([1.0] * cols, [50.0 * (c + 1) for c in range(cols)]):
        assert min_area_exact(demands, init_widths=init) == res


# an app_large grid: from no tight cells the active set wanders among the
# near-tight cells and does not settle within its m + n = 18 rounds
TIED_GRID = [[37.099999999999994, 39.599999999999994, 37.599999999999994, 37.599999999999994],
             [37.599999999999994] * 4, [37.599999999999994] * 3 + [0.0]]


@pytest.mark.parametrize("demands", [
    # five decades in one column: a full Newton step overshoots e^u
    [[210.0], [0.001]],
    # a tie: cell (0, 0) is tight at the minimizer but carries no multiplier
    [[100.0, 100.0], [100.0, 1.0]],
    # the interior iterate leaves a tight cell (2, 0) out of the tight set
    [[0.8362821795861743, 0.059740440946837926, 79.49388873439518, 0.04959415977324486],
     [0.14543512519074075, 9.107462792325938, 41.55815493996111, 0.0],
     [0.013050095060227763, 0.17527797657535016, 0.5146729348584218, 0.0],
     [0.026575564945637273, 0.33770069931328967, 0.01303199040839179, 0.0]],
    # a near tie: cell (0, 0) is 2.7e-7 from tight, so it looks tight
    [[0.01, 0.01], [1.0, 0.9999997255105045]],
    # near ties: a cell that looks tight gets a negative multiplier and leaves
    [[0.009999999, 0.01], [0.009999999, 0.009998]],
    # multipliers five decades apart: the small rows' cells look slack
    [[0.037646783542805706], [465.9197630800511], [698.6852129230318],
     [0.049394873820259574], [37.1], [0.006312810340878955]],
    # nearly equal demands: only the interior-point fallback certifies it
    TIED_GRID,
])
def test_exact_kkt_point_on_hard_grids(demands):
    assert_kkt_point(demands, min_area_exact(demands))


def test_exact_on_far_apart_demands():
    # 11 decades and more apart the normal equations go singular short of tol;
    # the certified tight set still gives the minimizer (the certificate's own
    # rounding, not the sizes, keeps the nnls check above out of reach here)
    for demands in ([[87100.0, 1.04e-06]], [[9000.0], [1.1e-07]]):  # one row, one column
        res = min_area_exact(demands)
        assert res.converged
        assert res.area == pytest.approx(sum(map(sum, demands)), rel=1e-12)
    demands = [[0.0, 1.0], [1.25e-07, 1.0], [0.0, 6.9e-4], [0.2, 1.0], [4.05e6, 3.1e-08],
               [8.7e-05, 0.0]]
    res = min_area_exact(demands)
    assert res.converged
    assert cell_products_feasible(demands, res.col_widths, res.row_heights, slack=1e-12)
    assert sum(res.col_widths) == pytest.approx(sum(res.row_heights), rel=1e-9)


def both_paths(demands):
    """The active set from the demand start and no tight cells, and the
    interior point followed by the active set from its tight cells."""
    used_cols, _scale, lines, b, x = _log_problem(_check_demands(demands)[2])
    rounds = len(lines) + len(x)
    active = _certify(x, lines, b, len(used_cols), [], rounds)
    x, tight, finished = _interior_point(x, lines, b, 100)
    assert finished
    return active, _certify(x, lines, b, len(used_cols), tight, rounds)


# zeros, ties, and demands up to seven decades apart
_WIDE_DEMAND = st.one_of(st.just(0.0), st.sampled_from([1e-3, 1.0, 1e4]),
                         st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e))


@st.composite
def wide_grids(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    grid = [[draw(_WIDE_DEMAND) for _ in range(cols)] for _ in range(rows)]
    assume(any(any(row) for row in grid))
    return grid


@given(demands=wide_grids())
# 11 decades and more apart: the interior point stops on singular normal equations
@example(demands=[[87100.0, 1.04e-06]])
@example(demands=[[0.0, 1.0], [1.25e-07, 1.0], [0.0, 6.9e-4], [0.2, 1.0], [4.05e6, 3.1e-08],
                  [8.7e-05, 0.0]])
def test_active_set_certifies_the_interior_point_minimizer(demands):
    (y, certified), (z, fallback_certified) = both_paths(demands)
    assert certified and fallback_certified
    for u, v in zip(y, z):
        assert math.exp(u) == pytest.approx(math.exp(v), rel=1e-12)


def test_tied_grid_falls_back_to_the_interior_point():
    (_, certified), (_, fallback_certified) = both_paths(TIED_GRID)
    assert not certified and fallback_certified
    assert min_area_exact(TIED_GRID).converged


# zeros and few distinct values, so rows and columns often repeat a multiset
_TIED_DEMAND = st.sampled_from([0.0, 0.0, 1.3, 37.1, 37.1, 72.3, 1e-3, 1e4])


@st.composite
def permuted_grids(draw):
    """A grid up to 4x5 and the same grid under random row and column
    permutations."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    grid = [[draw(_TIED_DEMAND) for _ in range(cols)] for _ in range(rows)]
    row_perm = draw(st.permutations(range(rows)))
    col_perm = draw(st.permutations(range(cols)))
    return grid, [[grid[r][c] for c in col_perm] for r in row_perm]


def _distinct_multisets(lines):
    keys = [tuple(sorted(line)) for line in lines]
    return len(set(keys)) == len(keys)


@given(case=permuted_grids())
def test_sorted_grid_is_a_normal_form(case):
    grid, permuted = case
    for demands in (grid, permuted):
        normal, row_order, col_order = sorted_grid(demands)
        assert sorted(row_order) == list(range(len(demands)))
        assert sorted(col_order) == list(range(len(demands[0])))
        assert normal == tuple(tuple(demands[r][c] for c in col_order) for r in row_order)
        # the normal form's LP, un-permuted, is the grid's own LP
        lp = min_area_lp(normal)
        widths, heights = [0.0] * len(col_order), [0.0] * len(row_order)
        for c, w in zip(col_order, lp.col_widths):
            widths[c] = w
        for r, h in zip(row_order, lp.row_heights):
            heights[r] = h
        assert sum(widths) * sum(heights) == pytest.approx(min_area_lp(demands).area,
                                                           rel=1e-12)
    if _distinct_multisets(grid) and _distinct_multisets(zip(*grid)):
        assert sorted_grid(permuted)[0] == sorted_grid(grid)[0]


def test_sorted_grid_orders_lines_that_share_a_multiset():
    """Rows 0 and 2 hold the same values, and so do columns 0 and 2, so the
    first sort by multisets cannot order them; the alternating sorts do, and
    a row- and column-permuted copy reaches the same normal form."""
    grid = [[37.1, 1.3, 37.1], [1.3, 0.0, 37.1], [37.1, 37.1, 1.3]]
    permuted = [[grid[r][c] for c in (2, 1, 0)] for r in (1, 0, 2)]
    assert sorted_grid(permuted)[0] == sorted_grid(grid)[0]
