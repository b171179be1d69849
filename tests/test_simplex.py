"""Direct tests of the dense dual simplex on covering LPs, with HiGHS
(scipy.optimize.linprog) as the reference."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from meshstack import area_kernel, simplex
from meshstack.errors import SolverFailureError
from meshstack.simplex import solve_cover_lp


def test_known_diet_style_lp():
    # min 2x + 3y  s.t.  x + y >= 4,  x + 3y >= 6
    x, obj = solve_cover_lp([2.0, 3.0], [[1.0, 1.0], [1.0, 3.0]], [4.0, 6.0])
    assert obj == pytest.approx(9.0)          # x = 3, y = 1
    assert x[0] == pytest.approx(3.0)
    assert x[1] == pytest.approx(1.0)


def test_no_constraints_returns_origin():
    x, obj = solve_cover_lp([1.0, 5.0], np.zeros((0, 2)), [])
    assert obj == 0.0
    assert list(x) == [0.0, 0.0]


def test_redundant_and_degenerate_rows():
    # duplicated + dominated constraints must not break phase 2
    a = [[1.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 1.0]]
    b = [2.0, 2.0, 1.0, 3.0]
    x, obj = solve_cover_lp([1.0, 1.0], a, b)
    assert obj == pytest.approx(5.0)


def test_infeasible_lp_raises():
    # x >= 1 with zero coefficient row demanding b>0 is unsatisfiable
    with pytest.raises(SolverFailureError, match="infeasible"):
        solve_cover_lp([1.0], [[0.0]], [1.0])


@pytest.mark.parametrize("b", [[1.0], []])
def test_negative_cost_raises(b):
    # min -x would be unbounded; the dual form needs c >= 0
    with pytest.raises(SolverFailureError, match="costs must be nonnegative"):
        solve_cover_lp([-1.0], np.ones((len(b), 1)), b)


def test_random_covering_lps_feasible_and_vertex_optimal():
    """Feasibility + optimality by duality-free spot checks: the solution
    satisfies all constraints and no coordinate descent step improves it."""
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(1, 8)
        a = [[rng.uniform(0.0, 3.0) for _ in range(n)] for _ in range(m)]
        for row in a:  # ensure every row can be satisfied
            row[rng.randrange(n)] += 1.0
        b = [rng.uniform(0.5, 5.0) for _ in range(m)]
        c = [rng.uniform(0.5, 2.0) for _ in range(n)]
        x, obj = solve_cover_lp(c, a, b)
        assert all(sum(ai * xi for ai, xi in zip(row, x)) >= bi - 1e-7
                   for row, bi in zip(a, b))
        assert obj == pytest.approx(sum(ci * xi for ci, xi in zip(c, x)))
        # perturbing any single coordinate downward breaks feasibility or
        # the perturbation upward only increases cost (local optimality of
        # a vertex solution for a covering LP)
        for j in range(n):
            if x[j] > 1e-7:
                shrunk = list(x)
                shrunk[j] -= min(1e-3, x[j])
                assert any(sum(ai * xi for ai, xi in zip(row, shrunk)) < bi - 1e-9
                           for row, bi in zip(a, b)) or c[j] == 0.0


def _check_against_highs(c, a_mat, b) -> None:
    """Same verdict as HiGHS; on a feasible LP the same optimum, reached by
    a feasible x."""
    c, b = np.asarray(c, dtype=float), np.asarray(b, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float).reshape(b.size, c.size)
    ref = linprog(c, A_ub=-a_mat if b.size else None, b_ub=-b if b.size else None,
                  bounds=(0, None), method="highs")
    assert ref.status in (0, 2)  # optimal or infeasible: c >= 0 is never unbounded
    if ref.status == 2:
        with pytest.raises(SolverFailureError, match="infeasible"):
            solve_cover_lp(c, a_mat, b)
        return
    x, obj = solve_cover_lp(c, a_mat, b)
    assert obj == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
    assert np.all(x >= 0)
    assert np.all(a_mat @ x >= b - 1e-7)


@given(n=st.integers(1, 12), m=st.integers(0, 200), density=st.floats(0.05, 1.0),
       integral=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_covering_lp_matches_highs(n, m, density, integral, seed):
    # sparse A >= 0 (all-zero rows with b > 0 make it infeasible), b >= 0 and
    # c >= 0 with zeros; small integers give degenerate, tied vertices
    rng = np.random.default_rng(seed)
    if integral:
        draw = lambda size: rng.integers(0, 4, size).astype(float)
    else:
        draw = lambda size: rng.uniform(0.1, 10.0, size) * (rng.random(size) < 0.8)
    a_mat = draw((m, n)) * (rng.random((m, n)) < density)
    _check_against_highs(draw(n), a_mat, draw(m))


@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.one_of(st.just(0.0), st.floats(0.5, 150.0)), min_size=cols, max_size=cols),
    min_size=1, max_size=5)))
def test_tangent_cut_lp_matches_highs(demands):
    """The LPs min_area_lp builds for 1x1..5x5 demand grids."""
    lps = []

    def recording(c, a_mat, b):
        lps.append((c, a_mat, b))
        return solve_cover_lp(c, a_mat, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(area_kernel, "solve_cover_lp", recording)
        area_kernel.min_area_lp(demands)
    assert len(lps) == (1 if any(map(any, demands)) else 0)
    for lp in lps:
        _check_against_highs(*lp)


def _recorded_pivots(monkeypatch) -> list[tuple[float, int, int, int]]:
    """Record each pivot as (the leaving row's right-hand side before it, the
    entering column, the first improving column, the most negative column)."""
    pivots = []
    pivot = simplex._pivot

    def recording(tableau, basis, row, col):
        reduced = tableau[-1, :tableau.shape[1] - 1]
        pivots.append((float(tableau[row, -1]), int(col),
                       int(np.flatnonzero(reduced < -simplex._TOL)[0]), int(reduced.argmin())))
        pivot(tableau, basis, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording)
    return pivots


def test_degenerate_pivot_hands_entry_to_bland(monkeypatch):
    """Dantzig's rule enters until the first degenerate pivot (a leaving row
    whose right-hand side is 0); Bland's first improving column enters after
    it, and the optimum is still HiGHS's."""
    pivots = _recorded_pivots(monkeypatch)
    c, a_mat, b = [1, 1, 1], [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]], [1, 1, 1, 2]
    _check_against_highs(c, a_mat, b)
    assert solve_cover_lp(c, a_mat, b)[1] == pytest.approx(2.0)
    assert pivots[1][0] == 0.0

    # here a pivot follows the degenerate one, and Bland's column is not the
    # most negative reduced cost
    pivots.clear()
    c, a_mat, b = [2, 2, 2], [[0, 1, 1], [1, 0, 0], [1, 1, 0], [0, 0, 1]], [2, 1, 2, 2]
    _check_against_highs(c, a_mat, b)
    first_degenerate = next(i for i, pivot in enumerate(pivots) if pivot[0] == 0.0)
    assert all(col == most_negative for _, col, _, most_negative in pivots[:first_degenerate])
    after = pivots[first_degenerate + 1:]
    assert after and all(col == first for _, col, first, _ in after)
    assert any(first != most_negative for _, _, first, most_negative in after)


def test_tangent_cut_lp_pivot_count(monkeypatch):
    """A performance guard on the LP step 2 solves most: a 3x4 grid of
    large_vsoc's 28nm cells (CPUs and SIMDs with 2D or 3D routers), every cell
    occupied. Bland's first improving column takes 69 pivots on it; Dantzig's
    most negative reduced cost takes 21."""
    pivots = _recorded_pivots(monkeypatch)
    area_kernel.min_area_lp([[37.1, 37.6, 72.3, 37.1],
                             [37.6, 37.1, 37.1, 72.3],
                             [37.1, 37.1, 37.6, 37.1]])
    assert 0 < len(pivots) <= 24


def _reference_iterate(tableau, basis, ncols) -> None:
    """The ratio test on numpy arrays, as the solver ran it before it moved to
    plain floats: the reference the shipped _iterate must match bit for bit."""
    basis = np.array(basis)
    max_pivots = 50 * (tableau.shape[0] + ncols)
    bland = False
    for _ in range(max_pivots):
        reduced = tableau[-1, :ncols]
        entering = reduced.argmin()
        if reduced[entering] >= -simplex._TOL:
            return
        if bland:
            entering = np.flatnonzero(reduced < -simplex._TOL)[0]
        col = tableau[:-1, entering]
        positive = np.flatnonzero(col > simplex._TOL)
        if not positive.size:
            raise SolverFailureError("LP is infeasible (its dual is unbounded)")
        ratios = tableau[positive, -1] / col[positive]
        rmin = ratios.min()
        ties = positive[ratios <= rmin + simplex._TOL]
        bland = bland or rmin <= simplex._TOL
        simplex._pivot(tableau, basis, ties[basis[ties].argmin()], entering)
    raise SolverFailureError("simplex exceeded its pivot budget")


def _solved(c, a_mat, b):
    try:
        return solve_cover_lp(c, a_mat, b)
    except SolverFailureError as exc:
        return str(exc)


def _check_against_reference(c, a_mat, b) -> None:
    got = _solved(c, a_mat, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_iterate", _reference_iterate)
        want = _solved(c, a_mat, b)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


@given(n=st.integers(1, 12), m=st.integers(0, 200), density=st.floats(0.05, 1.0),
       integral=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_ratio_test_matches_numpy_reference_on_covering_lps(n, m, density, integral, seed):
    """The covering LPs of test_covering_lp_matches_highs: small integers tie
    ratios, all-zero rows make the LP infeasible, and m = 0 is allowed."""
    rng = np.random.default_rng(seed)
    if integral:
        draw = lambda size: rng.integers(0, 4, size).astype(float)
    else:
        draw = lambda size: rng.uniform(0.1, 10.0, size) * (rng.random(size) < 0.8)
    a_mat = draw((m, n)) * (rng.random((m, n)) < density)
    _check_against_reference(draw(n), a_mat, draw(m))


@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.one_of(st.just(0.0), st.floats(0.5, 150.0)), min_size=cols, max_size=cols),
    min_size=1, max_size=5)))
def test_ratio_test_matches_numpy_reference_on_tangent_cut_lps(demands):
    """min_area_lp's LPs for 1x1..5x5 demand grids."""
    lps = []

    def recording(c, a_mat, b):
        lps.append((c, a_mat, b))
        return solve_cover_lp(c, a_mat, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(area_kernel, "solve_cover_lp", recording)
        area_kernel.min_area_lp(demands)
    for lp in lps:
        _check_against_reference(*lp)
