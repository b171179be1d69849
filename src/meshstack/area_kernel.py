"""Bounding-area solver for one layer's mesh grid: shared column widths W_i
and row heights H_j with W_i * H_j covering each occupied cell's demand and
(sum W)(sum H) small. Permuting the grid's rows or columns permutes the
sizes the same way; sorted_grid gives a normal form under such permutations.
Two variants, both pure functions:

  min_area_lp     tangent cuts of H = a/W: a lower bound, fast enough for an
                  annealing loop; cell products may undershoot their demand.
  min_area_exact  the minimizer of a strictly convex geometric program:
                  an active set certifies its KKT point, and an interior-
                  point method runs only where that fails; feasible by
                  construction.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidParamsError
from .simplex import solve_cover_lp

Grid = Sequence[Sequence[float]]

TANGENT_COUNT = 8  # min_area_lp's tangent points per cell
TOL = 1e-9         # min_area_exact's stopping and certificate tolerance


class LpResult(NamedTuple):
    col_widths: tuple[float, ...]
    row_heights: tuple[float, ...]
    area: float  # (sum W)(sum H) of the relaxed solution; a lower-bound proxy


class ExactResult(NamedTuple):
    col_widths: tuple[float, ...]
    row_heights: tuple[float, ...]
    area: float
    converged: bool


def _check_demands(demands: Grid) -> tuple[int, int, list[tuple[int, int, float]]]:
    rows = len(demands)
    cols = len(demands[0]) if rows else 0
    occupied = []
    for r in range(rows):
        if len(demands[r]) != cols:
            raise InvalidParamsError("demand grid must be rectangular")
        for c in range(cols):
            a = float(demands[r][c])
            if a < 0:
                raise InvalidParamsError(f"cell demand must be >= 0, got {a}")
            if a > 0:
                occupied.append((r, c, a))
    return rows, cols, occupied


def min_area_lp(demands: Grid) -> LpResult:
    """Lower-bound sizing via tangent cuts of H >= a/W.

    For every occupied cell and each of TANGENT_COUNT tangent points w_t the cut
        (a / w_t^2) * W_i + H_j >= 2 a / w_t
    is the tangent of H = a/W at W = w_t. Tangent points are geometrically
    spaced across [sqrt(a)/4, 4 sqrt(a)] (cell aspect ratios 1/16 .. 16).
    """
    rows, cols, occupied = _check_demands(demands)
    if not occupied:
        return LpResult(tuple(0.0 for _ in range(cols)), tuple(0.0 for _ in range(rows)), 0.0)
    nvars = cols + rows  # [W_0..W_{cols-1}, H_0..H_{rows-1}]
    a_rows, b_rhs = [], []
    for r, c, a in occupied:
        lo = math.sqrt(a) / 4.0
        ratio = 16.0 ** (1.0 / (TANGENT_COUNT - 1))
        for t in range(TANGENT_COUNT):
            w_t = lo * ratio ** t
            coeffs = [0.0] * nvars
            coeffs[c] = a / (w_t * w_t)
            coeffs[cols + r] = 1.0
            a_rows.append(coeffs)
            b_rhs.append(2.0 * a / w_t)
    x, _ = solve_cover_lp([1.0] * nvars, a_rows, b_rhs)
    widths = tuple(float(v) for v in x[:cols])
    heights = tuple(float(v) for v in x[cols:])
    return LpResult(widths, heights, sum(widths) * sum(heights))


def sorted_grid(demands: Grid) -> tuple[tuple[tuple[float, ...], ...], list[int], list[int]]:
    """A normal form of the demand grid under row and column permutations,
    which change neither area kernel's problem: (grid, row_order, col_order)
    with grid[i][j] == demands[row_order[i]][col_order[j]]. Rows and columns
    start sorted by their sorted values; then stable sorts alternate, rows by
    their values in the current column order and columns by theirs in the
    current row order, until neither order moves (at most rows + cols
    rounds). Grids whose rows have pairwise distinct multisets, and columns
    too, share a normal form exactly when one permutes the other."""
    rows = len(demands)
    cols = len(demands[0]) if rows else 0
    row_order = sorted(range(rows), key=lambda r: sorted(demands[r]))
    col_order = sorted(range(cols), key=lambda c: sorted(row[c] for row in demands))
    for _ in range(rows + cols):
        new_rows = sorted(row_order, key=lambda r: [demands[r][c] for c in col_order])
        new_cols = sorted(col_order, key=lambda c: [demands[r][c] for r in new_rows])
        if new_rows == row_order and new_cols == col_order:
            break
        row_order, col_order = new_rows, new_cols
    grid = tuple(tuple(demands[r][c] for c in col_order) for r in row_order)
    return grid, row_order, col_order


def repair_heights(demands: Grid, col_widths: Sequence[float]) -> ExactResult:
    """One closed-form pass H_j = max_i a_ij / W_i; makes any widths feasible."""
    rows, cols, occupied = _check_demands(demands)
    widths = [max(float(w), 0.0) for w in col_widths]
    for r, c, a in occupied:
        if widths[c] <= 0.0:
            widths[c] = math.sqrt(a)
    heights = [0.0] * rows
    for r, c, a in occupied:
        heights[r] = max(heights[r], a / widths[c])
    return ExactResult(tuple(widths), tuple(heights), sum(widths) * sum(heights), True)


def _to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in (0, 1] that keeps v + step * dv >= 0."""
    return min(1.0, float(np.divide(-v, dv, out=np.ones_like(v), where=dv < 0).min()))


def _solve_on_tight_cells(x: list, lines: list, b: list, order: list, ncols: int) -> tuple:
    """The KKT point for the tight cells in order, each a (column, row) pair of
    line indices with log demand b[k], and its spanning forest: the forest
    fixes x up to one scale per connected component, and stationarity fixes
    that, as sum W and sum H both sum its multipliers."""
    x, root, members, forest = list(x), list(range(len(x))), [[v] for v in range(len(x))], []
    for k in order:
        i, j = lines[k]
        if root[i] != root[j]:
            forest.append(k)
            shift, moved = x[i] + x[j] - b[k], members[root[j]]
            for v in moved:  # shifting a component keeps its u + v
                x[v] += shift if v < ncols else -shift
                root[v] = root[i]
            members[root[i]] += moved
            moved[:] = []
    for part in members:
        col_sum = sum(math.exp(x[v]) for v in part if v < ncols)
        row_sum = sum(math.exp(x[v]) for v in part if v >= ncols)
        if col_sum and row_sum:
            shift = 0.5 * math.log(row_sum / col_sum)
            for v in part:
                x[v] += shift if v < ncols else -shift
    return x, forest


def _multipliers(w: list, lines: list, forest: list) -> dict:
    """The forest cells' multipliers: each line's w is the sum of its cells'
    multipliers, which fixes them one leaf at a time."""
    residual, edges = list(w), [[] for _ in w]
    for k in forest:
        for v in lines[k]:
            edges[v].append(k)
    lam, leaves = {}, [v for v, e in enumerate(edges) if len(e) == 1]
    while leaves:
        v = leaves.pop()
        if len(edges[v]) != 1:  # its last cell was peeled from the other end
            continue
        k = edges[v].pop()
        u = lines[k][0] + lines[k][1] - v
        lam[k] = residual[v]
        residual[u] -= lam[k]
        edges[u].remove(k)
        if len(edges[u]) == 1:
            leaves.append(u)
    return lam


def _certify(x: list, lines: list, b: list, ncols: int, order: list, rounds: int) -> tuple:
    """Active set from tight cells in order, surest first: their KKT point is
    certified if no cell is violated, no multiplier negative and no line bare;
    else violated cells and bare lines' least-slack cells go first, and cells
    with a negative multiplier go. Returns the last point and whether it is
    certified within rounds."""
    on_line = [[] for _ in x]
    for k, (i, j) in enumerate(lines):
        on_line[i].append(k)
        on_line[j].append(k)
    y = x
    for _ in range(rounds):
        y, forest = _solve_on_tight_cells(x, lines, b, order, ncols)
        slack = [y[i] + y[j] - bk for (i, j), bk in zip(lines, b)]
        lam = _multipliers([math.exp(v) for v in y], lines, forest)
        negative = {k for k, v in lam.items() if v < -TOL}
        covered = {v for k in forest for v in lines[k]}
        violated = [k for k, s in enumerate(slack) if s < -TOL] + [
            min(cells, key=slack.__getitem__)
            for v, cells in enumerate(on_line) if v not in covered]
        if not (violated or negative):
            return y, True
        order = violated + [k for k in order if k not in negative and k not in violated]
    return y, False


def _interior_point(x: list, lines: list, b: list, max_iters: int) -> tuple:
    """A Mehrotra predictor-corrector from x, slacks >= 1 and duals 1. Returns
    the last iterate, its tight cells (slack below multiplier) surest first,
    and whether it stopped by itself within max_iters."""
    m, n = len(lines), len(x)
    A, b, x = np.zeros((m, n)), np.array(b), np.array(x)
    for k, (i, j) in enumerate(lines):
        A[k, i] = A[k, j] = 1.0
    s, lam = np.maximum(A @ x - b, 1.0), np.ones(m)
    finished, alpha = False, 1.0
    for _ in range(max_iters):
        w, mu = np.exp(x), s @ lam / m
        r_d, r_p = w - A.T @ lam, A @ x - s - b
        # at TOL, or no step is left in double precision
        if max(np.max(np.abs(r_d)) / np.max(w), np.max(np.abs(r_p)), mu) <= TOL or alpha < TOL:
            finished = True
            break
        d = lam / s
        normal = np.diag(w) + A.T @ (d[:, None] * A)

        def direction(r_c):
            dx = np.linalg.solve(normal, -r_d - A.T @ (d * r_p + r_c / s))
            dlam = -d * (r_p + A @ dx) - r_c / s
            return dx, dlam, -(r_c + s * dlam) / lam
        try:
            dx, dlam, ds = direction(s * lam)  # predictor: the affine-scaling step
            mu_aff = (s + _to_boundary(s, ds) * ds) @ (lam + _to_boundary(lam, dlam) * dlam) / m
            dx, dlam, ds = direction(s * lam + ds * dlam - (mu_aff / mu) ** 3 * mu)
        except np.linalg.LinAlgError:  # singular: demands about 1e11 and more apart
            finished = True
            break
        alpha = min(0.99 * _to_boundary(s, ds), 0.99 * _to_boundary(lam, dlam),
                    1.0 / max(1.0, np.max(np.abs(dx))))  # at most e-fold per step
        x, s, lam = x + alpha * dx, s + alpha * ds, lam + alpha * dlam
    tight = sorted(np.flatnonzero(s < lam).tolist(), key=lambda k: s[k] / lam[k])
    return x.tolist(), tight, finished


def _log_problem(occupied: list) -> tuple:
    """min_area_exact's problem over the occupied lines: their columns, the
    largest demand (solved for a / scale, sizes scale by its sqrt), each
    cell's (column, row) pair of line indices, columns first, its log demand,
    and the start point: each line takes half of its largest log demand."""
    used_cols = sorted({c for _, c, _ in occupied})
    used_rows = sorted({r for r, _, _ in occupied})
    col_line = {c: k for k, c in enumerate(used_cols)}
    row_line = {r: len(used_cols) + k for k, r in enumerate(used_rows)}
    lines = [(col_line[c], row_line[r]) for r, c, _ in occupied]
    scale = max(a for _, _, a in occupied)
    b = [math.log(a / scale) for _, _, a in occupied]
    top = [-math.inf] * (len(used_cols) + len(used_rows))
    for (i, j), bk in zip(lines, b):
        top[i], top[j] = max(top[i], bk), max(top[j], bk)
    return used_cols, scale, lines, b, [0.5 * v for v in top]


@lru_cache(maxsize=1 << 18)
def _min_area_exact_cached(demands: tuple[tuple[float, ...], ...]) -> ExactResult:
    return min_area_exact(demands)


def min_area_exact_cached(demands: Grid) -> ExactResult:
    """Memoized min_area_exact for enumeration-heavy callers; the kernel is a
    pure function, so caching on the demand grid is safe."""
    return _min_area_exact_cached(tuple(tuple(float(a) for a in row) for row in demands))


def min_area_exact(demands: Grid, init_widths: Optional[Sequence[float]] = None,
                   max_iters: int = 100) -> ExactResult:
    """The minimum-area sizing: with u = log W, v = log H, min sum e^u + sum
    e^v s.t. u_i + v_j >= log a_ij is strictly convex, and its one minimizer
    has sum W = sum H, so it minimizes (sum W)(sum H) too. An active set from
    a start computed from the demands alone (so init_widths is ignored) and
    no tight cells finds the minimizer's tight forest and certifies it within
    m + n rounds on nearly every grid; else a Mehrotra interior-point method
    finds the tight cells and the active set certifies from them. The result
    is the certified forest's exact KKT point. converged: that point is
    certified, and the interior point, if it ran, stopped by itself; max_iters
    bounds both the first active-set rounds and the interior-point iterations.
    Heights are max a_ij / W_i: always feasible."""
    rows, cols, occupied = _check_demands(demands)
    if not occupied:
        return repair_heights(demands, [0.0] * cols)
    used_cols, scale, lines, b, x = _log_problem(occupied)
    rounds = len(lines) + len(x)
    y, converged = _certify(x, lines, b, len(used_cols), [], min(rounds, max_iters))
    if not converged:
        x, tight, finished = _interior_point(x, lines, b, max_iters)
        y, converged = _certify(x, lines, b, len(used_cols), tight, rounds)
        converged = converged and finished
    widths = dict(zip(used_cols, (math.sqrt(scale) * math.exp(v) for v in y)))  # columns first
    return repair_heights(demands, [widths.get(c, 0.0) for c in range(cols)])._replace(
        converged=converged)
