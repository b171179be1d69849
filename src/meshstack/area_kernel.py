"""Bounding-area solver for one layer's mesh grid: shared column widths W_i
and row heights H_j with W_i * H_j covering each occupied cell's demand and
(sum W)(sum H) small. Two variants, both pure functions:

  min_area_lp     tangent cuts of H = a/W: a lower bound, fast enough for an
                  annealing loop; cell products may undershoot their demand.
  min_area_exact  the minimizer of a strictly convex geometric program, by an
                  interior-point method; feasible by construction.
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


def _solve_on_tight_cells(x: np.ndarray, A: np.ndarray, b: np.ndarray, ncols: int) -> tuple:
    """The KKT point for given tight cells, the rows of A x = b, and its spanning
    forest: the forest fixes x up to one scale per connected component, and
    stationarity fixes that, as sum W and sum H both sum its multipliers."""
    x, label, forest = x.copy(), np.arange(len(x)), np.zeros(len(b), dtype=bool)
    sign = np.where(label < ncols, 1.0, -1.0)  # shifting a component keeps its u + v
    for k, (cell, bk) in enumerate(zip(A, b)):
        i, j = np.flatnonzero(cell)
        if label[i] != label[j]:
            forest[k] = True
            moved = label == label[j]
            x[moved] += sign[moved] * (x[i] + x[j] - bk)
            label[moved] = label[i]
    for part in (label == k for k in range(len(x))):  # labels not in use select nothing
        col_sum, row_sum = np.exp(x[part & (sign > 0)]).sum(), np.exp(x[part & (sign < 0)]).sum()
        if col_sum and row_sum:
            x[part] += sign[part] * 0.5 * np.log(row_sum / col_sum)
    return x, forest


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
    has sum W = sum H, so it minimizes (sum W)(sum H) too. A Mehrotra
    predictor-corrector from a start computed from the demands alone (so
    init_widths is ignored) finds the tight cells; the result is their exact
    KKT point. converged: the solve stopped by itself within max_iters and
    that point is certified. Heights are max a_ij / W_i: always feasible."""
    rows, cols, occupied = _check_demands(demands)
    if not occupied:
        return repair_heights(demands, [0.0] * cols)
    used_cols, used_rows = (sorted({cell[k] for cell in occupied}) for k in (1, 0))
    # one log-width per occupied column, then one log-height per occupied row
    A = np.array([[float(c == u) for u in used_cols] + [float(r == v) for v in used_rows]
                  for r, c, _ in occupied])
    scale = max(a for _, _, a in occupied)  # solve for a / scale; sizes scale by sqrt
    b = np.log([a / scale for _, _, a in occupied])
    # start: each line takes half of its largest log demand; slacks >= 1, duals 1
    x = 0.5 * np.max(np.where(A > 0, b[:, None], -np.inf), axis=0)
    (m, n), s = A.shape, np.maximum(A @ x - b, 1.0)
    lam = np.ones(m)
    converged, alpha = True, 1.0  # converged unless max_iters or the certificate fails
    for _ in range(max_iters):
        w, mu = np.exp(x), s @ lam / m
        r_d, r_p = w - A.T @ lam, A @ x - s - b
        # at TOL, or no step is left in double precision
        if max(np.max(np.abs(r_d)) / np.max(w), np.max(np.abs(r_p)), mu) <= TOL or alpha < TOL:
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
            break
        alpha = min(0.99 * _to_boundary(s, ds), 0.99 * _to_boundary(lam, dlam),
                    1.0 / max(1.0, np.max(np.abs(dx))))  # at most e-fold per step
        x, s, lam = x + alpha * dx, s + alpha * ds, lam + alpha * dlam
    else:
        converged = False
    # tight cells, surest first: slack below multiplier. Their KKT point is
    # certified if no cell is violated, no multiplier negative, no line bare;
    # else violated cells and bare lines' least-slack cells go first, negatives go
    order = sorted(np.flatnonzero(s < lam), key=lambda k: s[k] / lam[k])
    for _ in range(m + n):
        y, forest = _solve_on_tight_cells(x, A[order], b[order], len(used_cols))
        on_forest, slack = A[order][forest], A @ y - b
        negative = set(np.array(order, dtype=int)[forest][np.linalg.solve(
            on_forest @ on_forest.T, on_forest @ np.exp(y)) < -TOL])
        violated = list(np.flatnonzero(slack < -TOL)) + [
            np.flatnonzero(line)[np.argmin(slack[line])]
            for line in (A > 0).T[~on_forest.any(axis=0)]]
        if not (violated or negative):
            break
        order = violated + [k for k in order if k not in negative and k not in violated]
    else:
        converged = False
    widths = dict(zip(used_cols, np.sqrt(scale) * np.exp(y)))  # y: the columns come first
    return repair_heights(demands, [widths.get(c, 0.0) for c in range(cols)])._replace(
        converged=converged)
