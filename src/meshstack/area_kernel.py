"""Bounding-area solver for one layer's mesh grid: shared column widths W_i
and row heights H_j with W_i * H_j covering each occupied cell's demand and
(sum W)(sum H) small. Permuting the grid's rows or columns permutes the
sizes the same way; sorted_grid gives a normal form under such permutations.
Two variants, both pure functions:

  min_area_lp     tangent cuts of H = a/W: a lower bound, fast enough for an
                  annealing loop; cell products may undershoot their demand.
  min_area_exact  the minimizer of a strictly convex geometric program:
                  an active set certifies its KKT point; where it does not
                  within its rounds, a coordinate ascent on the dual orders
                  the tight cells for it. Plain Python floats, no numpy;
                  feasible by construction.

Both take cell demands of 0 or within DEMAND_RANGE.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidParamsError
from .simplex import solve_cover_lp

Grid = Sequence[Sequence[float]]

TANGENT_COUNT = 8  # min_area_lp's tangent points per cell
# the tangent points over sqrt(a)/4: geometric, 16-fold end to end
_TANGENT_STEPS = np.array([(16.0 ** (1.0 / (TANGENT_COUNT - 1))) ** t
                           for t in range(TANGENT_COUNT)])
TOL = 1e-9         # min_area_exact's stopping and certificate tolerance
# the nonzero cell demands both kernels accept: the tangent cuts of a demand
# near the float limits overflow, or divide by an underflowed square
DEMAND_RANGE = (1e-300, 1e300)


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
            if a != 0.0 and not DEMAND_RANGE[0] <= a <= DEMAND_RANGE[1]:
                raise InvalidParamsError(
                    f"cell demand must be 0 or lie in {list(DEMAND_RANGE)}, got {a}")
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
    # one row per cut, cell by cell; numpy's float ops round as Python's do
    r, c, a = (np.array(v) for v in zip(*occupied))
    w_t = (np.sqrt(a) / 4.0)[:, None] * _TANGENT_STEPS
    cuts = np.arange(w_t.size)
    a_rows = np.zeros((w_t.size, nvars))
    a_rows[cuts, np.repeat(c, TANGENT_COUNT)] = (a[:, None] / (w_t * w_t)).ravel()
    a_rows[cuts, cols + np.repeat(r, TANGENT_COUNT)] = 1.0
    b_rhs = (2.0 * a[:, None] / w_t).ravel()
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
        violated = list(dict.fromkeys([k for k, s in enumerate(slack) if s < -TOL] + [
            min(cells, key=slack.__getitem__)
            for v, cells in enumerate(on_line) if v not in covered]))
        if not (violated or negative):
            return y, True
        order = violated + [k for k in order if k not in negative and k not in violated]
    return y, False


def _dual_ascent(x: list, lines: list, b: list, ncols: int, rounds: int, sweeps: int) -> tuple:
    """Cyclic coordinate ascent on the multipliers lam_k >= 0, one sweep over
    the cells at a time: lam_k maximizes the dual with the others held, the
    root of (s_i + lam)(s_j + lam) = e^b[k] clipped at 0, where s_i and s_j
    are its lines' sums of the other multipliers. After each sweep the active
    set runs from x = log s (a line without a multiplier keeps its start) with
    the cells that carry one, largest first. Returns the last point and
    whether it is certified within sweeps."""
    lam, s = [0.0] * len(lines), [0.0] * len(x)
    demand = [math.exp(bk) for bk in b]
    y = x
    for _ in range(sweeps):
        for k, (i, j) in enumerate(lines):
            p, q = s[i] - lam[k], s[j] - lam[k]
            lam[k] = max(0.0, 0.5 * (math.sqrt((p - q) ** 2 + 4.0 * demand[k]) - p - q))
            s[i], s[j] = p + lam[k], q + lam[k]
        order = sorted((k for k, v in enumerate(lam) if v > 0), key=lambda k: -lam[k])
        start = [math.log(v) if v > 0 else u for u, v in zip(x, s)]
        y, certified = _certify(start, lines, b, ncols, order, rounds)
        if certified:
            return y, True
    return y, False


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
    # a / scale below the normal floats would lose its digits, or all of them
    b = [math.log(a / scale) if a / scale >= sys.float_info.min
         else math.log(a) - math.log(scale) for _, _, a in occupied]
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
    m + n rounds on nearly every grid. Where it does not (ties can send it
    round a cycle of forests), a dual coordinate ascent orders the tight
    cells and the active set certifies from them: the dual, sum over lines of
    s - s log s plus sum lam_k log a_k with s a line's multiplier sum, is
    strictly concave in each lam_k, each step maximizes it in closed form,
    and x = log s tends to the unique minimizer, so after a few sweeps the
    cells that carry a multiplier, largest first, lead the active set to its
    tight forest. The result is the certified
    forest's exact KKT point; converged: it was certified within max_iters,
    which bounds the first rounds, the ascent's sweeps and each certificate's
    rounds. Heights are max a_ij / W_i: always feasible."""
    rows, cols, occupied = _check_demands(demands)
    if not occupied:
        return repair_heights(demands, [0.0] * cols)
    used_cols, scale, lines, b, x = _log_problem(occupied)
    rounds = min(len(lines) + len(x), max_iters)
    y, converged = _certify(x, lines, b, len(used_cols), [], rounds)
    if not converged:
        y, converged = _dual_ascent(x, lines, b, len(used_cols), rounds, max_iters)
    widths = dict(zip(used_cols, (math.sqrt(scale) * math.exp(v) for v in y)))  # columns first
    return repair_heights(demands, [widths.get(c, 0.0) for c in range(cols)])._replace(
        converged=converged)
