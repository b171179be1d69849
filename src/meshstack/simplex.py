"""Self-contained dense simplex for small covering LPs, solved through the dual.

Solves   minimize    c . x
         subject to  A x >= b,   x >= 0
with b >= 0 and c >= 0 by running the primal simplex on its dual
         maximize    b . y
         subject to  A^T y <= c,   y >= 0.
c >= 0 makes the slack basis (y = 0) dual-feasible, so no phase 1 is needed;
b >= 0 is the covering form the callers build. The dual has one row per
primal variable (tens) instead of one per constraint (hundreds), so its
tableau is small. At the dual optimum the reduced costs of the slack columns
are the primal solution x (LP duality), and an unbounded dual means an
infeasible primal. Dantzig's rule (the most negative reduced cost) enters
until the first degenerate pivot; Bland's rule (the first improving column)
enters from then on, so the solve cannot cycle. The leaving row is always
Bland's tie-break: the smallest basis index among the minimum ratios.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailureError

_TOL = 1e-9


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: list[int], ncols: int) -> None:
    """Run simplex iterations on the dual tableau (objective in the last row).
    The ratio test runs on plain floats: its column has a handful of rows,
    too few for numpy calls to pay."""
    max_pivots = 50 * (tableau.shape[0] + ncols)
    bland = False
    # views, which follow the pivots: _pivot updates the tableau in place
    reduced, rows, rhs_col = tableau[-1, :ncols], tableau[:-1], tableau[:-1, -1]
    for _ in range(max_pivots):
        entering = int(reduced.argmin())
        if reduced[entering] >= -_TOL:
            return
        if bland:
            entering = int(np.flatnonzero(reduced < -_TOL)[0])
        rhs = rhs_col.tolist()
        ratios = [(rhs[row] / a, row) for row, a in enumerate(rows[:, entering].tolist())
                  if a > _TOL]
        if not ratios:
            raise SolverFailureError("LP is infeasible (its dual is unbounded)")
        rmin = min(ratios)[0]
        ties = [row for ratio, row in ratios if ratio <= rmin + _TOL]
        bland = bland or rmin <= _TOL
        _pivot(tableau, basis, min(ties, key=basis.__getitem__), entering)
    raise SolverFailureError("simplex exceeded its pivot budget")


def solve_cover_lp(c, a_mat, b) -> tuple[np.ndarray, float]:
    """Return (x, objective) minimizing c.x subject to a_mat @ x >= b, x >= 0.

    Raises SolverFailureError if b or c has a negative entry or the LP is
    infeasible (with c >= 0 it is never unbounded).
    """
    c = np.asarray(c, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float)
    b = np.asarray(b, dtype=float)
    n = c.size
    m = b.size
    if np.any(c < 0):
        raise SolverFailureError("costs must be nonnegative")
    if m == 0:
        return np.zeros(n), 0.0
    if np.any(b < 0):
        raise SolverFailureError("right-hand side must be nonnegative")

    # dual rows: [y (m)] [slack (n)] | c; objective row: minimize -b.y
    tableau = np.zeros((n + 1, m + n + 1))
    tableau[:n, :m] = a_mat.T
    tableau[:n, m:m + n] = np.eye(n)
    tableau[:n, -1] = c
    tableau[n, :m] = -b
    _iterate(tableau, list(range(m, m + n)), m + n)

    x = np.maximum(tableau[n, m:m + n], 0.0)
    return x, float(c @ x)
