"""Dense two-phase simplex for the small linear programs behind gauges,
interior points, and certificates.

Bland's rule is used in both phases, so the solver cannot cycle; pivot
candidates are screened at ``PIVOT_TOL``.  Variables are free unless flagged
nonnegative, handled by the usual positive/negative split.  Problems here
have at most a few dozen rows, so a plain tableau is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

PIVOT_TOL = 1e-9
MAX_ITER = 20000  # pivots per phase


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    ray: np.ndarray | None = None  # improving direction when unbounded
    iterations: int = 0


def _bland_loop(tab, basis, cost, n_real):
    """Run simplex pivots in place; returns (status, entering_col, iters).

    ``n_real`` marks how many leading columns may enter the basis (artificial
    columns sit past it and are barred).
    """
    m = tab.shape[0]
    iters = 0
    while True:
        reduced = cost - cost[basis] @ tab[:, :-1]
        enter = -1
        for j in range(n_real):
            if reduced[j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal", -1, iters
        col = tab[:, enter]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded", enter, iters
        ratios = tab[rows, -1] / col[rows]
        rmin = ratios.min()
        near = rows[ratios <= rmin + 1e-12 * max(1.0, abs(rmin))]
        leave = min(near, key=lambda r: basis[r])  # Bland tie-break
        piv = tab[leave] / tab[leave, enter]
        factor = tab[:, enter].copy()
        tab -= np.outer(factor, piv)
        tab[leave] = piv
        basis[leave] = enter
        iters += 1
        if iters > MAX_ITER:
            raise SolverError(f"simplex iteration limit ({MAX_ITER}) exceeded; m={m}")


def solve_lp(c, a_ub=None, b_ub=None, nonneg=None) -> LPResult:
    """Minimize ``c . x`` subject to ``a_ub x <= b_ub`` (an equality is two
    opposite rows).

    ``nonneg`` is an optional boolean mask; unmasked variables are free.
    Rows with a negative right-hand side start phase 1 on an artificial
    column.  Returns an LPResult whose ``ray`` holds an improving feasible
    direction when the problem is unbounded.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    if a_ub.shape[0] != b_ub.size:
        raise SolverError("constraint matrix/vector shapes disagree")
    mask = np.zeros(n, dtype=bool) if nonneg is None else np.asarray(nonneg, dtype=bool).reshape(-1)

    # structural columns: x_i -> (+col) and, for free variables, (-col)
    col_var: list[tuple[int, float]] = []
    for i in range(n):
        col_var.append((i, 1.0))
        if not mask[i]:
            col_var.append((i, -1.0))
    ns = len(col_var)
    m = a_ub.shape[0]
    n_real = ns + m  # structural and slack columns
    flip = b_ub < 0
    rhs = np.abs(b_ub)
    art_rows = np.nonzero(flip)[0]

    tab = np.zeros((m, n_real + art_rows.size + 1))
    tab[:, :ns] = a_ub[:, [i for i, _ in col_var]] * np.array([sign for _, sign in col_var])
    tab[:, ns:n_real] = np.eye(m)
    tab[flip, :n_real] *= -1.0
    tab[:, -1] = rhs
    basis = ns + np.arange(m)
    for k, r in enumerate(art_rows):
        tab[r, n_real + k] = 1.0
        basis[r] = n_real + k

    total_iters = 0
    if art_rows.size:
        cost1 = np.zeros(tab.shape[1] - 1)
        cost1[n_real:] = 1.0
        status, _, iters = _bland_loop(tab, basis, cost1, n_real)
        total_iters += iters
        if status != "optimal":
            raise SolverError("phase-1 objective unbounded; malformed constraints")
        resid = float(cost1[basis] @ tab[:, -1])
        if resid > 1e-7 * max(1.0, float(np.max(rhs, initial=0.0))):
            return LPResult("infeasible", iterations=total_iters)
        # drive artificials out of the basis; drop redundant rows
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] < n_real:
                continue
            pivot_col = -1
            for j in range(n_real):
                if abs(tab[r, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                keep[r] = False
                continue
            piv = tab[r] / tab[r, pivot_col]
            factor = tab[:, pivot_col].copy()
            tab -= np.outer(factor, piv)
            tab[r] = piv
            basis[r] = pivot_col
        tab = tab[keep]
        basis = basis[keep]
        m = tab.shape[0]
        tab = np.hstack([tab[:, :n_real], tab[:, -1:]])

    cost2 = np.zeros(tab.shape[1] - 1)
    for j, (i, sign) in enumerate(col_var):
        cost2[j] = sign * c[i]
    status, enter, iters = _bland_loop(tab, basis, cost2, n_real)
    total_iters += iters

    def to_x(column_values: np.ndarray) -> np.ndarray:
        x = np.zeros(n)
        for j, (i, sign) in enumerate(col_var):
            x[i] += sign * column_values[j]
        return x

    if status == "unbounded":
        direction = np.zeros(n_real)
        direction[enter] = 1.0
        for r in range(m):
            if basis[r] < n_real:
                direction[basis[r]] = -tab[r, enter]
        return LPResult("unbounded", ray=to_x(direction), iterations=total_iters)

    values = np.zeros(n_real)
    for r in range(m):
        if basis[r] < n_real:
            values[basis[r]] = tab[r, -1]
    x = to_x(values)
    return LPResult("optimal", x=x, objective=float(c @ x), iterations=total_iters)
