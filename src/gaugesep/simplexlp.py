"""Revised simplex for the small linear programs behind gauges, interior
points, and certificates.

Every LP here has many rows and few variables, so ``solve_lp`` solves the
dual, which has one equality row per variable: minimize ``b . y`` subject to
``a^T y - s = -c`` and ``y >= 0``, with a surplus ``s_j >= 0`` only for the
variables flagged nonnegative (a free variable gives a plain equality row).
The basis is square in the number of variables; a pivot replaces one of its
columns and inverts it afresh, so rounding cannot build up over a long run.
Pricing takes the most negative reduced cost per unit column norm, with a
tolerance relative to the largest cost; after ``STALL`` degenerate pivots in
a row both choices follow Bland's rule, which cannot cycle (Bland 1977).
The ratio test is Harris's two-pass test (Harris 1973), relaxed by only
1e-12 of each basic value: a dual value it lets go negative biases the LP
value upward, and the extension takes that value as the end of its interval.
It runs on Python floats (numpy's per-call cost outweighs short vectors)
with an array version's operations in their order, so it picks the same rows.

Every solve starts phase 1 from the artificial basis: ``solve_lp`` takes
the LP and nothing else, so two calls on the same LP return the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError

PIVOT_TOL = 1e-9
MAX_ITER = 20000  # pivots per phase
STALL = 20  # degenerate pivots in a row before Bland's rule takes over
_inv = np.linalg._umath_linalg.inv  # the kernel of np.linalg.inv, without its per-call checks


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    ray: np.ndarray | None = None  # improving direction when unbounded
    y: np.ndarray | None = None  # dual solution when optimal (see solve_lp)
    iterations: int = 0
    basis: np.ndarray | None = None  # the final basis of the dual: indices into (y, s, artificials)
    # (sign, dual columns, column scales, phase-2 cost, inverse of ``basis``) when optimal
    _final: tuple | None = field(default=None, repr=False, compare=False)


def _simplex(cols, cost, rhs, basis, n_enter, zero_tol, inv_scale, binv=None):
    """Minimize ``cost . z`` subject to ``cols z = rhs``, ``z >= 0``, from the
    feasible ``basis`` (updated in place) and its inverse ``binv`` (computed
    when None, in phase 1); returns (status, multipliers, pivots, inverse of
    the final basis), or raises SolverError on a singular basis.
    ``inv_scale`` is 1 / (1 + norm) of each column that may enter.

    Only the first ``n_enter`` columns may enter; the rest are artificials.
    A basic artificial at zero blocks the ratio test in both directions, so it
    leaves on a degenerate pivot instead of going negative.  The ratio test
    runs on Python floats with the operations of ``np.maximum``, ``min`` and
    ``argmax`` in their order, so the same row leaves as in an array version.
    """
    enter_cols = cols[:, :n_enter]
    enter_cost = cost[:n_enter]
    price_tol = PIVOT_TOL * max(1.0, float(np.abs(enter_cost).max(initial=0.0)))
    artificial = (basis >= n_enter).nonzero()[0].tolist()  # the rows of the basic artificials
    bmat, cost_b = cols[:, basis], cost[basis]  # each pivot replaces one column and cost
    prices = np.empty(cols.shape[1])  # the artificials' entries are never read
    score = prices[:n_enter]
    stall = pivots = 0
    phase = 1 if binv is None else 2

    def singular(err, flag):  # set as np.linalg.inv sets it: "invalid" signals a singular basis
        raise SolverError(f"singular basis in phase {phase} after {pivots} pivots (LP of {n_enter} rows in {rhs.size} variables)")

    with np.errstate(call=singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        if binv is None:
            binv = _inv(bmat, signature="d->d")
        for pivots in range(MAX_ITER + 1):
            pi = cost_b @ binv
            if not n_enter:
                return "optimal", pi, pivots, binv
            prices[:n_enter] = (enter_cost - pi @ enter_cols) * inv_scale
            prices[basis] = 0.0  # basic columns price at zero up to rounding
            bland = stall >= STALL
            # Bland: the first improving column; otherwise the steepest one
            q = (score < -price_tol).argmax() if bland else score.argmin()
            if not score[q] < -price_tol:
                return "optimal", pi, pivots, binv
            z = (binv @ rhs).tolist()
            u = (binv @ enter_cols[:, q]).tolist()
            for i in artificial:
                if z[i] <= zero_tol:
                    u[i] = abs(u[i])
            rows, cut = [], math.inf  # the rows that bound the step; Harris's relaxed bound
            for i, ui in enumerate(u):
                if ui > PIVOT_TOL:
                    if z[i] <= 0.0:
                        z[i] = 0.0  # rounding below zero counts as zero (and -0.0 is 0.0, as in np.maximum)
                    rows.append(i)
                    bound = (z[i] + 1e-12 * (1.0 + z[i])) / ui
                    if bound < cut:
                        cut = bound
            if not rows:
                return "unbounded", pi, pivots, binv
            if bland:  # the lowest basis index among the tied rows
                low = min([z[i] / u[i] for i in rows])
                cut = low + 1e-12 * max(1.0, low)
                leave = min([i for i in rows if z[i] / u[i] <= cut], key=basis.__getitem__)
            else:  # Harris: the largest pivot (the first on ties) among the rows within the relaxed bound
                leave = max([i for i in rows if z[i] / u[i] <= cut], key=u.__getitem__)
            stall = stall + 1 if z[leave] <= PIVOT_TOL * u[leave] else 0
            if leave in artificial:
                artificial.remove(leave)
            basis[leave] = q
            bmat[:, leave], cost_b[leave] = cols[:, q], cost[q]
            binv = _inv(bmat, signature="d->d")
    raise SolverError(f"simplex iteration limit ({MAX_ITER}) exceeded; {cols.shape[0]} dual rows")


def solve_lp(c, a_ub=None, b_ub=None, nonneg=None) -> LPResult:
    """Minimize ``c . x`` subject to ``a_ub x <= b_ub`` (an equality is two
    opposite rows), on finite data.

    ``nonneg`` is an optional boolean mask; unmasked variables are free.
    When the dual is infeasible the LP is unbounded or infeasible; a second
    solve with zero cost, whose dual is feasible (y = 0), tells which, so an
    empty feasible set is always "infeasible".  An unbounded LP comes back
    with a ``ray``: a Farkas certificate of the infeasible dual, with
    ``a_ub @ ray <= 0``, ``ray >= 0`` on the masked variables and
    ``c @ ray < 0``.  An optimal
    LP comes back with the dual solution ``y >= 0``, one multiplier per row:
    ``a_ub^T y = -c`` on the free variables (``>= -c`` on the masked ones)
    and ``b_ub @ y = -objective``, up to rounding.  For ``a_ub x <= b_ub``
    with every variable free this is the Farkas certificate that ``c . x``
    is at least ``-b_ub @ y`` on the whole feasible set.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    mask = np.zeros(n, dtype=bool) if nonneg is None else np.asarray(nonneg, dtype=bool).reshape(-1)
    if a_ub.shape != (b_ub.size, n) or mask.size != n:
        raise SolverError("constraint matrix/vector shapes disagree")
    if not (np.isfinite(c).all() and np.isfinite(a_ub).all() and np.isfinite(b_ub).all()):
        raise SolverError("LP data must be finite")
    return _solve(c, a_ub, b_ub, mask)


def _solve(c, a_ub, b_ub, mask) -> LPResult:
    """``solve_lp`` on checked arrays; the zero-cost re-solve calls this, not
    the public name, so that a wrapper of ``solve_lp`` sees one LP."""
    n, m = c.size, b_ub.size
    # dual rows scaled by ``sign`` so that the right-hand side |c| is >= 0;
    # columns: y (one per constraint), surplus s (masked variables), artificials
    sign = np.where(c > 0.0, -1.0, 1.0)
    rhs = np.abs(c)
    surplus = mask.nonzero()[0]
    n_enter = m + surplus.size
    cols = np.zeros((n, n_enter + n))
    np.multiply(sign[:, None], a_ub.T, out=cols[:, :m])
    cols[:, m:n_enter] = -0.0  # the signed zeros of -diag(sign), which can reach the bits of x
    cols[surplus, m + np.arange(surplus.size)] = -sign[surplus]
    np.fill_diagonal(cols[:, n_enter:], 1.0)
    enter = cols[:, :n_enter]
    inv_scale = 1.0 / (1.0 + np.sqrt((enter * enter).sum(axis=0)))
    zero_tol = PIVOT_TOL * max(1.0, float(rhs.max(initial=0.0)))

    basis = n_enter + np.arange(n)  # the artificial basis
    cost1 = np.zeros(n_enter + n)
    cost1[n_enter:] = 1.0
    status, pi, iters, binv = _simplex(cols, cost1, rhs, basis, n_enter, zero_tol, inv_scale)
    if status != "optimal":
        raise SolverError("phase-1 objective unbounded; malformed constraints")  # unreached: a sum of artificials is >= 0
    if float(pi @ rhs) > zero_tol:  # the dual is infeasible (never with c = 0)
        feasible = _solve(np.zeros(n), a_ub, b_ub, mask)
        iters += feasible.iterations
        if feasible.status == "infeasible":
            return LPResult("infeasible", iterations=iters, basis=basis)
        return LPResult("unbounded", ray=sign * pi, iterations=iters, basis=basis)
    cost = np.zeros(n_enter + n)
    cost[:m] = b_ub
    # phase 2 starts from phase 1's final basis, so it reuses that inverse
    status, pi, more, binv = _simplex(cols, cost, rhs, basis, n_enter, zero_tol, inv_scale, binv)
    iters += more
    if status == "unbounded":  # the dual is unbounded
        return LPResult("infeasible", iterations=iters, basis=basis)
    x = sign * pi
    y = np.zeros(b_ub.size)
    rows = basis < b_ub.size  # basic dual variables; the rest are zero
    y[basis[rows]] = np.maximum(binv[rows] @ rhs, 0.0)
    final = (sign, cols, inv_scale, cost, binv)
    return LPResult("optimal", x=x, objective=float(c @ x), y=y, iterations=iters, basis=basis, _final=final)


def _face_edges(res: LPResult) -> np.ndarray:
    """Changes of y along the edges from an optimal result's final basis, one
    per tied column j (nonbasic and priced within the tolerance ``_simplex``
    stops on; the others cost more, so the optimal face lies in the cone of
    these edges from y): the basic values change by -B^-1 col_j, column j by 1."""
    sign, cols, inv_scale, cost, binv = res._final
    m, n_enter = res.y.size, inv_scale.size
    price_tol = PIVOT_TOL * max(1.0, float(np.abs(cost[:n_enter]).max(initial=0.0)))
    score = (cost[:n_enter] - (sign * res.x) @ cols[:, :n_enter]) * inv_scale  # sign * x is the final pi
    tied = score <= price_tol
    tied[res.basis[res.basis < n_enter]] = False  # basic columns are not edges
    tied = tied.nonzero()[0]
    edges = np.zeros((cols.shape[1], tied.size))  # one row per column of the dual
    edges[res.basis] = -(binv @ cols[:, tied])
    edges[tied, np.arange(tied.size)] = 1.0
    return edges[:m]
