"""Seeded instance generators and independent reference computations.

The references here are deliberately different algorithms from the package
code: the gauge references solve the cone-exit quadratic in closed form or
bisect along rays through membership, the LP reference enumerates basic
feasible points, and the Farkas referee solves the precondition's dual with
scipy's HiGHS.  ``reference_solve_lp`` and ``mgs_completion`` keep earlier
versions of the package's simplex and orthonormal completion, so that a
faster kernel can be checked bit for bit against the one it replaced.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest

from gaugesep import (
    ConvexSet,
    HPolyhedron,
    LPResult,
    OpenBall,
    OracleGauge,
    PartialFunctional,
    PolyhedralGauge,
    Seminorm,
    SolverError,
    Subspace,
    gauge,
    pick_interior_point,
    simplexlp,
    solve_lp,
    span_basis,
    unit_ball,
    zero_subspace,
)
from gaugesep.cli import parse_problem

GAUGE_TOL = 1e-13  # relative bracket width of a bisected gauge value
RECESSION_CAP = 1e12


def bundled(name: str) -> tuple[ConvexSet, Subspace, np.ndarray]:
    """(A, S, x) of a bundled problem file, loaded as the command line loads it."""
    problem = parse_problem(name)
    return problem.a_set, problem.s, problem.x


def random_subspace(rng: np.random.Generator, n: int, dim: int) -> Subspace:
    if dim == 0:
        return zero_subspace(n)
    while True:
        candidate = span_basis(list(rng.normal(size=(dim, n))), n)
        if candidate.dim == dim:
            return candidate


def random_ball_instance(rng: np.random.Generator, n: int) -> tuple[OpenBall, Subspace]:
    """A ball and a subspace that are disjoint by construction."""
    while True:
        s_dim = int(rng.integers(0, n - 1))
        s = random_subspace(rng, n, s_dim)
        center = rng.normal(size=n) * 2.0
        clearance = float(np.linalg.norm(center - s.project(center)))
        if clearance < 0.5:
            continue
        radius = float(rng.uniform(0.3, 0.85)) * clearance
        return OpenBall(center, radius), s


def point_in_cone(rng: np.random.Generator, ball: OpenBall) -> np.ndarray:
    """A random point of the open cone over the ball, at a random scale."""
    u = rng.normal(size=ball.dim)
    inside = np.asarray(ball.center) + ball.radius * rng.uniform(0.0, 0.95) * u / np.linalg.norm(u)
    return rng.uniform(0.1, 10.0) * inside


def random_polytope_instance(rng: np.random.Generator, n: int) -> tuple[HPolyhedron, Subspace]:
    """A bounded polytope and a subspace that are disjoint by construction.

    The polytope sits inside a ball of radius 0.8 * dist(center, S), so the
    separation precondition holds with real margin.
    """
    while True:
        s_dim = int(rng.integers(0, n - 1))
        s = random_subspace(rng, n, s_dim)
        center = rng.normal(size=n) * 2.0
        clearance = float(np.linalg.norm(center - s.project(center)))
        if clearance < 0.5:
            continue
        half = 0.8 * clearance / np.sqrt(n)
        rows, offs = [], []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            rows.extend([e, -e])
            offs.extend([center[j] + half, -center[j] + half])
        for _ in range(int(rng.integers(1, 4))):
            direction = rng.normal(size=n)
            norm = float(np.linalg.norm(direction))
            if norm < 1e-9:
                continue
            direction = direction / norm
            rows.append(direction)
            offs.append(float(direction @ center) + float(rng.uniform(0.3, 0.9)) * half)
        return HPolyhedron(np.array(rows), np.array(offs)), s


def scale_hunt() -> Iterator[tuple[HPolyhedron, Subspace, str, float]]:
    """The 400 draws of the scale hunt from ``default_rng(123)``: each an n
    from ``integers(2, 10)``, then ``random_polytope_instance``, then
    k = 10^``uniform(-9, 9)``; the draw's polytope has b scaled by k, and
    the gamma rules take turns.  Yields (polytope, S, gamma rule, k)."""
    rng = np.random.default_rng(123)
    for index in range(400):
        n = int(rng.integers(2, 10))
        poly, s = random_polytope_instance(rng, n)
        k = 10.0 ** rng.uniform(-9.0, 9.0)
        yield HPolyhedron(poly.a, poly.b * k), s, ("upper", "lower", "midpoint")[index % 3], k


def scale_hunt_draw(index: int) -> tuple[HPolyhedron, Subspace, str]:
    """Draw ``index`` of the scale hunt (``scale_hunt``): (polytope, S, gamma rule)."""
    return next(islice(scale_hunt(), index, None))[:3]


def many_facet_polytope(n: int, m: int) -> tuple[HPolyhedron, Subspace]:
    """m facets with unit normals d_i drawn from ``default_rng(0)``:
    A = {d_i . (e - 3 e_1) < 1} against S = span{e_2, ..., e_{n/2+1}}.  About
    half the offsets are negative, so the conic hull has about m^2 / 4 rows
    (35,360 at n = 10 with 500 facets)."""
    d = np.random.default_rng(0).normal(size=(m, n))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return HPolyhedron(d, 1.0 + 3.0 * d[:, 0]), span_basis(list(np.eye(n)[1 : n // 2 + 1]), n)


@dataclass(frozen=True)
class Box:
    """The open box ``{x : |q^T (x - c)|_i < h_i}`` and a subspace (orthonormal
    rows ``basis``) that it misses."""

    c: np.ndarray
    h: np.ndarray
    q: np.ndarray
    basis: np.ndarray

    def polyhedron(self) -> HPolyhedron:
        mid = self.q.T @ self.c
        return HPolyhedron(np.vstack([self.q.T, -self.q.T]), np.concatenate([self.h + mid, self.h - mid]))

    def subspace(self) -> Subspace:
        return span_basis(list(self.basis), self.c.size)

    def separated_by(self, normal: np.ndarray) -> bool:
        """The plane through 0 with this normal misses the open box:
        |n.c| >= sum h_i |(q^T n)_i|, up to a relative 1e-9."""
        normal = normal / float(np.linalg.norm(normal))
        lhs, rhs = abs(float(normal @ self.c)), float(self.h @ np.abs(self.q.T @ normal))
        return lhs - rhs >= -1e-9 * (lhs + rhs)


def _basis_orthogonal_to(rng: np.random.Generator, normal: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal rows of a random k-dim subspace orthogonal to ``normal``."""
    stacked = np.column_stack([normal, rng.normal(size=(normal.size, k))])
    return np.linalg.qr(stacked)[0][:, 1:].T


def rotated_box(rng: np.random.Generator, n: int) -> Box:
    """A box in a random frame whose center lies beyond the half-width on
    n/2 axes, against a random n/2-dim subspace orthogonal to the center.

    The center direction separates with margin; n/2 rows have negative
    offsets, so the conic hull has about n^2/2 rows.
    """
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    h = rng.uniform(0.5, 1.5, n)
    while True:
        w = h * rng.uniform(0.2, 0.8, n) * rng.choice([-1.0, 1.0], n)
        far = rng.permutation(n)[: n // 2]
        w[far] = np.sign(w[far]) * h[far] * rng.uniform(1.5, 3.0, far.size)
        if float(w @ w) > 1.1 * float(h @ np.abs(w)):
            break
    c = q @ w
    return Box(c, h, q, _basis_orthogonal_to(rng, c / float(np.linalg.norm(c)), n // 2))


def axis_box(rng: np.random.Generator, n: int, *, dense_s: bool = False) -> Box:
    """An axis box with x_0 > c_0 - h_0 > 0 against an n/2-dim subspace of
    x_0 = 0: spanned by other coordinate axes, or with ``dense_s`` by
    random vectors."""
    h = rng.uniform(0.5, 1.5, n)
    c = h * rng.uniform(-0.8, 0.8, n)
    c[0] = h[0] * rng.uniform(1.5, 3.0)
    if dense_s:
        basis = _basis_orthogonal_to(rng, np.eye(n)[0], n // 2)
    else:
        basis = np.eye(n)[np.sort(1 + rng.permutation(n - 1)[: n // 2])]
    return Box(c, h, np.eye(n), basis)


def forced_step_boxes() -> list[Box]:
    """Rotated boxes at n = 4 to 12, two each, then axis boxes at n = 20 and
    40, from ``default_rng(70)``: every extension step after the first is
    forced under "upper" and "lower" (``TestForcedSteps``)."""
    rng = np.random.default_rng(70)
    boxes = [rotated_box(rng, n) for n in (4, 6, 8, 10, 12) for _ in range(2)]
    return boxes + [axis_box(rng, n) for n in (20, 40)]


def conic_hull_rows(poly: HPolyhedron) -> np.ndarray:
    """Rows of the polyhedron's conic hull, one pair at a time: each row with
    a nonpositive offset, followed (for a negative offset) by its cross row
    with every positive-offset row in order, then each scaled to unit norm."""
    pos = [(a_p, b_p) for a_p, b_p in zip(poly.a, poly.b) if b_p > 0.0]
    rows = []
    for a_i, b_i in zip(poly.a, poly.b):
        if b_i <= 0.0:
            rows.append(a_i)
            if b_i < 0.0:
                rows += [b_p * a_i - b_i * a_p for a_p, b_p in pos]
    rows = np.array(rows).reshape(-1, poly.dim)
    norms = np.linalg.norm(rows, axis=1)
    return rows[norms > 0.0] / norms[norms > 0.0, None]


def farkas_referee(poly: HPolyhedron, s: Subspace) -> tuple[np.ndarray, np.ndarray, float]:
    """(nu, y, r*) from the dual of the precondition LP, shared with no package solver.

    ``separation._check_disjoint`` solves max r s.t. a (B^T c) + r |a| <= b
    over c, for B the basis of S.  Its dual is min b.y s.t. B a^T y = 0,
    |a|.y = 1, y >= 0, solved here by ``scipy.optimize.linprog``.  When the
    optimum r* is negative, nu = a^T y lies in S-perp and
    nu.e = y.(a e) < y.b = r* < 0 on the set: a strict separation with its
    own Farkas multipliers (Motzkin's theorem of the alternative).  HiGHS
    may leave a zero as -3e-15, so y is clipped at 0 and then checked in
    rationals: |a|.y = 1 to 1e-9, and nu and r* = b.y are its exact sums,
    each rounded once.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    norms = np.linalg.norm(poly.a, axis=1)
    a_eq = np.vstack([s.basis @ poly.a.T, norms])
    res = linprog(poly.b, A_eq=a_eq, b_eq=np.eye(s.dim + 1)[-1], bounds=(0.0, None), method="highs")
    assert res.status == 0, res.message
    y = np.maximum(res.x, 0.0)
    used = [(Fraction(float(v)), i) for i, v in enumerate(y) if v > 0.0]
    assert abs(sum(v * Fraction(float(norms[i])) for v, i in used) - 1) <= Fraction(1, 10**9)
    nu = [sum(v * Fraction(float(poly.a[i, j])) for v, i in used) for j in range(poly.dim)]
    return np.array([float(x) for x in nu]), y, float(sum(v * Fraction(float(poly.b[i])) for v, i in used))


def random_instance(rng: np.random.Generator, n: int):
    if rng.uniform() < 0.5:
        return random_ball_instance(rng, n)
    return random_polytope_instance(rng, n)


def random_polyhedral_gauge(rng: np.random.Generator, n: int, max_pairs: int = 4) -> PolyhedralGauge:
    """A balanced polyhedral gauge (rows in +/- pairs); may have a kernel."""
    while True:
        k = int(rng.integers(1, max_pairs + 1))
        a = rng.normal(size=(k, n))
        if np.any(np.linalg.norm(a, axis=1) < 1e-6):
            continue
        b = rng.uniform(0.5, 2.0, size=k)
        return PolyhedralGauge(np.vstack([a, -a]), np.concatenate([b, b]))


def dominated_functional(
    rng: np.random.Generator, p: PolyhedralGauge, dim_l: int
) -> tuple[PartialFunctional, np.ndarray]:
    """A partial functional dominated by ``p`` plus a global witness extension.

    Any combination sum(lambda_i * a_i / b_i) with sum |lambda_i| < 1 is
    dominated because the rows come in +/- pairs.
    """
    n = p.dim
    lam = rng.normal(size=p.a.shape[0])
    lam *= rng.uniform(0.2, 0.95) / np.sum(np.abs(lam))
    witness = lam @ (p.a / p.b[:, None])
    domain = random_subspace(rng, n, dim_l)
    functional = PartialFunctional(domain, domain.basis @ witness)
    return functional, witness


def cone_exit(kappa2: float, c: np.ndarray, x: np.ndarray, e: np.ndarray) -> float:
    """Smallest s > 0 where ``x + s e`` leaves the circular cone
    ``{v : (v.c)^2 > kappa2 |v|^2, v.c > 0}``; inf when the ray never exits."""
    alpha = kappa2 * float(e @ e) - float(e @ c) ** 2
    beta = 2.0 * (kappa2 * float(x @ e) - float(x @ c) * float(e @ c))
    gamma0 = kappa2 * float(x @ x) - float(x @ c) ** 2  # negative: x interior
    if abs(alpha) < 1e-14:
        return -gamma0 / beta if beta > 0 else np.inf
    disc = beta * beta - 4.0 * alpha * gamma0
    if disc <= 0.0:
        return np.inf
    sqrt_disc = np.sqrt(disc)
    roots = sorted([(-beta - sqrt_disc) / (2 * alpha), (-beta + sqrt_disc) / (2 * alpha)])
    if roots[0] > 0.0:
        return roots[0]
    if alpha > 0.0:
        return roots[1] if roots[1] > 0.0 else np.inf
    return np.inf


def ball_pipeline_gauge_reference(ball: OpenBall, anchor: np.ndarray, e: np.ndarray) -> float:
    """Closed-form gauge of ``(B - x) ∩ (x - B)`` for the cone over a ball.

    Independent of the bisection code path: solves the exit quadratic.
    Requires the origin outside the closed ball (pointed cone).
    """
    c = np.asarray(ball.center, dtype=float)
    kappa2 = float(c @ c) - ball.radius**2
    assert kappa2 > 0.0, "reference needs a pointed cone"
    e = np.asarray(e, dtype=float)
    if not np.any(e):
        return 0.0
    out = 0.0
    for direction in (e, -e):
        exit_s = cone_exit(kappa2, c, np.asarray(anchor, dtype=float), direction)
        out = max(out, 0.0 if np.isinf(exit_s) else 1.0 / exit_s)
    return out


def lp_vertex_reference(c, a_ub, b_ub) -> tuple[float, np.ndarray]:
    """Brute-force LP minimum over basic feasible points (bounded problems).

    Enumerates every n-subset of rows, solves the equality system, filters by
    feasibility, and takes the best objective.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    n = c.size
    best = (np.inf, None)
    for subset in combinations(range(a.shape[0]), n):
        m = a[list(subset)]
        if abs(np.linalg.det(m)) < 1e-10:
            continue
        x = np.linalg.solve(m, b[list(subset)])
        if np.all(a @ x <= b + 1e-8):
            value = float(c @ x)
            if value < best[0]:
                best = (value, x)
    assert best[1] is not None, "no feasible vertex found"
    return best


def sample_exact(a_set: HPolyhedron | OpenBall, count: int, seed: int = 0) -> np.ndarray:
    """Seeded interior points of a ball or a polyhedron, drawn directly
    rather than walked: balls uniformly, polyhedra star-shaped from
    ``pick_interior_point`` (random directions, random fractions of the
    distance to the boundary, capped along recession directions)."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, a_set.dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1), 1e-300)[:, None]
    if isinstance(a_set, OpenBall):
        radii = a_set.radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / a_set.dim)
        return a_set.center + radii[:, None] * dirs
    x0 = pick_interior_point(a_set)
    tmax = np.full(count, 10.0 * max(1.0, float(np.linalg.norm(x0))))
    if a_set.a.shape[0]:
        dens = dirs @ a_set.a.T
        with np.errstate(divide="ignore"):
            ratios = np.where(dens > 1e-300, (a_set.b - a_set.a @ x0)[None, :] / dens, np.inf)
        tmax = np.minimum(ratios.min(axis=1), tmax)
    return x0 + (rng.uniform(0.02, 0.95, size=count) * tmax)[:, None] * dirs


@dataclass(frozen=True, eq=False)
class BisectionGauge(OracleGauge):
    """Reference gauge of any absorbing open body, by geometric bisection of
    its membership along each ray.

    The bracket is grown by doubling from dilation 1 and bisected to the
    relative width ``GAUGE_TOL``; rays still inside the body at
    ``RECESSION_CAP`` dilation are declared recession directions (gauge 0).
    As an ``OracleGauge`` it takes the package's membership-only paths (the
    extension search and the sampled domination ascent).
    """

    body: ConvexSet

    def __post_init__(self):
        pass  # any body that absorbs every point; no plane section

    def _value(self, e: np.ndarray) -> float:
        if not np.any(e):
            return 0.0
        member = self.body._member
        if member(e):
            s_in, s_out = 1.0, 2.0
            while member(s_out * e):
                s_in = s_out
                s_out *= 2.0
                if s_out > RECESSION_CAP:
                    return 0.0
        else:
            s_out, s_in = 1.0, 0.5
            while not member(s_in * e):
                s_out = s_in
                s_in *= 0.5
                if s_in < 1e-15:
                    raise SolverError("gauge bracket failed: body does not absorb the point")
        for _ in range(60):
            if s_out / s_in - 1.0 <= GAUGE_TOL:
                break
            mid = np.sqrt(s_in * s_out)
            if member(mid * e):
                s_in = mid
            else:
                s_out = mid
        return 0.5 * (1.0 / s_in + 1.0 / s_out)


@dataclass(frozen=True, eq=False)
class ExactSearchGauge(OracleGauge):
    """A polyhedral gauge on the ``OracleGauge`` paths (the extension search
    and the sampled polar), evaluated by its closed form: the search is then
    compared with the LP ends free of bisection error."""

    body: PolyhedralGauge

    def __post_init__(self):
        pass  # no plane section

    def _value(self, e: np.ndarray) -> float:
        return gauge(self.body, e)


def seminorm_axioms(p: Seminorm, seed: int = 0, trials: int = 1000) -> tuple[float, float, int, int]:
    """Sampled check of the seminorm axioms and the unit-ball identity:
    (largest relative homogeneity error, largest absolute subadditivity
    violation, unit-ball agreements, points checked).  Unit-ball agreement
    skips points inside the 1e-7 band around gauge 1.
    """
    rng = np.random.default_rng(seed)
    ball = unit_ball(p)
    homog = subadd = 0.0
    agreements = checked = 0
    for _ in range(trials):
        u = rng.normal(size=p.dim)
        v = rng.normal(size=p.dim)
        t = rng.uniform(-3.0, 3.0)
        pu, pv = gauge(p, u), gauge(p, v)
        homog = max(homog, abs(gauge(p, t * u) - abs(t) * pu) / max(1.0, abs(t) * pu))
        subadd = max(subadd, gauge(p, u + v) - pu - pv)
        if pu > 0.0:
            w = u * (rng.uniform(0.2, 1.8) / pu)
            pw = gauge(p, w)
            if abs(pw - 1.0) > 1e-7:
                checked += 1
                agreements += int(ball.contains(w) == (pw < 1.0))
    return homog, subadd, agreements, checked


# ---------------------------------------------------------------------------
# reference kernels: the simplex that gathers and inverts its whole basis at
# every pivot, and Gram-Schmidt over every axis (with the package's two
# block projections, so that only the skipped axes differ); kept with their
# own constants as test-only oracles of the package's faster kernels

PIVOT_TOL = 1e-9
MAX_ITER = 20000
STALL = 20


def record_lps(monkeypatch, *modules) -> list:
    """Route every ``solve_lp`` call of ``modules``, and every right-hand side
    of a shared solve (``simplexlp._solve``, which ``gauges`` calls for an
    interval's two ends) as it is solved, through a recorder; returns the
    list it fills with ((c, a_ub, b_ub, nonneg), result), in solve order."""
    calls = []

    def recording(c, a_ub=None, b_ub=None, nonneg=None):
        res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=nonneg)
        calls.append(((c, a_ub, b_ub, nonneg), res))
        return res

    def sharing(c, a_ub, b_ubs, mask):
        for b_ub, res in zip(b_ubs, simplexlp._solve(c, a_ub, b_ubs, mask)):
            calls.append(((c, a_ub, b_ub, mask), res))
            yield res

    for module in modules:
        monkeypatch.setattr(module, "solve_lp", recording)
        if module is not simplexlp and hasattr(module, "_solve"):
            monkeypatch.setattr(module, "_solve", sharing)
    return calls


def reference_solve_lp(c, a_ub=None, b_ub=None, nonneg=None) -> LPResult:
    """``solve_lp`` as it was before it kept its basis matrix and inverted
    through the LAPACK kernel directly: every basis gathered from the
    columns and inverted by ``np.linalg.inv``; phase 1 starts from the same
    crash basis (``_crash``), written row by row."""
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    mask = np.zeros(n, dtype=bool) if nonneg is None else np.asarray(nonneg, dtype=bool).reshape(-1)
    return _solve(c, a_ub, b_ub, mask)


def _simplex(cols, cost, rhs, basis, n_enter, zero_tol, binv=None):
    """Minimize ``cost . z`` subject to ``cols z = rhs``, ``z >= 0``, from the
    feasible ``basis`` (updated in place) and its inverse ``binv`` (computed
    when None); returns (status, multipliers, pivots, inverse of the final
    basis).

    Only the first ``n_enter`` columns may enter; the rest are artificials.
    A basic artificial at zero blocks the ratio test in both directions, so it
    leaves on a degenerate pivot instead of going negative.
    """
    enter_cols = cols[:, :n_enter]
    enter_cost = cost[:n_enter]
    inv_scale = 1.0 / (1.0 + np.sqrt((enter_cols * enter_cols).sum(axis=0)))
    price_tol = PIVOT_TOL * max(1.0, float(np.abs(enter_cost).max(initial=0.0)))
    artificial = basis >= n_enter
    stall = 0
    if binv is None:
        binv = np.linalg.inv(cols[:, basis])
    for pivots in range(MAX_ITER + 1):
        pi = cost[basis] @ binv
        if not n_enter:
            return "optimal", pi, pivots, binv
        score = (enter_cost - pi @ enter_cols) * inv_scale
        score[basis[~artificial]] = 0.0  # basic columns price at zero up to rounding
        # Bland: the first improving column; otherwise the steepest one
        q = (score < -price_tol).argmax() if stall >= STALL else score.argmin()
        if not score[q] < -price_tol:
            return "optimal", pi, pivots, binv
        z = np.maximum(binv @ rhs, 0.0)  # rounding below zero counts as zero
        u = binv @ enter_cols[:, q]
        blocked = artificial & (z <= zero_tol)
        u[blocked] = np.abs(u[blocked])
        rows = (u > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded", pi, pivots, binv
        zr, ur = z[rows], u[rows]
        ratio = zr / ur
        if stall >= STALL:  # Bland: the lowest index among the tied rows
            low = ratio.min()
            near = ratio <= low + 1e-12 * max(1.0, low)
            leave = rows[near][basis[rows[near]].argmin()]
        else:  # Harris: the largest pivot among the rows within the relaxed bound
            near = ratio <= ((zr + 1e-12 * (1.0 + zr)) / ur).min()
            leave = rows[near][ur[near].argmax()]
        stall = stall + 1 if z[leave] <= PIVOT_TOL * u[leave] else 0
        artificial[leave] = False
        basis[leave] = q
        binv = np.linalg.inv(cols[:, basis])
    raise SolverError(f"simplex iteration limit ({MAX_ITER}) exceeded; {cols.shape[0]} dual rows")


def _crash(enter_cols, rhs) -> np.ndarray:
    """The starting basis of phase 1: the artificial basis, in which each row
    of right-hand side 0, in index order, takes the column of the largest
    |entry| it has left (the first on ties) once the columns taken before
    are eliminated from it and set aside; a row whose largest is at most
    ``PIVOT_TOL`` times max(1, its largest |entry| before elimination) keeps
    its artificial."""
    n_enter = enter_cols.shape[1]
    basis = n_enter + np.arange(rhs.size)
    zero = (rhs == 0.0).nonzero()[0]
    left = enter_cols[zero].copy()
    taken = np.zeros(n_enter, dtype=bool)
    for k, row in enumerate(zero):
        size = np.where(taken, 0.0, np.abs(left[k]))
        if size.max(initial=0.0) > PIVOT_TOL * max(1.0, float(np.abs(enter_cols[row]).max(initial=0.0))):
            j = size.argmax()
            basis[row], taken[j] = j, True
            for later in range(k + 1, zero.size):
                left[later] -= left[later, j] / left[k, j] * left[k]
    return basis


def _solve(c, a_ub, b_ub, mask) -> LPResult:
    """``solve_lp`` on checked arrays; the zero-cost re-solve calls this, not
    the public name, so that a wrapper of ``solve_lp`` sees one LP."""
    n = c.size
    # dual rows scaled by ``sign`` so that the right-hand side |c| is >= 0;
    # columns: y (one per constraint), surplus s (masked variables), artificials
    sign = np.where(c > 0.0, -1.0, 1.0)
    rhs = np.abs(c)
    cols = np.hstack([sign[:, None] * a_ub.T, -np.diag(sign)[:, mask], np.eye(n)])
    n_enter = cols.shape[1] - n
    zero_tol = PIVOT_TOL * max(1.0, float(rhs.max(initial=0.0)))

    basis = _crash(cols[:, :n_enter], rhs)
    cost1 = np.concatenate([np.zeros(n_enter), np.ones(n)])
    status, pi, iters, binv = _simplex(cols, cost1, rhs, basis, n_enter, zero_tol)
    if status != "optimal":
        raise SolverError("phase-1 objective unbounded; malformed constraints")
    if float(pi @ rhs) > zero_tol:  # the dual is infeasible (never with c = 0)
        feasible = _solve(np.zeros(n), a_ub, b_ub, mask)
        iters += feasible.iterations
        if feasible.status == "infeasible":
            return LPResult("infeasible", iterations=iters, basis=basis)
        return LPResult("unbounded", ray=sign * pi, iterations=iters, basis=basis)
    cost = np.concatenate([b_ub, np.zeros(cols.shape[1] - b_ub.size)])
    # phase 2 starts from phase 1's final basis, so it reuses that inverse
    status, pi, more, binv = _simplex(cols, cost, rhs, basis, n_enter, zero_tol, binv)
    iters += more
    if status == "unbounded":  # the dual is unbounded
        return LPResult("infeasible", iterations=iters, basis=basis)
    x = sign * pi
    y = np.zeros(b_ub.size)
    rows = basis < b_ub.size  # basic dual variables; the rest are zero
    y[basis[rows]] = np.maximum(binv[rows] @ rhs, 0.0)
    return LPResult("optimal", x=x, objective=float(c @ x), y=y, iterations=iters, basis=basis)


def _mgs(rows, candidates) -> list[np.ndarray]:
    rows = list(rows)
    for v in candidates:
        q = np.array(rows).reshape(len(rows), v.size)
        w = v - (q @ v) @ q
        w = w - (q @ w) @ q
        norm = float(np.linalg.norm(w))
        if norm > 1e-8 * max(1.0, float(np.linalg.norm(v))):
            rows.append(w / norm)
    return rows


def mgs_completion(s: Subspace) -> list[np.ndarray]:
    """``complement_basis`` as Gram-Schmidt (two block projections
    ``w - (Q w) Q``) over every standard basis vector in index order, with no
    skipped candidate."""
    return _mgs(s.basis, np.eye(s.ambient_dim))[s.dim:]
