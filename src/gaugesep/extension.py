"""Dominated extension of partial linear functionals.

The one-dimensional step computes the closed admissible interval for the new
value: its upper end is ``inf over x in G of (-g(x) + p(x + z))`` and its
lower end the matching supremum; any choice inside keeps ``|g| <= p``.  Full
extension runs the step over a deterministic orthonormal completion of the
domain, replacing transfinite machinery with finite induction.

By duality the upper end is also the support function of a slice of the
polar body, ``max psi.z`` over ``psi`` in D° with ``psi = g`` on the domain.
For polyhedral gauges the infimum is an exact small LP.  The two ends' LPs
differ only in ``b_ub = -+a z``, which is only the cost of the dual that
``solve_lp`` solves, so the lower end starts from the basis where the upper
end's phase 1 ended and pivots in phase 2 only.  Picking an end narrows the
slice to that LP's optimal face; when the face is one point psi, every later
interval is ``[psi.z, psi.z]`` and solves no LP.  Otherwise the picked end
(for a value inside the interval, one of the two ends), with one artificial
for the new dual row, is a feasible start for the next step's upper end; a
start moves an end by rounding only.  For ball-cone gauges the slice is an
ellipsoid cylinder cut by a slab, whose maximum is closed form; for oracle
gauges (3-D and up) a seeded derivative-free coordinate search certifies the
interval to about 1e-6.  ``domination_check`` measures ``|g| <= p`` on the
polar side too, as ``p*(g) - 1``: exactly from the LPs ``max +-g . e`` over
``p <= 1`` for polyhedral gauges (only +g on mirrored rows, where
p*(-g) = p*(g)) and from the polar for ball-cone gauges, by seeded sampling
and ascent for oracle gauges.  ``extend_full_state`` checks its result that
way; ``separate()`` leaves that to its exact certificates (Remark 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateError, InputError, SolverError
from .gauges import BallConeGauge, OracleGauge, PolyhedralGauge, Seminorm, _gauge, _mirror_rows, gauge
from .geometry import (
    TOL_MEMBERSHIP,
    PartialFunctional,
    Subspace,
    _frozen,
    as_vector,
    complement_basis,
)
from .simplexlp import PIVOT_TOL, LPResult, _face_edges, solve_lp

DOMINATION_TOL = 1e-6
GAMMA_RULES = ("upper", "lower", "midpoint")
SEARCH_RESTARTS = 8
SEARCH_ITERATIONS = 200


@dataclass(frozen=True)
class GammaInterval:
    """Closed interval of admissible values for the extension at a new direction."""

    lo: float
    hi: float
    # LP results of the (upper, lower) ends, or of the end a forced interval rests on
    _ends: tuple[LPResult, ...] = field(default=(), repr=False, compare=False)
    _split: tuple = field(default=(), repr=False, compare=False)  # (z on the domain's basis, z off it, |z off it|)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def pick(self, rule: str) -> float:
        if rule not in GAMMA_RULES:
            raise InputError(f"unknown gamma rule {rule!r}; use one of {GAMMA_RULES}")
        return self.hi if rule == "upper" else self.lo if rule == "lower" else self.midpoint


@dataclass(frozen=True, eq=False)
class ExtensionStep:
    direction: np.ndarray
    interval: GammaInterval
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "direction", _frozen(as_vector(self.direction)))


@dataclass(frozen=True, eq=False)
class ExtensionState:
    """Current (domain, functional) pair plus the trail of extension steps;
    ``violation`` is ``domination_check`` of a checked full extension, else None."""

    functional: PartialFunctional
    seminorm: Seminorm
    history: tuple[ExtensionStep, ...] = ()
    violation: float | None = None

    @property
    def domain(self) -> Subspace:
        return self.functional.domain


def _pattern_search(
    fun, x0: np.ndarray, *, iterations: int, step0: float = 1.0, rng=None, target: float = -np.inf
):
    """Adaptive coordinate search with pattern moves.

    Exploratory coordinate probes (plus, with ``rng``, seeded extra
    directions that unstick nonsmooth kinks) are followed by a doubling
    extrapolation along the sweep's aggregate progress direction, which
    tracks the narrow curved valleys of cone gauges and reaches minima that
    are only approached asymptotically.  The step doubles on improving
    sweeps and halves otherwise.
    """
    x = np.array(x0, dtype=float)
    fx = fun(x)
    step = step0
    previous = x.copy()
    # excursion cap: past ~1e6 the gauge's relative noise outweighs any
    # remaining asymptotic descent, so such candidates are never probed
    radius = 1e6
    for _ in range(iterations):
        if fx <= target:  # matched the incumbent; the polish pass takes over
            break
        sweep_base = x.copy()
        probes = [sign * row for row in np.eye(x.size) for sign in (1.0, -1.0)]
        if rng is not None and x.size > 1:
            for _ in range(2):
                extra = rng.normal(size=x.size)
                probes.append(extra / float(np.linalg.norm(extra)))
        improved = False
        for direction in probes:
            cand = x + step * direction
            if float(np.max(np.abs(cand))) > radius:
                continue
            fc = fun(cand)
            if fc < fx:
                x, fx = cand, fc
                improved = True
        if improved:
            drift = x - previous
            if float(drift @ drift) > 0.0:
                length = 1.0
                while length < 1e6:
                    cand = x + length * drift
                    if float(np.max(np.abs(cand))) > radius:
                        break
                    fc = fun(cand)
                    if fc < fx:
                        x, fx = cand, fc
                        length *= 2.0
                    else:
                        break
            previous = sweep_base
            step = min(step * 2.0, 1e3)
        else:
            previous = x.copy()
            step *= 0.5
            if step < 1e-10:
                break
    return x, fx


def _slack(p: Seminorm) -> float:
    """Interval tolerance: LP and closed-form endpoints are exact, search-certified ones ~1e-6."""
    return 2e-6 if isinstance(p, OracleGauge) else 1e-7


def _ellipsoid_slice_max(q: np.ndarray, rows: np.ndarray, values: np.ndarray, z: np.ndarray):
    """Max of ``psi . z`` over ``{psi : rows psi = values, psi^T q psi <= 1}``.

    Returns (value, maximizer, rho2), where rho2 = 1 - min psi^T q psi over
    the affine slice is the slack of the slice (scale-free; negative when
    the slice misses the ellipsoid, and then value and maximizer belong to
    its centre).  Returns None when the rows are inconsistent or ``q`` is not
    positive definite across them, so that the maximum may be unbounded.
    """
    u, sv, vt = np.linalg.svd(rows)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    psi0 = vt[:rank].T @ ((u[:, :rank].T @ values) / sv[:rank])
    if np.linalg.norm(rows @ psi0 - values) > 1e-9 * np.linalg.norm(values):
        return None
    null = vt[rank:]
    lam, vec = np.linalg.eigh(null @ q @ null.T)
    if lam.size and not lam[0] > 1e-12 * lam[-1]:
        return None
    # psi = psi0 + null^T y; the centre minimizes psi^T q psi on the slice
    to_null = (vec / lam) @ vec.T
    centre = psi0 - null.T @ (to_null @ (null @ (q @ psi0)))
    rho2 = 1.0 - float(centre @ q @ centre)
    a = null @ z
    reach = to_null @ a
    spread = np.sqrt(max(float(a @ reach), 0.0))
    if not spread > 0.0 or rho2 <= 0.0:
        return float(z @ centre), centre, rho2
    rho = np.sqrt(rho2)
    return float(z @ centre) + rho * spread, centre + (rho / spread) * (null.T @ reach), rho2


def _ball_phi(p: BallConeGauge, basis: np.ndarray, w: np.ndarray, z: np.ndarray) -> float:
    """max ``psi . z`` over the polar body ``D°`` with ``psi`` = w on the domain.

    D° is the ellipsoid cylinder ``psi^T Q psi <= 1`` cut by the slab
    ``|psi.x| <= 1``, so the maximum is the best feasible one of at most
    three slices: the slab inactive, ``psi.x = 1`` and ``psi.x = -1``.  When
    x lies in the domain the first one is the answer.  Q is singular on the
    first slice only when its kernel m is orthogonal to the domain; the
    slice is then skipped, since a finite maximum there is constant along m
    and so is also reached on a face.  A slice slack in
    [-1e-9, 0) counts as zero: after an end pick the next slice is a point.
    """
    x = p.body.anchor

    def feasible(slice_max) -> bool:
        return slice_max is not None and slice_max[2] >= -1e-9 and abs(float(slice_max[1] @ x)) <= 1.0 + 1e-12

    cylinder = _ellipsoid_slice_max(p._q, basis, w, z)
    if feasible(cylinder):
        return cylinder[0]
    xn = float(np.linalg.norm(x))
    rows = np.vstack([basis, x / xn])
    faces = [_ellipsoid_slice_max(p._q, rows, np.append(w, s / xn), z) for s in (1.0, -1.0)]
    values = [face[0] for face in faces if feasible(face)]
    if not values:
        detail = "" if cylinder is None else f" (slice slack {cylinder[2]:.3e}, |psi.x| {abs(float(cylinder[1] @ x)):.3e})"
        raise SolverError(
            "empty admissible interval: no point of the polar body agrees with the functional on its domain" + detail
        )
    return max(values)


def _forced_end(state: ExtensionState) -> LPResult | None:
    """The LP result of the interval end the state's last step picked (on a
    forced interval, of the end that forced it; None when it picked none)
    when its point psi = a^T y is its LP's whole optimal face, as no tied
    edge from y (``_face_edges``) moves psi beyond ``PIVOT_TOL`` of its
    terms (sufficient, not necessary); a forced interval hands it on."""
    last = state.history[-1] if state.history else None
    if last is None or not last.interval._ends or last.gamma not in (last.interval.lo, last.interval.hi):
        return None
    res = last.interval._ends[0 if last.gamma == last.interval.hi else -1]
    if len(last.interval._ends) == 1:
        return res
    a, edges = state.seminorm.a, _face_edges(res)
    return res if np.all(np.abs(a.T @ edges) <= PIVOT_TOL * (np.abs(a.T) @ np.abs(edges))) else None


def _lp_ends(state: ExtensionState, z: np.ndarray) -> tuple[float, float, tuple[LPResult, ...]]:
    """(hi, lo, results of the two ends) for a polyhedral gauge, with
    (hi, lo) = (``_phi`` at z, minus ``_phi`` at -z): two LPs that differ
    only in ``b_ub``, so the second starts from the first one's ``phase1_basis``.
    The first starts from the end bases of the state's last step, the picked
    end's first, each with one artificial for the new dual row."""
    a, b = state.seminorm.a, state.seminorm.b
    basis, w = state.domain.basis, state.functional.values
    m, k = a.shape[0], basis.shape[0]
    # variables (c_1..c_k free, t >= 0): min -w.c + t  s.t.  a_i.(Bc + z) <= t b_i
    cost = np.concatenate([-w, [1.0]])
    a_ub = np.hstack([a @ basis.T, -b[:, None]])
    nonneg = np.concatenate([np.zeros(k, dtype=bool), [True]])
    # dual columns: y (m), the surplus of t, then one artificial per row; the
    # new row c_k comes before the row of t, whose artificial shifts by one
    new, start = m + k, None
    if state.history:
        last = state.history[-1]
        ends = last.interval._ends[:: -1 if last.gamma - last.interval.lo < last.interval.hi - last.gamma else 1]
        start = [np.append(np.where(e.basis >= new, e.basis + 1, e.basis), new) for e in ends if e.basis.size == k] or None
    results, az = [], a @ z
    for b_ub in (-az, az):  # -(a z) and -(a (-z))
        res = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, nonneg=nonneg, start=start)
        if res.status == "unbounded":
            raise SolverError(
                f"extension LP is unbounded ({m} rows, {k + 1} vars): either the functional is not "
                "dominated by the seminorm or the LP solver failed"
            )
        if res.status != "optimal":
            raise SolverError(f"extension LP failed with status {res.status!r} ({m} rows, {k + 1} vars)")
        results.append(res)
        start = res.phase1_basis
    return results[0].objective, -results[1].objective, tuple(results)


def _phi(state: ExtensionState, z: np.ndarray, seed: int) -> float:
    """inf over x in the domain of ``-g(x) + p(x + z)``; for a polyhedral gauge
    on a nonzero domain ``_lp_ends`` computes it instead."""
    p = state.seminorm
    basis = state.domain.basis
    w = state.functional.values
    k = basis.shape[0]
    if k == 0:
        return gauge(p, z)
    if isinstance(p, BallConeGauge):
        return _ball_phi(p, basis, w, z)
    def objective(c: np.ndarray) -> float:  # c and z are finite float arrays
        return float(-w @ c + _gauge(p, c @ basis + z))

    rng = np.random.default_rng(seed)
    best = np.inf
    best_point = np.zeros(k)
    starts = [np.zeros(k)] + [rng.normal(size=k) for _ in range(SEARCH_RESTARTS)]
    for start in starts:
        # convexity: a restart that has reached the incumbent's level is
        # retracing the same descent, so it may stop there
        target = best + 1e-12 if np.isfinite(best) else -np.inf
        point, val = _pattern_search(objective, start, iterations=SEARCH_ITERATIONS, rng=rng, target=target)
        if val < best:
            best, best_point = val, point
    # polish from the best restart with a fine initial step
    _, val = _pattern_search(objective, best_point, iterations=SEARCH_ITERATIONS, step0=1e-3, rng=rng)
    return min(best, val)


def extension_interval(state: ExtensionState, z, *, seed: int = 0) -> GammaInterval:
    """Admissible value interval for extending the functional to direction ``z``.

    Raises DegenerateError when ``z`` already lies in the domain
    and SolverError when the interval comes out empty, which signals a gauge
    that is not actually a seminorm or a functional that is not dominated.
    """
    z = as_vector(z, state.domain.ambient_dim)
    coeffs = state.domain.basis @ z  # as ``Subspace.contains``, keeping what ``extend_one`` needs
    residual = z - state.domain.basis.T @ coeffs
    scale = float(np.linalg.norm(residual))
    if scale <= TOL_MEMBERSHIP * max(1.0, float(np.linalg.norm(z))):
        raise DegenerateError("direction already lies in the domain")
    ends, forced = (), _forced_end(state)
    if forced is not None:  # every admissible value is psi . z: no LP
        hi = lo = float((state.seminorm.a.T @ forced.y) @ z)
        ends = (forced,)
    elif state.domain.dim and isinstance(state.seminorm, PolyhedralGauge):
        hi, lo, ends = _lp_ends(state, z)
    else:
        hi = _phi(state, z, seed)
        lo = -_phi(state, -z, seed + 1)
    # a zero-width search-certified interval may come back inverted by
    # certification noise
    if lo > hi + _slack(state.seminorm):
        raise SolverError(f"empty admissible interval [{lo}, {hi}]: seminorm or domination assumption broken")
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)
    return GammaInterval(lo, hi, ends, (coeffs, residual, scale))


def extend_one(
    state: ExtensionState,
    z,
    rule: str = "upper",
    *,
    gamma: float | None = None,
    seed: int = 0,
) -> ExtensionState:
    """Extend by one direction, choosing the new value by ``rule`` (or ``gamma``).

    The returned state has domain ``G + span{z}``; stepwise domination is
    re-checked on the appended basis vector.
    """
    z = as_vector(z, state.domain.ambient_dim)
    interval = extension_interval(state, z, seed=seed)
    value = interval.pick(rule) if gamma is None else float(gamma)
    domain = state.domain
    coeffs, residual, scale = interval._split
    new_row = residual / scale
    new_value = (value - float(state.functional.values @ coeffs)) / scale
    new_domain = Subspace(domain.ambient_dim, np.vstack([domain.basis, new_row]))
    new_functional = PartialFunctional(new_domain, np.append(state.functional.values, new_value))
    bound = gauge(state.seminorm, new_row)
    if abs(new_value) > bound + _slack(state.seminorm):
        raise SolverError(
            f"stepwise domination failed: |g| = {abs(new_value):.3e} exceeds p = {bound:.3e} on the new direction"
        )
    step = ExtensionStep(z, interval, value)
    return ExtensionState(new_functional, state.seminorm, state.history + (step,))


def _check_domain(f: PartialFunctional, p: Seminorm) -> None:
    """Dimension check and domination pre-check on the domain basis."""
    if p.dim != f.domain.ambient_dim:
        raise InputError("seminorm and functional live in different dimensions")
    for row, value in zip(f.domain.basis, f.values):
        if abs(value) > gauge(p, row) + 1e-7:
            raise InputError("functional is not dominated by the seminorm on its domain basis")


def _extend_steps(f: PartialFunctional, p: Seminorm, rule: str, *, seed: int) -> ExtensionState:
    """``f`` extended over the deterministic completion order, unchecked
    (``violation`` None); the zero functional extends to zero directly,
    with ``violation`` -1 (``p*(0) - 1``)."""
    _check_domain(f, p)
    n = f.domain.ambient_dim
    if f.is_zero():
        return ExtensionState(PartialFunctional(Subspace(n, np.eye(n)), np.zeros(n)), p, violation=-1.0)
    state = ExtensionState(f, p)
    for z in complement_basis(f.domain):
        state = extend_one(state, z, rule, seed=seed)
    return state


def extend_full_state(
    f: PartialFunctional,
    p: Seminorm,
    rule: str = "upper",
    *,
    seed: int = 0,
) -> ExtensionState:
    """Extend ``f`` to the whole space over the deterministic completion order.

    An unknown ``rule`` raises InputError before any LP.  The result is
    verified by ``domination_check``, whose value is kept as ``violation``,
    and a SolverError is raised past ``DOMINATION_TOL`` (this is where a
    non-balanced "gauge" gets caught).
    """
    if rule not in GAMMA_RULES:
        raise InputError(f"unknown gamma rule {rule!r}; use one of {GAMMA_RULES}")
    state = _extend_steps(f, p, rule, seed=seed)
    if state.violation is None:
        violation = _checked_domination(state.functional.as_coefficients(), p, seed=seed)
        state = ExtensionState(state.functional, p, state.history, violation)
    return state


def _checked_domination(g: np.ndarray, p: Seminorm, *, seed: int) -> float:
    """``domination_check`` of a full extension ``g``, raising SolverError
    past ``DOMINATION_TOL``."""
    violation = domination_check(g, p, seed=seed)
    if violation > DOMINATION_TOL:
        raise SolverError(f"extension violates domination by {violation:.3e}")
    return violation


def domination_check(g, p: Seminorm, seed: int = 0) -> float:
    """``p*(g) - 1`` with ``p*(g) = sup |g . e| / p(e)``; <= 0 means dominated.

    ``|g| <= p`` says that g lies in the polar body D°, so the value is
    relative: it does not change when g and p are scaled together.
    Polyhedral gauges take the larger of the two LPs ``max +-g . e`` over
    ``p <= 1`` (``inf`` when one is unbounded: g is then nonzero on the
    kernel of p); ball-cone gauges take the closed-form polar.  Both are
    exact and draw nothing.  On a gauge with mirrored rows
    (``gauges._mirror_rows``: those of ``gauge_from_symmetrized`` and
    ``ExplicitMaxAbs``) p(-e) = p(e), so p*(-g) = p*(g) and only the +g LP
    is solved.  Oracle gauges sample 256 seeded directions and refine the
    best one, and ``g`` itself, by a deterministic coordinate ascent, so
    that clear violations cannot hide between samples; there ``|g . e|`` is
    first lowered by ``1e-9 |g| |e|``, so that rounding left on the kernel
    of p does not read as infinite.
    """
    g = as_vector(g, p.dim)
    if isinstance(p, PolyhedralGauge):
        best = 0.0
        for sign in (1.0,) if _mirror_rows(p) else (1.0, -1.0):
            res = solve_lp(-sign * g, a_ub=p.a, b_ub=p.b)
            if res.status == "unbounded":
                return np.inf
            if res.status != "optimal":
                raise SolverError(f"domination LP failed with status {res.status!r}")
            best = max(best, -res.objective)
        return best - 1.0
    if isinstance(p, BallConeGauge):
        return p.polar(g)[0] - 1.0

    gnorm = float(np.linalg.norm(g))

    def ratio(e: np.ndarray):
        # a residue of g below 1e-9 |g| on the kernel of p is rounding, not an
        # infinite p*(g); the LPs' feasibility test forgives residues of that order
        dot = np.maximum(np.abs(e @ g) - 1e-9 * gnorm * np.linalg.norm(e, axis=-1), 0.0)
        pe = _gauge(p, e)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(pe > 0.0, dot / pe, np.where(dot > 0.0, np.inf, 0.0))

    dirs = np.random.default_rng(seed).normal(size=(256, g.size))
    values = ratio(dirs)
    best = float(np.max(values))
    starts = [dirs[int(np.argmax(values))]] + ([g] if np.any(g) else [])
    for start in starts:  # the ratio is scale-free, so the ascent may leave the unit sphere
        u = start / float(np.linalg.norm(start))
        best = max(best, -_pattern_search(lambda e: -float(ratio(e)), u, iterations=80, step0=0.5)[1])
    return best - 1.0
