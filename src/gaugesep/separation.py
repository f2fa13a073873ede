"""Separating a subspace from a disjoint open convex set.

The pipeline: take the positive conic hull B of the set, anchor a point x
inside it, symmetrize to D = (B - x) ∩ (x - B), take the gauge p of D,
define the partial functional sending z + t*x to t on span(S + {x}), extend
it under domination by p, and return the kernel hyperplane of the extension
together with a verification certificate.

Also here: the reverse construction (recovering a dominated extension by
separating the gauge ball around a normalizing point from the functional's
kernel), an exact 2-D angular oracle, and the domination/disjointness
equivalence check for candidate extensions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .convexsets import (
    ConvexSet,
    HPolyhedron,
    OpenBall,
    OracleSet,
    _hull_rows,
    _inscribed_ball,
    build_D,
    conic_hull,
    pick_interior_point,
    sample_interior,
)
from .errors import DegenerateError, EmptySetError, InputError, SolverError
from .extension import (
    ExtensionState,
    ExtensionStep,
    _check_domain,
    _check_rule,
    _check_seed,
    _checked_domination,
    _extend_steps,
    domination_check,
)
from .gauges import Seminorm, gauge, gauge_from_symmetrized, unit_ball
from .geometry import (
    TOL_MEMBERSHIP,
    Hyperplane,
    PartialFunctional,
    Subspace,
    as_vector,
    complement_basis,
    kernel_hyperplane,
    span_basis,
    zero_subspace,
)
from .simplexlp import solve_lp

# relative bound of the exact side test (see SeparationCertificate): planes
# from separate() on 40-D axis boxes cut their closure, exactly, by at most
# 1e-14 |c| from rounding in the extension (tests TestExactCuts)
SIDE_TOL = 1e-10


@dataclass
class SeparationOptions:
    """Knobs for the pipeline; defaults reproduce the documented behaviour."""

    x: np.ndarray | None = None
    gamma_rule: str = "upper"
    seed: int = 0
    certificate_samples: int = 10_000  # drawn on membership oracles only


@dataclass(frozen=True)
class SeparationCertificate:
    """Machine-checkable evidence for a separation.

    ``s_in_h_residual``: largest |normal . b| over the subspace basis.
    ``a_clearance``: smallest |normal . e| over sampled interior points;
    only membership oracles are sampled, so it is None on polyhedra and
    balls.
    ``boundary_margin``: on polyhedra and balls, the exact signed margin of
    the hyperplane against the set's closure: the least value of
    ``side * normal . e`` there, for the side the set lies on (0 when the
    closure touches the hyperplane, +inf when the closure is empty).
    ``sign_constant``: the functional has one sign on the set; on exact
    sets that is ``boundary_margin >= -1e-10 * scale``, with ``scale`` the
    norm of a closure point attaining the margin (which bounds its
    rounding), on oracle sets one sign on every sample.
    ``farkas_multipliers`` (polyhedra ``a e < b`` only): y >= 0, one per
    unit row, with ``a^T y = -side * normal`` and ``b . y = -boundary_margin`` up
    to rounding, so that ``side * normal . e = -y . (a e) > -y . b`` on the
    set: the separation checked without an LP.  Where the last extension
    step of ``separate()`` picked an end of its interval, y is read off that
    end's LP (``_extension_certificate``), with |x| as ``scale`` and the
    lower bound ``-b . y`` as the margin; else y is the support LP's dual.
    ``farkas_residual``: max |a^T y + side * normal|.  ``remark2_status``:
    domination and disjointness agreed; in ``separate()``, by Remark 2, it
    is the certificate's verdict ``sign_constant``, and
    ``verify_separation`` has no extension to test, so there it is None.
    """

    s_in_h_residual: float
    a_clearance: float | None
    boundary_margin: float | None
    sign_constant: bool
    remark2_status: bool | None
    farkas_multipliers: tuple[float, ...] | None = None
    farkas_residual: float | None = None

    @property
    def valid(self) -> bool:
        return not self._failures()

    def _failures(self) -> list[str]:
        """The failed checks behind ``valid``, each named with its value."""
        out = []
        if not self.s_in_h_residual < 1e-8:
            out.append(f"s_in_h_residual {self.s_in_h_residual:.2e} is not below 1e-8")
        if self.a_clearance is not None and not self.a_clearance > 0.0:
            out.append(f"a_clearance {self.a_clearance:.2e} is not positive")
        if not self.sign_constant:
            margin = "" if self.boundary_margin is None else f" (boundary_margin {self.boundary_margin:.2e})"
            out.append("sign_constant is False" + margin)
        return out


@dataclass(frozen=True, eq=False)
class SeparationResult:
    hyperplane: Hyperplane
    g: np.ndarray
    anchor_x: np.ndarray | None
    gauge_used: Seminorm | None
    steps: tuple[ExtensionStep, ...]
    certificate: SeparationCertificate


def _subspace_residual(s: Subspace, normal: np.ndarray) -> float:
    return float(np.max(np.abs(s.basis @ normal), initial=0.0))


def _support(a_set: HPolyhedron | OpenBall, direction: np.ndarray) -> tuple[float, float, np.ndarray | None]:
    """(lo, scale, y) for ``direction . e`` over the closure of a polyhedron
    or ball: ``lo`` its least value (-inf when unbounded below, +inf when
    the closure is empty), ``scale`` the norm of a closure point attaining
    it, and ``y`` the polyhedron's row multipliers from the LP's dual (None
    for balls and when there is no optimum)."""
    if isinstance(a_set, OpenBall):
        lo = float(direction @ a_set.center) - float(a_set.radius)
        return lo, float(np.linalg.norm(a_set.center)) + float(a_set.radius), None
    res = solve_lp(direction, a_ub=a_set.a, b_ub=a_set.b)
    if res.status != "optimal":  # the least value over an empty closure is +inf
        return (-np.inf if res.status == "unbounded" else np.inf), 0.0, None
    return float(res.objective), float(np.linalg.norm(res.x)), res.y


def _check_disjoint(a_set: ConvexSet, s: Subspace, seed: int) -> None:
    """Raise InputError ("precondition: ...") when the set meets the subspace.

    The tests that need no LP: a ball whose centre is nearer S than
    r (1 - 1e-9) when S is not {0}, every set at the origin (``all(b > 0)``
    for a polyhedron), then a membership oracle at 500 seeded points of S.
    A polyhedron's certificate decides the rest (see ``separate``).
    """
    if s.dim and isinstance(a_set, OpenBall):
        c = a_set.center
        if float(np.linalg.norm(c - (s.basis @ c) @ s.basis)) < a_set.radius * (1.0 - 1e-9):
            raise InputError("precondition: the set intersects the subspace")
    if a_set._member(np.zeros(a_set.dim)):
        raise InputError("precondition: the set contains the origin, which lies in the subspace")
    if s.dim and not isinstance(a_set, (HPolyhedron, OpenBall)):
        for c in np.random.default_rng(seed).uniform(-10.0, 10.0, size=(500, s.dim)):
            if a_set.contains(c @ s.basis):
                raise InputError("precondition: sampling found a subspace point inside the set")


def _span_functional(s: Subspace, x: np.ndarray) -> PartialFunctional:
    """The functional on span(S + {x}) sending z + t*x to t, where
    t = (u - P u) . x_perp / |x_perp|^2 for u = z + t*x and x_perp = x - P x."""
    x_perp = x - s.project(x)
    nx = float(np.linalg.norm(x_perp))
    if nx <= TOL_MEMBERSHIP * max(1.0, float(np.linalg.norm(x))):
        raise DegenerateError("the anchor lies in the subspace; z + t*x does not determine t")
    span = span_basis(list(s.basis) + [x], s.ambient_dim)
    # nx * nx, not x_perp . x_perp: they differ in the last bit, and the
    # round trip of example3_quotient passes only with the former
    values = [float((u - s.project(u)) @ x_perp) / (nx * nx) for u in span.basis]
    return PartialFunctional(span, np.array(values))


def _certificate(
    a_set: ConvexSet,
    s: Subspace,
    normal: np.ndarray,
    *,
    seed: int,
    samples: int,
    side: float | None = None,
) -> SeparationCertificate:
    """Certificate for the hyperplane ``normal . e = 0``.

    Polyhedra and balls get the exact side test on their closure: on
    ``side`` (+1 or -1) when the caller knows the set lies there, else on
    the better of the two sides, the -1 side tested only when the +1 side's
    margin is negative.  Other sets are checked on ``samples`` seeded
    interior points.
    """
    residual = _subspace_residual(s, normal)
    if not isinstance(a_set, (HPolyhedron, OpenBall)):
        vals = sample_interior(a_set, samples, seed) @ normal
        one_sign = bool(np.all(vals > 0.0) or np.all(vals < 0.0))
        return SeparationCertificate(residual, float(np.min(np.abs(vals))), None, one_sign, None)
    ends = [(*_support(a_set, (side or 1.0) * normal), side or 1.0)]
    if side is None and ends[0][0] < 0.0:  # else this side is the better one: -max <= -min <= margin
        ends.append((*_support(a_set, -normal), -1.0))
    margin, scale, y, side = max(ends, key=lambda end: end[0])
    farkas = None
    if y is not None:
        farkas = float(np.max(np.abs(a_set.a.T @ y + side * normal)))
        y = tuple(y.tolist())
    return SeparationCertificate(residual, None, margin, bool(margin >= -SIDE_TOL * scale), None, y, farkas)


def _extension_certificate(a_set: HPolyhedron, s: Subspace, state: ExtensionState, g: np.ndarray, x: np.ndarray):
    """The side certificate read off the last extension step (Remark 2 in
    multiplier form), or None where the support LP must decide instead.

    When that step picked an end of its interval, g is the end's polar point
    ``y . [h; -h]`` over the gauge rows, and g(x) = 1 forces y = (0, v), so
    g = -h^T v.  Each gauge row h is a hull row ``b_j a_i - b_i a_j`` over its
    norm (``_hull_rows``), so each weighted row adds ``w b_j`` to lambda_i and
    ``-w b_i`` to lambda_j, with w = v / norm, and lambda is their sum over
    |g|: lambda >= 0, ``a^T lambda = -g / |g|`` and ``b . lambda <= 0``,
    returned when these hold on its rounding.  ``-b . lambda`` bounds the
    margin below.
    """
    end = state.history[-1]._picked_end() if state.history else None
    if end is None:
        return None
    rows, i, j = _hull_rows(a_set.a, a_set.b)
    u, v = end.y.reshape(2, -1)
    on, b, size = v > 0.0, np.append(a_set.b, 1.0), float(np.linalg.norm(g))
    i, j, w = i[on], j[on], v[on] / np.linalg.norm(rows[on], axis=1)
    normal, lam = g / size, np.bincount(np.concatenate([i, j]), np.concatenate([w * b[j], -w * b[i]]), b.size)[:-1] / size
    residual, margin = float(np.max(np.abs(a_set.a.T @ lam + normal))), -float(a_set.b @ lam) + 0.0
    if lam.min() >= 0.0 and u.sum() <= 1e-12 * v.sum() and residual <= 1e-12 and margin >= -SIDE_TOL * np.linalg.norm(x):
        return SeparationCertificate(_subspace_residual(s, normal), None, margin, True, None, tuple(lam.tolist()), residual)
    return None


def _checked(cert: SeparationCertificate) -> SeparationCertificate:
    """The certificate of a plane about to be returned; SolverError names its failed checks."""
    failures = cert._failures()
    if failures:
        raise SolverError("separation certificate is invalid: " + "; ".join(failures))
    return cert


def separate(a_set: ConvexSet, s: Subspace, opts: SeparationOptions | None = None) -> SeparationResult:
    """Hyperplane containing ``s`` and disjoint from the open convex ``a_set``.

    Precondition: S is not the whole space (checked before any LP, with
    ``opts.gamma_rule`` and ``opts.seed``) and misses the set, which
    ``_check_disjoint`` tests first on a ball's band, the origin and an
    oracle's samples.  On a polyhedron a valid certificate proves it, and
    any later error, in the emptiness branch too, becomes the precondition
    error when the inscribed ball centred in S has r* > 0 (one LP, solved
    only then).  A hyperplane whose certificate is not valid is never
    returned: SolverError names the failed checks instead.  By Remark 2 the
    certificate also decides that g is dominated, so no step evaluates the
    gauge; only a sampled certificate adds ``domination_check``.  On a
    polyhedron whose last step picked an end of its interval, that end's LP
    gives the certificate's multipliers, and no support LP runs.  The anchor
    ``opts.x`` must lie in the set's conic hull; without one,
    ``pick_interior_point`` picks it, and a set it finds empty (a polyhedron
    of inradius at most ``MIN_DEPTH``) gets the first direction of the
    deterministic completion of ``s`` as normal, under the same certificate.
    """
    opts = opts or SeparationOptions()
    _check_rule(opts.gamma_rule)
    _check_seed(opts.seed)
    n = a_set.dim
    if s.ambient_dim != n:
        raise InputError("set and subspace dimensions disagree")
    if s.dim == n:
        raise DegenerateError("the subspace is the whole space; no hyperplane contains it")
    x = None if opts.x is None else as_vector(opts.x, n)
    _check_disjoint(a_set, s, opts.seed)
    try:
        try:
            x = pick_interior_point(a_set) if x is None else x
        except EmptySetError:
            normal = np.array(complement_basis(s)[0])
            cert = _checked(_certificate(a_set, s, normal, seed=opts.seed, samples=opts.certificate_samples))
            return SeparationResult(Hyperplane(normal), normal, None, None, (), cert)
        p = gauge_from_symmetrized(build_D(a_set, x))
        state = _extend_steps(_span_functional(s, x), p, opts.gamma_rule, seed=opts.seed)
        g = state.functional.as_coefficients()
        if not isinstance(a_set, (HPolyhedron, OpenBall)):  # a sampled certificate does not decide domination
            _checked_domination(g, p, seed=opts.seed)
        miss = abs(float(g @ x) - 1.0)
        if miss > 1e-8:
            raise SolverError(f"extension failed to send the anchor to 1: |g.x - 1| = {miss:.3e}")
        hyper = kernel_hyperplane(g)
        normal = np.asarray(hyper.normal)  # g(x) = 1 puts the set on the positive side
        cert = _extension_certificate(a_set, s, state, g, x) if isinstance(a_set, HPolyhedron) else None
        cert = _checked(cert or _certificate(a_set, s, normal, seed=opts.seed, samples=opts.certificate_samples, side=1.0))
    except (InputError, DegenerateError, SolverError) as exc:
        depth = _inscribed_ball(a_set, s.basis)[1] if s.dim and isinstance(a_set, HPolyhedron) else 0.0
        if depth > 0.0:
            raise InputError(f"precondition: the set intersects the subspace (inscribed ball centred in it: r* = {depth:.6g})") from exc
        raise
    # Remark 2: g is dominated exactly when its kernel misses the set, which
    # sign_constant has just tested on this very hyperplane
    cert = replace(cert, remark2_status=cert.sign_constant)
    return SeparationResult(hyper, g, x, p, state.history, cert)


def verify_separation(
    a_set: ConvexSet,
    s: Subspace,
    hyperplane: Hyperplane,
    *,
    samples: int = 10_000,
    seed: int = 0,
) -> SeparationCertificate:
    """Independent certificate for a claimed separating hyperplane.

    Polyhedra and balls are checked exactly on the better side of the hyperplane;
    ``samples`` seeded interior points are drawn on membership oracles only.
    ``remark2_status`` is None: a plane alone carries no extension whose
    domination could be tested (``remark2_equivalence_check`` tests one).
    """
    return _certificate(a_set, s, np.asarray(hyperplane.normal), seed=seed, samples=samples)


def remark2_equivalence_check(
    a_set: ConvexSet,
    s: Subspace,
    x,
    p: Seminorm,
    g_candidate,
    *,
    seed: int = 0,
) -> tuple[bool, bool]:
    """(dominated?, kernel disjoint from the set?) for a candidate extension.

    The candidate must extend the pipeline functional: send ``x`` to 1 and
    vanish on ``s``.  Both booleans are computed independently: domination
    by ``domination_check`` (up to 1e-7 relative), disjointness by the
    certificate's side test on the kernel of ``g`` (2000 seeded samples on
    membership oracles).  They agree for every candidate when the gauge
    really is the set's symmetrized gauge: this is the paper's Remark 2.
    """
    g = as_vector(g_candidate, a_set.dim)
    x = as_vector(x, a_set.dim)
    if abs(float(g @ x) - 1.0) > 1e-8:
        raise InputError("candidate does not send the anchor to 1")
    if s.dim and float(np.max(np.abs(s.basis @ g))) > 1e-8:
        raise InputError("candidate does not vanish on the subspace")
    dominated = domination_check(g, p, seed=seed) <= 1e-7
    normal = np.asarray(kernel_hyperplane(g).normal)
    return dominated, _certificate(a_set, s, normal, seed=seed, samples=2000).sign_constant


def brute_force_2d_normals(a_set: ConvexSet, grid: int = 1800) -> np.ndarray:
    """Admissible angles (radians in [0, pi)) of origin lines missing a 2-D set.

    Exact for balls (center distance test) and polyhedra (1-D interval
    intersection along the line).  Any other set is tested as the polyhedron
    of its conic hull, the open sector of ``ConicHullSet._sector`` (inner
    tangents, so a line within about 1e-12 rad of an edge counts as missing).
    """
    if a_set.dim != 2:
        raise InputError("the angular oracle is 2-D only")
    if grid < 1:
        raise InputError("grid must be positive")
    thetas = np.arange(grid) * (np.pi / grid)
    if isinstance(a_set, OpenBall):
        normals = np.stack([-np.sin(thetas), np.cos(thetas)], axis=1)
        dist = np.abs(normals @ a_set.center)
        return thetas[dist >= a_set.radius]
    if not isinstance(a_set, HPolyhedron):  # a line through 0 misses a set iff it misses its hull
        a_set = conic_hull(a_set)._sector()
    # the line t d meets the set when the interval of t left by the rows is open
    den = np.stack([np.cos(thetas), np.sin(thetas)], axis=1) @ a_set.a.T
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = a_set.b / den
    hi = np.where(den > 0.0, bound, np.inf).min(axis=1, initial=np.inf)
    lo = np.where(den < 0.0, bound, -np.inf).max(axis=1, initial=-np.inf)
    parallel_cut = ((den == 0.0) & ~(a_set.b > 0.0)).any(axis=1)
    return thetas[parallel_cut | ~(lo < hi)]


def extend_via_separation(
    f: PartialFunctional,
    p: Seminorm,
    *,
    rule: str = "upper",
    seed: int = 0,
) -> ExtensionState:
    """Dominated extension recovered through the geometric route.

    Builds the open set ``{e : p(y - e) < 1}`` around the least-norm point
    ``y`` with ``f(y) = 1``, separates it from the kernel of ``f``, and reads
    the extension g off the returned hyperplane via ``g(h + t y) = t``.  The
    result is verified to extend ``f`` and to satisfy domination under the
    same gate as ``extend_full_state``.  The returned state holds g on the
    whole space and its measured ``violation``; its history is empty, since
    the extension steps belong to the separation problem, not to ``f``.
    """
    _check_domain(f, p)
    n = f.domain.ambient_dim
    full_space = Subspace(n, np.eye(n))
    if f.is_zero():
        return ExtensionState(PartialFunctional(full_space, np.zeros(n)), p, violation=-1.0)
    v = np.asarray(f.values)
    y = (v @ f.domain.basis) / float(v @ v)
    ball = unit_ball(p)
    if isinstance(ball, HPolyhedron):
        a_set = HPolyhedron(-ball.a, ball.b - ball.a @ y)
    else:
        a_set = OracleSet(n, lambda e: gauge(p, y - e) < 1.0, witness=y)
    coeff_kernel = complement_basis(span_basis([v], f.domain.dim))
    kernel_vectors = [c @ f.domain.basis for c in coeff_kernel]
    kernel = span_basis(kernel_vectors, n) if kernel_vectors else zero_subspace(n)
    result = separate(a_set, kernel, SeparationOptions(x=y, gamma_rule=rule, seed=seed, certificate_samples=500))
    normal = np.asarray(result.hyperplane.normal)
    denom = float(normal @ y)
    if abs(denom) < 1e-12:
        raise SolverError("separating hyperplane contains the normalizing point")
    g = normal / denom
    mismatch = float(np.max(np.abs(f.domain.basis @ g - v))) if f.domain.dim else 0.0
    if mismatch > 1e-8:
        raise SolverError(f"reconstructed functional fails to extend the input by {mismatch:.3e}")
    violation = _checked_domination(g, p, seed=seed)
    return ExtensionState(PartialFunctional(full_space, g), p, violation=violation)
