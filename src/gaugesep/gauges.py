"""Minkowski functionals of absorbing balanced open bodies.

Polyhedral bodies get the closed form ``max(0, max_i a_i.e / b_i)``; bodies
known only through membership get a certified geometric bisection with a
recession cap that maps never-exiting rays to gauge zero (the seminorm-not-
norm case).  A sampling-based axiom checker validates homogeneity,
subadditivity, and the unit-ball characterization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convexsets import ConvexSet, HPolyhedron, SymmetrizedBody
from .errors import InputError, SolverError
from .geometry import _frozen, as_vector

GAUGE_TOL = 1e-10
RECESSION_CAP = 1e12


@dataclass(frozen=True, eq=False)
class PolyhedralGauge:
    """Gauge of the strict polyhedron ``{e : a_i . e < b_i}`` with 0 interior."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2:
            raise InputError("gauge rows must form a 2-D array")
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if a.shape[0] != b.size:
            raise InputError("row count of a and length of b disagree")
        if np.any(b <= 0.0):
            raise InputError("all offsets must be positive (origin interior to the body)")
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))

    @property
    def dim(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True, eq=False)
class OracleGauge:
    """Gauge of an arbitrary absorbing open body, evaluated by bisection.

    ``tol`` is the relative bracket width; rays still inside the body at
    ``RECESSION_CAP`` dilation are declared recession directions (gauge 0).
    """

    body: ConvexSet
    tol: float = GAUGE_TOL

    @property
    def dim(self) -> int:
        return self.body.dim


def ExplicitMaxAbs(rows) -> PolyhedralGauge:
    """The seminorm ``max_i |c_i . e|``: the gauge of ``{e : |c_i . e| < 1}``."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise InputError("coefficient rows must form a 2-D array")
    return PolyhedralGauge(np.vstack([rows, -rows]), np.ones(2 * rows.shape[0]))


Seminorm = PolyhedralGauge | OracleGauge


def gauge(p: Seminorm, e) -> float:
    """Evaluate the Minkowski functional at a point; always nonnegative."""
    e = as_vector(e, p.dim)
    if isinstance(p, PolyhedralGauge):
        if p.a.shape[0] == 0:
            return 0.0
        return float(max(0.0, np.max((p.a @ e) / p.b)))
    return _gauge_bisection(p, e)


def _gauge_bisection(p: OracleGauge, e: np.ndarray) -> float:
    if not np.any(e):
        return 0.0
    member = p.body._member
    # bracket [inside, outside] by geometric growth from dilation 1
    if member(e):
        s_in, s_out = 1.0, 2.0
        while member(s_out * e):
            s_in = s_out
            s_out *= 2.0
            if s_out > RECESSION_CAP:
                return 0.0  # recession direction
    else:
        s_out, s_in = 1.0, 0.5
        while not member(s_in * e):
            s_out = s_in
            s_in *= 0.5
            if s_in < 1e-15:
                raise SolverError("gauge bracket failed: body does not absorb the point")
    for _ in range(60):
        if s_out / s_in - 1.0 <= p.tol:
            break
        mid = np.sqrt(s_in * s_out)
        if member(mid * e):
            s_in = mid
        else:
            s_out = mid
    return 0.5 * (1.0 / s_in + 1.0 / s_out)


def unit_ball(p: Seminorm) -> ConvexSet:
    """The open set ``{e : p(e) < 1}`` as a ConvexSet."""
    if isinstance(p, PolyhedralGauge):
        return HPolyhedron(p.a, p.b)
    return p.body


def gauge_from_symmetrized(body: SymmetrizedBody) -> Seminorm:
    """Gauge of a symmetrized body: exact polyhedral form when the base cone
    is polyhedral, certified bisection otherwise."""
    base = body.base
    if isinstance(base, HPolyhedron):
        offsets = base.b - base.a @ body.anchor
        if np.any(offsets <= 0.0):
            raise InputError("anchor is not strictly inside the base cone")
        rows = np.vstack([base.a, -base.a])
        return PolyhedralGauge(rows, np.concatenate([offsets, offsets]))
    return OracleGauge(body)


@dataclass(frozen=True)
class AxiomReport:
    max_homogeneity_error: float
    max_subadditivity_violation: float
    ball_agreements: int
    ball_checked: int


def check_seminorm_axioms(p: Seminorm, seed: int = 0, trials: int = 1000) -> AxiomReport:
    """Sampled validation of the seminorm axioms and the unit-ball identity.

    Homogeneity error is relative; subadditivity violations are absolute.
    Unit-ball agreement skips points inside the 1e-7 band around gauge 1.
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    n = p.dim
    ball = unit_ball(p)
    homog = 0.0
    subadd = 0.0
    agreements = 0
    checked = 0
    for _ in range(trials):
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        t = rng.uniform(-3.0, 3.0)
        pu, pv = gauge(p, u), gauge(p, v)
        err = abs(gauge(p, t * u) - abs(t) * pu) / max(1.0, abs(t) * pu)
        homog = max(homog, err)
        subadd = max(subadd, gauge(p, u + v) - pu - pv)
        if pu > 0.0:
            w = u * (rng.uniform(0.2, 1.8) / pu)
            pw = gauge(p, w)
            if pw < 1.0 - 1e-7:
                checked += 1
                agreements += int(ball.contains(w))
            elif pw > 1.0 + 1e-7:
                checked += 1
                agreements += int(not ball.contains(w))
    return AxiomReport(homog, subadd, agreements, checked)
