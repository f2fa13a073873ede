"""Minkowski functionals of absorbing balanced open bodies.

Three representations, each evaluated on one point or on an (m, n) batch:
polyhedral bodies (a 2-D searched hull is a polyhedral sector) get the closed
form ``max(0, max_i a_i.e / b_i)``; bodies symmetrized inside the pointed
cone over a ball get one root of the cone-exit quadratic per ray, and a
closed-form polar (``BallConeGauge``); bodies in a searched hull in 3-D or
more (``OracleGauge``) get the two tangents of a plane section through the
anchor.  Any of them may vanish off the origin (a seminorm that is not a norm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convexsets import BallCone, ConicHullSet, ConvexSet, HPolyhedron, SymmetrizedBody, _plane
from .errors import InputError
from .geometry import _frozen, as_vector


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
    """Gauge of a body symmetrized inside a ``ConicHullSet``, from plane sections.

    On ``D = (B - x) ∩ (x - B)`` with B a ``ConicHullSet``, write
    ``e = t x + kappa v`` (``_plane``).  B meets span{x, v} in the sector
    between the tangents at theta+ above and theta- below the ray of x, which
    ``x + s e`` leaves at ``s (kappa cot theta+ - t) = 1`` or
    ``s (kappa cot theta- + t) = 1`` (``x - s e`` flips both terms' signs).
    Since theta+ + theta- <= pi the terms have a nonnegative sum, so
    ``p(e) = max(0, kappa cot theta+ - t, kappa cot theta- + t)``.  An anchor
    outside the base A first moves along its ray to beta x in A, and
    ``p_x = beta p_(beta x)``.  Any other body raises ``InputError``.  In 2-D
    the pipeline takes the hull's polyhedral sector instead.
    """

    body: SymmetrizedBody

    def __post_init__(self):
        if not (isinstance(self.body, SymmetrizedBody) and isinstance(self.body.base, ConicHullSet)):
            raise InputError("an oracle gauge needs a body symmetrized inside a conic hull")
        hull, x = self.body.base, self.body.anchor
        beta = 1.0
        if not (hull._full or hull.base._member(x)):
            t, kappa, v = _plane(hull._witness, x)
            if kappa == 0.0:  # x = t w: the base point w itself
                beta = 1.0 / t
            else:
                # in the section through w, the chord from w to the upper
                # tangent point meets the ray of x in the base
                _, s_top, t_top = hull._tangent(hull._witness, v)
                beta = t_top / (t_top * t - (s_top - 1.0) * kappa)
            if not hull.base._member(beta * x):
                raise InputError("anchor is not strictly inside the base cone")
        object.__setattr__(self, "_x", beta * x)  # the anchor moved into the base
        object.__setattr__(self, "_beta", beta)

    @property
    def dim(self) -> int:
        return self.body.dim

    def _value(self, e: np.ndarray) -> float:
        """The gauge at one checked point: the evaluation ``gauge`` calls."""
        hull, x = self.body.base, self._x
        if hull._full:  # B, and so D, is the whole space
            return 0.0
        t, kappa, v = _plane(x, e)
        if kappa == 0.0:
            return self._beta * abs(t)
        above, below = hull._tangent(x, v)[0], hull._tangent(x, -v)[0]
        return self._beta * max(0.0, kappa / np.tan(above) - t, kappa / np.tan(below) + t)


@dataclass(frozen=True, eq=False)
class BallConeGauge:
    """Gauge of ``(B - x) ∩ (x - B)`` for the cone B over a ball, in closed form.

    With k = |c|^2 - r^2 > 0 (a pointed cone; ``gauge_from_symmetrized``
    maps k <= 0 to polyhedral gauges), the ray y(s) = x + s e leaves B at the
    smallest positive root s of ``(y.c)^2 - k |y|^2``; it leaves the nappe
    y.c > 0 before it can reach the other one.  So q(e) = 1/s is the largest
    root t of ``qc t^2 + qb t + qa`` (qa = (e.c)^2 - k |e|^2,
    qb = 2((x.c)(e.c) - k x.e), qc = (x.c)^2 - k |x|^2), or 0 when no root is
    positive.  With c = (x.c / |x|^2) x + c_off, Lagrange's identity gives
    qc = |x|^2 (r^2 - |c_off|^2), which keeps its digits in thin cones where
    the two terms of (x.c)^2 - k |x|^2 cancel.  The roots for -e are the
    negated roots for e, so ``p(e) = max(q(e), q(-e))`` is the larger root
    magnitude, ``(|qb|/2 + sqrt(qb^2/4 - qa qc)) / qc``.  Splitting e = a x + u with u
    orthogonal to x gives qb/2 = a qc + (x.c)(u.c) and
    qb^2/4 - qa qc = k (qc |u|^2 + |x|^2 (u.c)^2): a sum of nonnegative terms,
    so rounding cannot push it below zero, and the apex ray (u = 0, a double
    root) comes out exact.  Since u is orthogonal to x, u.c = u.c_off.

    The polar (``polar``) is closed-form too.  The closure of D is a lens of
    two ruled cone pieces, with apexes ±x and one ridge where x + e and x - e
    both lie on the cone.  Subtracting the two cone equations gives
    e.m = 0 with m = (x.c) c - k x = (x.c) c_off + (qc / |x|^2) x; adding
    them gives k |e|^2 - (e.c)^2 = qc.  Together they describe an ellipsoid in the
    hyperplane m-perp, on which the form k|e|^2 - (e.c')^2 (c' = P c, P the
    projection onto m-perp) is positive definite: k - |c'|^2 =
    r^2 k qc / |m|^2 > 0.  Its support function is sqrt(psi^T Q psi) with
    ``Q = (qc/k) (P + c' c'^T / (k - |c'|^2))``, so
    ``p*(psi) = max(|psi.x|, sqrt(psi^T Q psi))`` and the polar body is
    ``D° = {|psi.x| <= 1} ∩ {psi^T Q psi <= 1}`` (Q has the kernel m).
    """

    body: SymmetrizedBody

    def __post_init__(self):
        base = self.body.base
        if not isinstance(base, BallCone):
            raise InputError("a ball-cone gauge needs a body symmetrized inside a ball cone")
        k = base._excess
        if not k > 0.0:
            raise InputError("a ball-cone gauge needs the origin outside the closed ball")
        x, c = self.body.anchor, base.center
        xc = float(x @ c)
        xx = float(x @ x)
        c_off = c - (xc / xx) * x
        qc = xx * (base.radius**2 - float(c_off @ c_off))
        if not (xc > 0.0 and qc > 0.0):
            raise InputError("anchor is not strictly inside the base cone")
        m = xc * c_off + (qc / xx) * x
        mm = float(m @ m)
        c_perp = c - (float(c @ m) / mm) * m
        # (qc/k) / (k - |c'|^2) = |m|^2 / (r^2 k^2), free of cancellation
        q = (qc / k) * (np.eye(x.size) - np.outer(m, m) / mm)
        q += np.outer(c_perp, c_perp) * (mm / (base.radius**2 * k * k))
        object.__setattr__(self, "_xc", xc)
        object.__setattr__(self, "_xx", xx)
        object.__setattr__(self, "_qc", qc)
        object.__setattr__(self, "_c_off", _frozen(c_off))
        object.__setattr__(self, "_q", _frozen(q))

    @property
    def dim(self) -> int:
        return self.body.dim

    def polar(self, psi: np.ndarray) -> tuple[float, np.ndarray]:
        """``(p*(psi), e*)``: the largest ``psi . e`` over ``p(e) <= 1`` and
        a point that attains it, the apex ``±x`` when ``|psi.x| >= R`` and
        the ridge point ``Q psi / R`` otherwise (R = sqrt(psi^T Q psi))."""
        x = self.body.anchor
        along = float(psi @ x)
        q_psi = self._q @ psi
        ridge = np.sqrt(max(float(psi @ q_psi), 0.0))
        if abs(along) >= ridge:
            return abs(along), np.copysign(1.0, along) * x
        return ridge, q_psi / ridge


def _mirrored(rows: np.ndarray, offsets: np.ndarray) -> PolyhedralGauge:
    """The gauge of ``{e : |c_i . e| < d_i}``, as rows ``[c; -c]`` with
    offsets ``[d; d]``: row i + m/2 is -(row i) (see ``_mirror_rows``)."""
    return PolyhedralGauge(np.vstack([rows, -rows]), np.concatenate([offsets, offsets]))


def _mirror_rows(p: PolyhedralGauge) -> bool:
    """Does ``p`` have the row layout of ``_mirrored``, so that p(-e) = p(e)?"""
    half, odd = divmod(p.a.shape[0], 2)
    return not odd and np.array_equal(p.a[half:], -p.a[:half]) and np.array_equal(p.b[half:], p.b[:half])


def ExplicitMaxAbs(rows) -> PolyhedralGauge:
    """The seminorm ``max_i |c_i . e|``: the gauge of ``{e : |c_i . e| < 1}``."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise InputError("coefficient rows must form a 2-D array")
    return _mirrored(rows, np.ones(rows.shape[0]))


Seminorm = PolyhedralGauge | BallConeGauge | OracleGauge


def gauge(p: Seminorm, e):
    """Evaluate the Minkowski functional at a point (a float) or row-wise on
    an (m, n) batch (an array of m values); always nonnegative."""
    if np.ndim(e) == 2:
        e = np.array(e, dtype=float)
        if e.shape[1] != p.dim or not np.all(np.isfinite(e)):
            raise InputError(f"expected finite rows of dimension {p.dim}, got an array of shape {e.shape}")
    else:
        e = as_vector(e, p.dim)
    return _gauge(p, e)


def _gauge(p: Seminorm, e: np.ndarray):
    """``gauge`` on a float point or (m, n) batch that is already checked."""
    if isinstance(p, PolyhedralGauge):
        if p.a.shape[0] == 0:
            values = np.zeros(e.shape[:-1])
        else:
            values = np.maximum(0.0, np.max((e @ p.a.T) / p.b, axis=-1))
    elif isinstance(p, BallConeGauge):
        values = _gauge_ball_cone(p, e)
    else:
        values = np.array([p._value(row) for row in e]) if e.ndim == 2 else p._value(e)
    return values if e.ndim == 2 else float(values)


def _gauge_ball_cone(p: BallConeGauge, e: np.ndarray):
    base, x = p.body.base, p.body.anchor
    k = base._excess
    along = (e @ x) / p._xx
    u = e - np.multiply.outer(along, x)
    uc = u @ p._c_off
    disc = k * (p._qc * np.einsum("...i,...i", u, u) + p._xx * uc * uc)
    return np.abs(along + p._xc * uc / p._qc) + np.sqrt(disc) / p._qc


def unit_ball(p: Seminorm) -> ConvexSet:
    """The open set ``{e : p(e) < 1}`` as a ConvexSet: the polyhedron, else the body."""
    if isinstance(p, PolyhedralGauge):
        return HPolyhedron(p.a, p.b)
    return p.body


def gauge_from_symmetrized(body: SymmetrizedBody) -> Seminorm:
    """Gauge of a symmetrized body: exact polyhedral form when the base cone
    is polyhedral (a 2-D searched hull is its sector; a ball cone with the
    origin on or inside the ball is a half-space or the whole space), the
    closed form when it is a pointed ball cone, an ``OracleGauge``
    (plane-section tangents on a searched hull) otherwise."""
    base = body.base
    if isinstance(base, ConicHullSet) and base.dim == 2:
        base = base._sector()
    if isinstance(base, HPolyhedron):
        offsets = base.b - base.a @ body.anchor
        if np.any(offsets <= 0.0):
            raise InputError("anchor is not strictly inside the base cone")
        return _mirrored(base.a, offsets)
    if isinstance(base, BallCone):
        if base._excess < 0.0:  # origin inside the ball: the hull, and D, are the whole space
            return PolyhedralGauge(np.zeros((0, body.dim)), np.zeros(0))
        if base._excess == 0.0:  # the half-space cone e.c > 0, whose gauge has the kernel c-perp
            c = base.center
            xc = float(body.anchor @ c)
            # column-major rows: in low dimension ``e @ rows.T`` then reduces
            # like ``e @ c``, so a point's value is ``|e.c| / x.c`` to the bit
            return PolyhedralGauge(np.column_stack([c, -c]).T, np.array([xc, xc]))
        return BallConeGauge(body)
    return OracleGauge(body)
