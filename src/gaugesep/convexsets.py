"""Open convex bodies and the set-level constructions the separation
pipeline needs: positive conic hulls, the symmetrized body around an anchor
point, interior-point selection, and interior sampling.

Conic hulls are closed forms for polyhedra and balls; any other hull is
searched in plane sections through an interior point (``ConicHullSet``),
and in 2-D it is a polyhedral sector between two tangents (``_sector``).
Membership is strict everywhere (open sets); verification-style callers get
margins from the certificate code instead of epsilon-shrunken sets.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptySetError, InputError, SolverError
from .geometry import as_vector, _frozen
from .simplexlp import solve_lp

MIN_DEPTH = 1e-9  # inscribed-ball radii at or below this certify no interior
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_SECTION_CAP = 1e12  # radial searches in a plane section stop at this multiple of |a|
_RADIAL_TOL = 1e-15  # relative width of a settled radial bracket
_ANGLE_TOL = 1e-12  # golden-section bracket width at which a tangent search ends
_FLAT = 1e-6  # below this bracket width, a tie between settled probes ends it too


class ConvexSet:
    """Base class for open convex set representations."""

    dim: int

    def contains(self, point) -> bool:
        return self._member(as_vector(point, self.dim))

    def _member(self, e: np.ndarray) -> bool:
        """Membership for pre-validated arrays; the hot path skips checks."""
        raise NotImplementedError  # unreached: every set type of the package defines its own _member


@dataclass(frozen=True, eq=False)
class HPolyhedron(ConvexSet):
    """Strict H-polyhedron ``{e : a_i . e < b_i}``; may be unbounded.

    ``a`` and ``b`` hold each row and offset divided by the row's norm, taken
    after a power-of-two prescale so that it cannot overflow or underflow.
    Bounded or not, it is anchored at its capped Chebyshev center
    (``chebyshev_center``).
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2:
            raise InputError("HPolyhedron rows must form a 2-D array")
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if a.shape[0] != b.size:
            raise InputError("row count of a and length of b disagree")
        scale = np.ldexp(1.0, np.frexp(np.abs(a).max(axis=1, initial=0.0))[1] - 1)  # a power of two: exact
        with np.errstate(all="ignore"):  # non-finite data is refused below
            norm = np.linalg.norm(a / scale[:, None], axis=1)
            a, b = a / scale[:, None] / norm[:, None], b / scale / norm
        if (norm == 0.0).any():
            raise InputError("zero rows are not allowed")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise InputError("polyhedron data must be finite, also with each row scaled to unit length")
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def _member(self, e: np.ndarray) -> bool:
        return bool((self.a @ e < self.b).all()) if self.a.shape[0] else True


@dataclass(frozen=True, eq=False)
class OpenBall(ConvexSet):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(as_vector(self.center)))
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InputError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def _member(self, e: np.ndarray) -> bool:
        d = e - self.center
        return float(d @ d) < self.radius * self.radius


@dataclass(frozen=True, eq=False)
class OracleSet(ConvexSet):
    """Membership-oracle set: a pure predicate plus an optional interior
    ``witness``; convexity and openness are the caller's promise.

    The witness is required by operations that must produce a point,
    among them the conic hull, whose plane sections pass through it.
    """

    dim: int
    membership: Callable[[np.ndarray], bool]
    witness: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("oracle dimension must be positive")
        if self.witness is not None:
            object.__setattr__(self, "witness", _frozen(as_vector(self.witness, self.dim)))

    def _member(self, e: np.ndarray) -> bool:
        return bool(self.membership(e))


@dataclass(frozen=True, eq=False)
class BallCone(ConvexSet):
    """Positive conic hull of an open ball: e is a member when e.c > 0 and the
    line through e passes within r of c (unlike ``(e.c)^2 > k |e|^2``, this
    keeps its digits near the axis of a thin cone)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = _frozen(as_vector(self.center))
        object.__setattr__(self, "center", center)
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InputError("ball radius must be positive")
        object.__setattr__(self, "_excess", float(center @ center) - self.radius * self.radius)

    @property
    def dim(self) -> int:
        return self.center.size

    def _member(self, e: np.ndarray) -> bool:
        excess = self._excess
        if excess < 0:  # origin inside the ball: the hull is everything
            return True
        # an exact rescale (a cone is scale-free), so that e @ e neither underflows nor overflows
        e = np.ldexp(e, -math.frexp(float(np.abs(e).max()))[1])
        ec = float(e @ self.center)
        if excess == 0.0 or not ec > 0.0:
            return ec > 0.0
        d = self.center - (ec / float(e @ e)) * e
        return float(d @ d) < self.radius * self.radius


def _plane(a: np.ndarray, e: np.ndarray) -> tuple[float, float, np.ndarray]:
    """``(t, kappa, v)`` with ``e = t a + kappa v``, kappa >= 0, v ⟂ a, |v| = |a|."""
    t = float(e @ a) / float(a @ a)
    u = e - t * a
    kappa = float(np.linalg.norm(u) / np.linalg.norm(a))
    return t, kappa, (u / kappa if kappa > 0.0 else u)


class _Probe:
    """One probe of ``ConicHullSet._tangent``: the ray ``a + r d``, ``d = c a + s v``
    at the angle phi.  Its radius is bracketed (capped at ``_SECTION_CAP |a|``) by a
    tested member r_in and non-member r_out, whose polar angles th_in and th_out bound
    its own; ``width`` is r_out / r_in - 1, 0 once settled.  It opens at the 1/r that
    the quadratic in phi through the three nearest retired probes predicts (1/r is 0
    past the cap; none when capped and uncapped ones mix), with ``step`` = 1 +
    max(h^2/4, the quadratic term's share of 1/r), h the phi bracket's width, or else
    at the last member's radius with step (1 + h)^4.  An open bracket moves its end by
    step, which then takes its 4th power, but at least ``grow`` = 1 + h."""

    __slots__ = ("phi", "c", "s", "d", "grow", "step", "r_in", "r_out", "th_in", "th_out", "width")
    def __init__(self, phi: float, h: float, a: np.ndarray, v: np.ndarray):
        self.phi, self.c, self.s, self.grow, self.step = phi, math.cos(phi), math.sin(phi), 1.0 + h, (1.0 + h) ** 4
        self.d, self.r_in, self.th_in, self.r_out, self.width = self.c * a + self.s * v, 0.0, 0.0, 2.0 * _SECTION_CAP, np.inf
        self.th_out = math.atan2(self.r_out * self.s, 1.0 + self.r_out * self.c)


@dataclass(frozen=True, eq=False)
class ConicHullSet(ConvexSet):
    """Positive conic hull of a base set with an interior point w.

    For a base point a and v ⟂ a with |v| = |a|, the section
    ``K = {(s, t) : s a + t v in base}`` holds (1, 0) and misses the origin
    (unless the base holds it: then the hull is everything).  The hull meets
    span{a, v} in the open sector between the tangents from the origin to
    K, so ``e = t w + kappa v`` is in it iff ``atan2(kappa, t)`` lies below
    the upper tangent of the section through w.
    """

    base: ConvexSet

    def __post_init__(self):
        object.__setattr__(self, "_witness", pick_interior_point(self.base))
        object.__setattr__(self, "_full", self.base._member(np.zeros(self.dim)))

    @property
    def dim(self) -> int:
        return self.base.dim

    def _member(self, e: np.ndarray) -> bool:
        if self._full:
            return True
        t, kappa, v = _plane(self._witness, e)
        if kappa == 0.0:
            return t > 0.0
        target = math.atan2(kappa, t)
        return self._tangent(self._witness, v, stop=target)[0] >= target

    def _tangent(self, a: np.ndarray, v: np.ndarray, stop: float = np.inf) -> tuple[float, float, float]:
        """``(angle, s, t)``: the largest polar angle of a member ``s a + t v``
        of the section through a, and that member; ends once one reaches ``stop``.
        The polar angle along K's boundary is unimodal in the angle phi about
        (1, 0) on (0, pi), so a golden section over phi finds the tangent (Kiefer
        1953); its two ``_Probe``s are narrowed only until they compare."""
        best, last, retired = (0.0, 1.0, 0.0), 1.0, []  # a itself; sorted (phi, 1/r) of retired probes

        def test(probe, r):  # one membership call; r becomes r_in or r_out
            nonlocal best, last
            theta = math.atan2(r * probe.s, 1.0 + r * probe.c)
            if self.base._member(a + r * probe.d):
                probe.r_in, probe.th_in, last = r, theta, r
                if theta > best[0]:
                    best = theta, 1.0 + r * probe.c, r * probe.s
            else:
                probe.r_out, probe.th_out = r, theta
            r_in, r_out = probe.r_in, probe.r_out
            probe.width = 0.0 if r_in >= _SECTION_CAP or r_out <= _RADIAL_TOL else r_out / r_in - 1.0 if r_in else np.inf

        def probe_at(phi, h):
            probe, r = _Probe(phi, h, a, v), last
            if len(retired) >= 3:
                i = bisect.bisect(retired, (phi,))
                (x0, y0), (x1, y1), (x2, y2) = sorted(retired[max(i - 3, 0) : i + 3], key=lambda q: abs(q[0] - phi))[:3]
                d01, d12 = (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1)
                bend = (phi - x0) * (phi - x1) * (d12 - d01) / (x2 - x0)  # the quadratic term
                rho, w = y0 + (phi - x0) * d01 + bend, 0.25 * h * h
                if (y0, y1, y2).count(0.0) in (0, 3):  # no trend across the cap
                    r, probe.step = _SECTION_CAP, 1.0 + w
                    if rho * _SECTION_CAP > 1.0:
                        r, probe.step = 1.0 / rho, 1.0 + max(w, abs(bend) / rho)
            test(probe, r)
            return probe

        lo, hi = 0.0, math.pi
        p1, p2 = probe_at((1.0 - _GOLDEN) * hi, 0.25), probe_at(_GOLDEN * hi, 0.25)
        while hi - lo > _ANGLE_TOL and best[0] < stop:
            if p1.th_in < p2.th_out and p2.th_in <= p1.th_out:
                wide = p2 if p2.width > p1.width else p1
                if wide.width > _RADIAL_TOL:  # the probes do not compare yet
                    if wide.r_in == 0.0 or wide.r_out > _SECTION_CAP:  # an open bracket widens geometrically
                        r = wide.r_out / wide.step if wide.r_in == 0.0 else min(wide.r_in * wide.step, _SECTION_CAP)
                        wide.step = max(wide.step**4, wide.grow)
                    else:
                        r = math.sqrt(wide.r_in * wide.r_out)
                    test(wide, r)
                    continue
                if hi - lo < _FLAT:
                    break  # a tie at radial precision: the top is flat
            out = p2 if p1.th_in >= p2.th_in else p1
            if out.r_in >= _SECTION_CAP or 0.0 < out.r_in and out.r_out <= _SECTION_CAP:
                bisect.insort(retired, (out.phi, 0.0 if out.r_in >= _SECTION_CAP else 1.0 / math.sqrt(out.r_in * out.r_out)))
            if out is p2:
                hi, p2 = p2.phi, p1
                p1 = probe_at(hi - _GOLDEN * (hi - lo), hi - lo)
            else:
                lo, p1 = p1.phi, p2
                p2 = probe_at(lo + _GOLDEN * (hi - lo), hi - lo)
        return best

    def _sector(self) -> HPolyhedron:
        """In 2-D, the hull as the cone ``a_i . e < 0`` between the tangents of
        the section through the witness (no rows for the plane).  Each edge runs
        through the farthest member its search reached: the inner tangent, as
        in ``OracleGauge``, inside the true edge by about 1e-12 rad."""
        if self._full:
            return HPolyhedron(np.zeros((0, 2)), np.zeros(0))
        w, rows = self._witness, []
        for sign in (1.0, -1.0):  # the upper edge, then the lower one
            v = sign * np.array([-w[1], w[0]])
            _, s, t = self._tangent(w, v)
            edge = s * w + t * v
            rows.append([-sign * edge[1], sign * edge[0]])  # the edge turned away from w
        return HPolyhedron(rows, np.zeros(2))


@dataclass(frozen=True, eq=False)
class SymmetrizedBody(ConvexSet):
    """The balanced body ``(B - x) ∩ (x - B)`` around an anchor ``x`` in ``B``.

    ``base`` is the set B.  Membership: ``e`` belongs iff ``x + e`` and
    ``x - e`` both belong to B.  Contains the origin by construction.
    """

    base: ConvexSet
    anchor: np.ndarray

    def __post_init__(self):
        anchor = as_vector(self.anchor, self.base.dim)
        object.__setattr__(self, "anchor", _frozen(anchor))
        if not self.base.contains(anchor):
            raise InputError("anchor must lie inside the base set")

    @property
    def dim(self) -> int:
        return self.base.dim

    def _member(self, e: np.ndarray) -> bool:
        return self.base._member(self.anchor + e) and self.base._member(self.anchor - e)


def conic_hull_membership(a_set: ConvexSet, point) -> bool:
    """Membership in ``B``, the union of all positive dilates of ``a_set``."""
    return conic_hull(a_set).contains(point)


def conic_hull(a_set: ConvexSet) -> ConvexSet:
    """The positive conic hull as a set object (closed form where possible).

    A polyhedron's hull is the polyhedron ``{h e < 0}`` on its nonzero hull
    rows h (``_hull_rows``), which ``HPolyhedron`` stores at unit length.
    Requires a nonempty base set.
    """
    if isinstance(a_set, HPolyhedron):
        return _hull_cone(_hull_rows(a_set.a, a_set.b)[0])
    if isinstance(a_set, OpenBall):
        return BallCone(a_set.center, a_set.radius)
    if isinstance(a_set, (BallCone, ConicHullSet)):
        return a_set
    return ConicHullSet(a_set)


def _hull_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero rows ``b_j a_i - b_i a_j`` of the conic hull of ``{a e < b}``,
    unscaled, and their sources i, j, where j = m stands for the row (0, 1):
    for each b_i <= 0 in order, a_i alone, then (b_i < 0) its cross row with
    each b_j > 0 in order (Fourier-Motzkin on the cone's scale variable)."""
    neg, pos = (b <= 0.0).nonzero()[0], (b > 0.0).nonzero()[0]
    a_neg, b_neg, b_pos = a[neg], b[neg], b[pos]
    rows = np.concatenate([a_neg[:, None], b_pos[:, None] * a_neg[:, None] - b_neg[:, None, None] * a[pos]], axis=1)
    k, l = ((np.arange(1 + pos.size) <= pos.size * (b_neg[:, None] < 0.0)) & rows.any(axis=2)).nonzero()
    return rows[k, l], neg[k], np.concatenate(([b.size], pos))[l]


def _hull_cone(rows: np.ndarray) -> HPolyhedron:
    """The cone ``{h e < 0}`` on the hull rows h of ``_hull_rows``."""
    return HPolyhedron(rows, np.zeros(len(rows)))


def build_D(a_set: ConvexSet, x) -> SymmetrizedBody:
    """The symmetrized body ``(B - x) ∩ (x - B)`` for ``x`` in the conic hull
    ``B``; SymmetrizedBody raises InputError for an ``x`` outside ``B``."""
    return SymmetrizedBody(conic_hull(a_set), x)


def _inscribed_ball(poly: HPolyhedron, basis: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Largest ball in the polyhedron's closure, of radius at most
    rho = max(1, max |b_i|): max r s.t. a_i . y + r <= b_i (unit rows), r <= rho.

    The center y may be restricted to the row span of ``basis``
    (y = coords @ basis, rows orthonormal).  Returns (y, r), with r < 0 when
    the closure misses the span (r is free, so the LP is always feasible),
    and r = rho when the closure holds balls of every radius.
    """
    a_y = poly.a if basis is None else poly.a @ basis.T
    k = a_y.shape[1]
    cost = np.zeros(k + 1)
    cost[-1] = -1.0
    # the cap binds only where r* is unbounded: a finite r* has dual weights
    # lam >= 0 with sum 1 and a_y^T lam = 0, so r* = b . lam <= max b <= rho;
    # the floor of 1 keeps a half-space at a tiny offset deeper than MIN_DEPTH
    rho = np.abs(poly.b).max(initial=1.0)
    rows = np.zeros((len(a_y) + 1, k + 1))  # [a_y | 1] above the cap row (0, ..., 0, 1)
    rows[:-1, :k], rows[:, k] = a_y, 1.0
    res = solve_lp(cost, a_ub=rows, b_ub=np.append(poly.b, rho))
    if res.status != "optimal":
        raise SolverError(f"inscribed-ball LP failed with status {res.status!r}")
    center = res.x[:k] if basis is None else res.x[:k] @ basis
    return center, float(res.x[-1])


def chebyshev_center(poly: HPolyhedron) -> tuple[np.ndarray, float]:
    """A Chebyshev center (deepest interior point) of the polyhedron, plus its inradius.

    One LP, capped as in ``_inscribed_ball``; among equally deep points the
    simplex vertex is returned, so the result is deterministic; the inradius
    is min(b - a c) over the unit rows.  Raises EmptySetError when the
    interior is empty and InputError when there are no rows.
    """
    if poly.a.shape[0] == 0:
        raise InputError("the whole space has no deepest point; supply constraints")
    center, _ = _inscribed_ball(poly)
    radius = float(np.min(poly.b - poly.a @ center))
    if radius <= MIN_DEPTH:
        raise EmptySetError("polyhedron has empty interior")
    return center, radius


def pick_interior_point(a_set: ConvexSet) -> np.ndarray:
    """A deterministic interior point: ball center, Chebyshev center, or oracle witness.

    Raises EmptySetError when a polyhedron has no interior point deeper than
    ``MIN_DEPTH``, and InputError for any other set type."""
    if isinstance(a_set, OpenBall):
        return np.array(a_set.center)
    if isinstance(a_set, HPolyhedron):
        return chebyshev_center(a_set)[0]
    if isinstance(a_set, OracleSet):
        if a_set.witness is None:
            raise InputError("oracle sets must carry a witness point")
        if not a_set.contains(a_set.witness):
            raise InputError("oracle witness is not a member of its own set")
        return np.array(a_set.witness)
    raise InputError(f"no interior-point rule for {type(a_set).__name__}")


def sample_interior(a_set: ConvexSet, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic batch of strictly interior points from membership alone
    (the certificate's samples of a membership oracle): an accept/reject
    random walk from ``pick_interior_point``."""
    rng = np.random.default_rng(seed)
    if count < 1:
        raise InputError("sample count must be positive")
    current = pick_interior_point(a_set)
    scale = 0.5 * max(1.0, float(np.linalg.norm(current)))
    out = np.empty((count, a_set.dim))
    for i in range(count):
        candidate = current + rng.normal(size=a_set.dim) * scale
        if a_set.contains(candidate):
            current = candidate
        out[i] = current
    return out
