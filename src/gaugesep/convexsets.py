"""Open convex bodies and the set-level constructions the separation
pipeline needs: positive conic hulls, the symmetrized body around an anchor
point, interior-point selection, and interior sampling.

Membership is strict everywhere (open sets); verification-style callers get
margins from the certificate code instead of epsilon-shrunken sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptySetError, InputError, SolverError
from .geometry import as_vector, _frozen
from .simplexlp import solve_lp

DEFAULT_RAY_BOUND = 1e6
MIN_DEPTH = 1e-9  # inscribed-ball radii at or below this certify no interior


class ConvexSet:
    """Base class for open convex set representations."""

    dim: int

    def contains(self, point) -> bool:
        return self._member(as_vector(point, self.dim))

    def _member(self, e: np.ndarray) -> bool:
        """Membership for pre-validated arrays; the hot path skips checks."""
        raise NotImplementedError

    def signed_violation(self, point) -> float | None:
        """Negative inside, positive outside; None when only a predicate exists."""
        return None


@dataclass(frozen=True, eq=False)
class HPolyhedron(ConvexSet):
    """Strict H-polyhedron ``{e : a_i . e < b_i}``; may be unbounded.

    ``witness`` is an optional known interior point, required only when the
    polyhedron is unbounded and an interior point must be selected.
    """

    a: np.ndarray
    b: np.ndarray
    witness: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2:
            raise InputError("HPolyhedron rows must form a 2-D array")
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if a.shape[0] != b.size:
            raise InputError("row count of a and length of b disagree")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InputError("polyhedron data must be finite")
        if a.shape[0] and np.any(np.linalg.norm(a, axis=1) == 0.0):
            raise InputError("zero rows are not allowed")
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))
        if self.witness is not None:
            object.__setattr__(self, "witness", _frozen(as_vector(self.witness, a.shape[1])))

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def _member(self, e: np.ndarray) -> bool:
        return bool((self.a @ e < self.b).all()) if self.a.shape[0] else True

    def signed_violation(self, point) -> float:
        e = as_vector(point, self.dim)
        if self.a.shape[0] == 0:
            return -1.0
        return float(np.max(self.a @ e - self.b))


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

    def signed_violation(self, point) -> float:
        e = as_vector(point, self.dim)
        return float(np.linalg.norm(e - self.center)) - self.radius


@dataclass(frozen=True, eq=False)
class OracleSet(ConvexSet):
    """Membership-oracle set; convexity and openness are the caller's promise.

    ``ray_bound`` caps all 1-D searches along rays, and ``witness`` (an
    interior point) is required by operations that must produce a point.
    The predicate must be pure.
    """

    dim: int
    membership: Callable[[np.ndarray], bool]
    ray_bound: float = DEFAULT_RAY_BOUND
    witness: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("oracle dimension must be positive")
        if not (np.isfinite(self.ray_bound) and self.ray_bound > 0):
            raise InputError("ray_bound must be positive")
        if self.witness is not None:
            object.__setattr__(self, "witness", _frozen(as_vector(self.witness, self.dim)))

    def contains(self, point) -> bool:
        return bool(self.membership(as_vector(point, self.dim)))

    def _member(self, e: np.ndarray) -> bool:
        return bool(self.membership(e))


@dataclass(frozen=True, eq=False)
class BallCone(ConvexSet):
    """Positive conic hull of an open ball; membership is a quadratic test."""

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
        ec = float(e @ self.center)
        if excess == 0.0:
            return ec > 0.0
        return ec > 0.0 and ec * ec > float(e @ e) * excess


@dataclass(frozen=True, eq=False)
class ConicHullSet(ConvexSet):
    """Search-backed positive conic hull of an arbitrary base set."""

    base: ConvexSet

    @property
    def dim(self) -> int:
        return self.base.dim

    def _member(self, e: np.ndarray) -> bool:
        return conic_hull_membership_search(self.base, e)


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

    def signed_violation(self, point) -> float | None:
        e = as_vector(point, self.dim)
        v1 = self.base.signed_violation(self.anchor + e)
        v2 = self.base.signed_violation(self.anchor - e)
        if v1 is None or v2 is None:
            return None
        return max(v1, v2)


def _ray_bound(c: ConvexSet) -> float:
    return c.ray_bound if isinstance(c, OracleSet) else DEFAULT_RAY_BOUND


def conic_hull_membership_search(a_set: ConvexSet, point, *, grid: int | None = None) -> bool:
    """Generic 1-D search for membership in the positive conic hull of ``a_set``.

    A point belongs iff some positive multiple of it lies in the base set; the
    feasible multipliers form an interval, located by a log-spaced scan plus
    golden-section refinement on the signed violation, then confirmed by the
    membership predicate.  With a boolean-only predicate the refinement stage
    has nothing to descend on, so resolution is limited by the scan grid.
    """
    e = as_vector(point, a_set.dim)
    if float(np.linalg.norm(e)) == 0.0:
        return a_set.contains(e)
    bound = _ray_bound(a_set)
    if grid is None:
        grid = max(32, int(16 * np.log10(bound)))
    betas = np.geomspace(1.0 / bound, bound, grid)
    probe = a_set.signed_violation(betas[0] * e)
    if probe is None:
        # indicator only: the feasible interval is found by the scan or not at all
        return any(a_set._member(beta * e) for beta in betas)

    def violation(beta: float) -> float:
        return a_set.signed_violation(beta * e)

    values = np.array([violation(b) for b in betas])
    best = int(np.argmin(values))
    if values[best] < 0.0 and a_set._member(betas[best] * e):
        return True
    lo = np.log(betas[max(best - 1, 0)])
    hi = np.log(betas[min(best + 1, grid - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = violation(np.exp(x1)), violation(np.exp(x2))
    for _ in range(80):
        if hi - lo < 1e-12:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = violation(np.exp(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = violation(np.exp(x2))
    beta = np.exp(0.5 * (lo + hi))
    return a_set._member(beta * e)


def conic_hull_membership(a_set: ConvexSet, point) -> bool:
    """Membership in ``B``, the union of all positive dilates of ``a_set``."""
    return conic_hull(a_set).contains(point)


def conic_hull(a_set: ConvexSet) -> ConvexSet:
    """The positive conic hull as a set object (closed form where possible).

    A polyhedron's hull is again a polyhedron: rows with nonpositive offsets
    force ``a_i . e < 0``; every (positive-offset, negative-offset) row pair
    contributes the cross row ``(b_i a_j - b_j a_i) . e < 0``.  Requires a
    nonempty base set.
    """
    if isinstance(a_set, HPolyhedron):
        rows = []
        pos = [(a_i, b_i) for a_i, b_i in zip(a_set.a, a_set.b) if b_i > 0.0]
        for a_i, b_i in zip(a_set.a, a_set.b):
            if b_i <= 0.0:
                rows.append(a_i)
                for a_p, b_p in pos:
                    if b_i < 0.0:
                        rows.append(b_p * a_i - b_i * a_p)
        if not rows:
            return HPolyhedron(np.zeros((0, a_set.dim)), np.zeros(0))
        rows = np.array(rows)
        keep = np.linalg.norm(rows, axis=1) > 0.0
        return HPolyhedron(rows[keep], np.zeros(int(keep.sum())))
    if isinstance(a_set, OpenBall):
        return BallCone(a_set.center, a_set.radius)
    if isinstance(a_set, (BallCone, ConicHullSet)):
        return a_set
    return ConicHullSet(a_set)


def build_D(a_set: ConvexSet, x) -> SymmetrizedBody:
    """The symmetrized body ``(B - x) ∩ (x - B)`` for ``x`` in the conic hull."""
    x = as_vector(x, a_set.dim)
    hull = conic_hull(a_set)
    if not hull.contains(x):
        raise InputError("anchor point is outside the conic hull of the set")
    return SymmetrizedBody(hull, x)


def _inscribed_ball(
    poly: HPolyhedron, *, cap: float | None = None, basis: np.ndarray | None = None
) -> tuple[np.ndarray, float] | None:
    """Largest ball in the polyhedron's closure: max r s.t. a_i . y + r |a_i| <= b_i.

    The center y may be restricted to the row span of ``basis``
    (y = coords @ basis, rows orthonormal), and r may be capped.  Returns
    (y, r), or None when the closure misses the span.  An unbounded r
    (possible only without a cap) raises InputError; any other status than
    optimal or infeasible raises SolverError.
    """
    a, b = np.asarray(poly.a), np.asarray(poly.b)
    a_y = a if basis is None else a @ basis.T
    k = a_y.shape[1]
    cost = np.zeros(k + 1)
    cost[-1] = -1.0
    a_ub = np.hstack([a_y, np.linalg.norm(a, axis=1)[:, None]])
    b_ub = b
    if cap is not None:
        a_ub = np.vstack([a_ub, np.append(np.zeros(k), 1.0)])
        b_ub = np.append(b, cap)
    res = solve_lp(cost, a_ub=a_ub, b_ub=b_ub)
    if res.status == "infeasible":
        return None
    if res.status == "unbounded" and cap is None:
        raise InputError("polyhedron is unbounded; an interior point requires a witness")
    if res.status != "optimal":
        raise SolverError(f"inscribed-ball LP ended with status {res.status!r}")
    center = res.x[:k] if basis is None else res.x[:k] @ basis
    return center, float(res.x[-1])


def chebyshev_center(poly: HPolyhedron) -> tuple[np.ndarray, float]:
    """A Chebyshev center (deepest interior point) of the polyhedron, plus its inradius.

    One LP; among equally deep points the simplex vertex is returned, so the
    result is deterministic.  Raises EmptySetError when the interior is empty
    and InputError when the inradius is unbounded.
    """
    if poly.a.shape[0] == 0:
        raise InputError("the whole space has no deepest point; supply constraints or a witness")
    ball = _inscribed_ball(poly)
    if ball is None:
        raise EmptySetError("polyhedron is empty")
    center = ball[0]
    radius = float(np.min((poly.b - poly.a @ center) / np.linalg.norm(poly.a, axis=1)))
    if radius <= MIN_DEPTH:
        raise EmptySetError("polyhedron has empty interior")
    return center, radius


def _meets(a_set: ConvexSet, basis: np.ndarray | None = None) -> bool | None:
    """Does the open set meet the row span of ``basis`` (the whole space if None)?

    Exact for polyhedra (capped inscribed ball centered in the span, radius
    above MIN_DEPTH) and balls (center nearer the span than r (1 - 1e-9), a
    band relative to r); None for other sets.  ``basis`` rows are orthonormal.
    """
    if isinstance(a_set, HPolyhedron):
        ball = _inscribed_ball(a_set, cap=1.0, basis=basis)
        return ball is not None and ball[1] > MIN_DEPTH
    if isinstance(a_set, OpenBall):
        c = np.asarray(a_set.center)
        dist = 0.0 if basis is None else float(np.linalg.norm(c - (basis @ c) @ basis))
        return dist < a_set.radius * (1.0 - 1e-9)
    return None


def is_empty(a_set: ConvexSet) -> bool:
    """Best-effort emptiness test (exact for polyhedra and balls)."""
    meets = _meets(a_set)
    if meets is not None:
        return not meets
    if isinstance(a_set, OracleSet):
        if a_set.witness is None:
            raise InputError("oracle sets need a witness point for emptiness checks")
        return not a_set.contains(a_set.witness)
    raise InputError(f"emptiness test unsupported for {type(a_set).__name__}")


def pick_interior_point(a_set: ConvexSet) -> np.ndarray:
    """A deterministic interior point: ball center, Chebyshev center, or witness."""
    if isinstance(a_set, OpenBall):
        return np.array(a_set.center)
    if isinstance(a_set, HPolyhedron):
        try:
            center, _ = chebyshev_center(a_set)
            return center
        except InputError:
            if a_set.witness is not None and a_set.contains(a_set.witness):
                return np.array(a_set.witness)
            raise
    if isinstance(a_set, OracleSet):
        if a_set.witness is None:
            raise InputError("oracle sets must carry a witness point")
        if not a_set.contains(a_set.witness):
            raise InputError("oracle witness is not a member of its own set")
        return np.array(a_set.witness)
    if isinstance(a_set, SymmetrizedBody):
        return np.zeros(a_set.dim)
    raise InputError(f"no interior-point rule for {type(a_set).__name__}")


def sample_interior(a_set: ConvexSet, count: int, seed: int = 0, start=None) -> np.ndarray:
    """Deterministic batch of strictly interior points (for certificates/tests).

    Balls are sampled uniformly.  Polyhedra are sampled star-shaped from an
    interior anchor: random directions, random fractions of the distance to
    the boundary (capped along recession directions).  Oracle-style sets use
    an accept/reject random walk from the witness.
    """
    rng = np.random.default_rng(seed)
    if count < 1:
        raise InputError("sample count must be positive")
    if isinstance(a_set, OpenBall):
        dirs = rng.normal(size=(count, a_set.dim))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1), 1e-300)[:, None]
        radii = a_set.radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / a_set.dim)
        return a_set.center + radii[:, None] * dirs
    if isinstance(a_set, HPolyhedron):
        if start is not None:
            x0 = as_vector(start, a_set.dim)
        else:
            x0 = pick_interior_point(a_set)
        if not a_set.contains(x0):
            raise InputError("starting point is not interior")
        dirs = rng.normal(size=(count, a_set.dim))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1), 1e-300)[:, None]
        cap = 10.0 * max(1.0, float(np.linalg.norm(x0)))
        if a_set.a.shape[0]:
            slack = a_set.b - a_set.a @ x0  # all > 0
            dens = dirs @ a_set.a.T  # (count, m)
            with np.errstate(divide="ignore"):
                ratios = np.where(dens > 1e-300, slack[None, :] / dens, np.inf)
            tmax = np.minimum(ratios.min(axis=1), cap)
        else:
            tmax = np.full(count, cap)
        fracs = rng.uniform(0.02, 0.95, size=count)
        return x0 + (fracs * tmax)[:, None] * dirs
    witness = start
    if witness is None:
        witness = pick_interior_point(a_set)
    current = as_vector(witness, a_set.dim)
    if not a_set.contains(current):
        raise InputError("starting point is not interior")
    scale = 0.5 * max(1.0, float(np.linalg.norm(current)))
    out = np.empty((count, a_set.dim))
    for i in range(count):
        step = rng.normal(size=a_set.dim) * scale
        candidate = current + step
        if a_set.contains(candidate):
            current = candidate
        out[i] = current
    return out
