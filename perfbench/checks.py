"""Independent references for the benchmark's output checks.

Nothing here imports gaugesep.  Every expected value is computed from the
input's own description with numpy alone: a box from its centre, half-widths
and axes; a ball from its centre and radius; a half-space from its normal.
The package's conic hulls, gauges, LPs and certificates are never consulted.

A box is ``{x : |q^T (x - c)|_i < h_i}`` with ``q`` orthogonal (its columns
are the box axes).  Subspace bases are orthonormal rows.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9  # relative slack for separations that touch the closure
S_TOL = 1e-8  # largest |normal . s| over the subspace basis
GAUGE_REL_TOL = 1e-7  # oracle gauges are certified to 1e-10, anchors pinned to ~1e-9


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / float(np.linalg.norm(v))


def subspace_residual(basis: np.ndarray, normal: np.ndarray) -> float:
    return float(np.max(np.abs(basis @ normal))) if basis.shape[0] else 0.0


def box_support(normal: np.ndarray, h: np.ndarray, q: np.ndarray) -> float:
    """Half-width of the box's projection on ``normal``: sum h_i |q_i . n|."""
    return float(h @ np.abs(q.T @ normal))


def box_separates(normal, basis, c, h, q) -> bool:
    """The plane through 0 with this normal contains S and misses the open box:
    |n.c| >= sum h_i |(q^T n)_i|."""
    n = unit(normal)
    lhs, rhs = abs(float(n @ c)), box_support(n, h, q)
    return subspace_residual(basis, n) <= S_TOL and lhs - rhs >= -REL_TOL * (lhs + rhs)


def ball_separates(normal, basis, c, r) -> bool:
    """The plane through 0 with this normal contains S and misses the open
    ball: |n.c| >= r."""
    n = unit(normal)
    lhs = abs(float(n @ c))
    return subspace_residual(basis, n) <= S_TOL and lhs - r >= -REL_TOL * (lhs + r)


def box_ray_interval(y, c, h, q) -> tuple[float, float]:
    """Open interval of t > 0 with t*y inside the box (lo >= hi when empty)."""
    d = q.T @ np.asarray(y, dtype=float)
    mid = q.T @ c
    lo, hi = 0.0, np.inf
    pos, neg, zero = d > 0.0, d < 0.0, d == 0.0
    if np.any(zero & ~((mid - h < 0.0) & (0.0 < mid + h))):
        return 1.0, 0.0
    if np.any(pos):
        lo = max(lo, float(np.max((mid[pos] - h[pos]) / d[pos])))
        hi = min(hi, float(np.min((mid[pos] + h[pos]) / d[pos])))
    if np.any(neg):
        lo = max(lo, float(np.max((mid[neg] + h[neg]) / d[neg])))
        hi = min(hi, float(np.min((mid[neg] - h[neg]) / d[neg])))
    return lo, hi


def ball_ray_interval(y, c, r) -> tuple[float, float]:
    """Open interval of t > 0 with t*y inside the ball (lo >= hi when empty)."""
    y = np.asarray(y, dtype=float)
    a, b, k = float(y @ y), float(y @ c), float(c @ c) - r * r
    disc = b * b - a * k
    if a == 0.0 or disc <= 0.0:
        return 1.0, 0.0
    root = np.sqrt(disc)
    lo, hi = (b - root) / a, (b + root) / a
    return max(lo, 0.0), hi


def in_box_cone(y, c, h, q) -> bool:
    lo, hi = box_ray_interval(y, c, h, q)
    return lo < hi


def in_ball_cone(y, c, r) -> bool:
    lo, hi = ball_ray_interval(y, c, r)
    return lo < hi


def _bisect_exit(inside, x, e) -> float:
    """sup{s >= 0 : x + s e in B} for an open convex cone B containing x."""
    lo, hi = 0.0, 1.0
    while inside(x + hi * e):
        lo, hi = hi, 2.0 * hi
        if hi > 1e15:
            return np.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi or hi - lo <= 1e-15 * hi:
            break
        if inside(x + mid * e):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ball_cone_exit(x, e, c, r) -> float:
    """Smallest positive root s of ((x+se).c)^2 = (|c|^2 - r^2)|x+se|^2."""
    k = float(c @ c) - r * r
    xc, ec = float(x @ c), float(e @ c)
    qa = ec * ec - k * float(e @ e)
    qb = 2.0 * (xc * ec - k * float(x @ e))
    qc = xc * xc - k * float(x @ x)
    if qa == 0.0:
        return -qc / qb if qb < 0.0 else np.inf
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return np.inf
    # x is inside, so qc > 0 and ``half`` cannot vanish here
    half = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
    return min((s for s in (half / qa, qc / half) if s > 0.0), default=np.inf)


def _symmetrized(exit_of, e) -> float:
    """Gauge of (B - x) ∩ (x - B): the larger of 1/exit along e and along -e."""
    return max(0.0 if s == np.inf else 1.0 / s for s in (exit_of(e), exit_of(-e)))


def ball_cone_gauge(e, x, c, r) -> float:
    """Closed-form gauge at e of the body symmetrized around x in cone(ball)."""
    return _symmetrized(lambda d: _ball_cone_exit(x, d, c, r), np.asarray(e, dtype=float))


def box_cone_gauge(e, x, c, h, q) -> float:
    """Gauge at e of the body symmetrized around x in cone(box), by bisection
    on the exact ray-interval membership test."""
    return _symmetrized(lambda d: _bisect_exit(lambda y: in_box_cone(y, c, h, q), x, d), np.asarray(e, dtype=float))


def close(value: float, reference: float, rel: float = GAUGE_REL_TOL) -> bool:
    return abs(value - reference) <= rel * max(abs(reference), 1e-300)


def halfspace_functional(a, x) -> np.ndarray:
    """The only functional whose kernel misses the open half-space {a.e < 0}
    and that sends x to 1."""
    a = np.asarray(a, dtype=float)
    return a / float(a @ x)
