"""Minkowski functionals of absorbing balanced open bodies.

Three representations, each evaluated on one point or on an (m, n) batch:
polyhedral bodies (a 2-D searched hull is a polyhedral sector) get the closed
form ``max(0, max_i a_i.e / b_i)``; bodies symmetrized inside the pointed
cone over a ball get one root of the cone-exit quadratic per ray, and a
closed-form polar (``BallConeGauge``); bodies in a searched hull in 3-D or
more (``OracleGauge``) get the two tangents of a plane section through the
anchor.  Any of them may vanish off the origin (a seminorm that is not a norm).

Each type also gives the extension step and the domination check what they
need: ``_SLACK`` (how far an interval's ends may cross by rounding),
``_values`` (the gauge on a checked point or batch, which ``gauge`` calls),
``_ends(state, z, seed)`` (``(hi, lo, LP results)``, the interval of an
``ExtensionState`` on a nonzero domain at ``z``) and ``_polar(g, seed)``
(p*(g) = ``sup |g . e| / p(e)``).  By duality the upper end
``inf over x in G of (-g(x) + p(x + z))`` is the support function of a slice
of the polar body, ``max psi.z`` over ``psi`` in D° with ``psi = g`` on G:
an exact small LP for polyhedral gauges, a closed form for ball-cone gauges
(an ellipsoid cylinder cut by a slab), and a seeded derivative-free
coordinate search for oracle gauges, which certifies it to about 1e-6.
p*(g) is exact from LPs for polyhedral gauges and closed-form for
ball-cone gauges; oracle gauges take it by seeded sampling and ascent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexsets import BallCone, ConicHullSet, ConvexSet, HPolyhedron, SymmetrizedBody, _plane
from .errors import InputError, SolverError
from .geometry import _frozen, as_vector
from .simplexlp import PIVOT_TOL, _face_edges, solve_lp

SEARCH_RESTARTS = 8
SEARCH_ITERATIONS = 200
SEARCH_CAP = 1e6  # no probe past it: there the gauge's noise outweighs any asymptotic descent


@dataclass(frozen=True, eq=False)
class PolyhedralGauge:
    """Gauge of the strict polyhedron ``{e : a_i . e < b_i}`` with 0 interior."""

    a: np.ndarray
    b: np.ndarray
    _SLACK = 1e-7  # LP ends are exact

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

    def _values(self, e: np.ndarray):
        if self.a.shape[0] == 0:
            return np.zeros(e.shape[:-1])
        return np.maximum(0.0, np.max((e @ self.a.T) / self.b, axis=-1))

    def _ends(self, state, z: np.ndarray, seed: int):
        """``[psi.z, psi.z]`` with no LP when the end the state's last step
        picked (on a forced interval, the end that forced it) is the point
        psi = a^T y that is its LP's whole optimal face, as no tied edge from
        y (``_face_edges``) moves psi beyond ``PIVOT_TOL`` of its terms
        (sufficient, not necessary); else ``_lp_ends``."""
        last = state.history[-1] if state.history else None
        res = last._picked_end() if last is not None else None
        if res is not None:
            # a forced interval hands its one end on untested
            edges = _face_edges(res) if len(last.interval._ends) == 2 else np.zeros((res.y.size, 0))
            if np.all(np.abs(self.a.T @ edges) <= PIVOT_TOL * (np.abs(self.a.T) @ np.abs(edges))):
                hi = float((self.a.T @ res.y) @ z)
                return hi, hi, (res,)
        return self._lp_ends(state, z)

    def _lp_ends(self, state, z: np.ndarray):
        """(hi, lo, results of the two ends): the LPs of the upper end at z
        and, negated, at -z, which differ only in ``b_ub``."""
        a, b = self.a, self.b
        basis, w = state.domain.basis, state.functional.values
        m, k = a.shape[0], basis.shape[0]
        # variables (c_1..c_k free, t >= 0): min -w.c + t  s.t.  a_i.(Bc + z) <= t b_i
        cost = np.concatenate([-w, [1.0]])
        a_ub = np.hstack([a @ basis.T, -b[:, None]])
        nonneg = np.concatenate([np.zeros(k, dtype=bool), [True]])
        results, az = [], a @ z
        for b_ub in (-az, az):  # -(a z) and -(a (-z))
            res = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, nonneg=nonneg)
            if res.status == "unbounded":
                raise SolverError(
                    f"extension LP is unbounded ({m} rows, {k + 1} vars): either the functional is not "
                    "dominated by the seminorm or the LP solver failed"
                )
            if res.status != "optimal":
                raise SolverError(  # unreached: c = 0 with t large is feasible, since every b_i > 0
                    f"extension LP failed with status {res.status!r} ({m} rows, {k + 1} vars)"
                )
            results.append(res)
        return results[0].objective, -results[1].objective, tuple(results)

    def _polar(self, g: np.ndarray, seed: int) -> float:
        """The larger of the two LPs ``max +-g . e`` over ``p <= 1`` (``inf``
        when one is unbounded: g is then nonzero on the kernel of p).  On the
        row layout of ``_mirrored`` p(-e) = p(e), so p*(-g) = p*(g) and only
        the +g LP is solved."""
        half, odd = divmod(self.a.shape[0], 2)
        mirrored = not odd and np.array_equal(self.a[half:], -self.a[:half]) and np.array_equal(self.b[half:], self.b[:half])
        best = 0.0
        for sign in (1.0,) if mirrored else (1.0, -1.0):
            res = solve_lp(-sign * g, a_ub=self.a, b_ub=self.b)
            if res.status == "unbounded":
                return np.inf
            if res.status != "optimal":
                raise SolverError(f"domination LP failed with status {res.status!r}")  # unreached: e = 0 is feasible (b > 0)
            best = max(best, -res.objective)
        return best


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
    the pipeline takes the hull's polyhedral sector instead.  Intervals and
    the polar evaluate only ``_value``, which a subclass may override.
    """

    body: SymmetrizedBody
    _SLACK = 2e-6  # search-certified ends

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
        """The gauge at one checked point."""
        hull, x = self.body.base, self._x
        if hull._full:  # B, and so D, is the whole space
            return 0.0
        t, kappa, v = _plane(x, e)
        if kappa == 0.0:
            return self._beta * abs(t)
        above, below = hull._tangent(x, v)[0], hull._tangent(x, -v)[0]
        return self._beta * max(0.0, kappa / np.tan(above) - t, kappa / np.tan(below) + t)

    def _values(self, e: np.ndarray):
        return np.array([self._value(row) for row in e]) if e.ndim == 2 else self._value(e)

    def _ends(self, state, z: np.ndarray, seed: int):
        """The two searched ends.  Crossed ends of a search that ended at the
        cap are the cap, not ends (a valid asymptotic minimum may reach it)."""
        basis, w = state.domain.basis, state.functional.values
        (hi, hi_capped), (low, low_capped) = self._search(basis, w, z, seed), self._search(basis, w, -z, seed + 1)
        if -low > hi + self._SLACK and (hi_capped or low_capped):
            raise SolverError(
                "extension search is unbounded (it reached the 1e6 cap): either the functional is not "
                "dominated by the seminorm or the search failed"
            )
        return hi, -low, ()

    def _search(self, basis: np.ndarray, w: np.ndarray, z: np.ndarray, seed: int) -> tuple[float, bool]:
        """inf over c of ``-w.c + p(c basis + z)``: a pattern search from the
        origin and ``SEARCH_RESTARTS`` seeded starts, polished from the best;
        with whether the best restart ended within 0.1% of ``SEARCH_CAP``."""
        k = basis.shape[0]

        def objective(c: np.ndarray) -> float:  # c and z are finite float arrays
            return float(-w @ c + self._values(c @ basis + z))

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
        return min(best, val), float(np.max(np.abs(best_point), initial=0.0)) >= 0.999 * SEARCH_CAP

    def _polar(self, g: np.ndarray, seed: int) -> float:
        """Sampled: the largest ratio over 256 seeded directions, with the
        best one, and ``g`` itself, refined by a deterministic coordinate
        ascent, so that clear violations cannot hide between samples;
        ``|g . e|`` is first lowered by ``1e-9 |g| |e|``, so that rounding
        left on the kernel of p does not read as infinite."""
        gnorm = float(np.linalg.norm(g))

        def ratio(e: np.ndarray):
            # a residue of g below 1e-9 |g| on the kernel of p is rounding, not an
            # infinite p*(g); the LPs' feasibility test forgives residues of that order
            dot = np.maximum(np.abs(e @ g) - 1e-9 * gnorm * np.linalg.norm(e, axis=-1), 0.0)
            pe = self._values(e)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(pe > 0.0, dot / pe, np.where(dot > 0.0, np.inf, 0.0))

        dirs = np.random.default_rng(seed).normal(size=(256, g.size))
        values = ratio(dirs)
        best = float(np.max(values))
        starts = [dirs[int(np.argmax(values))]] + ([g] if np.any(g) else [])
        for start in starts:  # the ratio is scale-free, so the ascent may leave the unit sphere
            u = start / float(np.linalg.norm(start))
            best = max(best, -_pattern_search(lambda e: -float(ratio(e)), u, iterations=80, step0=0.5)[1])
        return best


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
    _SLACK = 1e-7  # closed-form ends

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
        if xx == 0.0:
            raise InputError(f"anchor too short for the ball-cone gauge: |x|^2 underflows to 0 (|x| = {math.hypot(*x):.3g})")
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

    def _values(self, e: np.ndarray):
        x = self.body.anchor
        along = (e @ x) / self._xx
        u = e - np.multiply.outer(along, x)
        uc = u @ self._c_off
        disc = self.body.base._excess * (self._qc * np.einsum("...i,...i", u, u) + self._xx * uc * uc)
        return np.abs(along + self._xc * uc / self._qc) + np.sqrt(disc) / self._qc

    def _ends(self, state, z: np.ndarray, seed: int):
        basis, w = state.domain.basis, state.functional.values
        return self._slice_max(basis, w, z), -self._slice_max(basis, w, -z), ()

    def _slice_max(self, basis: np.ndarray, w: np.ndarray, z: np.ndarray) -> float:
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
        x = self.body.anchor

        def feasible(slice_max) -> bool:
            return slice_max is not None and slice_max[2] >= -1e-9 and abs(float(slice_max[1] @ x)) <= 1.0 + 1e-12

        cylinder = _ellipsoid_slice_max(self._q, basis, w, z)
        if feasible(cylinder):
            return cylinder[0]
        xn = float(np.linalg.norm(x))
        rows = np.vstack([basis, x / xn])
        faces = [_ellipsoid_slice_max(self._q, rows, np.append(w, s / xn), z) for s in (1.0, -1.0)]
        values = [face[0] for face in faces if feasible(face)]
        if not values:
            detail = "" if cylinder is None else f" (slice slack {cylinder[2]:.3e}, |psi.x| {abs(float(cylinder[1] @ x)):.3e})"
            raise SolverError(
                "empty admissible interval: no point of the polar body agrees with the functional on its domain" + detail
            )
        return max(values)

    def _polar(self, g: np.ndarray, seed: int) -> float:
        return self.polar(g)[0]


def _mirrored(rows: np.ndarray, offsets: np.ndarray) -> PolyhedralGauge:
    """The gauge of ``{e : |c_i . e| < d_i}``, as rows ``[c; -c]`` with
    offsets ``[d; d]``: row i + m/2 is -(row i) (see ``PolyhedralGauge._polar``)."""
    return PolyhedralGauge(np.vstack([rows, -rows]), np.concatenate([offsets, offsets]))


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
    values = p._values(e)
    return values if e.ndim == 2 else float(values)


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


def _pattern_search(fun, x0: np.ndarray, *, iterations: int, step0: float = 1.0, rng=None, target: float = -np.inf):
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
            if float(np.max(np.abs(cand))) > SEARCH_CAP:
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
                    if float(np.max(np.abs(cand))) > SEARCH_CAP:
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
