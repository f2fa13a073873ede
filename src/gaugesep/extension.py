"""Dominated extension of partial linear functionals.

The one-dimensional step computes the closed admissible interval for the new
value: its upper end is ``inf over x in G of (-g(x) + p(x + z))`` and its
lower end the matching supremum; any choice inside keeps ``|g| <= p``.  Full
extension runs the step over a deterministic orthonormal completion of the
domain, replacing transfinite machinery with finite induction.  The gauge
type computes the ends (``_ends``) and the dual seminorm p* (``_polar``; see
``gauges``).  ``domination_check`` measures ``|g| <= p`` as ``p*(g) - 1``;
``extend_full_state`` checks its result that way, and ``separate()`` leaves
that to its exact certificates (Remark 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateError, InputError, SolverError
from .gauges import Seminorm, gauge
from .geometry import (
    TOL_MEMBERSHIP,
    PartialFunctional,
    Subspace,
    _frozen,
    as_vector,
    complement_basis,
)
from .simplexlp import LPResult

DOMINATION_TOL = 1e-6
GAMMA_RULES = ("upper", "lower", "midpoint")


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
        _check_rule(rule)
        return self.hi if rule == "upper" else self.lo if rule == "lower" else self.midpoint


@dataclass(frozen=True, eq=False)
class ExtensionStep:
    direction: np.ndarray
    interval: GammaInterval
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "direction", _frozen(as_vector(self.direction)))

    def _picked_end(self) -> LPResult | None:
        """The LP result of the interval end that ``gamma`` is (on a forced
        interval, of the end that forced it); None for an interior pick or
        ends that no LP gave."""
        ends, hi = self.interval._ends, self.interval.hi
        return ends[0 if self.gamma == hi else -1] if ends and self.gamma in (self.interval.lo, hi) else None


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


def extension_interval(state: ExtensionState, z, *, seed: int = 0) -> GammaInterval:
    """Admissible value interval for extending the functional to direction ``z``.

    Raises DegenerateError when ``z`` already lies in the domain, InputError
    on a negative ``seed``, and SolverError when the interval comes out
    empty, which signals a gauge that is not actually a seminorm or a
    functional that is not dominated.
    """
    _check_seed(seed)
    z = as_vector(z, state.domain.ambient_dim)
    coeffs = state.domain.basis @ z  # as ``Subspace.contains``, keeping what ``extend_one`` needs
    residual = z - state.domain.basis.T @ coeffs
    scale = float(np.linalg.norm(residual))
    if scale <= TOL_MEMBERSHIP * max(1.0, float(np.linalg.norm(z))):
        raise DegenerateError("direction already lies in the domain")
    p = state.seminorm
    if state.domain.dim:
        hi, lo, ends = p._ends(state, z, seed)
    else:
        hi, lo, ends = gauge(p, z), -gauge(p, -z), ()
    # a zero-width search-certified interval may come back inverted by
    # certification noise
    if lo > hi + p._SLACK:
        raise SolverError(
            f"empty admissible interval [{lo}, {hi}] of a {type(p).__name__} on a {state.domain.dim}-dimensional "
            "domain: seminorm or domination assumption broken"
        )
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

    The returned state has domain ``G + span{z}``.  The interval holds the
    values that keep ``|g| <= p`` there (the one-step extension lemma), so no
    gauge is evaluated; an explicit ``gamma`` beyond ``_SLACK`` of it raises.
    """
    interval = extension_interval(state, z, seed=seed)
    value = interval.pick(rule) if gamma is None else float(gamma)
    slack = state.seminorm._SLACK
    if not interval.lo - slack <= value <= interval.hi + slack:
        raise SolverError(f"gamma = {value} lies outside the admissible interval [{interval.lo}, {interval.hi}]")
    domain = state.domain
    coeffs, residual, scale = interval._split
    new_row = residual / scale
    new_value = (value - float(state.functional.values @ coeffs)) / scale
    new_domain = Subspace(domain.ambient_dim, np.vstack([domain.basis, new_row]))
    new_functional = PartialFunctional(new_domain, np.append(state.functional.values, new_value))
    step = ExtensionStep(z, interval, value)
    return ExtensionState(new_functional, state.seminorm, state.history + (step,))


def _check_domain(f: PartialFunctional, p: Seminorm) -> None:
    """Dimension check and a necessary domination test on a caller's domain basis."""
    if p.dim != f.domain.ambient_dim:
        raise InputError("seminorm and functional live in different dimensions")
    for row, value in zip(f.domain.basis, f.values):
        if abs(value) > gauge(p, row) + 1e-7:
            raise InputError("functional is not dominated by the seminorm on its domain basis")


def _extend_steps(f: PartialFunctional, p: Seminorm, rule: str, *, seed: int) -> ExtensionState:
    """``f`` extended over the deterministic completion order, unchecked
    (``violation`` None; no step evaluates the gauge, so the caller decides
    domination); the zero functional extends to zero directly, with
    ``violation`` -1 (``p*(0) - 1``)."""
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

    A bad ``rule``, ``seed`` or ``f`` (``_check_domain``) raises InputError
    before any LP.  The result is verified by ``domination_check``, whose
    value is kept as ``violation``, and a SolverError is raised past
    ``DOMINATION_TOL`` (this is where a non-balanced "gauge" gets caught).
    """
    _check_rule(rule)
    _check_seed(seed)
    _check_domain(f, p)
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
    relative: it does not change when g and p are scaled together.  p*(g) is
    the gauge type's ``_polar``: exact LPs on polyhedral gauges (``inf`` when
    g is nonzero on the kernel of p) and the closed form on ball-cone gauges,
    which draw nothing; oracle gauges sample ``seed``-drawn directions and
    refine by ascent.  A negative ``seed`` raises InputError before any LP.
    """
    _check_seed(seed)
    return p._polar(as_vector(g, p.dim), seed) - 1.0


def _check_rule(rule: str) -> None:
    """Reject a gamma rule outside ``GAMMA_RULES``."""
    if rule not in GAMMA_RULES:
        raise InputError(f"unknown gamma rule {rule!r}; use one of {GAMMA_RULES}")


def _check_seed(seed: int) -> None:
    """Reject a seed that ``np.random.default_rng`` would not take."""
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
