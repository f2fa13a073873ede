from itertools import product

import numpy as np
import pytest

import gaugesep.extension as extension
import gaugesep.gauges as gauges
from gaugesep import (
    BallConeGauge,
    DegenerateError,
    ExplicitMaxAbs,
    ExtensionState,
    InputError,
    OpenBall,
    PartialFunctional,
    PolyhedralGauge,
    SeparationOptions,
    SolverError,
    build_D,
    chebyshev_center,
    complement_basis,
    domination_check,
    extend_full_state,
    extend_one,
    extension_interval,
    gauge,
    gauge_from_symmetrized,
    separate,
    solve_lp,
    span_basis,
    unit_ball,
    zero_subspace,
)

from helpers import (
    BisectionGauge,
    ExactSearchGauge,
    dominated_functional,
    forced_step_boxes,
    point_in_cone,
    random_ball_instance,
    random_polyhedral_gauge,
    random_polytope_instance,
    random_subspace,
    record_lps,
)

TAXICAB = PolyhedralGauge(
    np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]), np.ones(4)
)
SLAB3 = PolyhedralGauge(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.array([1.0, 1.0]))
CUBE3 = PolyhedralGauge(
    np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)
)


def x_axis_functional() -> PartialFunctional:
    return PartialFunctional(span_basis([np.array([1.0, 0.0])]), np.array([1.0]))


def plane_functional() -> PartialFunctional:
    # f(x, y, z) = x on the plane 3x + y = 0 (the half-space instance's span)
    domain = span_basis([np.array([1.0, -3.0, 0.0]), np.array([0.0, 0.0, 1.0])])
    values = [float(u[0]) for u in domain.basis]
    return PartialFunctional(domain, np.array(values))


class TestExtensionInterval:
    def test_zero_domain_gives_plus_minus_gauge(self):
        f = PartialFunctional(zero_subspace(2), np.zeros(0))
        state = ExtensionState(f, TAXICAB)
        z = np.array([3.0, -4.0])
        interval = extension_interval(state, z)
        assert interval.lo == pytest.approx(-7.0, abs=1e-9)
        assert interval.hi == pytest.approx(7.0, abs=1e-9)

    def test_taxicab_step_is_unit_interval(self):
        state = ExtensionState(x_axis_functional(), TAXICAB)
        interval = extension_interval(state, np.array([0.0, 1.0]))
        assert interval.lo == pytest.approx(-1.0, abs=1e-9)
        assert interval.hi == pytest.approx(1.0, abs=1e-9)

    def test_slab_step_collapses_to_point(self):
        # hand value: inf over the plane of -f + slab gauge is 3/sqrt(10)
        state = ExtensionState(plane_functional(), SLAB3)
        interval = extension_interval(state, np.array([3.0, 1.0, 0.0]) / np.sqrt(10.0))
        expected = 3.0 / np.sqrt(10.0)
        assert interval.width == pytest.approx(0.0, abs=1e-9)
        assert interval.hi == pytest.approx(expected, abs=1e-9)

    def test_direction_in_domain_degenerate(self):
        state = ExtensionState(x_axis_functional(), TAXICAB)
        with pytest.raises(DegenerateError):
            extension_interval(state, np.array([2.0, 0.0]))

    def test_unbounded_objective_solver_error(self):
        # f = (1, 1) on the xy-plane under the cube gauge: dominated on each
        # basis vector but not on their sum, so the objective runs away
        f = PartialFunctional(span_basis([np.eye(3)[0], np.eye(3)[1]]), np.array([1.0, 1.0]))
        state = ExtensionState(f, CUBE3)
        with pytest.raises(SolverError, match=r"extension LP is unbounded \(6 rows, 3 vars\).*not dominated"):
            extension_interval(state, np.array([0.0, 0.0, 1.0]))

    def test_empty_search_interval_raises(self):
        # f = 2 e1 on span{e1} is not dominated by max(|x + y|, |x - y|),
        # which is 1 at e1: both searches run into the cap, whose values
        # would cross by far more than the slack, so the cap is named instead
        p = BisectionGauge(unit_ball(ExplicitMaxAbs([[1.0, 1.0], [1.0, -1.0]])))
        state = ExtensionState(PartialFunctional(span_basis([np.array([1.0, 0.0])]), np.array([2.0])), p)
        with pytest.raises(SolverError, match=r"extension search is unbounded \(it reached the 1e6 cap\).*not dominated"):
            extension_interval(state, np.array([0.0, 1.0]))

    def test_sandwich_on_random_dominated_instances(self):
        from gaugesep import gauge

        rng = np.random.default_rng(10)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            p = random_polyhedral_gauge(rng, n)
            f, _ = dominated_functional(rng, p, int(rng.integers(1, n)))
            state = ExtensionState(f, p)
            z = None
            for candidate in np.eye(n):
                if not f.domain.contains(candidate):
                    z = candidate
                    break
            interval = extension_interval(state, z)
            assert interval.lo <= interval.hi + 1e-7
            # both endpoints are bounded by the gauge of the new direction
            bound = gauge(p, z)
            assert interval.hi <= bound + 1e-7
            assert interval.lo >= -bound - 1e-7

    def test_lp_and_search_paths_agree(self):
        # 2-D domains, so the search also probes its seeded extra directions
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(3, 5))
            p = random_polyhedral_gauge(rng, n, max_pairs=3)
            f, _ = dominated_functional(rng, p, 2)
            state = ExtensionState(f, p)
            z = next(c for c in np.eye(n) if not f.domain.contains(c))
            via_lp = extension_interval(state, z)
            # the same gauge on the oracle path takes the search
            via_search = extension_interval(ExtensionState(f, ExactSearchGauge(p)), z, seed=3)
            assert via_lp.lo == pytest.approx(via_search.lo, abs=1e-6)
            assert via_lp.hi == pytest.approx(via_search.hi, abs=1e-6)

    def test_lp_ends_match_two_cold_solves(self, monkeypatch):
        # both ends must equal separate solves of the same two LPs exactly,
        # at every step: an interval's LPs carry nothing over from earlier ones
        calls = record_lps(monkeypatch, gauges)
        rng = np.random.default_rng(12)
        steps = later = 0
        for _ in range(12):
            n = int(rng.integers(2, 6))
            poly, _ = random_polytope_instance(rng, n)
            p = gauge_from_symmetrized(build_D(poly, chebyshev_center(poly)[0]))
            f, _ = dominated_functional(rng, p, int(rng.integers(1, n)))
            state = ExtensionState(f, p)
            for step, z in enumerate(complement_basis(f.domain)):
                calls.clear()
                interval = extension_interval(state, z)
                cold_up, cold_down = (solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=nonneg) for (c, a_ub, b_ub, nonneg), _ in calls)
                assert (interval.hi, interval.lo) == (cold_up.objective, -cold_down.objective)
                state = extend_one(state, z, "midpoint")
                steps += 1
                later += step > 0
        assert steps >= 12 and later >= 6


class TestExtendOne:
    def test_upper_rule_taxicab(self):
        state = ExtensionState(x_axis_functional(), TAXICAB)
        new = extend_one(state, np.array([0.0, 1.0]), "upper")
        np.testing.assert_allclose(new.functional.as_coefficients(), [1.0, 1.0], atol=1e-9)
        assert new.history[-1].gamma == pytest.approx(1.0, abs=1e-9)

    def test_midpoint_rule_taxicab(self):
        state = ExtensionState(x_axis_functional(), TAXICAB)
        new = extend_one(state, np.array([0.0, 1.0]), "midpoint")
        np.testing.assert_allclose(new.functional.as_coefficients(), [1.0, 0.0], atol=1e-9)

    def test_gamma_zero_forced_on_kernel_direction(self):
        f = PartialFunctional(zero_subspace(3), np.zeros(0))
        state = ExtensionState(f, SLAB3)
        new = extend_one(state, np.array([0.0, 1.0, 0.0]), "upper")
        assert new.history[-1].gamma == 0.0

    def test_domain_grows(self):
        state = ExtensionState(x_axis_functional(), TAXICAB)
        new = extend_one(state, np.array([0.0, 1.0]), "lower")
        assert new.domain.dim == 2
        assert len(new.history) == 1

    def test_bad_rule_rejected(self):
        state = ExtensionState(x_axis_functional(), TAXICAB)
        with pytest.raises(InputError):
            extend_one(state, np.array([0.0, 1.0]), "sideways")

    def test_explicit_gamma_inside_interval(self):
        state = ExtensionState(x_axis_functional(), TAXICAB)
        new = extend_one(state, np.array([0.0, 1.0]), gamma=0.25)
        np.testing.assert_allclose(new.functional.as_coefficients(), [1.0, 0.25], atol=1e-9)

    def test_explicit_gamma_outside_interval_rejected(self):
        state = ExtensionState(x_axis_functional(), TAXICAB)
        with pytest.raises(SolverError) as info:
            extend_one(state, np.array([0.0, 1.0]), gamma=2.0)
        assert str(info.value) == "gamma = 2.0 lies outside the admissible interval [-1.0, 1.0]"

    @pytest.mark.parametrize("end", [1.0, -1.0], ids=["hi", "lo"])
    def test_explicit_gamma_is_held_to_the_interval_up_to_its_slack(self, end):
        # [lo, hi] = [-1, 1] is exactly the set of values that keep |g| <= p
        # on G + span{z}, so an explicit gamma is tested against it, with the
        # gauge's _SLACK of room for the interval's own rounding
        state, z, slack = ExtensionState(x_axis_functional(), TAXICAB), np.array([0.0, 1.0]), TAXICAB._SLACK
        inside = end * (1.0 + 0.5 * slack)
        assert extend_one(state, z, gamma=inside).history[-1].gamma == inside
        for outside in (end * (1.0 + 2.0 * slack), np.nan):
            with pytest.raises(SolverError) as info:
                extend_one(state, z, gamma=outside)
            assert str(info.value) == f"gamma = {outside} lies outside the admissible interval [-1.0, 1.0]"


class TestExtendFull:
    def test_zero_functional_extends_to_zero(self):
        for f in (
            PartialFunctional(zero_subspace(3), np.zeros(0)),
            PartialFunctional(span_basis([np.eye(3)[2]]), np.array([0.0])),
        ):
            state = extend_full_state(f, SLAB3)
            np.testing.assert_allclose(state.functional.as_coefficients(), np.zeros(3))
            assert state.history == ()
            assert state.violation == -1.0  # p*(0) - 1

    def test_slab_extension_unique(self):
        g = extend_full_state(plane_functional(), SLAB3).functional.as_coefficients()
        np.testing.assert_allclose(g, [1.0, 0.0, 0.0], atol=1e-8)

    def test_taxicab_default_rule(self):
        g = extend_full_state(x_axis_functional(), TAXICAB).functional.as_coefficients()
        np.testing.assert_allclose(g, [1.0, 1.0], atol=1e-9)

    def test_reproduces_functional_on_domain(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            p = random_polyhedral_gauge(rng, n)
            f, _ = dominated_functional(rng, p, int(rng.integers(1, n)))
            state = extend_full_state(f, p)
            g = state.functional.as_coefficients()
            assert state.violation <= 1e-6
            mismatch = np.max(np.abs(f.domain.basis @ g - f.values))
            assert mismatch < 1e-8

    def test_not_dominated_rejected(self, monkeypatch):
        # f = 3 e1 exceeds p(e1) = 1 on its own domain basis: a caller's f is
        # tested there before any LP, although no extension step evaluates p
        calls = record_lps(monkeypatch, gauges)
        f = PartialFunctional(span_basis([np.array([1.0, 0.0])]), np.array([3.0]))
        with pytest.raises(InputError) as info:
            extend_full_state(f, TAXICAB)
        assert str(info.value) == "functional is not dominated by the seminorm on its domain basis"
        assert calls == []

    def test_final_gate_catches_non_balanced_gauge(self):
        # max(0, x + y) passes the basis precheck for this f but is not a
        # seminorm; the terminal domination check must flag the result
        lopsided = PolyhedralGauge(np.array([[1.0, 1.0, 0.0]]), np.array([1.0]))
        domain = span_basis([np.array([1.0, -1.0, 0.0]), np.array([1.0, 0.0, 0.0])])
        values = [float(u[0] + u[1]) for u in domain.basis]
        f = PartialFunctional(domain, np.array(values))
        with pytest.raises(SolverError, match="extension violates domination"):
            extend_full_state(f, lopsided)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            extend_full_state(x_axis_functional(), SLAB3)

    def test_unknown_rule_raises_before_any_lp(self, monkeypatch):
        # also where no step would pick: the zero functional, and a domain
        # that is already the whole space
        calls = record_lps(monkeypatch, gauges)
        whole = PartialFunctional(span_basis(list(np.eye(2))), np.array([0.5, 0.5]))
        for f in (x_axis_functional(), PartialFunctional(zero_subspace(2), np.zeros(0)), whole):
            with pytest.raises(InputError, match="unknown gamma rule 'bogus'"):
                extend_full_state(f, TAXICAB, "bogus")
        assert calls == []

    @pytest.mark.parametrize("p", [TAXICAB, BisectionGauge(unit_ball(TAXICAB))], ids=["polyhedral", "oracle"])
    def test_negative_seed_raises_before_any_lp(self, monkeypatch, p):
        # numpy's generator takes no negative seed, and an exact gauge draws
        # nothing; every analytic entry point rejects one all the same
        calls = record_lps(monkeypatch, gauges)
        state = ExtensionState(x_axis_functional(), p)
        entries = [
            lambda: extend_full_state(x_axis_functional(), p, seed=-1),
            lambda: extend_full_state(PartialFunctional(zero_subspace(2), np.zeros(0)), p, seed=-1),
            lambda: extension_interval(state, np.array([0.0, 1.0]), seed=-1),
            lambda: domination_check(np.array([1.0, 0.0]), p, seed=-1),
        ]
        for entry in entries:
            with pytest.raises(InputError, match="seed must be a non-negative integer, got -1"):
                entry()
        assert calls == []

    @pytest.mark.parametrize("excess, passes", [(1e-10, True), (1e-5, False)])
    def test_final_gate_scales_with_the_functional(self, excess, passes):
        # g = 1e6 (1 + excess) e1 against 1e6 (|x| + |y|): the worst direction
        # e1 is off the 45-degree domain basis, so only the final check sees
        # the violation p*(g) - 1 = excess, whatever the common scale
        p = PolyhedralGauge(TAXICAB.a, np.full(4, 1e-6))
        domain = span_basis([np.array([1.0, 1.0]), np.array([1.0, -1.0])])
        f = PartialFunctional(domain, domain.basis @ np.array([1e6 * (1.0 + excess), 0.0]))
        if passes:
            assert extend_full_state(f, p).violation == pytest.approx(excess, rel=1e-3)
        else:
            with pytest.raises(SolverError, match="extension violates domination"):
                extend_full_state(f, p)


class TestStepwiseDomination:
    def test_after_each_step_on_samples(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            p = random_polyhedral_gauge(rng, n)
            f, _ = dominated_functional(rng, p, 1)
            state = extend_full_state(f, p)
            g = state.functional.as_coefficients()
            from gaugesep import gauge

            for _ in range(200):
                e = rng.normal(size=n)
                assert abs(float(g @ e)) <= gauge(p, e) + 1e-6 * max(1.0, float(np.linalg.norm(e)))


class TestGammaBoundarySharpness:
    def test_inside_preserves_outside_violates(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            p = random_polyhedral_gauge(rng, n)
            f, _ = dominated_functional(rng, p, n - 1)
            state = ExtensionState(f, p)
            (z,) = complement_basis(f.domain)
            interval = extension_interval(state, z)
            scale = max(1.0, abs(interval.lo), abs(interval.hi))
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                gamma = interval.lo + t * interval.width
                g = f.as_coefficients() + gamma * z
                assert domination_check(g, p, seed=1) <= 1e-7
            for gamma in (interval.hi + 1e-3 * scale, interval.lo - 1e-3 * scale):
                g = f.as_coefficients() + gamma * z
                assert domination_check(g, p, seed=1) > 0.0


class TestDominationCheck:
    def test_equality_case_is_zero(self):
        assert domination_check(np.array([1.0, 0.0, 0.0]), SLAB3, seed=0) == 0.0

    def test_violation_found_exactly(self):
        # |g.(0,1)| = 2 against p(0,1) = 1
        violation = domination_check(np.array([1.0, 2.0]), TAXICAB, seed=0)
        assert violation == pytest.approx(1.0, abs=1e-9)

    def test_zero_functional_never_violates(self):
        assert domination_check(np.zeros(2), TAXICAB, seed=0) <= 0.0

    def test_whole_space_gauge(self):
        # no rows: p = 0, so every nonzero g is unbounded on p <= 1, and g = 0 is not
        p = PolyhedralGauge(np.zeros((0, 2)), np.zeros(0))
        assert domination_check(np.array([1.0, 0.0]), p) == np.inf
        assert domination_check(np.zeros(2), p) == -1.0

    def test_exact_gauges_ignore_seed_trials_and_common_scale(self, monkeypatch):
        # p*(g) - 1 is read off the LPs or the closed-form polar: no draws,
        # and scaling g and p by the same factor leaves it alone
        rng = np.random.default_rng(25)
        ball, _ = random_ball_instance(rng, 4)
        x = point_in_cone(rng, ball)
        cases = [(CUBE3, lambda s: PolyhedralGauge(CUBE3.a, CUBE3.b / s), rng.normal(size=3))]
        cases.append((BallConeGauge(build_D(ball, x)), lambda s: BallConeGauge(build_D(ball, x / s)), rng.normal(size=4)))
        expected = [domination_check(g, p) for p, _, g in cases]

        def no_draws(*args, **kwargs):
            raise AssertionError("exact gauges draw no random directions")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for (p, scaled, g), value in zip(cases, expected):
            assert np.isfinite(value)
            for seed in (0, 7):
                assert domination_check(g, p, seed=seed) == value
            for s in (1e-6, 3.0, 1e6):
                assert domination_check(s * g, scaled(s)) == pytest.approx(value, rel=1e-12)

    def test_oracle_gauge_ascent_finds_clear_violations(self):
        from gaugesep import OpenBall, build_D

        disk = OpenBall(np.array([2.0, 0.0]), np.sqrt(2.0))
        p = BisectionGauge(build_D(disk, np.array([1.0, 0.0])))
        violation = domination_check(np.array([1.0, 1.2]), p, seed=0)
        assert violation > 0.05  # true max is 0.2 / sqrt(2) at (0, 1)

    def test_oracle_gauge_kernel_rounding(self):
        # the slab |e1| < 1 bisected: p vanishes on span{e2, e3}, so any g with
        # a real e2 part has p*(g) infinite, but a rounding residue does not
        p = BisectionGauge(unit_ball(SLAB3))
        assert domination_check(np.array([1.0, 1e-12, 0.0]), p, seed=0) <= 0.0
        assert domination_check(np.array([0.5, 1e-3, 0.0]), p, seed=0) > 1e6

    def test_deterministic(self):
        p = BisectionGauge(unit_ball(TAXICAB))
        first = domination_check(np.array([0.9, 0.3]), p, seed=9)
        second = domination_check(np.array([0.9, 0.3]), p, seed=9)
        assert first == second


class TestDominationStarts:
    """``domination_check`` solves only the +g LP on a gauge with mirrored
    rows; the value must be that of the two LPs ``max +-g . e`` over
    ``p <= 1``."""

    @staticmethod
    def mirrored_gauges():
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            poly, _ = random_polytope_instance(rng, n)
            p = gauge_from_symmetrized(build_D(poly, chebyshev_center(poly)[0]))
            yield p, dominated_functional(rng, p, n)[1] * rng.uniform(0.5, 2.0)
        for n in (2, 3, 5):
            p = ExplicitMaxAbs(rng.normal(size=(n + 1, n)))
            yield p, rng.normal(size=n)

    def test_mirrored_lp_takes_no_pivots(self, monkeypatch):
        # p(-e) = p(e) on mirrored rows, so p*(-g) = p*(g): the mirrored -g
        # LP is not solved at all, and the +g LP alone gives the value of the
        # two cold LPs an unmirrored gauge needs
        cases = list(self.mirrored_gauges())
        calls = record_lps(monkeypatch, gauges)
        for p, g in cases:
            calls.clear()
            value = domination_check(g, p)
            assert len(calls) == 1
            cold = max(-solve_lp(-sign * g, a_ub=p.a, b_ub=p.b).objective for sign in (1.0, -1.0))
            assert np.isfinite(value)
            assert value == pytest.approx(cold - 1.0, rel=1e-12, abs=1e-12)

    def test_unmirrored_gauge_gives_the_cold_value(self, monkeypatch):
        # TAXICAB's row i + 2 is not -(row i), and random rows mirror nothing
        rng = np.random.default_rng(45)
        cases = [(TAXICAB, np.array([0.3, -0.8])), (TAXICAB, np.array([1.0, 2.0]))]
        for n in (2, 3, 4):
            p = PolyhedralGauge(rng.normal(size=(3 * n, n)), rng.uniform(0.5, 2.0, size=3 * n))
            cases.append((p, rng.normal(size=n)))
        calls = record_lps(monkeypatch, gauges)
        values = [domination_check(g, p) for p, g in cases]
        assert np.all(np.isfinite(values))
        assert len(calls) == 2 * len(cases)  # no mirror: both LPs
        for (p, g), value in zip(cases, values):
            cold = max(-solve_lp(-sign * g, a_ub=p.a, b_ub=p.b).objective for sign in (1.0, -1.0))
            assert value == cold - 1.0


class TestForcedSteps:
    """Once the end a step picked is the only point psi of its LP's optimal
    face, every later interval is [psi . z, psi . z] and solves no LP.  On
    seeded boxes every step after the first is forced under "upper" and
    "lower"; replayed from its pre-step arrays through the two end LPs (no
    step before it, so ``_ends`` solves them), each must give both ends
    within 1e-9 max(1, |gamma|) of gamma."""

    boxes = staticmethod(forced_step_boxes)

    @staticmethod
    def steps(monkeypatch, box, rule: str) -> list:
        """(gauge, pre-step basis and values, direction, interval) of each
        extension step of ``separate`` (``extension._step``)."""
        seen = []

        def recording(p, basis, values, history, z, *args):
            out = step_of(p, basis, values, history, z, *args)
            seen.append((p, basis, values, z, out[2].interval))
            return out

        step_of = extension._step
        with monkeypatch.context() as patch:
            patch.setattr(extension, "_step", recording)
            assert separate(box.polyhedron(), box.subspace(), SeparationOptions(gamma_rule=rule)).certificate.valid
        return seen

    @pytest.mark.parametrize("rule", ["upper", "lower"])
    def test_forced_steps_match_their_lps(self, monkeypatch, rule):
        forced = 0
        for box in self.boxes():
            (*_, first), *later = self.steps(monkeypatch, box, rule)
            assert len(first._ends) == 2
            for p, basis, values, z, interval in later:
                assert len(interval._ends) == 1 and interval.lo == interval.hi
                hi, lo, _ = p._ends(basis, values, None, z, 0)
                tol = 1e-9 * max(1.0, abs(interval.hi))
                assert abs(hi - interval.hi) <= tol and abs(lo - interval.hi) <= tol
                forced += 1
        assert forced == 2 * (1 + 2 + 3 + 4) + 8 + 18

    def test_midpoint_never_forces(self, monkeypatch):
        for box in self.boxes():
            for *_, interval in self.steps(monkeypatch, box, "midpoint"):
                assert len(interval._ends) == 2 and interval.width > 0.0

    def test_an_edge_face_is_not_forced(self, monkeypatch):
        # p is the l1 norm, so D° is the cube [-1, 1]^3; on psi_1 = 0.5 the
        # upper end along e2 is the edge {(0.5, 1, t) : |t| <= 1}, not a
        # point, and the interval along e3 comes from its two LPs
        cube = PolyhedralGauge(np.array(list(product((-1.0, 1.0), repeat=3))), np.ones(8))
        f = PartialFunctional(span_basis([np.array([1.0, 0.0, 0.0])]), np.array([0.5]))
        calls = record_lps(monkeypatch, gauges)
        first, second = extend_full_state(f, cube, "upper").history
        assert len(calls) == 2 + 2 + 2  # two intervals, then the +g and -g domination LPs
        np.testing.assert_array_equal(first.direction, [0.0, 1.0, 0.0])
        assert (first.interval.lo, first.interval.hi) == pytest.approx((-1.0, 1.0))
        assert len(second.interval._ends) == 2
        assert (second.interval.lo, second.interval.hi) == pytest.approx((-1.0, 1.0))


class TestExtendWithValues:
    def test_matches_extend_one_for_inside_gamma(self):
        f = x_axis_functional()
        state = ExtensionState(f, TAXICAB)
        direct = f.as_coefficients() + 0.5 * np.array([0.0, 1.0])
        stepped = extend_one(state, np.array([0.0, 1.0]), gamma=0.5).functional.as_coefficients()
        np.testing.assert_allclose(direct, stepped, atol=1e-12)


def ball_state(rng, n: int, *, inside: float) -> tuple[ExtensionState, np.ndarray]:
    """A ball-cone gauge, a domain G that misses the anchor, the restriction
    to G of a point of the polar body scaled by ``inside``, and a direction
    orthogonal to G."""
    ball, _ = random_ball_instance(rng, n)
    p = BallConeGauge(build_D(ball, point_in_cone(rng, ball)))
    domain = random_subspace(rng, n, int(rng.integers(1, n)))
    psi = rng.normal(size=n)
    psi *= inside / p.polar(psi)[0]
    z = rng.normal(size=n)
    z -= domain.basis.T @ (domain.basis @ z)
    return ExtensionState(PartialFunctional(domain, domain.basis @ psi), p), z


class TestBallClosedForm:
    """Extension intervals and domination on ball-cone gauges come from the
    closed-form polar, with no search."""

    def test_phi_matches_nelder_mead(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(21)
        for _ in range(12):
            state, z = ball_state(rng, int(rng.integers(2, 7)), inside=rng.uniform(0.3, 1.0))
            basis, w = state.domain.basis, state.functional.values

            def objective(c):
                return float(-w @ c + gauge(state.seminorm, c @ basis + z))

            options = {"xatol": 1e-13, "fatol": 1e-15, "maxiter": 20_000, "maxfev": 40_000}
            best = min(
                optimize.minimize(objective, start, method="Nelder-Mead", options=options).fun
                for start in [np.zeros(basis.shape[0])] + list(rng.normal(size=(19, basis.shape[0])))
            )
            assert state.seminorm._slice_max(basis, w, z) == pytest.approx(best, rel=1e-9)

    def test_end_pick_leaves_a_point(self):
        # the slice after an end pick is a point; rounding of order 1e-16 in
        # its slack opens it by the square root of that, and never empties it
        rng = np.random.default_rng(22)
        for _ in range(10):
            for rule in ("upper", "lower"):
                state, z = ball_state(rng, int(rng.integers(3, 8)), inside=0.8)
                state = extend_one(state, z, rule)
                if state.domain.dim == state.domain.ambient_dim:
                    continue
                direction = complement_basis(state.domain)[0]
                interval = extension_interval(state, direction)
                assert interval.width <= 1e-6 * max(1.0, abs(interval.hi))

    def test_singular_cylinder_slice_is_skipped(self, monkeypatch):
        # x = c is orthogonal to u = c x e3, and the kernel m of Q is parallel
        # to x, so Q is singular on the slab-inactive slice psi.u = w: that
        # slice is skipped and both ends come from the faces psi.x = +-1
        c = np.array([3.0, 1.0, 0.5])
        p = BallConeGauge(build_D(OpenBall(c, 1.0), c))
        u = np.cross(c, [0.0, 0.0, 1.0])
        u /= np.linalg.norm(u)
        f = PartialFunctional(span_basis([u]), np.array([0.5 * gauge(p, u)]))
        state, z = ExtensionState(f, p), np.array([0.0, 0.0, 1.0])
        slices, real = [], gauges._ellipsoid_slice_max

        def recording(*args):
            slices.append(real(*args))
            return slices[-1]

        monkeypatch.setattr(gauges, "_ellipsoid_slice_max", recording)
        interval = extension_interval(state, z)
        assert [out is None for out in slices] == [True, False, False] * 2
        assert (interval.lo, interval.hi) == (-0.8613820121442772, 0.8613820121442773)
        for end, outside in ((interval.hi, interval.hi + 1e-4), (interval.lo, interval.lo - 1e-4)):
            assert extend_full_state(extend_one(state, z, gamma=end).functional, p).violation <= 3e-15
            with pytest.raises(SolverError):
                extend_full_state(extend_one(state, z, gamma=outside).functional, p)

    def test_not_dominated_raises_naming_the_interval(self):
        rng = np.random.default_rng(23)
        state, z = ball_state(rng, 4, inside=1.5)
        # the restriction of a point outside the polar body may still be
        # dominated on G; scale until the slice of the polar body is empty
        f = state.functional
        for factor in (1.0, 2.0, 4.0, 8.0, 16.0):
            scaled = ExtensionState(PartialFunctional(f.domain, factor * f.values), state.seminorm)
            try:
                extension_interval(scaled, z)
            except SolverError as exc:
                assert "empty admissible interval" in str(exc)
                return
        pytest.fail("no scaled functional was rejected")

    @pytest.mark.parametrize("excess", [1e-9, -1e-9])
    def test_domination_sign_is_exact(self, excess):
        rng = np.random.default_rng(24)
        for _ in range(10):
            ball, _ = random_ball_instance(rng, int(rng.integers(2, 9)))
            p = BallConeGauge(build_D(ball, point_in_cone(rng, ball)))
            g = rng.normal(size=p.dim)
            g *= (1.0 + excess) / p.polar(g)[0]
            violation = domination_check(g, p, seed=1)
            assert violation > 0.0 if excess > 0.0 else violation < 0.0
