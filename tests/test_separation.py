import json
import re
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import gaugesep.convexsets as convexsets
import gaugesep.extension as extension
import gaugesep.gauges as gauges
import gaugesep.separation as separation
from gaugesep import (
    DegenerateError,
    ExtensionState,
    HPolyhedron,
    Hyperplane,
    InputError,
    OpenBall,
    OracleGauge,
    OracleSet,
    PartialFunctional,
    PolyhedralGauge,
    SeparationCertificate,
    SeparationOptions,
    SolverError,
    Subspace,
    brute_force_2d_normals,
    build_D,
    complement_basis,
    domination_check,
    extend_one,
    extend_via_separation,
    gauge,
    gauge_from_symmetrized,
    kernel_hyperplane,
    remark2_equivalence_check,
    separate,
    solve_lp,
    span_basis,
    verify_separation,
    zero_subspace,
)
from gaugesep.cli import main, parse_problem
from gaugesep.convexsets import MIN_DEPTH, _inscribed_ball
from gaugesep.fixtures import oracle_by_name
from gaugesep.separation import _check_disjoint, _subspace_residual, _support

from helpers import (
    BisectionGauge,
    axis_box,
    bundled,
    dominated_functional,
    farkas_referee,
    forced_step_boxes,
    many_facet_polytope,
    point_in_cone,
    random_ball_instance,
    random_instance,
    random_polyhedral_gauge,
    random_polytope_instance,
    record_lps,
    rotated_box,
    sample_exact,
    scale_hunt,
    scale_hunt_draw,
)

TAXICAB = PolyhedralGauge(
    np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]), np.ones(4)
)


# {e1 < 1, e1 > 2}: empty; its support LP for (0, 1) has an infeasible dual too
EMPTY_SLAB = HPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -2.0]))
# what separate() raises on a slab of half-width 5e-11 around a point of S
THIN_SLAB_MEETS_S = "precondition: the set intersects the subspace (inscribed ball centred in it: r* = 5e-11)"


def assert_farkas_evidence(poly: HPolyhedron, result) -> None:
    """The certificate's row multipliers prove, with numpy alone, that the
    polyhedron lies on the positive side of the returned hyperplane."""
    cert, normal = result.certificate, np.asarray(result.hyperplane.normal)
    y = np.asarray(cert.farkas_multipliers)
    assert y.shape == poly.b.shape and np.all(y >= 0.0)
    residual = float(np.max(np.abs(poly.a.T @ y + normal)))
    assert residual == cert.farkas_residual
    assert residual <= 1e-9 * (1.0 + np.linalg.norm(poly.a) * np.linalg.norm(y))
    bound = 1e-9 * (1.0 + np.linalg.norm(poly.b) * np.linalg.norm(y))
    assert -float(poly.b @ y) == pytest.approx(cert.boundary_margin, abs=bound)


def tangent_normals(tilts) -> tuple[OpenBall, list[np.ndarray]]:
    """The ball of radius 3 around (5, 0) and the normals of its two tangent
    lines x2 = +-(3/4) x1 (margin 0), each turned by every angle in ``tilts``."""
    normals = []
    for sign in (1.0, -1.0):
        for tilt in tilts:
            angle = np.arctan2(4.0, -3.0 * sign) + tilt
            normals.append(np.array([np.cos(angle), np.sin(angle)]))
    return OpenBall(np.array([5.0, 0.0]), 3.0), normals


def line_angle(normal: np.ndarray) -> float:
    """Angle in [0, pi) of the line whose normal is given."""
    direction = np.array([-normal[1], normal[0]])
    theta = np.arctan2(direction[1], direction[0]) % np.pi
    return float(theta)


class TestSeparateFixtures:
    def test_disk_default_rule(self):
        a_set, s, x = bundled("example1")
        result = separate(a_set, s, SeparationOptions(x=x))
        b = result.g[1] / result.g[0]
        assert abs(b) <= 1.0 + 1e-8
        assert b == pytest.approx(1.0, abs=1e-6)  # upper rule
        assert result.certificate.valid

    def test_disk_gamma_rules(self):
        a_set, s, x = bundled("example1")
        mid = separate(a_set, s, SeparationOptions(x=x, gamma_rule="midpoint"))
        assert mid.g[1] / mid.g[0] == pytest.approx(0.0, abs=1e-6)
        low = separate(a_set, s, SeparationOptions(x=x, gamma_rule="lower"))
        assert low.g[1] / low.g[0] == pytest.approx(-1.0, abs=1e-6)

    def test_halfspace_unique_normal(self):
        a_set, s, x = bundled("example2")
        result = separate(a_set, s, SeparationOptions(x=x))
        normal = np.abs(np.asarray(result.hyperplane.normal))
        np.testing.assert_allclose(normal, [1.0, 0.0, 0.0], atol=1e-8)
        assert result.certificate.valid
        # uniqueness shows up as zero-width intervals at every step
        assert all(step.interval.width < 1e-8 for step in result.steps)

    def test_quotient_fixture(self):
        a_set, s, x = bundled("example3_quotient")
        result = separate(a_set, s, SeparationOptions(x=x))
        normal = np.asarray(result.hyperplane.normal)
        assert abs(normal[0]) < 1e-8  # the hyperplane is {v = 0}
        assert abs(abs(normal[1]) - 1.0) < 1e-12
        assert result.certificate.valid

    def test_empty_set_branch(self):
        empty = HPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
        s = span_basis([np.array([1.0, 0.0])])
        result = separate(empty, s)
        np.testing.assert_allclose(np.abs(result.hyperplane.normal), [0.0, 1.0], atol=1e-12)
        assert result.anchor_x is None
        assert result.certificate.boundary_margin == np.inf
        assert result.certificate.a_clearance is None
        assert result.certificate.valid

    @pytest.mark.parametrize(
        "a, b, s_vector, message",
        [
            ([[1.0, 0.0], [-1.0, 0.0]], [1e-10, 0.0], [1.0, 1.0], THIN_SLAB_MEETS_S),
            ([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]], [1.0 + 1e-10, -1.0], [0.0, 1.0, 0.0], THIN_SLAB_MEETS_S),
            ([[1.0, 0.0], [-1.0, 0.0]], [5e-11, 5e-11], [0.0, 1.0], "precondition: the set contains the origin, which lies in the subspace"),
        ],
        ids=["diagonal-s", "3d-slab-around-s", "slab-at-origin"],
    )
    def test_thin_slab_read_as_empty_names_the_precondition(self, a, b, s_vector, message):
        # each slab meets S and has an inscribed radius below MIN_DEPTH, so
        # pick_interior_point reads it as empty and the completion's normal
        # crosses it: that failed certificate is named by r* (5e-11); the
        # slab around the origin fails the origin test before any of this
        slab = HPolyhedron(np.array(a), np.array(b))
        with pytest.raises(InputError) as info:
            separate(slab, span_basis([np.array(s_vector)]))
        assert str(info.value) == message

    def test_anchored_empty_polyhedron_rejected(self):
        # an anchor skips the emptiness decision, and no anchor lies in an empty hull
        with pytest.raises(InputError, match="anchor must lie inside the base set"):
            separate(EMPTY_SLAB, span_basis([np.array([0.0, 1.0])]), SeparationOptions(x=np.array([1.5, 0.0])))

    def test_anchored_thin_slab_separates(self):
        # {1 < e2 < 1 + 1e-10}: its inscribed radius is below MIN_DEPTH, so
        # without an anchor it reads as empty and the completion's e1 crosses it
        slab = HPolyhedron(np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]), np.array([1.0 + 1e-10, -1.0]))
        s = span_basis([np.array([0.0, 0.0, 1.0])])
        result = separate(slab, s, SeparationOptions(x=np.array([0.0, 1.0 + 5e-11, 0.0])))
        np.testing.assert_array_equal(result.hyperplane.normal, [0.0, 1.0, 0.0])
        assert result.certificate.valid
        with pytest.raises(SolverError, match="boundary_margin -inf"):
            separate(slab, s)

    def test_singular_basis_on_a_thin_slab_is_a_solver_error(self):
        # {1 < e1 < 1 + 1e-7} x (-1, 1)^4: under "lower" a phase-2 pivot of
        # an extension LP makes its basis singular; S misses the slab, so
        # the precondition is not named, and the other rules separate
        a = np.vstack([np.eye(5), -np.eye(5)])
        b = np.array([1.0 + 1e-7, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        s = span_basis([np.eye(5)[4]])
        with pytest.raises(SolverError) as info:
            separate(HPolyhedron(a, b), s, SeparationOptions(gamma_rule="lower"))
        assert str(info.value) == "singular basis in phase 2 after 2 pivots (LP of 21 rows in 5 variables)"
        lo, hi = -b[5:], b[:5]  # the slab's box
        for rule in ("upper", "midpoint"):
            result = separate(HPolyhedron(a, b), s, SeparationOptions(gamma_rule=rule))
            normal = np.asarray(result.hyperplane.normal)
            assert result.certificate.valid and normal[4] == 0.0
            # its least value over the box: "upper" touches a corner, up to rounding
            assert np.minimum(lo * normal, hi * normal).sum() >= -1e-15

    def test_empty_oracle_set_is_not_certified(self):
        # an oracle whose witness fails its own test has no interior point to
        # anchor at or to sample the certificate from
        oracle = OracleSet(2, lambda e: False, witness=np.array([1.0, 0.0]))
        with pytest.raises(InputError, match="witness is not a member"):
            separate(oracle, zero_subspace(2))

    def test_anchor_gauges_to_one(self):
        a_set, s, x = bundled("example1")
        result = separate(a_set, s, SeparationOptions(x=x))
        assert gauge(result.gauge_used, result.anchor_x) == pytest.approx(1.0, abs=1e-6)
        assert float(result.g @ result.anchor_x) == pytest.approx(1.0, abs=1e-8)

    def test_intersecting_inputs_rejected(self):
        ball = OpenBall(np.array([0.0, 0.5]), 1.0)
        with pytest.raises(InputError):
            separate(ball, zero_subspace(2))
        halfspace, s, _ = bundled("example2")
        bad_s = span_basis([np.array([1.0, 0.0, 0.0])])
        with pytest.raises(InputError):
            separate(halfspace, bad_s)

    def test_full_space_subspace(self):
        # one check, before any LP: no hyperplane contains the whole space
        s = span_basis([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        ball = OpenBall(np.array([5.0, 0.0]), 1.0)
        empty = HPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
        for a_set in (ball, empty):
            with pytest.raises(DegenerateError, match="the subspace is the whole space"):
                separate(a_set, s)

    def test_bad_anchor_rejected(self):
        a_set, s, _ = bundled("example1")
        with pytest.raises(InputError):
            separate(a_set, s, SeparationOptions(x=np.array([-1.0, 0.0])))

    def test_deterministic_for_seed(self):
        a_set, s, x = bundled("example1")
        first = separate(a_set, s, SeparationOptions(x=x, seed=3))
        second = separate(a_set, s, SeparationOptions(x=x, seed=3))
        assert np.array_equal(first.g, second.g)
        assert first.certificate == second.certificate


class TestTouchingBoxes:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4, 1e6])
    def test_box_against_vertical_axis(self, scale):
        # (4,6) x (0,2) x (-1,1) against span{e3} with the default anchor; the
        # separating plane may touch the box's closure, hence the rounding
        # slack.  Unit hull rows make the normal the same at every scale.
        center = np.array([5.0, 1.0, 0.0]) * scale
        half = np.ones(3) * scale
        box = HPolyhedron(np.vstack([np.eye(3), -np.eye(3)]), np.concatenate([center + half, half - center]))
        result = separate(box, span_basis([np.array([0.0, 0.0, 1.0])], 3))
        assert result.certificate.valid
        normal = np.asarray(result.hyperplane.normal)
        assert abs(normal @ center) >= half @ np.abs(normal) - 1e-9 * scale
        np.testing.assert_allclose(normal, np.array([1.0, -2.0, 0.0]) / np.sqrt(5.0), atol=1e-9)


class TestMetamorphic:
    """Transformed inputs against the untransformed run, on seeded families."""

    @staticmethod
    def polytopes():
        rng = np.random.default_rng(0)
        return [random_polytope_instance(rng, int(rng.integers(2, 6))) for _ in range(20)]

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_seeded_polytopes_scaled(self, scale):
        # the conic hull of k A is that of A; with unit hull rows its
        # extension LPs are the same LPs, so no scale raises or moves the normal
        for poly, s in self.polytopes():
            normal = np.asarray(separate(poly, s).hyperplane.normal)
            scaled = separate(HPolyhedron(poly.a, scale * poly.b), s)
            assert scaled.certificate.valid
            np.testing.assert_allclose(scaled.hyperplane.normal, normal, atol=1e-6)

    @staticmethod
    def assert_highs_confirms(poly, s, rule, k):
        """``separate`` returns a valid plane that HiGHS finds the closure of
        A / k on one side of (cone(kA) = cone(A), and A / k has data of unit
        scale)."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        result = separate(poly, s, SeparationOptions(gamma_rule=rule))
        assert result.certificate.valid
        normal = np.asarray(result.hyperplane.normal)
        assert np.all(np.abs(s.basis @ normal) <= 1e-9)
        low, high = (
            linprog(sign * normal, A_ub=poly.a, b_ub=poly.b / k, bounds=(None, None), method="highs") for sign in (1.0, -1.0)
        )
        assert low.status == high.status == 0
        # min g.x >= 0 or max g.x <= 0 over the closure, up to 1e-9 of its extent
        assert max(low.fun, high.fun) >= -1e-9 * (abs(low.fun) + abs(high.fun))

    def test_scale_hunt_from_1e_minus_8_to_1e8(self):
        # every hunt draw with 1e-8 <= k <= 1e8 returns a plane HiGHS confirms;
        # below 5e-9 some draws still raise
        checked = 0
        for poly, s, rule, k in scale_hunt():
            if not 1e-8 <= k <= 1e8:
                continue
            self.assert_highs_confirms(poly, s, rule, k)
            checked += 1
        assert checked == 357

    def test_scale_hunt_outside_the_gate(self):
        # outside 1e-8 ... 1e8 the hunt raises on six draws (42, 96, 282, 289,
        # 340 and 366; ROADMAP item 23), and every other draw returns a plane
        # HiGHS confirms.  Seven of these, all at k < 5e-9 (136, 142, 153,
        # 155, 330, 343 and 390), raised while two tests of "x lies in S",
        # the functional's and the frame's, could disagree
        raising = {42, 96, 282, 289, 340, 366}
        checked = 0
        for index, (poly, s, rule, k) in enumerate(scale_hunt()):
            if 1e-8 <= k <= 1e8 or index in raising:
                continue
            self.assert_highs_confirms(poly, s, rule, k)
            checked += 1
        assert checked == 400 - 357 - len(raising)

    def test_seeded_families_rotated(self):
        """``separate(QA, QS)`` is valid for a random orthogonal Q.

        Only validity is gated: the normal is Q n for few of these instances,
        since ``complement_basis`` completes the basis over e_1 ... e_n in index
        order, and each ``upper`` pick depends on that frame.
        """
        rng = np.random.default_rng(1)
        balls = [random_ball_instance(rng, int(rng.integers(2, 6))) for _ in range(20)]
        for a_set, s in self.polytopes() + balls:
            n = a_set.dim
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            if isinstance(a_set, HPolyhedron):
                rotated = HPolyhedron(a_set.a @ q.T, a_set.b)
            else:
                rotated = OpenBall(q @ a_set.center, a_set.radius)
            result = separate(rotated, Subspace(n, s.basis @ q.T))
            assert result.certificate.valid


class TestOneFrame:
    """``separate()`` runs its extension steps on arrays over one frame; a
    replay through the public ``span_basis``, ``complement_basis`` and
    ``extend_one``, from the same anchor and gauge, gives the same bits: g,
    the normal and every step's lo, hi and gamma.  Bits, not a tolerance:
    on hunt draw 249 (k = 2.8e7, "upper") the second step's hi is -9.10e-9,
    and the value -8.07e-9 there gives a plane that cuts the set (margin
    -1.77e3)."""

    @staticmethod
    def assert_replayed(a_set, s, rule, x=None):
        result = separate(a_set, s, SeparationOptions(x=x, gamma_rule=rule))
        x = result.anchor_x
        span = span_basis([*s.basis, x], s.ambient_dim)
        x_perp = x - s.project(x)
        nx = float(np.linalg.norm(x_perp))
        values = [float((u - s.project(u)) @ x_perp) / (nx * nx) for u in span.basis]
        state = ExtensionState(PartialFunctional(span, np.array(values)), result.gauge_used)
        for z in complement_basis(span):
            state = extend_one(state, z, rule)
        g = state.functional.as_coefficients()
        assert np.array_equal(g, result.g)
        assert np.array_equal(kernel_hyperplane(g).normal, result.hyperplane.normal)
        replayed = [(step.interval.lo, step.interval.hi, step.gamma) for step in state.history]
        assert replayed == [(step.interval.lo, step.interval.hi, step.gamma) for step in result.steps]

    @pytest.mark.parametrize("rule", ["upper", "lower", "midpoint"])
    def test_forced_step_boxes_and_bundled_polyhedra(self, rule):
        for box in forced_step_boxes():
            self.assert_replayed(box.polyhedron(), box.subspace(), rule)
        for name in ("example2", "example3_quotient"):
            a_set, s, x = bundled(name)
            self.assert_replayed(a_set, s, rule, x)

    def test_scale_hunt_from_1e_minus_8_to_1e8(self):
        checked = 0
        for poly, s, rule, k in scale_hunt():
            if 1e-8 <= k <= 1e8:
                self.assert_replayed(poly, s, rule)
                checked += 1
        assert checked == 357


class TestScaledRows:
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300, 1e308])
    def test_triangle_with_a_scaled_row(self, scale):
        # {x + y < 1, x > 1, y > -1} with its first row and offset times
        # scale: the same set, so the same normal as at scale 1
        def triangle(k):
            return HPolyhedron(np.array([[k, k], [-1.0, 0.0], [0.0, -1.0]]), np.array([k, -1.0, 1.0]))

        reference = np.asarray(separate(triangle(1.0), zero_subspace(2)).hyperplane.normal)
        np.testing.assert_allclose(reference, np.full(2, np.sqrt(0.5)), rtol=0.0, atol=1e-12)
        result = separate(triangle(scale), zero_subspace(2))
        assert result.certificate.valid
        np.testing.assert_allclose(result.hyperplane.normal, reference, rtol=0.0, atol=1e-12)


class TestScaledDisk:
    @pytest.mark.parametrize("scale", [1e-9, 1e-10, 1e-12, 1e-14])
    def test_tiny_disks_give_their_unit_normal(self, scale):
        # the frame tests "x lies in S" relative to |x|, so a tiny anchor off
        # S = {0} stays in the domain, and a disk and anchor scaled by 1e-9 or
        # less give the normal of scale 1 (with absolute floors, the test of
        # |x_perp| raised DegenerateError, or the frame dropped x)
        for center, radius, x, normal in (
            ((2.0, 0.0), 1.0, (1.5, 0.0), (0.5, np.sqrt(0.75))),
            ((2.0, 0.0), np.sqrt(2.0), (1.0, 0.0), (np.sqrt(0.5), np.sqrt(0.5))),
        ):
            disk = OpenBall(scale * np.array(center), scale * radius)
            result = separate(disk, zero_subspace(2), SeparationOptions(x=scale * np.array(x)))
            assert result.certificate.valid
            np.testing.assert_allclose(result.hyperplane.normal, normal, rtol=0.0, atol=1e-15)

    def check(self, scale, rule):
        # gauges of size 1/scale: the domination gate must scale with |g|, and
        # the tangent kernel must read as disjoint at every scale
        center, radius = np.array([2.0, 0.0]) * scale, np.sqrt(2.0) * scale
        disk = OpenBall(center, radius)
        opts = SeparationOptions(x=np.array([1.0, 0.0]) * scale, gamma_rule=rule)
        result = separate(disk, zero_subspace(2), opts)
        assert result.certificate.valid
        assert result.certificate.remark2_status is True
        assert abs(np.asarray(result.hyperplane.normal) @ center) >= radius * (1.0 - 1e-9)

    @pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e4, 1e6])
    def test_bundled_disk_scaled(self, scale):
        self.check(scale, "upper")

    @pytest.mark.parametrize("rule", ["lower", "midpoint"])
    @pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e4, 1e6])
    def test_bundled_disk_scaled_rule(self, scale, rule):
        self.check(scale, rule)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_seeded_balls_scaled(self, scale):
        # the side test is relative: at 1e6 an absolute bound rejected the
        # tangent plane of one of these balls on a margin of -1.4e-9
        rng = np.random.default_rng(0)
        instances = [random_ball_instance(rng, int(rng.integers(2, 6))) for _ in range(20)]
        for ball, s in instances:
            normal = np.asarray(separate(ball, s).hyperplane.normal)
            scaled = OpenBall(scale * np.asarray(ball.center), scale * ball.radius)
            np.testing.assert_allclose(separate(scaled, s).hyperplane.normal, normal, atol=1e-7)


class TestBallBand:
    """A ball meets a subspace when its center is nearer than r (1 - 1e-9)."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_tangent_passes(self, scale):
        ball = OpenBall(np.array([0.0, scale]), scale)
        result = separate(ball, span_basis([np.array([1.0, 0.0])], 2))
        assert result.certificate.valid
        np.testing.assert_allclose(np.abs(result.hyperplane.normal), [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_overlap_raises(self, scale):
        ball = OpenBall(np.array([0.0, scale * (1.0 - 1e-7)]), scale)
        with pytest.raises(InputError, match="intersects the subspace"):
            separate(ball, span_basis([np.array([1.0, 0.0])], 2))


class TestPreconditionMessages:
    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_holding_the_origin(self, seed):
        # a small ball around a point near the origin, given by membership:
        # 500 seeded points of span{e3} miss it, the origin does not
        center = np.array([0.004, 0.0, 0.0])
        oracle = OracleSet(3, lambda e: float((e - center) @ (e - center)) < 1e-4, witness=center)
        with pytest.raises(InputError, match="^precondition: the set contains the origin"):
            separate(oracle, span_basis([np.array([0.0, 0.0, 1.0])]), SeparationOptions(seed=seed))

    def test_sets_holding_the_origin_by_a_hair(self):
        # both hold the origin by 5e-10, less than the inscribed-ball LP's
        # MIN_DEPTH and the ball's band, so the origin test names the cause
        box = HPolyhedron(np.vstack([np.eye(3), -np.eye(3)]), np.array([2.0, 1.0, 1.0, 5e-10, 1.0, 1.0]))
        ball = OpenBall(np.array([1.0, 0.0, 0.0]), 1.0 + 5e-10)
        for a_set in (box, ball):
            with pytest.raises(InputError, match="^precondition: the set contains the origin"):
                separate(a_set, span_basis([np.array([0.0, 0.0, 1.0])]))

    def test_polyhedron_meeting_the_subspace_names_the_inscribed_radius(self):
        # the largest ball centred on the e1 axis inside (1, 5) x (-0.5, 2) has radius 0.5
        box = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([5.0, 2.0, -1.0, 0.5]))
        message = r"^precondition: the set intersects the subspace \(inscribed ball centred in it: r\* = 0\.5\)$"
        with pytest.raises(InputError, match=message):
            separate(box, span_basis([np.array([1.0, 0.0])]))

    def test_unbounded_polyhedron_meeting_the_subspace_names_the_cap(self):
        # {e1 > 1} holds balls of every radius centred on the e1 axis: the LP
        # in S stops at its cap max(1, max |b|) = 1 (before the cap: r* = inf)
        halfplane = HPolyhedron(np.array([[-1.0, 0.0]]), np.array([-1.0]))
        with pytest.raises(InputError) as raised:
            separate(halfplane, span_basis([np.array([1.0, 0.0])]))
        assert str(raised.value) == "precondition: the set intersects the subspace (inscribed ball centred in it: r* = 1)"

    def test_polyhedron_meeting_the_subspace_by_a_hair(self):
        # (-5e-10, 2) x (0.5, 1.5) x (-1, 1) holds (0, 1, 0) of span{e2} by
        # 5e-10 but not the origin: the extension LP finds no bound, and the
        # inscribed ball centred in S names the cause instead of that error
        box = HPolyhedron(np.vstack([np.eye(3), -np.eye(3)]), np.array([2.0, 1.5, 1.0, 5e-10, -0.5, 1.0]))
        message = r"^precondition: the set intersects the subspace \(inscribed ball centred in it: r\* = 5e-10\)$"
        with pytest.raises(InputError, match=message):
            separate(box, span_basis([np.array([0.0, 1.0, 0.0])]))


def _family(rows, offsets, s_vectors, corner, inner, rays):
    n = len(corner)
    s = span_basis([np.array(v, dtype=float) for v in s_vectors]) if s_vectors else zero_subspace(n)
    poly = HPolyhedron(np.array(rows, dtype=float), np.array(offsets, dtype=float))
    return poly, s, np.array(corner, dtype=float), np.array(inner, dtype=float), np.array(rays, dtype=float)


E1, E2, E3 = np.eye(3)
# unbounded sets, given with no interior point: (set, S, a closure point at
# which every plane the set lies beside attains its margin, a member, and
# the rays that span the closure's recession cone); the corner is in S
# where S touches the closure, so the margin is 0 there
UNBOUNDED_FAMILIES = {
    "half-plane": _family([[-1, 0]], [-1], [[0, 1]], [1, 0], [2, 0], [[1, 0], [0, 1], [0, -1]]),
    "half-plane-touching": _family([[-1, 0]], [0], [[0, 1]], [0, 0], [1, 0], [[1, 0], [0, 1], [0, -1]]),
    "half-plane-at-1e-6": _family([[-1, 0]], [-1e-6], [[0, 1]], [1e-6, 0], [1, 0], [[1, 0], [0, 1], [0, -1]]),
    "half-plane-at-1e6": _family([[-1, 0]], [-1e6], [[0, 1]], [1e6, 0], [2e6, 0], [[1, 0], [0, 1], [0, -1]]),
    "slab-2d": _family([[-1, 0], [1, 0]], [-1, 2], [[0, 1]], [1, 0], [1.5, 0], [[0, 1], [0, -1]]),
    "slab-2d-touching": _family([[-1, 0], [1, 0]], [0, 1], [[0, 1]], [0, 0], [0.5, 0], [[0, 1], [0, -1]]),
    "wedge-2d": _family([[-1, 1], [-1, -1]], [0, 0], [], [0, 0], [1, 0], [[1, 1], [1, -1]]),
    "wedge-2d-shifted": _family([[-1, 1], [-1, -1]], [-1, -1], [], [1, 0], [2, 0], [[1, 1], [1, -1]]),
    "quadrant-2d": _family(-np.eye(2), [0, 0], [], [0, 0], [1, 1], np.eye(2)),
    "quadrant-2d-shifted": _family(-np.eye(2), [-1, -1], [], [1, 1], [2, 2], np.eye(2)),
    "half-space": _family([[-1, 0, 0]], [-1], [E2, E3], E1, 2 * E1, [E1, E2, -E2, E3, -E3]),
    "half-space-line": _family([[-1, 0, 0]], [-1], [E2], E1, 2 * E1, [E1, E2, -E2, E3, -E3]),
    "half-space-touching": _family([[-1, 0, 0]], [0], [E2, E3], 0 * E1, E1, [E1, E2, -E2, E3, -E3]),
    "slab-3d": _family([-E1, E1], [-1, 2], [E2, E3], E1, 1.5 * E1, [E2, -E2, E3, -E3]),
    "slab-3d-line": _family([-E1, E1], [-1, 2], [E3], E1, 1.5 * E1, [E2, -E2, E3, -E3]),
    "wedge-3d": _family([[-1, 1, 0], [-1, -1, 0]], [0, 0], [E3], 0 * E1, E1, [E1 + E2, E1 - E2, E3, -E3]),
    "wedge-3d-shifted": _family([[-1, 1, 0], [-1, -1, 0]], [-1, -1], [E3], E1, 2 * E1, [E1 + E2, E1 - E2, E3, -E3]),
    "quadrant-3d": _family([-E1, -E2], [0, 0], [E3], 0 * E1, E1 + E2, [E1, E2, E3, -E3]),
    "quadrant-3d-shifted": _family([-E1, -E2], [-1, -1], [E3], E1 + E2, 2 * (E1 + E2), [E1, E2, E3, -E3]),
    "orthant": _family(-np.eye(3), [0, 0, 0], [], [0, 0, 0], [1, 1, 1], np.eye(3)),
    "orthant-shifted": _family(-np.eye(3), [-1, -1, -1], [], [1, 1, 1], [2, 2, 2], np.eye(3)),
}


class TestUnboundedFamilies:
    """Half-spaces, slabs, wedges and cones need no interior point from the
    caller: the capped inscribed-ball LP anchors them as it anchors a
    polytope.  On a closure ``corner + cone(rays)`` the least value of
    ``side * normal . e`` is ``side * normal . corner`` when no ray descends
    (and -inf otherwise), so each certificate's margin has a closed form."""

    @pytest.mark.parametrize("rule", ["upper", "lower", "midpoint"])
    @pytest.mark.parametrize("name", list(UNBOUNDED_FAMILIES))
    def test_separates_at_its_exact_margin(self, name, rule):
        poly, s, corner, inner, rays = UNBOUNDED_FAMILIES[name]
        assert poly.contains(inner) and not poly.contains(corner)
        result = separate(poly, s, SeparationOptions(gamma_rule=rule))
        normal = np.asarray(result.hyperplane.normal)
        checked = verify_separation(poly, s, result.hyperplane)
        assert result.certificate.valid and checked.valid
        side = np.sign(normal @ inner)
        assert np.all(side * (rays @ normal) >= -1e-12)  # the margin is finite
        exact = side * float(normal @ corner)
        tol = 1e-12 * max(1.0, float(np.linalg.norm(corner)))
        for cert in (result.certificate, checked):
            assert cert.boundary_margin == pytest.approx(exact, abs=tol)
        assert (exact == 0.0) == (not np.any(corner - s.project(corner)))  # 0 just where S touches the closure


class TestPipelineFailures:
    """The raises of ``separate()`` and ``extend_via_separation`` after the
    precondition holds, each with its whole message.  Draw 96 of the scale
    hunt (``helpers.scale_hunt_draw``) fails with b scaled by 4.34e-9; once
    such scales return planes, its test goes."""

    NUMBER = r"-?\d+(\.\d+)?(e[+-]\d+)?"

    def test_empty_admissible_interval_names_the_gauge_and_the_domain(self):
        poly, s, rule = scale_hunt_draw(96)  # n = 9, dim S = 5
        with pytest.raises(SolverError) as info:
            separate(poly, s, SeparationOptions(gamma_rule=rule))
        assert re.fullmatch(
            rf"empty admissible interval \[{self.NUMBER}, {self.NUMBER}\] of a PolyhedralGauge on a 7-dimensional "
            r"domain: seminorm or domination assumption broken",
            str(info.value),
        )

    def test_anchor_check_prints_the_miss(self, monkeypatch):
        # no input is known to reach the check since the frame decides "x lies
        # in S" (hunt draw 390 did before; 800 seeded polytopes with b scaled
        # by 1e-12 ... 1e-8 and 1e8 ... 1e13 do not), so the extension is
        # tampered with: g times 1.5 sends the anchor to 1.5
        extend = separation._extend_steps

        def tampered(*args, **kwargs):
            state = extend(*args, **kwargs)
            return replace(state, functional=PartialFunctional(state.domain, 1.5 * state.functional.values))

        monkeypatch.setattr(separation, "_extend_steps", tampered)
        disk, opts = OpenBall(np.array([2.0, 0.0]), 1.0), SeparationOptions(x=np.array([1.5, 0.0]))
        with pytest.raises(SolverError) as info:
            separate(disk, zero_subspace(2), opts)
        assert str(info.value) == "extension failed to send the anchor to 1: |g.x - 1| = 5.000e-01"

    def test_ball_anchor_whose_square_underflows(self):
        # no ZeroDivisionError: the cone test rescales x, and the gauge names the underflow
        opts = SeparationOptions(x=np.array([1e-170, 0.0]))
        with pytest.raises(InputError) as info:
            separate(OpenBall(np.array([2.0, 0.0]), 1.0), zero_subspace(2), opts)
        assert re.fullmatch(
            r"anchor too short for the ball-cone gauge: \|x\|\^2 underflows to 0 \(\|x\| = 1e-170\)", str(info.value)
        )

    def test_extend_via_separation_plane_through_the_normalizing_point(self, monkeypatch):
        # f = 1 on e1 gives the normalizing point y = e1, which the plane e2 = 0 holds
        plane = SimpleNamespace(hyperplane=Hyperplane(np.array([0.0, 1.0])))
        monkeypatch.setattr(separation, "separate", lambda *args, **kwargs: plane)
        f = PartialFunctional(span_basis([np.array([1.0, 0.0])]), np.array([1.0]))
        with pytest.raises(SolverError) as info:
            extend_via_separation(f, TAXICAB)
        assert str(info.value) == "separating hyperplane contains the normalizing point"

    def test_extend_via_separation_plane_that_does_not_extend_f(self, monkeypatch):
        # f = (1, 0) on span{e1, e2}: the plane of (2, 1, 0) reads g = (1, 0.5, 0)
        plane = SimpleNamespace(hyperplane=kernel_hyperplane(np.array([2.0, 1.0, 0.0])))
        monkeypatch.setattr(separation, "separate", lambda *args, **kwargs: plane)
        f = PartialFunctional(span_basis([np.eye(3)[0], np.eye(3)[1]]), np.array([1.0, 0.0]))
        max_norm = PolyhedralGauge(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
        with pytest.raises(SolverError) as info:
            extend_via_separation(f, max_norm)
        assert re.fullmatch(r"reconstructed functional fails to extend the input by 5\.000e-01", str(info.value))


class TestBallSeeds:
    """Seeded balls whose search-based extension intervals once gave invalid
    certificates or empty intervals.  ``separate()`` returns a valid
    separation or raises SolverError; on these seeds the closed-form polar
    must give the former, with no escape through the error."""

    @pytest.mark.parametrize("n,seed", [(6, 4), (6, 6), (8, 0), (8, 3), (8, 5), (5, 5)])
    def test_valid_or_raises(self, n, seed):
        ball, s = random_ball_instance(np.random.default_rng(seed), n)
        result = separate(ball, s)
        assert result.certificate.valid
        assert abs(np.asarray(result.hyperplane.normal) @ ball.center) >= ball.radius * (1.0 - 1e-12)


def seeded_balls():
    """Seeded balls at n = 2..8, each with its default anchor (None) and a
    random point of its cone."""
    for n in range(2, 9):
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            ball, s = random_ball_instance(rng, n)
            yield ball, s, None
            yield ball, s, point_in_cone(rng, ball)


def assert_ball_separated(ball: OpenBall, s, rule: str, x=None) -> None:
    """Exact ball oracle: the plane n-perp misses the ball iff |n.c| >= r."""
    result = separate(ball, s, SeparationOptions(x=x, gamma_rule=rule))
    assert result.certificate.valid
    assert abs(np.asarray(result.hyperplane.normal) @ ball.center) >= ball.radius * (1.0 - 1e-12)


class TestBallPaths:
    """Seeded balls at n = 2..8 against the exact ball oracle, with the
    pattern search made to raise: extension intervals and domination checks
    on ball-cone gauges are closed-form, so no ball path may reach it."""

    @pytest.fixture(autouse=True)
    def no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pattern search on a ball path")

        monkeypatch.setattr(gauges, "_pattern_search", refuse)

    @pytest.mark.parametrize("rule", ["upper", "lower", "midpoint"])
    def test_seeded_balls(self, rule):
        for ball, s, x in seeded_balls():
            assert_ball_separated(ball, s, rule, x)

    @pytest.mark.parametrize("rule", ["upper", "lower", "midpoint"])
    def test_example1(self, rule):
        a_set, s, x = bundled("example1")
        assert_ball_separated(a_set, s, rule, x)
        assert_ball_separated(a_set, s, rule)

    @pytest.mark.parametrize("rule", ["upper", "lower", "midpoint"])
    @pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e4, 1e6])
    def test_scaled_disks(self, scale, rule):
        TestScaledDisk().check(scale, rule)

    def test_cli_extend_example1(self, capsys):
        assert main(["extend", "--input", "example1"]) == 0
        assert json.loads(capsys.readouterr().out)["g"] == pytest.approx([1.0, 1.0], rel=1e-12)


class TestExtensionLPRegressions:
    """Boxes with hard extension LPs: the dense tableau solver reported some
    of the first two as unbounded; on the third Bland's rule cycles unless
    basic values that round below zero count as zero in the ratio test; on
    the fourth a ratio test relaxed by 1e-9 raises interval ends enough for
    the plane to cut the box by 1e-9."""

    @staticmethod
    def boxes():
        rng = np.random.default_rng(400)
        return {
            "dense-s-40": axis_box(np.random.default_rng(40), 40, dense_s=True),
            "rotated-12": [rotated_box(rng, 12) for _ in range(8)][-1],
            "axis-40": axis_box(np.random.default_rng(59), 40),
            "axis-40-touching": axis_box(np.random.default_rng(33), 40),
        }

    @pytest.mark.parametrize("name", ["dense-s-40", "rotated-12", "axis-40", "axis-40-touching"])
    def test_separates(self, name):
        box = self.boxes()[name]
        result = separate(box.polyhedron(), box.subspace())
        assert result.certificate.valid
        assert box.separated_by(np.asarray(result.hyperplane.normal))

    @pytest.mark.parametrize("name", ["dense-s-40", "rotated-12"])
    def test_extension_lps_against_highs(self, monkeypatch, name):
        optimize = pytest.importorskip("scipy.optimize")
        calls = record_lps(monkeypatch, gauges)

        def captured() -> list:  # the extension LPs, not the domination check's
            return [(*args, res) for args, res in calls if args[3] is not None]

        box = self.boxes()[name]
        # under "upper" every step after the first is forced and solves no
        # LP; "midpoint" never forces, so each interval solves both its ends
        separate(box.polyhedron(), box.subspace())
        assert len(captured()) == 2
        separate(box.polyhedron(), box.subspace(), SeparationOptions(gamma_rule="midpoint"))
        assert len(captured()) > 4 and len(captured()) % 2 == 0
        for c, a_ub, b_ub, nonneg, res in captured():
            bounds = [(0, None) if flag else (None, None) for flag in nonneg]
            ref = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
            assert ref.status == 0 and res.status == "optimal"
            assert res.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)


class TestExactCuts:
    """On axis boxes the exact margin of a plane over the closure is
    sum n_i (l_i or u_i) in rationals of the polyhedron's own rows, so no LP
    is needed.  Picked interval ends give touching planes that rounding may
    push across; on 40-D boxes the worst cut stays within 1e-14 |c|."""

    @staticmethod
    def exact_margin(poly, normal: np.ndarray) -> Fraction:
        """min normal . e over the closure of a box whose rows are +-e_i."""
        bounds = {}
        for row, offset in zip(poly.a, poly.b):
            (i,) = np.flatnonzero(row)
            assert abs(row[i]) == 1.0
            bounds[i, row[i] > 0.0] = Fraction(float(offset)) * int(row[i])
        return sum(Fraction(float(v)) * bounds[i, v < 0.0] for i, v in enumerate(normal))

    @pytest.mark.parametrize("rule", ["upper", "lower"])
    def test_axis_40_cuts_stay_below_1e_14(self, rule):
        worst = 0.0
        for seed in range(20):
            box = axis_box(np.random.default_rng(seed), 40)
            poly = box.polyhedron()
            result = separate(poly, box.subspace(), SeparationOptions(gamma_rule=rule))
            margin = self.exact_margin(poly, np.asarray(result.hyperplane.normal))
            worst = max(worst, float(-margin) / float(np.linalg.norm(box.c)))
        assert worst <= 1e-14


class TestRotatedBoxesUnderEveryGammaRule:
    """Under each gamma rule ``separate()`` returns a valid certificate on
    rotated boxes of dimension 6 to 12, for a plane that the box's own
    description (``Box.separated_by``) confirms misses it."""

    @pytest.mark.parametrize("rule", ["upper", "lower", "midpoint"])
    def test_separated_by_a_valid_plane(self, rule):
        rng = np.random.default_rng(61)
        for box in [rotated_box(rng, n) for n in (6, 8, 10, 12) for _ in range(3)]:
            result = separate(box.polyhedron(), box.subspace(), SeparationOptions(gamma_rule=rule))
            assert result.certificate.valid and box.separated_by(np.asarray(result.hyperplane.normal))


class TestEveryLpIsItsColdSolve:
    """Every LP that ``separate()`` solves (the inscribed-ball, extension,
    certificate and domination LPs) returns the status, ``x``, ``y`` and
    objective that a later ``solve_lp`` of the same arrays returns, bit for
    bit: no caller changes an array after handing it to the solver, so any
    LP of a run can be re-solved and checked on its own."""

    @staticmethod
    def families():
        rng = np.random.default_rng(46)
        sets = [random_polytope_instance(rng, int(rng.integers(3, 7))) for _ in range(60)]
        rng = np.random.default_rng(1)
        boxes = [rotated_box(rng, int(rng.integers(4, 13))) for _ in range(30)]
        return sets + [(box.polyhedron(), box.subspace()) for box in boxes]

    @pytest.mark.parametrize("rule", ["upper", "lower", "midpoint"])
    def test_every_lp_equals_its_cold_solve(self, monkeypatch, rule):
        calls = record_lps(monkeypatch, convexsets, gauges, separation)
        for a_set, s in self.families():
            separate(a_set, s, SeparationOptions(gamma_rule=rule))
        assert len(calls) == {"upper": 276, "lower": 272, "midpoint": 656}[rule]
        for (c, a_ub, b_ub, nonneg), res in calls:
            cold = solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=nonneg)
            assert res.status == cold.status
            for name in ("x", "y", "objective"):
                got, want = getattr(res, name), getattr(cold, name)
                assert (got is None and want is None) or np.array_equal(got, want), name


class TestMultiplierCertificate:
    """Remark 2 in multiplier form: where the last extension step picked an
    end of its interval, ``separate()`` reads the Farkas multipliers of its
    side off that end's LP (``_extension_certificate``) and solves no
    support LP; everywhere else the support LP certifies the side."""

    @staticmethod
    def families():
        rng = np.random.default_rng(90)
        boxes = [rotated_box(rng, n) for n in range(4, 13) for _ in range(3)]
        boxes += [axis_box(rng, n) for n in (20, 40) for _ in range(2)]
        sets = [(box.polyhedron(), box.subspace(), None) for box in boxes]
        sets += [(*random_polytope_instance(rng, int(rng.integers(2, 8))), None) for _ in range(60)]
        sets += [(*many_facet_polytope(n, m), None) for n, m in ((6, 60), (10, 200))]
        return sets + [bundled("example2"), bundled("example3_quotient")]

    @pytest.mark.parametrize("rule", ["upper", "lower"])
    def test_multipliers_certify_what_the_support_lp_certifies(self, monkeypatch, rule):
        def refuse(*args):
            raise AssertionError("the support LP ran")

        monkeypatch.setattr(separation, "_support", refuse)
        for a_set, s, x in self.families():
            result = separate(a_set, s, SeparationOptions(x=x, gamma_rule=rule))
            cert, normal = result.certificate, np.asarray(result.hyperplane.normal)
            lam = np.asarray(cert.farkas_multipliers)
            assert cert.valid and np.all(lam >= 0.0)
            residual = float(np.max(np.abs(a_set.a.T @ lam + normal)))
            # the end LP's primal and dual values differ by up to 3e-14 on
            # nearly flat last intervals, and the residual inherits that
            assert residual == cert.farkas_residual <= 1e-13
            assert cert.boundary_margin == -float(a_set.b @ lam) + 0.0
            margin, scale, _ = _support(a_set, normal)  # the module's own name is refused
            assert margin >= -separation.SIDE_TOL * scale
            assert abs(cert.boundary_margin - margin) <= 1e-12 * max(1.0, float(np.linalg.norm(result.anchor_x)))

    def test_many_facets_bound_the_peak_memory(self):
        # twice the 26.5 MB of a run that reads no multipliers; a map that
        # builds all 35,360 hull rows beside their 500 source weights takes
        # about 300 MB, one that reads the weighted rows' sources about 28 MB
        a_set, s = many_facet_polytope(10, 500)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            result = separate(a_set, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.certificate.valid and result.certificate.farkas_multipliers is not None
        assert peak < 53e6

    @staticmethod
    def support_calls(monkeypatch) -> list:
        calls = []

        def counting(*args):
            calls.append(args)
            return _support(*args)

        monkeypatch.setattr(separation, "_support", counting)
        return calls

    @staticmethod
    def assert_support_certificate(a_set, s, result) -> None:
        """The certificate is the one-sided support LP's, field for field."""
        normal = np.asarray(result.hyperplane.normal)
        want = separation._certificate(a_set, s, normal, seed=0, samples=1, side=1.0)
        assert result.certificate == replace(want, remark2_status=True)

    def test_no_step_runs_the_support_lp(self, monkeypatch):
        # dim S + 1 = n: span(S + x) is the whole space, so no step picks an end
        calls = self.support_calls(monkeypatch)
        a_set = HPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([2.0, -1.0, 1.0, 1.0]))
        s = span_basis([np.array([0.0, 1.0])])
        result = separate(a_set, s)
        assert result.steps == () and len(calls) == 1
        self.assert_support_certificate(a_set, s, result)
        assert result.certificate.boundary_margin == 1.0

    def test_interior_midpoint_pick_runs_the_support_lp(self, monkeypatch):
        calls = self.support_calls(monkeypatch)
        box = rotated_box(np.random.default_rng(91), 8)
        a_set, s = box.polyhedron(), box.subspace()
        result = separate(a_set, s, SeparationOptions(gamma_rule="midpoint"))
        last = result.steps[-1]
        assert last.interval.width > 0.0 and last._picked_end() is None and len(calls) == 1
        self.assert_support_certificate(a_set, s, result)

    @pytest.mark.parametrize(
        "tamper",
        [lambda y: np.roll(y, y.size // 2), lambda y: 2.0 * y, lambda y: np.zeros_like(y)],
        ids=["u-not-zero", "residual", "no-multipliers"],
    )
    def test_failed_multiplier_check_runs_the_support_lp(self, monkeypatch, tamper):
        # no seeded family, bundled problem or tier-1 call has failed a check
        # (nor has a sweep of polytopes scaled by 1e-8 to 1e8), so the last
        # step's y is tampered with after the extension: u and v swapped,
        # doubled, or zero
        extend = separation._extend_steps

        def tampered(*args, **kwargs):
            state = extend(*args, **kwargs)
            last = state.history[-1]
            ends = tuple(replace(res, y=tamper(res.y)) for res in last.interval._ends)
            step = replace(last, interval=replace(last.interval, _ends=ends))
            return replace(state, history=state.history[:-1] + (step,))

        monkeypatch.setattr(separation, "_extend_steps", tampered)
        calls = self.support_calls(monkeypatch)
        box = rotated_box(np.random.default_rng(92), 6)
        a_set, s = box.polyhedron(), box.subspace()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = separate(a_set, s)
        assert len(calls) == 1
        self.assert_support_certificate(a_set, s, result)


class TestRemark2DecidesDomination:
    """By the paper's Remark 2, g (with g(x) = 1, g = 0 on S) is dominated by
    the symmetrized gauge exactly when its kernel misses the set.  So
    ``separate()`` solves no domination LP where its certificate decides
    the side exactly (polyhedra and balls), and checks domination only where
    the certificate samples."""

    @staticmethod
    def families():
        rng = np.random.default_rng(80)
        sets = [random_polytope_instance(rng, int(rng.integers(2, 6))) for _ in range(12)]
        sets += [random_ball_instance(rng, int(rng.integers(2, 7))) for _ in range(12)]
        boxes = [rotated_box(rng, n) for n in (4, 6, 8, 10)] + [axis_box(rng, 20)]
        return sets + [(box.polyhedron(), box.subspace()) for box in boxes]

    @pytest.mark.parametrize("rule", ["upper", "lower", "midpoint"])
    def test_returned_extensions_are_dominated(self, rule):
        # the fact the deleted domination LP of separate() used to decide
        for a_set, s in self.families():
            result = separate(a_set, s, SeparationOptions(gamma_rule=rule))
            assert result.certificate.valid and result.certificate.remark2_status
            assert domination_check(result.g, result.gauge_used) <= extension.DOMINATION_TOL

    def test_domination_check_only_where_the_certificate_samples(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        check = extension.domination_check
        monkeypatch.setattr(extension, "domination_check", counting)
        for name, made in (("example2", 0), ("example1", 0)):  # a polyhedron and a ball
            a_set, s, x = bundled(name)
            calls.clear()
            assert separate(a_set, s, SeparationOptions(x=x)).certificate.valid
            assert len(calls) == made, name
        # a 2-D oracle set runs on a polyhedral sector gauge, but its
        # certificate samples, so the gate is on the set, not on the gauge
        calls.clear()
        result = separate(oracle_by_name("offset-box"), zero_subspace(2))
        assert result.certificate.valid and isinstance(result.gauge_used, PolyhedralGauge)
        assert len(calls) == 1

    def test_no_gauge_evaluation(self, monkeypatch):
        # the certificate (and on a sampled set domination_check) decides
        # |g| <= p on the whole space, so no step evaluates p on a direction
        calls = []

        def counting(p, e):
            calls.append(e)
            return real(p, e)

        real = gauges.gauge
        for module in (gauges, extension, separation):
            monkeypatch.setattr(module, "gauge", counting)
        rng = np.random.default_rng(38)
        box = rotated_box(rng, 6)
        cases = [(box.polyhedron(), box.subspace()), random_ball_instance(rng, 4)]
        for a_set, s in cases + [(oracle_by_name("offset-box"), zero_subspace(2))]:
            assert separate(a_set, s).certificate.valid
        assert calls == []
        # the wrapper is live: on a zero domain the interval is two gauge values
        zero = ExtensionState(PartialFunctional(zero_subspace(2), np.zeros(0)), TAXICAB)
        extension.extension_interval(zero, np.array([1.0, 0.0]))
        assert len(calls) == 2


class TestOptionChecks:
    """``separate()`` rejects an unknown gamma rule and a negative seed with
    InputError before any LP, whether or not an extension step would run;
    ``remark2_equivalence_check`` rejects a negative seed too."""

    BOX = HPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([3.0, -1.0]))  # 1 < e1 < 3
    E2 = span_basis([np.array([0.0, 1.0])])

    @pytest.fixture
    def lps(self, monkeypatch) -> list:
        return record_lps(monkeypatch, convexsets, gauges, separation)

    def cases(self):
        # span(S + x) is the whole plane for the box and the ball, so no
        # extension step runs; with S = {0} one does
        return [(self.BOX, self.E2), (OpenBall(np.array([2.0, 0.0]), 1.0), self.E2), (self.BOX, zero_subspace(2))]

    def test_unknown_gamma_rule(self, lps):
        for a_set, s in self.cases():
            with pytest.raises(InputError, match="unknown gamma rule 'bogus'"):
                separate(a_set, s, SeparationOptions(gamma_rule="bogus"))
        assert lps == []

    def test_negative_seed(self, lps):
        for a_set, s in self.cases() + [(oracle_by_name("offset-box"), zero_subspace(2))]:
            with pytest.raises(InputError, match="seed must be a non-negative integer, got -1"):
                separate(a_set, s, SeparationOptions(seed=-1))
        assert lps == []

    def test_negative_seed_in_remark2_check(self, lps):
        # its domination side rejects the seed on every gauge kind
        x = np.array([2.0, 0.0])
        body = build_D(self.BOX, x)
        for p in (gauge_from_symmetrized(body), BisectionGauge(body)):
            with pytest.raises(InputError, match="seed must be a non-negative integer, got -1"):
                remark2_equivalence_check(self.BOX, self.E2, x, p, np.array([0.5, 0.0]), seed=-1)
        assert lps == []


class TestKernelDisjointDifferential:
    """The shared side test (the better side's margin of normal . e over the
    closure: two support LPs, or the ball's closed form), read through
    ``verify_separation`` against the zero subspace, against a verdict on a
    kernel built here: r* > 0 of a polyhedron's inscribed ball centred in it
    (the LP that names a failed precondition of ``separate()``), or
    ``_check_disjoint``'s centre distance for a ball."""

    @staticmethod
    def meets(a_set, kernel) -> bool:
        if isinstance(a_set, HPolyhedron):
            return _inscribed_ball(a_set, kernel.basis)[1] > 0.0
        try:
            _check_disjoint(a_set, kernel, seed=0)
        except InputError:
            return True
        return False

    def compare(self, a_set, normals) -> list[float]:
        """Margins of the normals compared; asserts agreement on each."""
        margins = []
        for normal in normals:
            margin = max(_support(a_set, normal)[0], _support(a_set, -normal)[0])
            if abs(margin) > 1e-9:
                kernel = Subspace(a_set.dim, np.array(complement_basis(span_basis([normal]))))
                cert = verify_separation(a_set, zero_subspace(a_set.dim), Hyperplane(normal), samples=2000)
                assert cert.sign_constant == (not self.meets(a_set, kernel)), (normal, margin)
                margins.append(margin)
        return margins

    def unit_normals(self, rng, count, n):
        normals = rng.normal(size=(count, n))
        return normals / np.linalg.norm(normals, axis=1)[:, None]

    def test_random_polytopes(self):
        rng = np.random.default_rng(7)
        margins = []
        for _ in range(40):
            n = int(rng.integers(2, 6))
            poly, _ = random_polytope_instance(rng, n)
            margins += self.compare(poly, self.unit_normals(rng, 8, n))
        assert min(margins) < 0.0 < max(margins)  # both answers occur

    def test_touching_box(self):
        center, half = np.array([5.0, 1.0, 0.0]), np.ones(3)
        box = HPolyhedron(np.vstack([np.eye(3), -np.eye(3)]), np.concatenate([center + half, half - center]))
        margins = self.compare(box, self.unit_normals(np.random.default_rng(8), 200, 3))
        assert len(margins) == 200 and min(margins) < 0.0 < max(margins)

    def test_random_balls(self):
        rng = np.random.default_rng(9)
        margins = []
        for _ in range(40):
            n = int(rng.integers(2, 6))
            ball, _ = random_ball_instance(rng, n)
            margins += self.compare(ball, self.unit_normals(rng, 8, n))
        assert min(margins) < 0.0 < max(margins)

    def test_tangent_planes_of_a_ball(self):
        # the tangents have margin 0, so they are tilted off it to either side
        ball, normals = tangent_normals((1e-6, -1e-6))
        margins = self.compare(ball, normals)
        assert len(margins) == 4 and sum(m > 0.0 for m in margins) == 2


class TestFarkasReferee:
    """``helpers.farkas_referee`` solves the precondition LP's dual with
    scipy, sharing no solver with the package.  On each instance and on a
    subspace widened by the pipeline's anchor (so that it meets the set):
    ``separate()`` raises the precondition error exactly when r* > 0,
    and when r* < 0 the referee's nu = a^T y separates on its own, and
    g = nu / (nu . x) passes Remark 2 on the pipeline's anchor and gauge."""

    @staticmethod
    def instances(family):
        rng = np.random.default_rng(17)
        if family == "polytope":
            return [random_polytope_instance(rng, int(rng.integers(2, 6))) for _ in range(12)]
        if family == "rotated":
            boxes = [rotated_box(rng, n) for n in (4, 6, 8, 10, 12) for _ in range(3)]
        else:
            boxes = [axis_box(rng, n) for n in (20, 40) for _ in range(2)]
        return [(box.polyhedron(), box.subspace()) for box in boxes]

    @pytest.mark.parametrize("family", ["rotated", "axis", "polytope"])
    def test_referee_agrees_with_separate(self, family):
        verdicts = []
        for poly, s in self.instances(family):
            result = separate(poly, s)
            x = result.anchor_x
            for sub in (s, span_basis(list(s.basis) + [x], poly.dim)):
                nu, y, r = farkas_referee(poly, sub)
                assert abs(r) > 1e3 * MIN_DEPTH  # no verdict rests on the bound
                try:
                    separate(poly, sub)
                    raised = False
                except InputError as exc:
                    assert str(exc).startswith("precondition: the set intersects the subspace")
                    raised = True
                assert raised == (r > 0.0)
                verdicts.append(raised)
                if r < 0.0:
                    nu_norm = float(np.linalg.norm(nu))
                    assert _subspace_residual(sub, nu) <= 1e-12 * nu_norm
                    cert = verify_separation(poly, sub, Hyperplane(nu / nu_norm))
                    # nu . e < r* on the set, so the margin is at least -r* / |nu|
                    assert cert.valid and cert.boundary_margin >= -r / nu_norm * (1.0 - 1e-9)
                    g = nu / float(nu @ x)
                    assert remark2_equivalence_check(poly, sub, x, result.gauge_used, g) == (True, True)
        assert any(verdicts) and not all(verdicts)


class TestExactVersusSampled:
    """No hyperplane passes the exact side test (polyhedra and balls) and
    fails the sampled one (one sign on seeded interior points, drawn by the
    reference sampler ``helpers.sample_exact``)."""

    def check(self, a_set, normals) -> list[bool]:
        verdicts = []
        for i, normal in enumerate(normals):
            exact = verify_separation(a_set, zero_subspace(a_set.dim), Hyperplane(normal)).sign_constant
            vals = sample_exact(a_set, 2000, seed=i) @ normal
            assert not exact or np.all(vals > 0.0) or np.all(vals < 0.0), normal
            verdicts.append(exact)
        return verdicts

    def test_seeded_families(self):
        rng = np.random.default_rng(11)
        verdicts = []
        for trial in range(40):
            n = int(rng.integers(2, 6))
            family = random_ball_instance if trial % 2 else random_polytope_instance
            a_set, s = family(rng, n)
            normals = rng.normal(size=(6, n))
            normals = list(normals / np.linalg.norm(normals, axis=1)[:, None])
            verdicts += self.check(a_set, normals + [np.asarray(separate(a_set, s).hyperplane.normal)])
        assert any(verdicts) and not all(verdicts)

    def test_tangent_planes_of_a_ball(self):
        # the tangents (touching is allowed) and one tilt of each pass
        ball, normals = tangent_normals((0.0, 1e-6, -1e-6))
        assert sum(self.check(ball, normals)) == 4


class TestSeparateSideTests:
    def test_exact_sets_draw_no_samples(self, monkeypatch):
        # polyhedra and balls are certified on their closure: separate()
        # reads a polyhedron's multipliers off its last extension step and
        # solves no LP; verify_separation solves the + side's support LP,
        # and the - side's too only when the + side's margin is negative (a
        # touching plane that rounding pushed across)
        def refuse(*args, **kwargs):
            raise AssertionError("a polyhedron or ball was sampled")

        monkeypatch.setattr(separation, "sample_interior", refuse)
        lps = record_lps(monkeypatch, separation)
        rng = np.random.default_rng(5)
        cases = [bundled("example1"), bundled("example2"), bundled("example3_quotient")]
        cases += [(*random_instance(rng, 3), None) for _ in range(8)]
        for a_set, s, x in cases:
            lps.clear()
            result = separate(a_set, s, SeparationOptions(x=x))
            assert result.certificate.valid and result.certificate.a_clearance is None
            assert len(lps) == 0
            lps.clear()
            assert verify_separation(a_set, s, result.hyperplane).valid
            crossed = bool(lps) and lps[0][1].objective < 0.0  # the + side's margin
            assert len(lps) == isinstance(a_set, HPolyhedron) * (1 + crossed)

    def test_no_kernel_disjoint_call(self, monkeypatch):
        # the certificate's sign_constant is the one side test of separate(),
        # and its remark2_status reuses it
        def refuse(*args, **kwargs):
            raise AssertionError("separate() tested the hyperplane's side twice")

        monkeypatch.setattr(separation, "verify_separation", refuse)
        monkeypatch.setattr(separation, "remark2_equivalence_check", refuse)
        for a_set, s, x in (bundled("example1"), bundled("example2"), bundled("example3_quotient")):
            result = separate(a_set, s, SeparationOptions(x=x))
            assert result.certificate.remark2_status is True


    @pytest.mark.parametrize(
        "normal,lps_made,valid",
        [([1.0, 0.5], 1, True), ([-1.0, 0.5], 2, True), ([0.0, 1.0], 2, False)],
        ids=["plus-side", "minus-side", "crossing"],
    )
    def test_minus_side_lp_only_below_zero(self, monkeypatch, normal, lps_made, valid):
        # a plane whose + side margin is >= 0 needs no - side LP, since
        # -max <= -min <= margin; the certificate is the better of the two
        # one-sided ones, as when both sides were always solved
        box = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([4.0, 1.0, -2.0, 1.0]))  # (2, 4) x (-1, 1)
        normal, s = np.array(normal) / np.linalg.norm(normal), zero_subspace(2)
        plus, minus = (separation._certificate(box, s, normal, seed=0, samples=0, side=k) for k in (1.0, -1.0))
        lps = record_lps(monkeypatch, separation)
        cert = verify_separation(box, s, Hyperplane(normal))
        assert len(lps) == lps_made
        assert cert == (minus if minus.boundary_margin > plus.boundary_margin else plus)
        assert cert.valid is valid


class TestSeparateRandomInstances:
    def test_end_to_end_soundness(self):
        rng = np.random.default_rng(20)
        count = 0
        while count < 200:
            n = int(rng.integers(2, 5))
            a_set, s = random_instance(rng, n)
            opts = SeparationOptions(seed=count, certificate_samples=2000)
            if isinstance(a_set, OpenBall):
                opts.x = np.asarray(a_set.center)
            result = separate(a_set, s, opts)
            cert = result.certificate
            assert cert.s_in_h_residual < 1e-8
            assert cert.a_clearance is None  # polyhedra and balls are not sampled
            assert cert.sign_constant
            assert cert.valid
            if isinstance(a_set, HPolyhedron):
                assert_farkas_evidence(a_set, result)
            count += 1

    def test_farkas_evidence_on_bundled_problems(self):
        for name in ("example1", "example2", "example3_quotient"):
            problem = parse_problem(name)
            opts = SeparationOptions(x=problem.x, gamma_rule=problem.gamma_rule, seed=problem.seed)
            result = separate(problem.a_set, problem.s, opts)
            if isinstance(problem.a_set, HPolyhedron):
                assert_farkas_evidence(problem.a_set, result)
            else:
                assert result.certificate.farkas_multipliers is None
                assert result.certificate.farkas_residual is None


class TestVerifySeparation:
    def test_halfspace_certificate(self):
        a_set, s, _ = bundled("example2")
        cert = verify_separation(a_set, s, Hyperplane(np.array([1.0, 0.0, 0.0])))
        assert cert.s_in_h_residual == 0.0
        assert cert.boundary_margin == pytest.approx(0.0, abs=1e-12)
        assert cert.sign_constant  # closure touches, but the open set is clear
        assert cert.a_clearance is None  # exact: no samples
        assert cert.farkas_multipliers == (1.0,) and cert.farkas_residual == 0.0
        assert cert.valid

    def test_empty_closure_is_missed(self):
        cert = verify_separation(EMPTY_SLAB, zero_subspace(2), Hyperplane(np.array([0.0, 1.0])))
        assert cert.valid
        assert (cert.a_clearance, cert.boundary_margin, cert.sign_constant) == (None, np.inf, True)

    def test_thin_slab_is_not_read_as_empty(self):
        # {0 < e1 < 1e-10} is nonempty (its inscribed radius is below the
        # emptiness test's 1e-9), and the line e2 = 0 crosses it
        slab = HPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1e-10, 0.0]))
        assert not verify_separation(slab, zero_subspace(2), Hyperplane(np.array([0.0, 1.0]))).valid
        assert verify_separation(slab, zero_subspace(2), Hyperplane(np.array([1.0, 0.0]))).valid

    def test_zero_clearance_is_named(self):
        # an interior sample on the plane (|normal . e| = 0): the plane meets the open set
        cert = SeparationCertificate(0.0, 0.0, None, True, None)
        assert not cert.valid
        with pytest.raises(SolverError) as info:
            separation._checked(cert)
        assert str(info.value) == "separation certificate is invalid: a_clearance 0.00e+00 is not positive"

    def test_crossing_hyperplane_flagged(self):
        a_set, s, _ = bundled("example1")
        cert = verify_separation(a_set, s, Hyperplane(np.array([0.0, 1.0])))
        assert not cert.sign_constant
        assert cert.boundary_margin < 0.0
        assert not cert.valid

    def test_subspace_not_contained_flagged(self):
        a_set, s, _ = bundled("example2")
        tilted = Hyperplane(np.array([1.0, 0.0, 0.01]) / np.linalg.norm([1.0, 0.0, 0.01]))
        cert = verify_separation(a_set, s, tilted)
        assert cert.s_in_h_residual > 1e-8
        assert not cert.valid

    def test_remark2_status_requires_gauge(self):
        a_set, s, x = bundled("example1")
        result = separate(a_set, s, SeparationOptions(x=x))
        # a plane alone carries no extension; remark2_equivalence_check tests one
        assert verify_separation(a_set, s, result.hyperplane).remark2_status is None
        assert remark2_equivalence_check(a_set, s, result.anchor_x, result.gauge_used, result.g) == (True, True)


class TestRemark2Equivalence:
    def test_dominated_and_disjoint(self):
        a_set, _, x = bundled("example1")
        s = zero_subspace(2)
        out = remark2_equivalence_check(a_set, s, x, TAXICAB, np.array([1.0, 0.5]))
        assert out == (True, True)

    def test_violating_and_crossing(self):
        a_set, _, x = bundled("example1")
        s = zero_subspace(2)
        out = remark2_equivalence_check(a_set, s, x, TAXICAB, np.array([1.0, 2.0]))
        assert out == (False, False)

    def test_halfspace_extension(self):
        a_set, s, x = bundled("example2")
        slab = PolyhedralGauge(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.ones(2))
        out = remark2_equivalence_check(a_set, s, x, slab, np.array([1.0, 0.0, 0.0]))
        assert out == (True, True)

    def test_empty_set_is_disjoint(self):
        # the kernel {e2 = 0} misses the empty set
        out = remark2_equivalence_check(EMPTY_SLAB, zero_subspace(2), np.array([0.0, 1.0]), TAXICAB, np.array([0.0, 1.0]))
        assert out == (True, True)

    def test_non_extension_rejected(self):
        a_set, s, x = bundled("example1")
        with pytest.raises(InputError):
            remark2_equivalence_check(a_set, s, x, TAXICAB, np.array([2.0, 0.0]))
        a3, s3, x3 = bundled("example2")
        slab = PolyhedralGauge(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.ones(2))
        with pytest.raises(InputError):
            # sends x to 1 but does not vanish on the z-axis
            remark2_equivalence_check(a3, s3, x3, slab, np.array([1.0, 0.0, 0.5]))

    def test_biconditional_over_gamma_sweep(self):
        # polyhedral instances make both sides exact LPs
        rng = np.random.default_rng(21)
        from gaugesep import ExtensionState, complement_basis, extension_interval
        from gaugesep import build_D, gauge_from_symmetrized, pick_interior_point
        from helpers import random_polytope_instance

        for trial in range(6):
            n = int(rng.integers(2, 4))
            a_set, s = random_polytope_instance(rng, n)
            x = pick_interior_point(a_set)
            p = gauge_from_symmetrized(build_D(a_set, x))
            f = separation._span_functional(s, x)
            directions = complement_basis(f.domain)
            if not directions:
                continue
            state = ExtensionState(f, p)
            interval = extension_interval(state, directions[0])
            scale = max(1.0, abs(interval.lo), abs(interval.hi))
            for t in np.linspace(0.05, 0.95, 6):
                gamma = interval.lo + t * interval.width
                rest = [0.0] * (len(directions) - 1)
                g = f.as_coefficients() + np.array([gamma] + rest) @ np.asarray(directions)
                dominated, disjoint = remark2_equivalence_check(a_set, s, x, p, g)
                assert dominated == disjoint == True  # noqa: E712
            for offset in (0.05, 0.3, 1.0):
                for gamma in (interval.hi + offset * scale, interval.lo - offset * scale):
                    rest = [0.0] * (len(directions) - 1)
                    g = f.as_coefficients() + np.array([gamma] + rest) @ np.asarray(directions)
                    dominated, disjoint = remark2_equivalence_check(a_set, s, x, p, g)
                    assert dominated == disjoint == False  # noqa: E712


class TestPipelineFunctionalDomination:
    def test_f_dominated_on_span(self):
        # |f(z + t x)| = |t| <= p(z + t x) on sampled pairs
        a_set, s, x = bundled("example2")
        result = separate(a_set, s, SeparationOptions(x=x))
        p = result.gauge_used
        rng = np.random.default_rng(22)
        for _ in range(500):
            z = rng.normal() * np.asarray(s.basis[0])
            t = float(rng.normal())
            assert abs(t) <= gauge(p, z + t * np.asarray(x)) + 1e-7


class TestBruteForce2D:
    def test_disk_fan_is_45_to_135(self):
        a_set, _, _ = bundled("example1")
        angles = np.degrees(brute_force_2d_normals(a_set, 1800))
        assert angles.min() == pytest.approx(45.0, abs=0.1 + 1e-9)
        assert angles.max() == pytest.approx(135.0, abs=0.1 + 1e-9)
        inside = (angles >= 45.0 - 1e-9) & (angles <= 135.0 + 1e-9)
        assert inside.all()

    def test_upper_halfplane_only_horizontal(self):
        upper = HPolyhedron(np.array([[0.0, -1.0]]), np.array([0.0]))
        angles = brute_force_2d_normals(upper, 1800)
        np.testing.assert_allclose(angles, [0.0], atol=1e-12)

    def test_tiny_far_disk_blocks_narrow_band(self):
        tiny = OpenBall(np.array([10.0, 0.0]), 0.05)
        angles = brute_force_2d_normals(tiny, 3600)
        # the blocked band has half-width arcsin(r / |c|) ~ 0.286 degrees
        degrees = np.degrees(angles)
        band = np.degrees(np.arcsin(0.05 / 10.0))
        assert np.all((degrees <= 1e-9) | (degrees >= band - 0.1))
        assert degrees.size >= 3600 - int(np.ceil(2 * band / 0.05)) - 2

    def test_oracle_sampling_path(self):
        from gaugesep import OracleSet

        disk = OracleSet(
            2,
            lambda e: float(np.linalg.norm(e - [2.0, 0.0])) < np.sqrt(2.0),
            witness=np.array([2.0, 0.0]),
        )
        angles = np.degrees(brute_force_2d_normals(disk, 360))
        assert angles.min() >= 45.0 - 1.0
        assert angles.max() <= 135.0 + 1.0

    @pytest.mark.parametrize("center", [(7.0, 0.0), (3.0, 0.0), (0.5, 0.0)])
    def test_oracle_thin_disk_matches_ball(self, center):
        # r = 0.01 |c| blocks 2 arcsin(0.01) = 1.146 degrees: 23 angles of 3600
        from gaugesep import OracleSet

        ball = OpenBall(np.array(center), 0.01 * np.linalg.norm(center))
        oracle = OracleSet(2, ball.contains, witness=np.array(center))
        angles = brute_force_2d_normals(oracle, 3600)
        assert angles.size == 3600 - 23
        np.testing.assert_array_equal(angles, brute_force_2d_normals(ball, 3600))

    def test_returned_normal_lands_in_admissible_fan(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 50:
            a_set, s = random_instance(rng, 2)
            if s.dim != 0:
                continue
            opts = SeparationOptions(seed=checked, certificate_samples=500)
            if isinstance(a_set, OpenBall):
                opts.x = np.asarray(a_set.center)
            result = separate(a_set, s, opts)
            theta = line_angle(np.asarray(result.hyperplane.normal))
            admissible = brute_force_2d_normals(a_set, 3600)
            gap = np.min(np.abs(((admissible - theta + np.pi / 2) % np.pi) - np.pi / 2))
            assert gap <= np.pi / 3600 + 1e-9
            checked += 1


class TestOracleSetEndToEnd:
    def test_membership_oracle_composes_through_pipeline(self, monkeypatch):
        # separate() runs the exact pipeline on the sector of the 2-D hull;
        # the search pipeline (searched hull, plane-section gauge, pattern
        # search intervals) runs once by hand on trimmed budgets, since this
        # checks composition, not certification tightness, and must agree
        monkeypatch.setattr(gauges, "SEARCH_RESTARTS", 1)
        monkeypatch.setattr(gauges, "SEARCH_ITERATIONS", 40)
        box = oracle_by_name("offset-box")
        result = separate(box, zero_subspace(2), SeparationOptions(certificate_samples=300))
        assert result.certificate.valid
        assert isinstance(result.gauge_used, PolyhedralGauge)
        # box corners sit at (2, +/-1) and (4, +/-1); the admissible fan is
        # bounded by the corner tangents, so the normal stays within it
        theta = line_angle(np.asarray(result.hyperplane.normal))
        corner = np.arctan2(1.0, 2.0)
        assert corner - 0.05 <= theta <= np.pi - corner + 0.05
        x = result.anchor_x
        state = ExtensionState(separation._span_functional(zero_subspace(2), x), OracleGauge(build_D(box, x)))
        for z in complement_basis(state.domain):
            state = extend_one(state, z)
        g = state.functional.as_coefficients()
        np.testing.assert_allclose(g, result.g, rtol=0.0, atol=1e-6)
        # the sampled domination check of oracle gauges has its own tests;
        # here the exact polar of the sector gauge checks the search's g
        assert domination_check(g, result.gauge_used) <= 1e-6

    @pytest.mark.parametrize("direction,normal", [([0.0, 1.0], [1.0, 0.0]), ([1.0, 1.0], [1.0, -1.0])])
    def test_sampled_precondition_passes(self, direction, normal):
        # S misses the offset disk: the e2 axis, and the tangent line e1 = e2
        result = separate(oracle_by_name("offset-disk"), span_basis([np.array(direction)]))
        assert result.certificate.valid
        np.testing.assert_allclose(result.hyperplane.normal, np.array(normal) / np.linalg.norm(normal), atol=1e-12)

    def test_sampled_precondition_finds_the_meeting(self):
        with pytest.raises(InputError, match="sampling found a subspace point inside the set"):
            separate(oracle_by_name("offset-disk"), span_basis([np.array([1.0, 0.0])]))

    @pytest.mark.parametrize(
        "name,normal,calls",
        [("offset-box", [1.0, 2.0], 10_641), ("offset-disk", [1.0, 1.0], 10_469)],
        ids=["offset-box", "offset-disk"],
    )
    def test_membership_calls(self, name, normal, calls):
        # deterministic: 10,000 certificate samples, the two tangent searches
        # of the sector (636 calls on the box, 464 on the disk; 756 and 1,534
        # before their radial brackets opened at a predicted boundary) and
        # five witness and origin tests; the search pipeline made 654,119 and
        # 1,301,635 here
        fixture, made = oracle_by_name(name), []

        def counting(e):
            made.append(1)
            return fixture.membership(e)

        result = separate(OracleSet(2, counting, witness=fixture.witness), zero_subspace(2))
        assert result.certificate.valid
        np.testing.assert_allclose(result.hyperplane.normal, np.array(normal) / np.linalg.norm(normal), atol=1e-12)
        assert len(made) == calls


class TestExtendViaSeparation:
    def test_zero_functional(self):
        f = PartialFunctional(zero_subspace(3), np.zeros(0))
        slab = PolyhedralGauge(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.ones(2))
        state = extend_via_separation(f, slab)
        np.testing.assert_allclose(state.functional.as_coefficients(), np.zeros(3))
        assert state.violation == -1.0  # p*(0) - 1

    def test_halfspace_roundtrip_exact(self):
        domain = span_basis([np.array([1.0, -3.0, 0.0]), np.array([0.0, 0.0, 1.0])])
        values = np.array([float(u[0]) for u in domain.basis])
        f = PartialFunctional(domain, values)
        slab = PolyhedralGauge(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.ones(2))
        g = extend_via_separation(f, slab).functional.as_coefficients()
        np.testing.assert_allclose(g, [1.0, 0.0, 0.0], atol=1e-8)

    def test_disk_roundtrip_in_admissible_family(self):
        f = PartialFunctional(span_basis([np.array([1.0, 0.0])]), np.array([1.0]))
        g = extend_via_separation(f, TAXICAB).functional.as_coefficients()
        assert g[0] == pytest.approx(1.0, abs=1e-8)
        assert abs(g[1]) <= 1.0 + 1e-8

    def test_random_roundtrips(self):
        rng = np.random.default_rng(24)
        for trial in range(10):
            n = int(rng.integers(2, 5))
            p = random_polyhedral_gauge(rng, n)
            f, _ = dominated_functional(rng, p, int(rng.integers(1, n)))
            g = extend_via_separation(f, p, seed=trial).functional.as_coefficients()
            mismatch = np.max(np.abs(f.domain.basis @ g - f.values))
            assert mismatch < 1e-8

    def test_not_dominated_rejected(self):
        f = PartialFunctional(span_basis([np.array([1.0, 0.0])]), np.array([5.0]))
        with pytest.raises(InputError):
            extend_via_separation(f, TAXICAB)

    def test_state_carries_the_measured_violation(self):
        f = PartialFunctional(span_basis([np.array([1.0, 0.0])]), np.array([1.0]))
        state = extend_via_separation(f, TAXICAB, seed=3)
        assert state.domain.dim == 2
        assert state.seminorm is TAXICAB
        assert state.history == ()
        g = state.functional.as_coefficients()
        assert state.violation == domination_check(g, TAXICAB, seed=3)
