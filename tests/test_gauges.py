import json
import re

import numpy as np
import pytest

import gaugesep.gauges
from gaugesep import (
    BallConeGauge,
    ConicHullSet,
    ExplicitMaxAbs,
    HPolyhedron,
    InputError,
    OpenBall,
    OracleGauge,
    OracleSet,
    PolyhedralGauge,
    SeparationOptions,
    SymmetrizedBody,
    build_D,
    conic_hull,
    gauge,
    gauge_from_symmetrized,
    separate,
    unit_ball,
)
from gaugesep.cli import main, parse_problem
from gaugesep.fixtures import oracle_by_name

from helpers import (
    BisectionGauge,
    ball_pipeline_gauge_reference,
    point_in_cone,
    random_ball_instance,
    seminorm_axioms,
)

DISK = OpenBall(np.array([2.0, 0.0]), np.sqrt(2.0))
ANCHOR = np.array([1.0, 0.0])

# |x| + |y|: the gauge of the cross-polytope body (B - anchor) ∩ (anchor - B)
CROSS_ROWS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
CROSS_GAUGE = PolyhedralGauge(CROSS_ROWS, np.ones(4))


def oracle_disk_gauge() -> BisectionGauge:
    return BisectionGauge(build_D(DISK, ANCHOR))


class TestPolyhedralGauge:
    def test_taxicab_value_exact(self):
        assert gauge(CROSS_GAUGE, np.array([3.0, -4.0])) == 7.0

    def test_origin(self):
        assert gauge(CROSS_GAUGE, np.zeros(2)) == 0.0

    def test_slab_seminorm_kernel(self):
        slab = PolyhedralGauge(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.array([1.0, 1.0]))
        assert gauge(slab, np.array([0.0, 5.0, 7.0])) == 0.0
        assert gauge(slab, np.array([2.0, 5.0, 7.0])) == 2.0

    def test_offsets_must_be_positive(self):
        with pytest.raises(InputError):
            PolyhedralGauge(np.array([[1.0, 0.0]]), np.array([0.0]))


class TestOracleGauge:
    """The bisection reference gauge of ``tests/helpers``, which the
    membership-only paths of the package accept as an ``OracleGauge``."""

    def test_matches_taxicab_on_disk_body(self):
        p = oracle_disk_gauge()
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            e = rng.uniform(-10, 10, size=2)
            worst = max(worst, abs(gauge(p, e) - (abs(e[0]) + abs(e[1]))))
        assert worst < 1e-6

    def test_matches_cone_exit_reference(self):
        # independent oracle: closed-form exit roots of the cone quadratic
        rng = np.random.default_rng(1)
        for _ in range(25):
            ball, _ = random_ball_instance(rng, int(rng.integers(2, 5)))
            anchor = np.asarray(ball.center)
            p = BisectionGauge(build_D(ball, anchor))
            for _ in range(8):
                e = rng.normal(size=ball.dim) * 3
                expected = ball_pipeline_gauge_reference(ball, anchor, e)
                assert gauge(p, e) == pytest.approx(expected, rel=1e-7, abs=1e-9)

    def test_recession_direction_is_zero(self):
        halfspace = HPolyhedron(np.array([[-1.0, 0.0, 0.0]]), np.array([0.0]))
        p = BisectionGauge(build_D(halfspace, np.array([1.0, -3.0, 0.0])))
        assert gauge(p, np.array([0.0, 5.0, 7.0])) == 0.0

    def test_anchor_gauges_to_one(self):
        p = oracle_disk_gauge()
        assert gauge(p, ANCHOR) == pytest.approx(1.0, abs=1e-6)

    def test_origin(self):
        assert gauge(oracle_disk_gauge(), np.zeros(2)) == 0.0


class TestOracleSectionGauge:
    """Oracle gauges on searched conic hulls against the in-package closed
    forms of the same sets, at the witness and at an anchor in the hull but
    outside the set.  In 2-D ``gauge_from_symmetrized`` takes the hull's
    sector instead, so the search gauge is built directly."""

    OFFSET_BOX = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([4.0, 1.0, -2.0, 1.0]))

    @pytest.mark.parametrize(
        "name, closed_set, anchor",
        [
            ("offset-disk", DISK, [2.0, 0.0]),
            ("offset-disk", DISK, [0.5, 0.3]),
            ("offset-box", OFFSET_BOX, [3.0, 0.0]),
            ("offset-box", OFFSET_BOX, [1.5, 0.2]),
        ],
        ids=["disk-witness", "disk-outside-set", "box-witness", "box-outside-set"],
    )
    def test_matches_closed_form(self, name, closed_set, anchor):
        anchor, oracle = np.array(anchor), oracle_by_name(name)
        p = OracleGauge(SymmetrizedBody(ConicHullSet(oracle), anchor))
        # an anchor outside the set first moves along its ray into it
        assert (p._beta != 1.0) == (not oracle.contains(anchor))
        reference = gauge_from_symmetrized(build_D(closed_set, anchor))
        assert isinstance(reference, (BallConeGauge, PolyhedralGauge))
        points = np.random.default_rng(40).normal(size=(20, 2))
        np.testing.assert_allclose(gauge(p, points), gauge(reference, points), rtol=1e-9, atol=0.0)
        assert gauge(p, anchor) == pytest.approx(1.0, rel=1e-9)

    THIN_DISK = OpenBall(np.array([7.0, 0.0]), 0.07)  # r = 0.01 |c|
    HALF_PLANE = HPolyhedron(np.array([[-1.0, -2.0]]), np.array([-1.0]))  # x + 2y > 1
    HOLDS_ORIGIN = OpenBall(np.array([0.5, 0.0]), 1.0)

    @pytest.mark.parametrize(
        "closed_set, witness, anchor",
        [
            (DISK, [2.0, 0.0], [2.0, 0.0]),
            (DISK, [2.0, 0.0], [0.5, 0.3]),
            (OFFSET_BOX, [3.0, 0.0], [3.0, 0.0]),
            (OFFSET_BOX, [3.0, 0.0], [1.5, 0.2]),
            (THIN_DISK, [7.0, 0.0], [7.0, 0.0]),
            (THIN_DISK, [7.0, 0.0], [3.5, 0.01]),
            (HALF_PLANE, [1.0, 1.0], [1.0, 1.0]),
            (HALF_PLANE, [1.0, 1.0], [-4.0, 3.0]),
            (HOLDS_ORIGIN, [0.5, 0.0], [-3.0, 7.0]),
        ],
        ids=[
            "disk-witness",
            "disk-outside-set",
            "box-witness",
            "box-outside-set",
            "thin-disk-witness",
            "thin-disk-outside-set",
            "half-plane-witness",
            "half-plane-outside-set",
            "holds-origin",
        ],
    )
    def test_2d_hull_gives_the_sector_gauge(self, closed_set, witness, anchor):
        # every 2-D conic hull is a polyhedral cone: two rows, none for the plane
        anchor = np.array(anchor)
        oracle = OracleSet(2, closed_set.contains, witness=np.array(witness))
        p = gauge_from_symmetrized(build_D(oracle, anchor))
        assert isinstance(p, PolyhedralGauge)
        assert p.a.shape[0] == (0 if closed_set is self.HOLDS_ORIGIN else 4)
        reference = gauge_from_symmetrized(build_D(closed_set, anchor))
        points = np.random.default_rng(42).normal(size=(20, 2))
        np.testing.assert_allclose(gauge(p, points), gauge(reference, points), rtol=1e-9, atol=0.0)
        assert gauge(p, anchor) == pytest.approx(gauge(reference, anchor), rel=1e-9)

    def test_3d_ball_oracle_matches_closed_form(self):
        # one evaluation is two tangent searches: 484 membership calls, 1,652
        # before the radial brackets opened at a predicted boundary
        ball, made = OpenBall(np.array([3.0, 1.0, 0.5]), 1.0), []
        oracle = OracleSet(3, lambda e: made.append(1) or ball.contains(e), witness=np.array(ball.center))
        p = gauge_from_symmetrized(build_D(oracle, ball.center))
        reference = gauge_from_symmetrized(build_D(ball, ball.center))
        assert isinstance(p, OracleGauge) and isinstance(reference, BallConeGauge)
        e = np.array([0.3, -0.2, 0.9])
        made.clear()
        assert gauge(p, e) == pytest.approx(gauge(reference, e), rel=1e-9)
        assert len(made) == 484

    def test_anchor_on_the_witness_ray(self):
        # x = 3c lies on the witness's ray but outside the ball, so the gauge
        # moves it to beta x = c with beta = 1/3 and takes p_x = beta p_c
        ball = OpenBall(np.array([3.0, 1.0, 0.5]), 1.0)
        oracle = OracleSet(3, ball.contains, witness=np.array(ball.center))
        p = gauge_from_symmetrized(build_D(oracle, 3.0 * ball.center))
        reference = gauge_from_symmetrized(build_D(ball, 3.0 * ball.center))
        assert isinstance(p, OracleGauge) and isinstance(reference, BallConeGauge)
        assert p._beta == 1.0 / 3.0
        points = np.random.default_rng(43).normal(size=(4, 3))
        np.testing.assert_allclose(gauge(p, points), gauge(reference, points), rtol=1e-12, atol=0.0)

    def test_3d_base_holding_the_origin(self):
        # {|e| < 2} holds the origin, so its hull, and D, are the whole space
        oracle = OracleSet(3, lambda e: float(np.linalg.norm(e)) < 2.0, witness=np.array([1.0, 0.0, 0.0]))
        p = gauge_from_symmetrized(build_D(oracle, oracle.witness))
        assert isinstance(p, OracleGauge)
        for e in np.random.default_rng(44).normal(size=(3, 3)) * 5.0:
            assert gauge(p, e) == 0.0

    def test_halfspace_recession_direction(self):
        oracle = oracle_by_name("halfspace-x")
        p = gauge_from_symmetrized(build_D(oracle, oracle.witness))
        assert 0.0 <= gauge(p, np.array([0.0, 5.0, 7.0])) <= 1e-12
        assert gauge(p, np.array([2.0, 5.0, 7.0])) == pytest.approx(2.0, rel=1e-9)

    def test_base_holding_the_origin(self):
        # the hull, and every symmetrized body in it, is the whole space
        ball = OracleSet(2, lambda e: float(np.linalg.norm(e - [0.5, 0.0])) < 1.0, witness=np.array([0.5, 0.0]))
        p = gauge_from_symmetrized(build_D(ball, np.array([-3.0, 7.0])))
        for e in np.random.default_rng(41).normal(size=(10, 2)) * 5.0:
            assert conic_hull(ball).contains(e)
            assert gauge(p, e) == 0.0


class TestExplicitMaxAbs:
    def test_single_row_exact_homogeneity(self):
        p = ExplicitMaxAbs(np.array([[1.0, 0.0]]))
        e = np.array([0.3, 9.9])
        assert gauge(p, 4.0 * e) == 4.0 * gauge(p, e)

    def test_value(self):
        p = ExplicitMaxAbs(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert gauge(p, np.array([3.0, -4.0])) == 8.0

    def test_is_the_symmetric_polyhedral_gauge(self):
        p = ExplicitMaxAbs(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert isinstance(p, PolyhedralGauge)
        np.testing.assert_array_equal(p.a, [[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0], [0.0, -2.0]])
        np.testing.assert_array_equal(p.b, np.ones(4))


class TestGaugeFromSymmetrized:
    def test_polyhedral_fast_path(self):
        halfspace = HPolyhedron(np.array([[-1.0, 0.0, 0.0]]), np.array([0.0]))
        p = gauge_from_symmetrized(build_D(halfspace, np.array([1.0, -3.0, 0.0])))
        assert isinstance(p, PolyhedralGauge)
        assert gauge(p, np.array([0.0, 5.0, 7.0])) == 0.0  # seminorm, not a norm
        assert gauge(p, np.array([1.0, -3.0, 0.0])) == 1.0  # anchor normalizes exactly

    def test_ball_uses_closed_form(self):
        p = gauge_from_symmetrized(build_D(DISK, ANCHOR))
        assert isinstance(p, BallConeGauge)
        assert unit_ball(p) is p.body

    def test_anchor_normalization_polyhedral_exact(self):
        rng = np.random.default_rng(2)
        from helpers import random_polytope_instance

        for _ in range(20):
            poly, _ = random_polytope_instance(rng, int(rng.integers(2, 5)))
            from gaugesep import pick_interior_point

            x = pick_interior_point(poly)
            p = gauge_from_symmetrized(build_D(poly, x))
            assert gauge(p, x) == 1.0


class TestAnchorOutsideTheComputedCone:
    """The three "anchor is not strictly inside the base cone" raises: the
    anchor passes the hull's membership test, but not the gauge's own."""

    def test_2d_sector_misses_an_anchor_on_the_hull_by_a_hair(self):
        # the sector's edges are the inner tangents of the hull's searches,
        # so an anchor 1.5e-15 inside the tangent |y| = x of offset-disk is in
        # the hull but not in its sector; one 1.5e-14 inside is in both
        x = np.array([1.0, 1.0 - 1.5e-15])
        body = build_D(oracle_by_name("offset-disk"), x)
        with pytest.raises(InputError) as info:
            gauge_from_symmetrized(body)
        assert str(info.value) == "anchor is not strictly inside the base cone"
        gauge_from_symmetrized(build_D(oracle_by_name("offset-disk"), np.array([1.0, 1.0 - 1.5e-14])))

    def test_ball_cone_anchor_whose_depth_underflows(self):
        # 1e-16 inside the tangent of the cone over the disk at (2, 0) of
        # radius 1: the membership test sees r^2 - |c_off|^2 > 0, but the
        # gauge's |x|^2 (r^2 - |c_off|^2) underflows to 0 at |x| = 1e-155
        ball = OpenBall(np.array([2.0, 0.0]), 1.0)
        x = np.array([8.660254037844388e-156, 5e-156])
        with pytest.raises(InputError) as info:
            gauge_from_symmetrized(build_D(ball, x))
        assert str(info.value) == "anchor is not strictly inside the base cone"
        assert isinstance(gauge_from_symmetrized(build_D(ball, x * 1e155)), BallConeGauge)

    def test_oracle_chord_leaves_a_nonconvex_base(self):
        # a ball with a hooked arm, not convex: the tangent search reaches the
        # hook's corner M, and the chord from the witness to M leaves the
        # set, so the anchor moved along its ray onto that chord is outside
        def hooked(e):
            ball = np.linalg.norm(e - np.array([3.0, 0.0, 0.0])) < 0.5
            arm = abs(e[0] - 3.0) < 0.1 and -0.1 < e[1] < 2.1 and abs(e[2]) < 0.1
            hook = 1.5 < e[0] < 3.1 and abs(e[1] - 2.0) < 0.1 and abs(e[2]) < 0.1
            return bool(ball or arm or hook)

        oracle = OracleSet(3, hooked, witness=np.array([3.0, 0.0, 0.0]))
        x = np.array([1.4475, 0.925, 0.0])  # half the chord's point (2.895, 1.85, 0)
        with pytest.raises(InputError) as info:
            gauge_from_symmetrized(build_D(oracle, x))
        assert str(info.value) == "anchor is not strictly inside the base cone"


class TestBallConeGauge:
    def test_anchor_whose_square_underflows(self):
        # the cone over the disk at (2, 0) of radius 1 holds x = (1e-170, 0),
        # but |x|^2 underflows to 0, and the gauge divides by it
        body = build_D(OpenBall(np.array([2.0, 0.0]), 1.0), np.array([1e-170, 0.0]))
        with pytest.raises(InputError) as info:
            gauge_from_symmetrized(body)
        assert re.fullmatch(
            r"anchor too short for the ball-cone gauge: \|x\|\^2 underflows to 0 \(\|x\| = 1e-170\)", str(info.value)
        )

    def test_matches_tight_bisection(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for n in range(2, 9):
            for _ in range(3):
                ball, _ = random_ball_instance(rng, n)
                for anchor in (np.asarray(ball.center), point_in_cone(rng, ball), point_in_cone(rng, ball)):
                    body = build_D(ball, anchor)
                    closed, bisection = BallConeGauge(body), BisectionGauge(body)
                    for e in rng.normal(size=(8, n)) * rng.uniform(0.01, 100.0):
                        expected = gauge(bisection, e)
                        worst = max(worst, abs(gauge(closed, e) - expected) / expected)
        assert worst < 1e-9

    def test_anchor_and_apex_rays(self):
        rng = np.random.default_rng(12)
        for n in range(2, 9):
            ball, _ = random_ball_instance(rng, n)
            x = point_in_cone(rng, ball)
            p = BallConeGauge(build_D(ball, x))
            assert gauge(p, x) == 1.0
            # rounding leaves k x a few ulps off the apex ray, which a thin
            # body's steep gauge amplifies
            for k in (-1e4, -3.0, -1.0, -1e-3, 0.5, 2.0, 1e6):
                assert gauge(p, k * x) == pytest.approx(abs(k), rel=1e-12)

    def test_thin_cone_matches_high_precision_roots(self):
        # r = 1e-6 |c|: in doubles (x.c)^2 - k |x|^2 cancels to about 1e-8
        # out of two terms near 1.2e4; the reference solves the same exit
        # quadratic in 60 digits
        mp = pytest.importorskip("mpmath")
        c, r = np.array([10.0, 3.0, -1.0]), 1e-5
        p = BallConeGauge(build_D(OpenBall(c, r), c))

        def exact(e):
            with mp.workdps(60):
                dot = lambda u, w: sum(mp.mpf(float(a)) * mp.mpf(float(b)) for a, b in zip(u, w))
                k = dot(c, c) - mp.mpf(r) ** 2
                qa, qc = dot(e, c) ** 2 - k * dot(e, e), dot(c, c) ** 2 - k * dot(c, c)
                half_qb = dot(c, c) * dot(e, c) - k * dot(c, e)
                return float((abs(half_qb) + mp.sqrt(half_qb**2 - qa * qc)) / qc)

        for e in np.random.default_rng(14).normal(size=(5, 3)):
            assert abs(gauge(p, e) - exact(e)) <= 1e-12 * exact(e)

    def test_origin_on_the_sphere_gives_the_halfspace_gauge(self):
        c = np.array([3.0, 4.0])  # |c| = r: the hull is the half-space e.c > 0
        x = np.array([1.0, 2.0])
        p = gauge_from_symmetrized(build_D(OpenBall(c, 5.0), x))
        for e in np.random.default_rng(13).normal(size=(50, 2)):
            assert gauge(p, e) == abs(e @ c) / (x @ c)
        assert gauge(p, np.array([4.0, -3.0])) == 0.0

    def test_origin_inside_the_ball_gives_zero(self):
        p = gauge_from_symmetrized(build_D(OpenBall(np.array([0.5, 0.0]), 1.0), np.array([-0.2, 0.3])))
        assert gauge(p, np.array([7.0, -3.0])) == 0.0

    def test_rejects_other_bodies(self):
        halfspace = HPolyhedron(np.array([[-1.0, 0.0]]), np.array([0.0]))
        with pytest.raises(InputError):
            BallConeGauge(build_D(halfspace, np.array([1.0, 0.0])))

    @pytest.mark.parametrize("center, radius", [([3.0, 4.0], 5.0), ([0.5, 0.0], 1.0)], ids=["tangent", "inside"])
    def test_rejects_cones_that_are_not_pointed(self, center, radius):
        # the origin on or inside the ball: gauge_from_symmetrized builds a
        # polyhedral gauge instead
        body = build_D(OpenBall(np.array(center), radius), np.array([1.0, 2.0]))
        assert isinstance(gauge_from_symmetrized(body), PolyhedralGauge)
        with pytest.raises(InputError, match="origin outside the closed ball"):
            BallConeGauge(body)


class TestBallConePolar:
    """The closed-form polar ``p*(psi) = max(|psi.x|, sqrt(psi^T Q psi))``
    against sampled ratios ``psi.e / p(e)`` and its own maximizer."""

    @staticmethod
    def gauges(n):
        rng = np.random.default_rng(30 + n)
        for scale in (1e-6, 1.0, 1e6):
            ball, _ = random_ball_instance(rng, n)
            ball = OpenBall(np.asarray(ball.center) * scale, ball.radius * scale)
            for x in (np.asarray(ball.center), point_in_cone(rng, ball), point_in_cone(rng, ball)):
                yield rng, scale, BallConeGauge(build_D(ball, x))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sampled_ratio_never_exceeds_polar(self, n):
        for rng, scale, p in self.gauges(n):
            dirs = rng.normal(size=(100_000, n))
            values = gauge(p, dirs)
            for psi in rng.normal(size=(3, n)) / scale:
                polar, _ = p.polar(psi)
                assert float(np.max((dirs @ psi) / values)) <= polar * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_maximizer_attains_polar(self, n):
        for rng, scale, p in self.gauges(n):
            x = p.body.anchor
            # random functionals, plus ones on the apex side (|psi.x| >= R)
            for psi in list(rng.normal(size=(20, n)) / scale) + [x / float(x @ x), -2.0 * x / float(x @ x)]:
                polar, e = p.polar(psi)
                assert gauge(p, e) == pytest.approx(1.0, abs=1e-12)
                assert float(psi @ e) == pytest.approx(polar, rel=1e-12)


class TestEllipsoidSlice:
    def test_inconsistent_rows_give_none(self):
        # psi . e1 = 1 and psi . e1 = 2 have no common point
        rows, values = np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0])
        assert gaugesep.gauges._ellipsoid_slice_max(np.eye(2), rows, values, np.array([0.0, 1.0])) is None


class TestBatchEvaluation:
    @pytest.mark.parametrize(
        "make",
        [lambda: CROSS_GAUGE, lambda: gauge_from_symmetrized(build_D(DISK, ANCHOR)), oracle_disk_gauge],
        ids=["polyhedral", "ball-cone", "oracle"],
    )
    def test_batch_equals_rows(self, make):
        p = make()
        points = np.random.default_rng(14).normal(size=(40, 2)) * 5.0
        values = gauge(p, points)
        assert values.shape == (40,)
        # a matrix product may sum in another order than a matrix-vector one
        np.testing.assert_allclose(values, [gauge(p, e) for e in points], rtol=1e-12, atol=0.0)
        assert gauge(p, np.zeros((0, 2))).shape == (0,)

    def test_batch_rejects_wrong_width(self):
        with pytest.raises(InputError):
            gauge(CROSS_GAUGE, np.ones((3, 3)))


class TestNoBisectionOnBallPaths:
    """Ball pipelines must never evaluate an OracleGauge; a re-wrap of the
    closed-form gauge in one would otherwise only show as time."""

    @pytest.fixture(autouse=True)
    def forbid_oracle_gauges(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an OracleGauge was evaluated on a ball path")

        monkeypatch.setattr(OracleGauge, "_value", fail)

    def test_oracle_gauge_rejects_a_ball_body(self):
        with pytest.raises(InputError, match="conic hull"):
            OracleGauge(build_D(OpenBall(np.array([2.0, 0.0]), 1.0), np.array([2.0, 0.0])))

    def test_separate_bundled_disk(self):
        problem = parse_problem("example1")
        result = separate(problem.a_set, problem.s, SeparationOptions(x=problem.x))
        assert result.certificate.valid

    def test_separate_3d_ball(self):
        ball, s = random_ball_instance(np.random.default_rng(15), 3)
        result = separate(ball, s)
        assert result.steps
        assert result.certificate.valid
        # exact n-D oracle: the admissible normals are {n ⊥ S : |n.c| >= r |n|}
        normal = np.asarray(result.hyperplane.normal)
        assert abs(normal @ np.asarray(ball.center)) >= ball.radius * (1.0 - 1e-9)

    def test_cli_gauge(self, capsys):
        assert main(["gauge", "--input", "example1", "--point", "3,-4"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(7.0, rel=1e-12)


class TestUnitBallCharacterization:
    def test_inside_iff_gauge_below_one(self):
        p = oracle_disk_gauge()
        body = unit_ball(p)
        rng = np.random.default_rng(3)
        for _ in range(300):
            e = rng.uniform(-2, 2, size=2)
            value = gauge(p, e)
            if value < 1.0 - 1e-7:
                assert body.contains(e)
            elif value > 1.0 + 1e-7:
                assert not body.contains(e)

    def test_polyhedral_ball_roundtrip(self):
        ball = unit_ball(CROSS_GAUGE)
        assert isinstance(ball, HPolyhedron)
        assert ball.contains(np.array([0.4, 0.5]))
        assert not ball.contains(np.array([0.6, 0.5]))

    def test_explicit_ball(self):
        ball = unit_ball(ExplicitMaxAbs(np.array([[1.0, 0.0]])))
        assert ball.contains(np.array([0.5, 100.0]))
        assert not ball.contains(np.array([1.5, 0.0]))


class TestContinuityProxy:
    def test_triangle_inequality_corollary(self):
        p = oracle_disk_gauge()
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = rng.uniform(-5, 5, size=2)
            v = rng.uniform(-5, 5, size=2)
            assert abs(gauge(p, u) - gauge(p, v)) <= gauge(p, u - v) + 1e-7


class TestAxiomChecker:
    def test_closed_form_is_exact(self):
        homog, subadd, agreements, checked = seminorm_axioms(CROSS_GAUGE, seed=0, trials=1000)
        assert homog < 1e-12
        assert subadd < 1e-12
        assert agreements == checked

    def test_oracle_gauge_within_tolerance(self):
        homog, subadd, agreements, checked = seminorm_axioms(oracle_disk_gauge(), seed=0, trials=300)
        assert homog < 1e-7
        assert subadd < 1e-7
        assert agreements == checked

    def test_explicit_single_row(self):
        homog, subadd, _, _ = seminorm_axioms(ExplicitMaxAbs(np.array([[1.0, 0.0]])), seed=1, trials=500)
        assert homog < 1e-12
        assert subadd < 1e-12

    def test_deterministic(self):
        assert seminorm_axioms(CROSS_GAUGE, seed=5, trials=100) == seminorm_axioms(CROSS_GAUGE, seed=5, trials=100)

    def test_flags_non_seminorm(self):
        # a non-balanced body: max(0, x) is not absolutely homogeneous
        lopsided = PolyhedralGauge(np.array([[1.0, 0.0]]), np.array([1.0]))
        homog, _, _, _ = seminorm_axioms(lopsided, seed=0, trials=500)
        assert homog > 0.1
