import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugesep.convexsets as convexsets
import gaugesep.gauges as gauges
import gaugesep.separation as separation
from gaugesep import (
    BallCone,
    ConicHullSet,
    EmptySetError,
    HPolyhedron,
    InputError,
    OpenBall,
    OracleSet,
    SolverError,
    SymmetrizedBody,
    build_D,
    chebyshev_center,
    conic_hull,
    conic_hull_membership,
    pick_interior_point,
    sample_interior,
    separate,
    solve_lp,
    span_basis,
)
from gaugesep.convexsets import MIN_DEPTH, _hull_rows, _inscribed_ball
from gaugesep.fixtures import oracle_by_name
from gaugesep.simplexlp import LPResult

from helpers import (
    axis_box,
    bundled,
    conic_hull_rows,
    many_facet_polytope,
    random_instance,
    random_polytope_instance,
    record_lps,
    rotated_box,
)

DISK = OpenBall(np.array([2.0, 0.0]), np.sqrt(2.0))
HALFSPACE = HPolyhedron(np.array([[-1.0, 0.0, 0.0]]), np.array([0.0]))


def in_disk_cone(e):
    # hand-derived hull of the offset disk: {x > 0, |y| < x}
    return e[0] > 0 and abs(e[1]) < e[0]


class TestContains:
    def test_disk_center(self):
        assert DISK.contains(np.array([2.0, 0.0]))

    def test_origin_outside_disk(self):
        # (0-2)^2 + 0 = 4 > 2
        assert not DISK.contains(np.array([0.0, 0.0]))

    def test_halfspace_witness(self):
        assert HALFSPACE.contains(np.array([1.0, -3.0, 0.0]))

    def test_strictness_on_boundary(self):
        assert not HALFSPACE.contains(np.array([0.0, 1.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            DISK.contains(np.array([1.0, 0.0, 0.0]))

    def test_membership_convexity_spot_check(self):
        rng = np.random.default_rng(0)
        for a_set in (DISK, HALFSPACE):
            pts = sample_interior(a_set, 500, seed=1)
            for _ in range(500):
                u, v = pts[rng.integers(len(pts))], pts[rng.integers(len(pts))]
                for lam in (0.25, 0.5, 0.75):
                    assert a_set.contains(lam * u + (1 - lam) * v)


class TestConicHullMembership:
    def test_disk_cone_examples(self):
        assert conic_hull_membership(DISK, np.array([2.0, 1.0]))
        assert not conic_hull_membership(DISK, np.array([1.0, 2.0]))
        # the stored radius is fl(sqrt(2)), so the exact boundary ray sits
        # inside a ~1e-16 band; test it from a band's distance away
        assert not conic_hull_membership(DISK, np.array([1.0, 1.0 + 1e-9]))
        assert conic_hull_membership(DISK, np.array([1.0, 1.0 - 1e-9]))

    def test_a_conic_hull_is_its_own_hull(self):
        for cone in (conic_hull(DISK), conic_hull(oracle_by_name("offset-disk"))):
            assert isinstance(cone, (BallCone, ConicHullSet))
            assert conic_hull(cone) is cone

    def test_ball_cone_at_every_scale(self):
        # e @ e underflows to 0 at |e| = 1e-170 and overflows at 1e300; the
        # exact rescale gives each power-of-two multiple its unit-scale answer
        cone = conic_hull(OpenBall(np.array([2.0, 0.0]), 1.0))
        assert cone.contains(np.array([1e-170, 0.0]))
        assert cone.contains(np.array([1e300, 0.0]))
        rng = np.random.default_rng(8)
        for e in rng.normal(size=(200, 2)):
            want = cone.contains(e)
            assert [cone.contains(e * 2.0**k) for k in (-1000, -560, -10, 520, 1000)] == [want] * 5

    def test_halfspace_cone_is_itself(self):
        assert conic_hull_membership(HALFSPACE, np.array([5.0, 9.0, -3.0]))
        assert not conic_hull_membership(HALFSPACE, np.array([-1.0, 2.0, 2.0]))

    def test_origin_never_in_hull_of_origin_free_set(self):
        assert not conic_hull_membership(DISK, np.zeros(2))
        assert not conic_hull_membership(HALFSPACE, np.zeros(3))

    def test_origin_in_hull_when_set_contains_it(self):
        ball = OpenBall(np.array([0.5, 0.0]), 1.0)
        assert conic_hull_membership(ball, np.zeros(2))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            e = rng.normal(size=2) * 3
            alpha = rng.uniform(1e-3, 10.0)
            assert conic_hull_membership(DISK, e) == conic_hull_membership(DISK, alpha * e)

    def test_disk_cone_matches_hand_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            e = rng.uniform(-3, 3, size=2)
            if abs(abs(e[1]) - e[0]) < 1e-9:
                continue
            assert conic_hull_membership(DISK, e) == in_disk_cone(e)

    def test_closed_form_agrees_with_search_on_polyhedron(self):
        # square whose hull is the same wedge as the disk's; the reference is
        # the plane-section search on the same square behind an oracle
        square = HPolyhedron(
            np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]]),
            np.array([-1.0, 3.0, 1.0, 1.0]),
        )
        closed = conic_hull(square)
        searched = conic_hull(OracleSet(2, square.contains, witness=np.array([2.0, 0.0])))
        rng = np.random.default_rng(4)
        for _ in range(200):
            e = rng.uniform(-3, 3, size=2)
            if abs(abs(e[1]) - e[0]) < 1e-9 or np.linalg.norm(e) < 1e-9:
                continue  # the boundary rays, to rounding
            member = searched.contains(e)
            assert type(member) is bool
            assert member == closed.contains(e)

    def test_closed_form_agrees_with_search_on_ball(self):
        closed = conic_hull(DISK)
        searched = conic_hull(OracleSet(2, DISK.contains, witness=np.asarray(DISK.center)))
        rng = np.random.default_rng(5)
        for _ in range(200):
            e = rng.uniform(-3, 3, size=2)
            if abs(abs(e[1]) - e[0]) < 1e-9 or np.linalg.norm(e) < 1e-9:
                continue
            member = searched.contains(e)
            assert type(member) is bool
            assert member == closed.contains(e)

    def test_registry_oracles_just_inside_their_hulls(self):
        # 1% and 2% inside the tangent rays |y| = x and |y| = x / 2
        assert conic_hull_membership(oracle_by_name("offset-disk"), np.array([1.0, 0.99])) is True
        assert conic_hull_membership(oracle_by_name("offset-box"), np.array([2.0, 0.98])) is True
        assert conic_hull_membership(oracle_by_name("offset-box"), np.array([2.0, 1.02])) is False

    def test_oracle_path_uses_search(self):
        oracle = OracleSet(2, lambda e: float(np.linalg.norm(e - [2.0, 0.0])) < np.sqrt(2.0), witness=np.array([2.0, 0.0]))
        assert conic_hull_membership(oracle, np.array([2.0, 1.0]))
        assert not conic_hull_membership(oracle, np.array([1.0, 2.0]))


def assert_rows_rebuilt_from_sources(poly: HPolyhedron) -> None:
    """Each row of ``_hull_rows`` is ``b_j a_i - b_i a_j`` of its sources,
    with j = m standing for the row (0, 1), and no row is zero: a_i alone
    for each b_i <= 0 in order, cross rows only for b_i < 0 < b_j."""
    rows, i, j = _hull_rows(poly.a, poly.b)
    m = poly.b.size
    a, b = np.vstack([poly.a, np.zeros(poly.dim)]), np.append(poly.b, 1.0)
    assert np.array_equal(rows, b[j, None] * a[i] - b[i, None] * a[j]) and rows.any(axis=1).all()
    assert np.all(b[i] <= 0.0) and np.all((j == m) | ((b[i] < 0.0) & (b[j] > 0.0)))
    assert np.array_equal(i[j == m], np.flatnonzero(poly.b <= 0.0))  # HPolyhedron has no zero row


class TestConicHullSets:
    def test_polyhedral_hull_rows(self):
        square = HPolyhedron(
            np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]]),
            np.array([-1.0, 3.0, 1.0, 1.0]),
        )
        hull = conic_hull(square)
        assert isinstance(hull, HPolyhedron)
        np.testing.assert_allclose(hull.b, 0.0, atol=1e-15)
        # integer data makes the wedge exact: the boundary ray is excluded
        assert not hull.contains(np.array([1.0, 1.0]))
        rng = np.random.default_rng(6)
        for _ in range(500):
            e = rng.uniform(-3, 3, size=2)
            if abs(abs(e[1]) - e[0]) < 1e-9:
                continue
            assert hull.contains(e) == in_disk_cone(e)

    @pytest.mark.parametrize("seed", range(3))
    def test_box_hull_rows_match_pairwise_loop(self, seed):
        rng = np.random.default_rng(seed)
        for box in (rotated_box(rng, 4), rotated_box(rng, 9), axis_box(rng, 20)):
            poly = box.polyhedron()
            hull = conic_hull(poly)
            assert np.array_equal(hull.a, conic_hull_rows(poly)) and not hull.b.any()
            assert_rows_rebuilt_from_sources(poly)

    @pytest.mark.parametrize(
        "offsets",
        [[0.0, 2.0, -1.0, 0.0, 1.5], [1.0, 2.0, 0.5, 3.0, 1.5], [-1.0, -2.0, -0.5, -3.0, -1.5]],
        ids=["zero-offsets", "no-nonpositive", "only-negative"],
    )
    def test_hull_rows_match_pairwise_loop(self, offsets):
        poly = HPolyhedron(np.random.default_rng(4).normal(size=(5, 3)), np.array(offsets))
        hull = conic_hull(poly)
        assert np.array_equal(hull.a, conic_hull_rows(poly)) and hull.a.shape[1] == 3
        assert_rows_rebuilt_from_sources(poly)

    def test_zero_cross_row_is_dropped(self):
        # e1 < 1 and -e1 < -1 (an empty slab): their cross row 1 (-e1) - (-1) e1
        # is exactly zero; HPolyhedron refuses zero rows, so _hull_rows drops it
        poly = HPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0, 1.0]))
        rows, i, j = _hull_rows(poly.a, poly.b)
        assert np.array_equal(rows, [[-1.0, 0.0], [-1.0, 1.0]]) and i.tolist() == [1, 1] and j.tolist() == [3, 2]
        assert np.array_equal(conic_hull(poly).a, conic_hull_rows(poly))
        assert_rows_rebuilt_from_sources(poly)

    def test_halfspace_hull_is_halfspace(self):
        hull = conic_hull(HALFSPACE)
        assert isinstance(hull, HPolyhedron)
        rng = np.random.default_rng(7)
        for _ in range(200):
            e = rng.normal(size=3) * 4
            assert hull.contains(e) == (e[0] > 0)

    def test_hull_avoids_subspace_when_set_does(self):
        rng = np.random.default_rng(8)
        trials = 0
        while trials < 1000:
            a_set, s = random_instance(rng, int(rng.integers(2, 5)))
            if s.dim == 0:
                continue
            coords = rng.uniform(-10, 10, size=s.dim)
            point = coords @ s.basis
            assert not conic_hull_membership(a_set, point)
            trials += 1


def _triangle(vertices) -> HPolyhedron:
    """The open triangle with these vertices, one row per edge."""
    v = np.asarray(vertices, dtype=float)
    rows = [np.array([q[1] - p[1], p[0] - q[0]]) for p, q in zip(v, np.roll(v, -1, axis=0))]
    rows = [-r if r @ (v.mean(axis=0) - p) > 0.0 else r for r, p in zip(rows, v)]
    return HPolyhedron(np.array(rows), np.array([r @ p for r, p in zip(rows, v)]))


def _ellipse_slopes(cx, cy, p, q) -> tuple[float, float]:
    """Slopes of the two origin lines tangent to ((x - cx)/p)^2 + ((y - cy)/q)^2 = 1:
    the roots of m^2 (cx^2 - p^2) - 2 cx cy m + cy^2 - q^2 = 0."""
    a, b, c = cx * cx - p * p, -2.0 * cx * cy, cy * cy - q * q
    root = np.sqrt(b * b - 4.0 * a * c)
    return (-b + root) / (2.0 * a), (-b - root) / (2.0 * a)


class TestTangentSearch:
    """``ConicHullSet._tangent`` against closed-form tangents from the origin.
    The angle returned is a tested member's, so it lies below the true
    tangent (up to the predicate's rounding, 1e-15 here), and within 1e-12
    rad of it; on the half-plane the search stops at ``_SECTION_CAP``."""

    TRIANGLE = [[2.0, -1.0], [5.0, 0.5], [2.5, 2.0]]
    ELLIPSE = (3.0, 1.0, 1.5, 0.8)  # centre, then semi-axes along x and y

    @staticmethod
    def tangents(contains, witness) -> list[tuple[float, int]]:
        """(angle, membership calls) of the upper and the lower tangent
        about the witness, in the plane's own angle from it."""
        w, made = np.asarray(witness, dtype=float), []
        hull = convexsets.ConicHullSet(OracleSet(2, lambda e: made.append(1) or contains(e), witness=w))
        out = []
        for sign in (1.0, -1.0):
            made.clear()
            out.append((hull._tangent(w, sign * np.array([-w[1], w[0]]))[0], len(made)))
        return out

    @staticmethod
    def counted_hull(name: str):
        """The hull of a registry oracle, and the list its predicate calls
        append to, emptied of the hull's own construction calls."""
        oracle, made = oracle_by_name(name), []
        hull = convexsets.ConicHullSet(OracleSet(oracle.dim, lambda e: made.append(1) or oracle.contains(e), witness=oracle.witness))
        made.clear()
        return hull, made

    def check(self, contains, witness, upper, lower):
        """``upper`` and ``lower`` are the polar angles of the true tangents."""
        turn = np.arctan2(witness[1], witness[0])
        for (angle, _), truth in zip(self.tangents(contains, witness), (upper - turn, turn - lower)):
            assert -1e-15 <= truth - angle <= 1e-12, (truth, angle)

    @pytest.mark.parametrize("center,radius", [((2.0, 0.0), np.sqrt(2.0)), ((3.0, 4.0), 1.0)])
    def test_disk(self, center, radius):
        disk = OpenBall(np.array(center), radius)
        turn, half = np.arctan2(center[1], center[0]), np.arcsin(radius / np.hypot(*center))
        self.check(disk.contains, center, turn + half, turn - half)

    @pytest.mark.parametrize(
        "offsets,witness,corners",
        [
            ([4.0, 1.0, -2.0, 1.0], (3.0, 0.0), [(2.0, 1.0), (2.0, -1.0)]),
            ([3.0, 2.0, -1.0, -0.5], (2.0, 1.25), [(1.0, 2.0), (3.0, 0.5)]),
        ],
        ids=["offset-box", "off-axis"],
    )
    def test_axis_box_corners(self, offsets, witness, corners):
        box = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array(offsets))
        (ux, uy), (lx, ly) = corners
        self.check(box.contains, witness, np.arctan2(uy, ux), np.arctan2(ly, lx))

    def test_ellipse(self):
        cx, cy, p, q = self.ELLIPSE
        upper, lower = _ellipse_slopes(cx, cy, p, q)

        def contains(e):
            return ((e[0] - cx) / p) ** 2 + ((e[1] - cy) / q) ** 2 < 1.0

        self.check(contains, (cx, cy), np.arctan(upper), np.arctan(lower))

    def test_triangle_kink(self):
        triangle = _triangle(self.TRIANGLE)
        polar = [np.arctan2(y, x) for x, y in self.TRIANGLE]
        self.check(triangle.contains, np.mean(self.TRIANGLE, axis=0), max(polar), min(polar))

    def test_half_plane_section_stops_at_the_cap(self):
        # x + 2y > 1: the hull is the open half-plane x + 2y > 0, whose edges
        # no member reaches; the cap leaves about 4e-13 rad below each
        half_plane = HPolyhedron(np.array([[-1.0, -2.0]]), np.array([-1.0]))
        self.check(half_plane.contains, (1.0, 1.0), np.pi - np.arctan(0.5), -np.arctan(0.5))

    @pytest.mark.parametrize("name,calls", [("offset-disk", 232), ("offset-box", 318)])
    def test_calls_per_tangent(self, name, calls):
        # deterministic; 767 and 378 before each probe's radial bracket
        # opened at the boundary predicted from the retired probes
        oracle = oracle_by_name(name)
        assert [made for _, made in self.tangents(oracle.contains, oracle.witness)] == [calls, calls]

    @pytest.mark.parametrize(
        "contains,witness,calls",
        [
            (lambda e: e[0] > 0.0, (1.0, -3.0), [1665, 1077]),
            (lambda e: e[0] + 2.0 * e[1] > 1.0, (1.0, 1.0), [603, 654]),
        ],
        ids=["flat-top", "section-cap"],
    )
    def test_calls_per_tangent_off_smooth_sections(self, contains, witness, calls):
        # deterministic: {e1 > 0} ends each search in the _FLAT tie, and the
        # capped half-plane x + 2y > 1 opens its probes at _SECTION_CAP
        assert [made for _, made in self.tangents(contains, witness)] == calls

    def test_calls_per_tangent_in_a_3d_section(self):
        # the halfspace-x section through its witness in the plane e3 = 0 is
        # the 2-D flat-top lower search
        hull, made = self.counted_hull("halfspace-x")
        hull._tangent(hull._witness, np.array([-3.0, -1.0, 0.0]))
        assert len(made) == 1077

    @pytest.mark.parametrize("point,member,calls", [((1.0, 0.9), True, 16), ((1.0, 0.5), True, 6), ((1.0, 1.2), False, 232)])
    def test_member_calls_end_at_the_stop(self, point, member, calls):
        # a member's search ends once a tested member's angle reaches the
        # point's; a non-member's runs the whole search
        hull, made = self.counted_hull("offset-disk")
        assert hull.contains(np.array(point)) is member
        assert len(made) == calls


class TestBuildD:
    def test_disk_cross_polytope(self):
        body = build_D(DISK, np.array([1.0, 0.0]))
        assert body.contains(np.array([0.5, 0.4]))
        assert not body.contains(np.array([0.5, 0.6]))

    def test_halfspace_slab(self):
        body = build_D(HALFSPACE, np.array([1.0, -3.0, 0.0]))
        assert body.contains(np.array([0.9, 100.0, -100.0]))
        assert not body.contains(np.array([1.1, 0.0, 0.0]))

    def test_origin_always_member(self):
        for a_set, x in ((DISK, np.array([1.0, 0.0])), (HALFSPACE, np.array([1.0, -3.0, 0.0]))):
            assert build_D(a_set, x).contains(np.zeros(a_set.dim))

    def test_anchor_outside_hull_rejected(self):
        with pytest.raises(InputError):
            build_D(DISK, np.array([-1.0, 0.0]))

    def test_balanced_and_convex_sampled(self):
        rng = np.random.default_rng(9)
        body = build_D(DISK, np.array([1.0, 0.0]))
        members = []
        while len(members) < 60:
            e = rng.uniform(-1, 1, size=2)
            if body.contains(e):
                members.append(e)
        for _ in range(1000):
            u = members[rng.integers(len(members))]
            v = members[rng.integers(len(members))]
            assert body.contains(-u)
            assert body.contains(0.5 * (u + v))

    @given(st.floats(-0.99, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_anchor_segment_inside(self, t):
        # every t*anchor with |t| < 1 lies in the symmetrized body
        body = build_D(DISK, np.array([1.0, 0.0]))
        assert body.contains(t * np.asarray(body.anchor))


class TestPickInteriorPoint:
    def test_ball_center(self):
        np.testing.assert_allclose(pick_interior_point(DISK), [2.0, 0.0])

    def test_unbounded_polyhedron_gets_its_capped_center(self):
        # {e1 > 0} holds balls of every radius: the LP stops at r = 1, and
        # the anchor is the simplex vertex at that depth
        point = pick_interior_point(HALFSPACE)
        np.testing.assert_array_equal(point, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(point, chebyshev_center(HALFSPACE)[0])

    def test_boxed_halfspace_center(self):
        rows = [[-1.0, 0.0, 0.0]]
        offs = [0.0]
        for j in range(3):
            e = [0.0, 0.0, 0.0]
            e[j] = 1.0
            rows.append(list(e))
            offs.append(10.0)
            rows.append([-v for v in e])
            offs.append(10.0)
        center = pick_interior_point(HPolyhedron(np.array(rows), np.array(offs)))
        assert center[0] == pytest.approx(5.0, abs=1e-6)

    def test_empty_polyhedron(self):
        empty = HPolyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
        with pytest.raises(EmptySetError):
            pick_interior_point(empty)

    def test_oracle_without_witness(self):
        oracle = OracleSet(2, lambda e: bool(np.all(np.abs(e) < 1)))
        with pytest.raises(InputError):
            pick_interior_point(oracle)

    def test_no_rule_for_a_symmetrized_body(self):
        with pytest.raises(InputError) as info:
            pick_interior_point(SymmetrizedBody(DISK, np.array([2.0, 0.0])))
        assert str(info.value) == "no interior-point rule for SymmetrizedBody"


class TestSampleInterior:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_samples_are_members(self, name):
        a_set, _, _ = bundled(name)
        pts = sample_interior(a_set, 500, seed=3)
        assert all(a_set.contains(p) for p in pts)

    def test_deterministic(self):
        first = sample_interior(DISK, 100, seed=5)
        second = sample_interior(DISK, 100, seed=5)
        assert np.array_equal(first, second)

    def test_oracle_walk(self):
        oracle = OracleSet(2, lambda e: bool(np.all(np.abs(e) < 1)), witness=np.zeros(2))
        pts = sample_interior(oracle, 200, seed=7)
        assert all(oracle.contains(p) for p in pts)
        assert np.std(pts) > 0.05  # the walk actually moves


class TestValidation:
    def test_zero_row_rejected(self):
        with pytest.raises(InputError):
            HPolyhedron(np.array([[0.0, 0.0]]), np.array([1.0]))

    def test_bad_radius(self):
        with pytest.raises(InputError):
            OpenBall(np.array([0.0]), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            HPolyhedron(np.array([[1.0, 0.0]]), np.array([1.0, 2.0]))

    def test_overflowing_scaled_offset_rejected(self):
        # the offset over its row's norm, 1e10 / 1e-300, is not a float
        with pytest.raises(InputError, match="finite"):
            HPolyhedron(np.array([[1e-300, 0.0]]), np.array([1e10]))


class TestUnitRows:
    """Rows and offsets are stored over the row's norm, taken after a
    power-of-two prescale: ``np.linalg.norm`` to the bit on ordinary rows,
    and neither overflow nor underflow near the ends of the float range."""

    def test_ordinary_rows_match_linalg_norm(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(50, 6)), rng.normal(size=50)
        norms = np.linalg.norm(a, axis=1)
        poly = HPolyhedron(a, b)
        assert np.array_equal(poly.a, a / norms[:, None]) and np.array_equal(poly.b, b / norms)

    @pytest.mark.parametrize("scale", [1e-305, 1e-300, 1e300, 1.7e308])
    def test_extreme_rows_are_unit(self, scale):
        poly = HPolyhedron(np.array([[scale, scale], [-scale, 0.0]]), np.array([scale, 0.5 * scale]))
        np.testing.assert_allclose(poly.a, [[np.sqrt(0.5), np.sqrt(0.5)], [-1.0, 0.0]], rtol=1e-15)
        np.testing.assert_allclose(poly.b, [np.sqrt(0.5), 0.5], rtol=1e-15)


# 1 < e1 < 3, |e2| < 1, |e3| < 1: disjoint from the e3 axis
BOX = (np.vstack([np.eye(3), -np.eye(3)]), np.array([3.0, 1.0, 1.0, -1.0, 1.0, 1.0]))


class TestAnchorDepth:
    """Among equally deep points the simplex returns a vertex that depends on
    its pivoting (a rotated box's half-widths differ, so its deepest points
    form a segment or more); the depth of the returned point does not."""

    def test_boxes_reach_their_least_half_width(self):
        rng = np.random.default_rng(65)
        boxes = [axis_box(rng, n) for n in (4, 10, 20, 40)] + [rotated_box(rng, n) for n in (4, 6, 8, 12, 20)]
        for box in boxes:
            poly = box.polyhedron()
            center, radius = chebyshev_center(poly)
            depth = float(np.min(poly.b - poly.a @ center))
            assert depth == radius
            assert depth == pytest.approx(float(np.min(box.h)), rel=1e-12)

    def test_random_polytopes_against_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(66)
        for _ in range(40):
            poly, _ = random_polytope_instance(rng, int(rng.integers(2, 10)))
            _, radius = chebyshev_center(poly)
            # max r s.t. a x + |a| r <= b, with the norms taken here
            a_ub = np.hstack([poly.a, np.linalg.norm(poly.a, axis=1)[:, None]])
            ref = linprog(-np.eye(poly.dim + 1)[-1], A_ub=a_ub, b_ub=poly.b, bounds=(None, None), method="highs")
            assert ref.status == 0
            assert radius == pytest.approx(-ref.fun, abs=1e-9)


class TestDeepestPointLP:
    """``separate`` solves a polyhedron's whole-space inscribed-ball LP once,
    in ``pick_interior_point``, its one emptiness decision.  Whether the set
    misses S is decided by the certificate: the inscribed-ball LP in S is
    solved only after the pipeline has raised, to name r* when it is
    positive."""

    @staticmethod
    def lp_shapes(monkeypatch) -> list[tuple[int, int]]:
        shapes = []

        def recording(c, a_ub=None, b_ub=None, nonneg=None):
            shapes.append(np.shape(a_ub))
            return solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=nonneg)

        monkeypatch.setattr(convexsets, "solve_lp", recording)
        return shapes

    def test_separate_solves_one_per_call(self, monkeypatch):
        # nothing is kept on the polyhedron: a second call solves it again
        box, s = HPolyhedron(*BOX), span_basis([np.array([0.0, 0.0, 1.0])])
        shapes = self.lp_shapes(monkeypatch)
        for _ in range(2):
            assert separate(box, s).certificate.valid
        assert shapes == [(7, 4)] * 2  # (center, r) in the whole space, six rows and the cap; none in S

    def test_the_lp_in_s_follows_the_pipeline_error(self, monkeypatch):
        # (-5e-10, 2) x (0.5, 1.5) x (-1, 1) holds (0, 1, 0) of span{e2} by
        # 5e-10: the anchor LP, the extension LP that finds no bound, then
        # the one LP in S, which names the cause
        box = HPolyhedron(np.vstack([np.eye(3), -np.eye(3)]), np.array([2.0, 1.5, 1.0, 5e-10, -0.5, 1.0]))
        calls = record_lps(monkeypatch, convexsets, gauges, separation)
        with pytest.raises(InputError, match=r"r\* = 5e-10\)$") as raised:
            separate(box, span_basis([np.array([0.0, 1.0, 0.0])]))
        assert [np.shape(args[1]) for args, _ in calls] == [(7, 4), (12, 3), (7, 2)]
        assert isinstance(raised.value.__cause__, SolverError)

    def test_meeting_the_subspace_solves_one_lp_in_it(self, monkeypatch):
        box, s = HPolyhedron(*BOX), span_basis([np.array([1.0, 0.0, 0.0])])
        shapes = self.lp_shapes(monkeypatch)
        with pytest.raises(InputError, match=r"r\* = 1\)$"):
            separate(box, s)
        assert shapes == [(7, 4), (7, 2)]

    def test_the_lp_is_always_feasible(self):
        # r is free, so a closure that misses the span gives a negative r,
        # never an infeasible LP; an empty polyhedron is empty by its depth
        strip = HPolyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))  # x < 0 and x > 1
        assert _inscribed_ball(strip)[1] == -0.5
        # (1, 5) x (-0.5, 2) against span{e2}
        box = HPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([5.0, -1.0, 2.0, 0.5]))
        assert _inscribed_ball(box, np.array([[0.0, 1.0]]))[1] == -1.0
        with pytest.raises(EmptySetError, match="empty interior"):
            chebyshev_center(strip)

    def test_a_status_other_than_optimal_or_unbounded_raises(self, monkeypatch):
        monkeypatch.setattr(convexsets, "solve_lp", lambda *args, **kwargs: LPResult("infeasible"))
        with pytest.raises(SolverError, match="inscribed-ball LP failed with status 'infeasible'"):
            _inscribed_ball(HPolyhedron(*BOX))


class TestInscribedBallCap:
    """``_inscribed_ball`` caps r at rho = max(1, max |b_i|).  A finite r*
    is b . lam for dual weights lam >= 0 of sum 1, so it is at most max b:
    the cap leaves every finite inradius as it was and binds only where the
    uncapped LP is unbounded."""

    @staticmethod
    def uncapped(poly: HPolyhedron, basis=None) -> float:
        """r* of max r s.t. a y + r <= b, by scipy's HiGHS, without the cap."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        a_y = poly.a if basis is None else poly.a @ basis.T
        a_ub = np.hstack([a_y, np.ones((len(a_y), 1))])
        ref = linprog(-np.eye(a_ub.shape[1])[-1], A_ub=a_ub, b_ub=poly.b, bounds=(None, None), method="highs")
        assert ref.status == 0
        return -ref.fun

    def bounded_sets(self) -> list[HPolyhedron]:
        rng = np.random.default_rng(67)
        boxes = [axis_box(rng, n) for n in (2, 5, 12)] + [rotated_box(rng, n) for n in (2, 4, 8)]
        polys = [box.polyhedron() for box in boxes]
        polys += [random_polytope_instance(rng, int(rng.integers(2, 10)))[0] for _ in range(20)]
        polys.append(many_facet_polytope(6, 60)[0])
        return polys

    def slabs(self) -> list[HPolyhedron]:
        # slabs of every width and offset: bounded inradius, unbounded set
        rng = np.random.default_rng(68)
        out = []
        for n in (2, 3, 5):
            for lo, width in ((1.0, 1.0), (-3.0, 0.25), (1e-6, 2e-6), (1e6, 7.0)):
                d = rng.normal(size=n)
                d /= np.linalg.norm(d)
                out.append(HPolyhedron(np.array([-d, d]), np.array([-lo, lo + width])))
        return out

    def test_bounded_inradius_is_the_uncapped_one(self):
        for poly in self.bounded_sets() + self.slabs():
            rho = max(1.0, float(np.abs(poly.b).max()))
            _, r = _inscribed_ball(poly)
            assert r == pytest.approx(self.uncapped(poly), rel=1e-9, abs=1e-12)
            assert r <= rho

    def test_bounded_inradius_in_a_subspace_is_the_uncapped_one(self):
        # the same bound holds for the ball centred in S (a^T lam becomes B a^T lam)
        rng = np.random.default_rng(69)
        for _ in range(20):
            poly, s = random_polytope_instance(rng, int(rng.integers(2, 10)))
            _, r = _inscribed_ball(poly, s.basis)
            assert r == pytest.approx(self.uncapped(poly, s.basis), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("offset", [1e-12, 1e-6, 1.0, 1e6])
    def test_half_spaces_and_cones_reach_the_cap(self, offset):
        # {e1 > offset}, the quadrant and the orthant shifted by offset, and
        # the wedge {e1 > |e2| + offset}: r* is unbounded, so the depth is rho
        sets = [
            HPolyhedron(np.array([[-1.0, 0.0]]), np.array([-offset])),
            HPolyhedron(-np.eye(2), np.full(2, -offset)),
            HPolyhedron(np.array([[-1.0, 1.0], [-1.0, -1.0]]), np.full(2, -offset)),
            HPolyhedron(-np.eye(3), np.full(3, -offset)),
        ]
        for poly in sets:
            rho = max(1.0, float(np.abs(poly.b).max()))  # the wedge's unit rows have offsets offset / sqrt 2
            center, depth = chebyshev_center(poly)
            assert poly.contains(center)
            assert depth == pytest.approx(rho, rel=1e-12)
            assert depth > MIN_DEPTH
            assert _inscribed_ball(poly)[1] == rho
