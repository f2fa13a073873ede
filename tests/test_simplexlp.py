import numpy as np
import pytest

import gaugesep.convexsets as convexsets
from gaugesep import EmptySetError, HPolyhedron, InputError, chebyshev_center, solve_lp

from helpers import lp_vertex_reference


class TestSolveLP:
    def test_simple_box_max(self):
        # min -x-y over x,y in [0,1]^2 (as inequalities with nonneg vars)
        res = solve_lp(
            [-1.0, -1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0]],
            b_ub=[1.0, 1.0],
            nonneg=[True, True],
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0, abs=1e-9)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)

    def test_free_variables(self):
        # min x subject to x >= -3 (as -x <= 3)
        res = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[3.0])
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(-3.0, abs=1e-9)

    def test_equality_constraint(self):
        # min x + y with x + y = 2 (as two opposite rows), x - y <= 0
        res = solve_lp([1.0, 1.0], a_ub=[[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]], b_ub=[0.0, 2.0, -2.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0, abs=1e-9)

    def test_infeasible(self):
        res = solve_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[-1.0, 0.0])
        assert res.status == "infeasible"

    def test_unbounded_with_ray(self):
        res = solve_lp([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
        assert res.status == "unbounded"
        assert res.ray is not None
        assert res.ray[0] > 0  # objective improves along the ray

    def test_negative_rhs_two_phase(self):
        # x >= 2 written as -x <= -2; minimize x
        res = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-2.0], nonneg=[True])
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_beale_cycling_instance(self):
        # classic cycling example for naive pivoting; Bland's rule must finish
        c = [-0.75, 150.0, -0.02, 6.0]
        a_ub = [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b_ub = [0.0, 0.0, 1.0]
        res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=[True] * 4)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-0.05, abs=1e-9)

    def test_degenerate_vertex(self):
        # three constraints meet at the optimum in 2-D
        res = solve_lp(
            [-1.0, -1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            b_ub=[1.0, 1.0, 2.0],
            nonneg=[True, True],
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0, abs=1e-9)

    def test_against_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 4))
            m = int(rng.integers(n + 1, n + 5))
            a = rng.normal(size=(m, n))
            # bounding box keeps the problem bounded
            box = np.vstack([np.eye(n), -np.eye(n)])
            a_full = np.vstack([a, box])
            interior = rng.normal(size=n) * 0.5
            margins = rng.uniform(0.2, 1.5, size=m)
            b_full = np.concatenate([a @ interior + margins, np.full(2 * n, 4.0)])
            c = rng.normal(size=n)
            res = solve_lp(c, a_ub=a_full, b_ub=b_full)
            assert res.status == "optimal"
            ref_val, _ = lp_vertex_reference(c, a_full, b_full)
            assert res.objective == pytest.approx(ref_val, abs=1e-7)
            checked += 1


class TestChebyshevCenter:
    def test_unit_square(self):
        square = HPolyhedron(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([1.0, 1.0, 1.0, 1.0]),
        )
        center, radius = chebyshev_center(square)
        np.testing.assert_allclose(center, [0.0, 0.0], atol=1e-8)
        assert radius == pytest.approx(1.0, abs=1e-8)

    def test_boxed_halfspace_hand_lp(self):
        # {x > 0} boxed to [-10, 10]^3: inradius 5 attained on x = 5; the other
        # coordinates are free in [-5, 5], and any deepest point is a center
        rows = [[-1.0, 0.0, 0.0]]
        offs = [0.0]
        for j in range(3):
            e = [0.0, 0.0, 0.0]
            e[j] = 1.0
            rows.append(list(e))
            offs.append(10.0)
            rows.append([-v for v in e])
            offs.append(10.0)
        poly = HPolyhedron(np.array(rows), np.array(offs))
        center, radius = chebyshev_center(poly)
        assert radius == pytest.approx(5.0, abs=1e-6)
        assert center[0] == pytest.approx(5.0, abs=1e-6)
        depth = np.min((poly.b - poly.a @ center) / np.linalg.norm(poly.a, axis=1))
        assert depth == pytest.approx(radius, abs=1e-9)

    def test_one_lp_per_call(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(convexsets, "solve_lp", counting)
        n = 40
        box = HPolyhedron(np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([np.full(n, 3.0), np.ones(n)]))
        center, radius = chebyshev_center(box)
        assert len(calls) == 1
        assert radius == pytest.approx(2.0, abs=1e-9)
        assert box.contains(center)

    def test_empty_polyhedron(self):
        empty = HPolyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
        with pytest.raises(EmptySetError):
            chebyshev_center(empty)

    def test_unbounded_needs_witness(self):
        halfspace = HPolyhedron(np.array([[-1.0, 0.0]]), np.array([0.0]))
        with pytest.raises(InputError):
            chebyshev_center(halfspace)

    def test_deterministic(self):
        poly = HPolyhedron(
            np.array([[1.0, 2.0], [-1.0, 0.3], [0.2, -1.0], [0.5, 0.9]]),
            np.array([3.0, 2.0, 1.0, 2.5]),
        )
        first = chebyshev_center(poly)
        second = chebyshev_center(poly)
        assert np.array_equal(first[0], second[0]) and first[1] == second[1]
