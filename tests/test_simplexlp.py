import dataclasses

import numpy as np
import pytest

import gaugesep.convexsets as convexsets
import gaugesep.gauges as gauges
import gaugesep.separation as separation
import gaugesep.simplexlp as simplexlp
from gaugesep import (
    EmptySetError,
    HPolyhedron,
    InputError,
    LPResult,
    SeparationOptions,
    SolverError,
    chebyshev_center,
    separate,
    solve_lp,
)
from gaugesep.cli import parse_problem

from helpers import axis_box, lp_vertex_reference, record_lps, reference_solve_lp, rotated_box


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

    def test_iteration_limit(self, monkeypatch):
        # min x + y over x, y >= 1 needs pivots, and the limit allows none
        monkeypatch.setattr(simplexlp, "MAX_ITER", 0)
        with pytest.raises(SolverError) as info:
            solve_lp([1.0, 1.0], a_ub=-np.eye(2), b_ub=[-1.0, -1.0])
        assert str(info.value) == "simplex iteration limit (0) exceeded; 2 dual rows"

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

    def test_transposed_constraint_matrix_raises(self):
        # 2 variables and 3 offsets: a 2x3 a_ub is not three rows of two
        with pytest.raises(SolverError, match="shapes disagree"):
            solve_lp([1.0, 1.0], a_ub=[[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]], b_ub=[1.0, 1.0, 1.0])

    def test_nonneg_of_the_wrong_length_raises(self):
        with pytest.raises(SolverError, match="shapes disagree"):
            solve_lp([1.0, 1.0], a_ub=[[-1.0, 0.0], [0.0, -1.0]], b_ub=[1.0, 1.0], nonneg=[True])

    def test_lp_with_no_rows(self):
        # the dual has no column that may enter: phase 1 stops at once
        res = solve_lp([1.0, -2.0])
        assert res.status == "unbounded"
        np.testing.assert_array_equal(res.ray, [-1.0, 1.0])
        assert float(np.dot([1.0, -2.0], res.ray)) == -3.0
        res = solve_lp([0.0, 0.0])
        assert (res.status, res.objective) == ("optimal", 0.0)
        np.testing.assert_array_equal(res.x, [0.0, 0.0])
        assert res.y.shape == (0,)

    @pytest.mark.parametrize(
        "c,a_ub,b_ub",
        [
            ([np.nan, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            ([1.0, 1.0], [[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            ([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [np.nan, 1.0]),
            ([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [np.inf, 1.0]),
            ([np.inf, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        ],
        ids=["nan-c", "nan-a", "nan-b", "inf-b", "inf-c"],
    )
    def test_nonfinite_data_raises(self, c, a_ub, b_ub):
        # refused before any pivot; unchecked, these came back as numpy's
        # ValueError, "unbounded", "optimal" with a NaN x, a singular-basis
        # error and "optimal" with a NaN objective
        with pytest.raises(SolverError, match="LP data must be finite"):
            solve_lp(c, a_ub=a_ub, b_ub=b_ub)

    def test_zero_cost_resolve_is_not_a_second_call(self, monkeypatch):
        # a wrapper of the module's solve_lp (as a tracer installs) sees one
        # LP, whose iterations would include the re-solve's pivots (the crash
        # basis leaves neither phase 1 a pivot here)
        calls = record_lps(monkeypatch, simplexlp)
        res = simplexlp.solve_lp([0.0, 1.0], a_ub=[[1.0, 0.0], [-1.0, 0.0]], b_ub=[1.0, -2.0])
        assert (res.status, len(calls), res.iterations) == ("infeasible", 1, 0)


def bounded_lp(rng, n, m):
    """``m`` random rows, the first of them twice, plus the box |x_i| <= 4,
    around a strictly feasible point; returns (a, b, that point)."""
    a = rng.normal(size=(m, n))
    interior = rng.normal(size=n) * 0.5
    b = a @ interior + rng.uniform(0.2, 1.5, size=m)
    box = np.vstack([np.eye(n), -np.eye(n)])
    return np.vstack([a, a[:1], box]), np.concatenate([b, b[:1], np.full(2 * n, 4.0)]), interior


def recession_lp(rng, n):
    """(c, a, b, mask) of a feasible LP with a recession direction d along
    which the cost falls (c . d = -1), so that its dual is infeasible."""
    m = int(rng.integers(1, 3 * n))
    mask = rng.uniform(size=n) < 0.5
    d = rng.normal(size=n)
    d[mask] = np.abs(d[mask])
    a = rng.normal(size=(m, n))
    a *= np.where(a @ d > 0.0, -1.0, 1.0)[:, None]  # d is a recession direction
    x0 = rng.normal(size=n)
    x0[mask] = np.abs(x0[mask])
    b = a @ x0 + rng.uniform(0.1, 1.0, size=m)
    c = rng.normal(size=n)
    c -= (c @ d + 1.0) * d / (d @ d)  # c . d = -1
    return c, a, b, mask


def extension_lp(rng, rows, k, n):
    """(cost, a_ub, b_ub, nonneg) of min -w.c + t  s.t.  a_i.(B^T c + z) <= t b_i,
    t >= 0: the extension LP of a polyhedral gauge with rows in +- pairs,
    for a dominated w."""
    half = rng.normal(size=(rows // 2, n))
    a = np.vstack([half, -half])
    b = np.tile(rng.uniform(0.5, 2.0, size=rows // 2), 2)
    basis = np.linalg.qr(rng.normal(size=(n, k)))[0].T
    lam = rng.normal(size=rows)
    lam *= rng.uniform(0.2, 0.95) / np.sum(np.abs(lam))
    w = basis @ (lam @ (a / b[:, None]))
    z = rng.normal(size=n)
    return np.append(-w, 1.0), np.hstack([a @ basis.T, -b[:, None]]), -(a @ z), np.append(np.zeros(k, dtype=bool), True)


class TestSolverDifferential:
    def test_degenerate_vertices(self):
        # extra rows through the optimal vertex make it degenerate and keep it optimal
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            a, b, interior = bounded_lp(rng, n, int(rng.integers(1, 4)))
            c = rng.normal(size=n)
            _, vertex = lp_vertex_reference(c, a, b)
            for _ in range(int(rng.integers(1, 4))):
                row = rng.normal(size=n)
                row *= np.sign(row @ (vertex - interior))  # the interior point stays inside
                a, b = np.vstack([a, row]), np.append(b, row @ vertex)
            res = solve_lp(c, a_ub=a, b_ub=b)
            assert res.status == "optimal"
            assert res.objective == pytest.approx(c @ vertex, abs=1e-7)
            assert np.all(a @ res.x <= b + 1e-9)

    def test_nonneg_masks(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            a, b, _ = bounded_lp(rng, n, int(rng.integers(n, n + 4)))
            mask = rng.uniform(size=n) < 0.5
            c = rng.normal(size=n)
            # the reference sees the sign constraints as rows -x_j <= 0
            a_ref = np.vstack([a, -np.eye(n)[mask]])
            b_ref = np.concatenate([b, np.zeros(int(mask.sum()))])
            try:
                ref = lp_vertex_reference(c, a_ref, b_ref)[0]
            except AssertionError:  # the mask cut the polytope away
                assert solve_lp(c, a_ub=a, b_ub=b, nonneg=mask).status == "infeasible"
                continue
            res = solve_lp(c, a_ub=a, b_ub=b, nonneg=mask)
            assert res.status == "optimal"
            assert res.objective == pytest.approx(ref, abs=1e-7)
            assert np.all(res.x[mask] >= -1e-9)

    def test_rank_deficient_free_direction(self):
        # a = a' P with P of rank k < n, and c = c' P: the dual has redundant
        # rows, and x is free with zero cost along the kernel of P
        rng = np.random.default_rng(45)
        for _ in range(40):
            k = int(rng.integers(2, 4))
            n = k + int(rng.integers(1, 3))
            a_small, b, _ = bounded_lp(rng, k, int(rng.integers(k, k + 4)))
            c_small = rng.normal(size=k)
            proj = rng.normal(size=(k, n))
            res = solve_lp(c_small @ proj, a_ub=a_small @ proj, b_ub=b)
            assert res.status == "optimal"
            assert res.objective == pytest.approx(lp_vertex_reference(c_small, a_small, b)[0], abs=1e-7)
            assert np.all(a_small @ (proj @ res.x) <= b + 1e-8)

    def test_unbounded_rays(self):
        rng = np.random.default_rng(46)
        for _ in range(60):
            c, a, b, mask = recession_lp(rng, int(rng.integers(2, 6)))
            res = solve_lp(c, a_ub=a, b_ub=b, nonneg=mask)
            assert res.status == "unbounded"
            ray = res.ray
            scale = float(np.linalg.norm(ray)) * float(np.max(np.linalg.norm(a, axis=1)))
            assert np.all(a @ ray <= 1e-9 * scale)
            assert c @ ray < 0.0
            assert np.all(ray[mask] >= -1e-9 * float(np.linalg.norm(ray)))

    def test_infeasible(self):
        # r . x <= -1 and r . x >= 0 contradict; c = -a^T y0 + s0 keeps the
        # dual feasible
        rng = np.random.default_rng(47)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 2 * n + 2))
            a = rng.normal(size=(m, n))
            r = rng.normal(size=n)
            a = np.vstack([a, r, -r])
            b = np.concatenate([rng.normal(size=m), [-1.0, 0.0]])
            mask = rng.uniform(size=n) < 0.5
            c = -a.T @ rng.uniform(0.0, 1.0, size=m + 2) + np.where(mask, rng.uniform(0.0, 1.0, n), 0.0)
            assert solve_lp(c, a_ub=a, b_ub=b, nonneg=mask).status == "infeasible"

    def test_infeasible_with_an_infeasible_dual(self):
        # e1 <= 1 and e1 >= 2 with cost (0, 1): the dual is infeasible as
        # well, and the answer is still "infeasible", not "unbounded"
        assert solve_lp([0.0, 1.0], a_ub=[[1.0, 0.0], [-1.0, 0.0]], b_ub=[1.0, -2.0]).status == "infeasible"
        # the same LP with -b_ub is feasible, and along e2 unbounded
        assert solve_lp([0.0, 1.0], a_ub=[[1.0, 0.0], [-1.0, 0.0]], b_ub=[-1.0, 2.0]).status == "unbounded"
        rng = np.random.default_rng(49)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 2 * n + 2))
            r = rng.normal(size=n)
            a = np.vstack([rng.normal(size=(m, n)), r, -r])
            b = np.concatenate([rng.normal(size=m), [-1.0, 0.0]])
            mask = rng.uniform(size=n) < 0.5
            assert solve_lp(rng.normal(size=n), a_ub=a, b_ub=b, nonneg=mask).status == "infeasible"

    def test_badly_scaled_against_highs(self):
        # rows of size 1e-3 and offsets of size 1e4: rounding in the reduced
        # cost of a basic column must not read as an improving column
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(0)
        statuses = {0: "optimal", 2: "infeasible", 3: "unbounded"}
        for _ in range(60):
            n = int(rng.integers(2, 10))
            a = rng.normal(size=(int(rng.integers(n, 25)), n))
            b = (a @ rng.normal(size=n) + rng.uniform(0.0, 1.0, size=a.shape[0])) * 1e4
            a *= 1e-3
            c = rng.normal(size=n)
            mask = rng.uniform(size=n) < 0.4
            bounds = [(0, None) if flag else (None, None) for flag in mask]
            ref = optimize.linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
            res = solve_lp(c, a_ub=a, b_ub=b, nonneg=mask)
            assert res.status == statuses[ref.status]
            if ref.status == 0:
                assert res.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)

    def test_against_highs_on_extension_shaped_lps(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(48)
        for rows, k in [(40, 3), (120, 11), (160, 23), (228, 11), (228, 23)] * 2:
            cost, a_ub, b_ub, nonneg = extension_lp(rng, rows, k, k + int(rng.integers(1, 6)))
            res = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, nonneg=nonneg)
            ref = optimize.linprog(
                cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * k + [(0, None)], method="highs"
            )
            assert ref.status == 0 and res.status == "optimal"
            assert res.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
            assert np.all(a_ub @ res.x <= b_ub + 1e-8 * (1.0 + np.abs(b_ub)))


def lp_cases():
    """(c, a_ub, b_ub, nonneg): the extension LPs have both ends optimal,
    the boxed ones an infeasible -b_ub, the last ones an infeasible dual."""
    rng = np.random.default_rng(50)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        yield extension_lp(rng, 2 * int(rng.integers(3, 12)), k, k + int(rng.integers(1, 4)))
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a, b, _ = bounded_lp(rng, n, int(rng.integers(n, n + 4)))
        yield rng.normal(size=n), a, b, rng.uniform(size=n) < 0.5
    for _ in range(20):
        yield recession_lp(rng, int(rng.integers(2, 6)))


def assert_identical(got, want):
    """Every public field of two LP results is equal, array for array."""
    for f in dataclasses.fields(LPResult):
        if not f.name.startswith("_"):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert (a is None and b is None) or np.array_equal(a, b), f.name


class TestKernelIdentity:
    """``solve_lp`` pivots exactly as ``helpers.reference_solve_lp``, the
    kernel that gathered and inverted its whole basis at every pivot: the
    same pivots, the same bits."""

    @staticmethod
    def check(c, a_ub, b_ub, nonneg=None) -> LPResult:
        got = solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=nonneg)
        assert_identical(got, reference_solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=nonneg))
        return got

    def test_lp_cases_of_every_status(self):
        statuses = set()
        for c, a, b, mask in lp_cases():
            for b_ub in (b, -b):
                statuses.add(self.check(c, a, b_ub, mask).status)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_bland_cycling_example(self):
        c = [-0.75, 150.0, -0.02, 6.0]
        a_ub = [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]
        self.check(c, a_ub, [0.0, 0.0, 1.0], [True] * 4)
        self.check(c, a_ub, [0.0, 0.0, -1.0], [True] * 4)

    def test_harris_tie_takes_the_first_row(self):
        # the first phase-1 pivot (column 0 into the artificial basis) ties
        # two rows in ratio and in pivot size; row 0 must leave, as argmax
        # picks, which puts column 0 in row 0 of the final basis
        res = self.check([1.0, 1.0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 1.0, 1.0])
        assert res.status == "optimal"
        np.testing.assert_array_equal(res.basis, [0, 1])

    @staticmethod
    def separate_all(monkeypatch, boxes) -> list:
        """Every LP of ``separate`` under "upper" (only the first step solves
        LPs) and "midpoint" (no step is forced) on each box."""
        calls = record_lps(monkeypatch, convexsets, gauges, separation)
        for box in boxes:
            for rule in ("upper", "midpoint"):
                separate(box.polyhedron(), box.subspace(), SeparationOptions(gamma_rule=rule))
        return calls

    def test_every_lp_of_separate_on_seeded_boxes(self, monkeypatch):
        # the degenerate inscribed-ball LP, the extension's two ends per step
        # and the domination and certificate LPs of axis and rotated boxes
        rng = np.random.default_rng(60)
        boxes = [axis_box(rng, n) for n in (4, 10, 20)] + [rotated_box(rng, n) for n in (4, 6, 8, 10)]
        calls = self.separate_all(monkeypatch, boxes)
        assert sum(nonneg is not None for (*_, nonneg), _ in calls) >= 40  # extension ends
        for (c, a_ub, b_ub, nonneg), _ in calls:
            self.check(c, a_ub, b_ub, nonneg)

    def test_every_lp_of_separate_at_the_largest_sizes(self, monkeypatch):
        # 41 variables (the longest ratio test), the 228 rows of a rotated
        # 12-D box's extension LPs, and the degenerate LPs of a 40-D box
        # with a dense S
        rng = np.random.default_rng(62)
        boxes = [axis_box(rng, 40), rotated_box(rng, 12), axis_box(np.random.default_rng(40), 40, dense_s=True)]
        calls = self.separate_all(monkeypatch, boxes)
        assert max(c.size for (c, *_), _ in calls) == 41
        assert max(len(b_ub) for (_, _, b_ub, _), _ in calls) >= 228
        for (c, a_ub, b_ub, nonneg), _ in calls:
            self.check(c, a_ub, b_ub, nonneg)

    def test_pivot_inverse_is_numpys(self, monkeypatch):
        # every basis inverse of solves with 1 to 41 variables, bit for bit
        inverses = []

        def recording(bmat, **kwargs):
            out = kernel(bmat, **kwargs)
            inverses.append((bmat.copy(), out))
            return out

        kernel = simplexlp._inv
        monkeypatch.setattr(simplexlp, "_inv", recording)
        rng = np.random.default_rng(61)
        for n in range(1, 42):
            a, b, _ = bounded_lp(rng, n, n + 4)
            assert solve_lp(rng.normal(size=n), a_ub=a, b_ub=b).status == "optimal"
        assert {bmat.shape[0] for bmat, _ in inverses} == set(range(1, 42))
        assert len(inverses) > 41 * 2
        for bmat, inverse in inverses:
            assert np.array_equal(inverse, np.linalg.inv(bmat))

    def test_singular_basis_raises(self):
        # a basis with a repeated column: np.linalg.inv raises, and so must
        # the pivot's inverse, rather than hand NaNs to the ratio test; the
        # error names the phase, the pivots before it and the LP's shape
        cols = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        before = np.geterr()
        for n_enter in (0, 3):
            with pytest.raises(SolverError) as info:
                simplexlp._simplex(cols, np.ones(3), np.ones(2), np.array([0, 1]), n_enter, 1e-9, np.ones(n_enter))
            assert str(info.value) == f"singular basis in phase 1 after 0 pivots (LP of {n_enter} rows in 2 variables)"
        assert np.geterr() == before


class TestSharedPhase1:
    """``simplexlp._solve`` runs phase 1 once for all its right-hand sides
    (phase 1 reads only ``c`` and ``a_ub``), then phase 2 for each from a copy
    of that basis: each result is its cold ``solve_lp``, field for field,
    but for ``iterations``, which charge the shared pivots to the first
    result alone."""

    # min -2x + 2y over four rows: phase 1 takes 2 pivots, and the phase 2
    # of b_ub = B and of -B one more each
    C = np.array([-2.0, 2.0])
    A = np.array([[2.0, 1.0], [0.0, -1.0], [-1.0, -2.0], [-2.0, -2.0]])
    B = np.array([2.0, 3.0, 1.0, 2.0])

    @staticmethod
    def check(monkeypatch, c, a_ub, b_ubs, nonneg=None) -> list[LPResult]:
        c, a_ub = np.asarray(c, dtype=float), np.asarray(a_ub, dtype=float)
        b_ubs = [np.asarray(b, dtype=float) for b in b_ubs]
        mask = np.zeros(c.size, dtype=bool) if nonneg is None else np.asarray(nonneg, dtype=bool)
        cold = [solve_lp(c, a_ub=a_ub, b_ub=b, nonneg=mask) for b in b_ubs]
        pivots, simplex = [], simplexlp._simplex
        with monkeypatch.context() as patch:
            patch.setattr(simplexlp, "_simplex", lambda *args: pivots.append(simplex(*args)) or pivots[-1])
            shared = list(simplexlp._solve(c, a_ub, b_ubs, mask))
        assert len(shared) == len(cold)
        for got, want in zip(shared, cold):
            for f in dataclasses.fields(LPResult):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name == "_final" and a is not None:
                    assert len(a) == len(b) and all(np.array_equal(u, v) for u, v in zip(a, b))
                elif f.name != "iterations":
                    assert (a is None and b is None) or np.array_equal(a, b), f.name
        # the first result is charged as its cold solve; all of them, the pivots run
        assert shared[0].iterations == cold[0].iterations
        assert sum(res.iterations for res in shared) == sum(out[2] for out in pivots)
        return shared

    def test_both_ends_optimal(self, monkeypatch):
        shared = self.check(monkeypatch, self.C, self.A, [self.B, -self.B])
        assert [(res.status, res.iterations) for res in shared] == [("optimal", 3), ("optimal", 1)]

    def test_an_end_whose_phase_2_is_unbounded_is_infeasible(self, monkeypatch):
        # x, y >= -1 with x + y <= 4, and then x + y <= -3
        shared = self.check(monkeypatch, [1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [[1.0, 1.0, 4.0], [1.0, 1.0, -3.0]])
        assert [(res.status, res.iterations) for res in shared] == [("optimal", 2), ("infeasible", 0)]

    def test_an_infeasible_dual_is_decided_for_each_end(self, monkeypatch):
        # min y with y free: the zero-cost re-solve of each end tells the
        # nonempty -2 <= x <= -1 (unbounded, with a ray) from 2 <= x <= 1;
        # it shares its own phase 1 too (x's dual row has right-hand side 0,
        # so the crash leaves both phase 1s without a pivot)
        shared = self.check(monkeypatch, [0.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]], [[-1.0, 2.0], [1.0, -2.0]])
        assert [(res.status, res.iterations) for res in shared] == [("unbounded", 0), ("infeasible", 0)]
        np.testing.assert_array_equal(shared[0].ray, [0.0, -1.0])

    def test_lp_cases_of_every_status(self, monkeypatch):
        statuses = set()
        for c, a, b, mask in lp_cases():
            statuses.update(res.status for res in self.check(monkeypatch, c, a, [b, -b, b], mask))
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_a_singular_basis_in_the_shared_phase_1(self, monkeypatch):
        # the first pivot's basis made singular (its columns repeated): the
        # shared solve raises what the cold solve of either end raises
        def singular_after_first_pivot(bmat, **kwargs):
            inverses.append(bmat)
            if len(inverses) == 2:
                bmat = np.repeat(bmat[:, :1], bmat.shape[1], axis=1)
            return kernel(bmat, **kwargs)

        kernel = simplexlp._inv
        monkeypatch.setattr(simplexlp, "_inv", singular_after_first_pivot)
        c, a, b = self.C, self.A, self.B
        solves = [
            lambda: solve_lp(c, a_ub=a, b_ub=b),
            lambda: solve_lp(c, a_ub=a, b_ub=-b),
            lambda: list(simplexlp._solve(c, a, [b, -b], np.zeros(2, dtype=bool))),
        ]
        for solve in solves:
            inverses = []
            with pytest.raises(SolverError) as info:
                solve()
            assert str(info.value) == "singular basis in phase 1 after 0 pivots (LP of 4 rows in 2 variables)"

    def test_a_later_end_is_solved_only_when_asked_for(self, monkeypatch):
        # a caller that stops at the first end (as the extension does on an
        # unbounded one) runs phase 1 and that end's phase 2, nothing more
        calls, simplex = [], simplexlp._simplex
        monkeypatch.setattr(simplexlp, "_simplex", lambda *args: calls.append(len(args)) or simplex(*args))
        ends = simplexlp._solve(self.C, self.A, [self.B, -self.B], np.zeros(2, dtype=bool))
        assert calls == []
        assert next(ends).status == "optimal" and calls == [7, 8]


class TestCrashBasis:
    """Phase 1 starts from a crash basis: each row of the dual whose
    right-hand side is 0 takes a real column in place of its artificial,
    so that only the rows with a nonzero right-hand side are left to phase 1."""

    @staticmethod
    def starts(monkeypatch) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
        """Record (start basis, dual columns, rhs, n_enter) of every phase 1."""
        starts, simplex = [], simplexlp._simplex

        def recording(cols, cost, rhs, basis, n_enter, *rest):
            if len(rest) == 2:  # no starting inverse: phase 1
                starts.append((basis.copy(), cols, rhs, n_enter))
            return simplex(cols, cost, rhs, basis, n_enter, *rest)

        monkeypatch.setattr(simplexlp, "_simplex", recording)
        return starts

    @staticmethod
    def assert_feasible_crash(basis, cols, rhs, n_enter):
        zero = rhs == 0.0
        assert zero.any() and np.all(basis[zero] < n_enter)  # no artificial on a zero row
        bmat = cols[:, basis]
        assert np.linalg.matrix_rank(bmat) == rhs.size
        assert np.all(np.linalg.solve(bmat, rhs) >= -1e-15)

    def test_inscribed_ball_lps_of_rotated_boxes(self, monkeypatch):
        # the center's n coordinates are free with zero cost: n of the n + 1
        # dual rows have right-hand side 0, and phase 1 drives out only the
        # artificial of r's row
        starts = self.starts(monkeypatch)
        rng = np.random.default_rng(63)
        for n in (4, 6, 12, 20):
            box = rotated_box(rng, n)
            chebyshev_center(box.polyhedron())
            basis, cols, rhs, n_enter = starts[-1]
            assert rhs.size == n + 1 and np.count_nonzero(rhs) == 1
            self.assert_feasible_crash(basis, cols, rhs, n_enter)

    def test_zero_cost_free_variables(self, monkeypatch):
        starts = self.starts(monkeypatch)
        rng = np.random.default_rng(64)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            a, b, _ = bounded_lp(rng, n, int(rng.integers(n, n + 4)))
            c = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.normal(size=n))
            c[0] = 0.0
            res = TestKernelIdentity.check(c, a, b)  # the reference starts from the same crash
            assert res.status == "optimal"
            self.assert_feasible_crash(*starts[-1])

    def test_a_zero_row_with_no_entry_keeps_its_artificial(self, monkeypatch):
        # x1 has zero cost and appears in no constraint: its dual row is 0,
        # so it keeps its artificial (index 3 + 1), and the LP comes back as
        # with the artificial basis, in one pivot fewer
        starts = self.starts(monkeypatch)
        a_ub = [[-1.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 1.0]]
        res = TestKernelIdentity.check([1.0, 0.0, 0.0], a_ub, [-1.0, 0.5, 3.0])
        np.testing.assert_array_equal(starts[0][0], [3, 4, 0])
        assert (res.status, res.iterations) == ("optimal", 1)
        np.testing.assert_array_equal(res.x, [0.5, 0.0, -0.5])
        np.testing.assert_array_equal(res.basis, [1, 4, 0])

    def test_dependent_rows_at_scale_keep_their_artificials(self):
        # the dual rows of x0 and x1 are zero rows, x1's a multiple of x0's
        # with entries near 1e8, so eliminating x0's column leaves rounding
        # residues of 1.5e-8 > PIVOT_TOL in x1's row.  Taken as pivots they
        # would make the start singular (the same column again, or the other
        # one) and solve_lp would raise; measured against the row's own size,
        # a residue is no pivot, and each LP gets the status that the
        # artificial start gives it
        p, q = 0.864827723214972, 117565562.0602559
        assert q - q / p * p > simplexlp.PIVOT_TOL
        res = TestKernelIdentity.check([0.0, 0.0], [[p, q]], [1.0])
        assert (res.status, res.objective, res.iterations) == ("optimal", 0.0, 0)
        np.testing.assert_array_equal(res.basis, [0, 2])
        p, r, x = 0.8047286498801027, 0.4801854785303742, 114415961.27196337
        a_ub = np.array([[p, x], [r, x * r / p]])
        assert a_ub[1, 1] - x / p * r < -simplexlp.PIVOT_TOL
        for c, status in (([0.0, 0.0], "optimal"), ([1.0, 0.0], "unbounded"), ([0.0, -1.0], "unbounded")):
            assert TestKernelIdentity.check(c, a_ub, [1.0, 1.0]).status == status

    def test_the_zero_cost_resolve_runs_no_phase_1_pivot(self, monkeypatch):
        # every row of the c = 0 re-solve has right-hand side 0, so the crash
        # leaves phase 1 nothing to do
        resolves, simplex = [], simplexlp._simplex

        def recording(*args):
            out = simplex(*args)
            if len(args) == 7 and not args[2].any():
                resolves.append(out[2])
            return out

        monkeypatch.setattr(simplexlp, "_simplex", recording)
        statuses = set()
        for c, a, b, mask in lp_cases():
            statuses.add(solve_lp(c, a_ub=a, b_ub=-b, nonneg=mask).status)
        assert statuses == {"optimal", "infeasible", "unbounded"}
        assert len(resolves) >= 20 and set(resolves) == {0}


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
        calls = record_lps(monkeypatch, convexsets)
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


class TestBundledCounters:
    """Deterministic LP counters of ``separate()`` on the bundled problems:
    a change to the solver's pivoting shows up here as a reviewed diff."""

    @pytest.mark.parametrize(
        "name,lps,pivots",
        [("example1", 0, 0), ("example2", 2, 2), ("example3_quotient", 2, 2)],
    )
    def test_lp_calls_and_pivots(self, monkeypatch, name, lps, pivots):
        problem = parse_problem(name)
        opts = SeparationOptions(x=problem.x, gamma_rule=problem.gamma_rule, seed=problem.seed)
        assert self.counters(monkeypatch, problem.a_set, problem.s, opts) == (lps, pivots)

    # many extension steps, each after the first forced by the first one's
    # picked end (no LP); that end's multipliers certify the side, so no
    # support LP is solved, and the certificate decides domination
    # (Remark 2), so no domination LP either
    @pytest.mark.parametrize("name,lps,pivots", [("axis-40", 3, 22), ("rotated-12", 3, 42)])
    def test_multi_step_boxes(self, monkeypatch, name, lps, pivots):
        if name == "axis-40":
            box = axis_box(np.random.default_rng(59), 40)
        else:  # the rotated-12 box of TestExtensionLPRegressions
            rng = np.random.default_rng(400)
            box = [rotated_box(rng, 12) for _ in range(8)][-1]
        assert self.counters(monkeypatch, box.polyhedron(), box.subspace(), SeparationOptions()) == (lps, pivots)

    @staticmethod
    def counters(monkeypatch, a_set, s, opts) -> tuple[int, int]:
        """(LP calls, pivots) of ``separate``, whose certificate must be valid."""
        calls = record_lps(monkeypatch, convexsets, gauges, separation)
        assert separate(a_set, s, opts).certificate.valid
        return len(calls), sum(res.iterations for _, res in calls)
