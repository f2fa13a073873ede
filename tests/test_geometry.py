import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugesep import (
    DegenerateError,
    InputError,
    PartialFunctional,
    Subspace,
    complement_basis,
    kernel_hyperplane,
    span_basis,
    zero_subspace,
)
import gaugesep.geometry as geometry
from gaugesep.separation import _span_functional

from helpers import mgs_completion


class TestSpanBasis:
    def test_single_axis(self):
        s = span_basis([np.array([0.0, 0.0, 1.0])])
        assert s.dim == 1
        assert s.ambient_dim == 3
        np.testing.assert_allclose(np.abs(s.basis), [[0, 0, 1]], atol=1e-12)

    def test_empty_span(self):
        s = span_basis([], ambient_dim=4)
        assert s.dim == 0
        assert not s.contains(np.array([1.0, 0, 0, 0]))
        assert s.contains(np.zeros(4))

    def test_collinear_compression(self):
        s = span_basis([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
        assert s.dim == 1

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            span_basis([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            span_basis([np.array([np.nan, 1.0])])

    def test_idempotence_projector(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            vectors = list(rng.normal(size=(k, n)))
            first = span_basis(vectors, n)
            second = span_basis(list(first.basis), n)
            assert first.dim == second.dim
            np.testing.assert_allclose(
                first.basis.T @ first.basis, second.basis.T @ second.basis, atol=1e-10
            )

    def test_projector_matches_svd_reference(self):
        # independent reference: orthonormal range from numpy's SVD
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            raw = rng.normal(size=(int(rng.integers(1, n + 2)), n))
            s = span_basis(list(raw), n)
            u, sing, _ = np.linalg.svd(raw.T, full_matrices=False)
            rank = int(np.sum(sing > 1e-10))
            reference = u[:, :rank] @ u[:, :rank].T
            assert s.dim == rank
            np.testing.assert_allclose(s.basis.T @ s.basis, reference, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_orthonormality_holds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        s = span_basis(list(rng.normal(size=(n, n))), n)
        gram = s.basis @ s.basis.T
        assert np.max(np.abs(gram - np.eye(s.dim))) < 1e-10


class TestComplementBasis:
    def test_coordinate_subspace(self):
        s = span_basis([np.array([0.0, 0.0, 1.0])])
        out = complement_basis(s)
        np.testing.assert_allclose(out[0], [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(out[1], [0, 1, 0], atol=1e-12)

    def test_full_space(self):
        s = span_basis([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert complement_basis(s) == []

    def test_diagonal_line(self):
        # by-hand Gram-Schmidt: e1 - <e1,u>u = (1/2, -1/2), normalized
        s = span_basis([np.array([1.0, 1.0]) / np.sqrt(2.0)])
        (v,) = complement_basis(s)
        np.testing.assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)

    def test_deterministic_bit_for_bit(self):
        s = span_basis([np.array([0.3, -1.2, 0.5]), np.array([1.1, 0.1, 0.9])])
        first = complement_basis(s)
        second = complement_basis(s)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_completes_to_full_orthonormal_basis(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, n + 1))
            s = span_basis(list(rng.normal(size=(k, n))), n) if k else zero_subspace(n)
            out = complement_basis(s)
            full = np.vstack([s.basis, np.array(out).reshape(len(out), n)])
            assert full.shape[0] == n
            np.testing.assert_allclose(full @ full.T, np.eye(n), atol=1e-9)


class TestCompletionSkips:
    """``complement_basis`` is one ``_gram_schmidt`` pass over the axes,
    which drops near-dependent candidates and stops at n rows; its rows are
    those of two-pass Gram-Schmidt over every axis
    (``helpers.mgs_completion``), bit for bit."""

    @staticmethod
    def assert_same_rows(s):
        got, want = complement_basis(s), mgs_completion(s)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_dense_and_axis_subspaces(self):
        rng = np.random.default_rng(70)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(0, n + 1))
            self.assert_same_rows(span_basis(list(rng.normal(size=(k, n))), n) if k else zero_subspace(n))
            axes = np.eye(n)[np.sort(rng.permutation(n)[:k])]
            self.assert_same_rows(span_basis(list(axes), n) if k else zero_subspace(n))

    def test_near_axis_subspaces_on_both_sides_of_both_bounds(self):
        # e_j tilted by d off the span: its residual straddles the 1e-8 drop
        # bound and 1e-10, where an earlier pre-check skipped candidates
        rng = np.random.default_rng(71)
        residuals = []
        for d in np.logspace(-12, -6, 25):
            for _ in range(4):
                n = int(rng.integers(3, 12))
                j = int(rng.integers(0, n))
                tilt = rng.normal(size=n)
                tilt[j] = 0.0
                others = rng.normal(size=(int(rng.integers(0, n - 1)), n))
                s = span_basis([np.eye(n)[j] + d * tilt / np.linalg.norm(tilt)] + list(others), n)
                residuals.append(float(np.linalg.norm(np.eye(n)[j] - s.basis[:, j] @ s.basis)))
                self.assert_same_rows(s)
        residuals = np.array(residuals)
        for lo, hi in ((1e-12, 1e-10), (1e-10, 1e-8), (1e-8, 1e-6)):
            assert np.sum((residuals > lo) & (residuals <= hi)) >= 10

    def test_gram_schmidt_stops_once_the_rows_span_the_space(self):
        # span{e1 + e2, e3}: the candidate e1 completes R^3, so the scan reads
        # e2, stops before projecting it, and never reads e3
        s = span_basis([np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])])
        candidates = iter(np.eye(3))
        assert len(geometry._gram_schmidt(s.basis, candidates)) == 3
        assert [list(e) for e in candidates] == [[0.0, 0.0, 1.0]]
        # rows that already span read one candidate and project none
        candidates = iter(np.eye(3))
        assert len(geometry._gram_schmidt(np.eye(3), candidates)) == 3
        assert len(list(candidates)) == 2
        self.assert_same_rows(s)
        self.assert_same_rows(Subspace(3, np.eye(3)))


class TestSpanFunctional:
    """The pipeline functional on span(S + {x}): z + t*x goes to t."""

    def test_anchor_inside_subspace_degenerate(self):
        s = span_basis([np.array([0.0, 0.0, 1.0])])
        with pytest.raises(DegenerateError):
            _span_functional(s, np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-14, 1e-9, 1e-6, 1.0, 1e6, 1e12])
    def test_anchor_in_subspace_is_relative_to_its_norm(self, scale):
        # x = scale (delta, 0, 1) against S = span{e3}: its frame residual is
        # about delta |x|, and the frame drops x (DegenerateError) just below
        # 1e-8 |x|; an absolute floor raised at 2e-8 below 1, and a scale
        # taken from |x| itself, whose square underflows below about 1e-154,
        # raised at 2e-8 there
        s = span_basis([np.array([0.0, 0.0, 1.0])])
        with pytest.raises(DegenerateError, match="the anchor lies in the subspace"):
            _span_functional(s, scale * np.array([5e-9, 0.0, 1.0]))
        x = scale * np.array([2e-8, 0.0, 1.0])
        f = _span_functional(s, x)
        assert f.domain.dim == 2 and f(x) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_roundtrip(self, n):
        rng = np.random.default_rng(100 + n)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(0, n))
            s = span_basis(list(rng.normal(size=(k, n))), n) if k else zero_subspace(n)
            x = rng.normal(size=n)
            if s.contains(x):
                continue
            coords_true = rng.normal(size=s.dim)
            t_true = float(rng.normal())
            y = (coords_true @ s.basis if s.dim else np.zeros(n)) + t_true * x
            f = _span_functional(s, x)
            worst = max(worst, abs(f(x) - 1.0), abs(f(y) - t_true), *(abs(f(b)) for b in s.basis))
        assert worst < 1e-9


class TestKernelHyperplane:
    def test_axis_normal(self):
        h = kernel_hyperplane(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(h.normal, [1, 0, 0], atol=1e-15)
        assert h.contains(np.array([0.0, 5.0, -2.0]))
        assert not h.contains(np.array([1e-6, 5.0, -2.0]))

    def test_scaled_input_normalized(self):
        h = kernel_hyperplane(np.array([1.0, 0.5]))
        np.testing.assert_allclose(np.linalg.norm(h.normal), 1.0, atol=1e-12)
        assert h.contains(np.array([-0.5, 1.0]))

    def test_zero_functional_degenerate(self):
        with pytest.raises(DegenerateError):
            kernel_hyperplane(np.zeros(2))
        with pytest.raises(DegenerateError):
            kernel_hyperplane(np.array([-0.0, 0.0]))

    @pytest.mark.parametrize("scale", [5e-324, 1e-300, 1e-160, 1e-13, 1e160, 1e300])
    def test_any_nonzero_entry_has_a_kernel(self, scale):
        # |g|^2 underflows below about 1e-154 and overflows above 1e154; a
        # power-of-two prescale gives those g the normal of unit scale
        h = kernel_hyperplane(np.array([1.0, 1.0]) * scale)
        np.testing.assert_allclose(h.normal, np.full(2, np.sqrt(0.5)), rtol=0.0, atol=1e-15)

    def test_unit_range_bits_are_g_over_its_norm(self):
        rng = np.random.default_rng(6)
        for g in rng.normal(size=(50, 4)) * 10.0 ** rng.uniform(-12, 12, size=(50, 1)):
            assert np.array_equal(kernel_hyperplane(g).normal, g / np.linalg.norm(g))

    def test_dim_is_the_ambient_dimension(self):
        assert kernel_hyperplane(np.array([0.0, 2.0, 0.0, 0.0])).dim == 4


class TestPartialFunctional:
    def test_evaluation(self):
        s = span_basis([np.array([1.0, 0.0])])
        f = PartialFunctional(s, np.array([2.0]))
        assert f(np.array([3.0, 0.0])) == pytest.approx(6.0)

    def test_value_count_mismatch(self):
        s = span_basis([np.array([1.0, 0.0])])
        with pytest.raises(InputError):
            PartialFunctional(s, np.array([1.0, 2.0]))

    def test_outside_domain(self):
        s = span_basis([np.array([1.0, 0.0])])
        f = PartialFunctional(s, np.array([1.0]))
        with pytest.raises(InputError):
            f(np.array([0.0, 1.0]))

    def test_zero_detection(self):
        assert PartialFunctional(zero_subspace(3), np.zeros(0)).is_zero()
        s = span_basis([np.array([1.0, 0.0])])
        assert PartialFunctional(s, np.array([0.0])).is_zero()
        assert not PartialFunctional(s, np.array([0.1])).is_zero()

    def test_coefficients_agree_on_domain(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            s = span_basis(list(rng.normal(size=(k, n))), n)
            f = PartialFunctional(s, rng.normal(size=s.dim))
            g = f.as_coefficients()
            for row, value in zip(s.basis, f.values):
                assert float(g @ row) == pytest.approx(value, abs=1e-10)


class TestSubspaceValidation:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(InputError):
            Subspace(2, np.array([[1.0, 1.0]]))

    def test_immutability(self):
        s = span_basis([np.array([1.0, 0.0])])
        with pytest.raises(ValueError):
            s.basis[0, 0] = 5.0
