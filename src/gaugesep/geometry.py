"""Exact-tolerance linear algebra: subspaces, partial functionals, hyperplanes.

Subspaces carry orthonormal bases (classical Gram-Schmidt, each candidate
projected twice onto the complement of the rows so far) so membership
questions reduce to projector residuals governed by a single knob,
``TOL_MEMBERSHIP``.  Tolerances are absolute and calibrated for unit-scale
data; callers working at other scales should rescale first.

Full-space functionals are plain coefficient vectors against the standard
basis.  Everything here is an immutable value and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, InputError

TOL_MEMBERSHIP = 1e-9
TOL_ORTHO = 1e-10
TOL_DEPENDENT = 1e-8  # Gram-Schmidt candidate rejection threshold


def as_vector(values, dim: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a finite 1-D float array, optionally checking length."""
    v = np.array(values, dtype=float)
    if v.ndim != 1:
        raise InputError(f"expected a 1-D vector, got array of shape {v.shape}")
    if v.size == 0:
        raise InputError("vectors must have positive dimension")
    if dim is not None and v.size != dim:
        raise InputError(f"dimension mismatch: expected {dim}, got {v.size}")
    if not np.isfinite(v).all():  # the method: np.all's wrapper costs more than the test on short vectors
        raise InputError("vector entries must be finite")
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^n held as orthonormal basis rows.

    ``basis`` has shape ``(dim, ambient_dim)``; ``dim`` may be zero.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise InputError("ambient dimension must be positive")
        basis = np.asarray(self.basis, dtype=float).reshape(-1, self.ambient_dim)
        if basis.shape[0] > self.ambient_dim:
            raise InputError("subspace dimension exceeds ambient dimension")
        gram = basis @ basis.T
        if basis.shape[0] and np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e2 * TOL_ORTHO:
            raise InputError("basis rows are not orthonormal; build with span_basis()")
        object.__setattr__(self, "basis", _frozen(basis))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project(self, y: np.ndarray) -> np.ndarray:
        y = as_vector(y, self.ambient_dim)
        return self.basis.T @ (self.basis @ y)

    def distance(self, y: np.ndarray) -> float:
        y = as_vector(y, self.ambient_dim)
        return float(np.linalg.norm(y - self.project(y)))

    def contains(self, y) -> bool:
        y = as_vector(y, self.ambient_dim)
        return self.distance(y) <= TOL_MEMBERSHIP * max(1.0, float(np.linalg.norm(y)))


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.zeros((0, ambient_dim)))


def _gram_schmidt(rows, candidates) -> list[np.ndarray]:
    """``rows`` (orthonormal) extended by each candidate's normalized residual
    after two block projections ``w - (Q w) Q`` onto the complement of the
    rows Q so far: classical Gram-Schmidt twice, which keeps orthogonality
    at working precision (Giraud, Langou & Rozloznik 2005); a residual of
    norm at most ``TOL_DEPENDENT * max(1, |v|)`` for the candidate ``v`` is
    dropped.  The scan stops once the rows span the space."""
    rows = list(rows)
    for v in candidates:
        if len(rows) == v.size:
            break
        q = np.array(rows).reshape(len(rows), v.size)
        w = v - (q @ v) @ q
        w = w - (q @ w) @ q
        norm = float(np.sqrt(w.dot(w)))  # np.linalg.norm's bits, without its per-call checks
        if norm > TOL_DEPENDENT * max(1.0, float(np.sqrt(v.dot(v)))):
            rows.append(w / norm)
    return rows


def span_basis(vectors, ambient_dim: int | None = None) -> Subspace:
    """Orthonormalize ``vectors`` into a Subspace, compressing rank deficiency:
    ``_gram_schmidt`` drops a candidate ``v`` whose residual is at most
    ``TOL_DEPENDENT * max(1, |v|)``, absolute below |v| = 1, relative above."""
    vecs = [as_vector(v) for v in vectors]
    dims = {v.size for v in vecs}
    if len(dims) > 1:
        raise InputError(f"vectors have mismatched dimensions: {sorted(dims)}")
    if ambient_dim is None:
        if not vecs:
            raise InputError("ambient_dim is required for an empty span")
        ambient_dim = vecs[0].size
    elif dims and dims != {ambient_dim}:
        raise InputError(f"vectors of dimension {dims.pop()} in ambient R^{ambient_dim}")

    rows = _gram_schmidt([], vecs)
    return Subspace(ambient_dim, np.array(rows).reshape(len(rows), ambient_dim))


def complement_basis(s: Subspace) -> list[np.ndarray]:
    """The rows that complete ``s.basis`` to an orthonormal basis of R^n,
    deterministic: one ``_gram_schmidt`` pass over e_1 ... e_n in index
    order, which drops the near-dependent ones and stops once the rows span R^n."""
    return _gram_schmidt(s.basis, np.eye(s.ambient_dim))[s.dim:]


@dataclass(frozen=True, eq=False)
class PartialFunctional:
    """A linear functional on a subspace: one value per basis row of ``domain``."""

    domain: Subspace
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.size != self.domain.dim:
            raise InputError(
                f"need {self.domain.dim} values for a {self.domain.dim}-dimensional domain, got {values.size}"
            )
        if values.size and not np.all(np.isfinite(values)):
            raise InputError("functional values must be finite")
        object.__setattr__(self, "values", _frozen(values))

    def __call__(self, y) -> float:
        y = as_vector(y, self.domain.ambient_dim)
        if not self.domain.contains(y):
            raise InputError("point is outside the functional's domain")
        return float((self.domain.basis @ y) @ self.values)

    def is_zero(self) -> bool:
        return self.domain.dim == 0 or bool(np.all(self.values == 0.0))

    def as_coefficients(self) -> np.ndarray:
        """Minimum-norm full-space coefficient vector agreeing on the domain."""
        return self.values @ self.domain.basis


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """A hyperplane through the origin: the kernel of ``normal . e``."""

    normal: np.ndarray

    def __post_init__(self):
        normal = as_vector(self.normal)
        norm = float(np.linalg.norm(normal))
        if abs(norm - 1.0) > TOL_ORTHO:
            raise InputError("hyperplane normal must be unit length; use kernel_hyperplane()")
        object.__setattr__(self, "normal", _frozen(normal))

    @property
    def dim(self) -> int:
        return self.normal.size

    def contains(self, e) -> bool:
        e = as_vector(e, self.normal.size)
        return abs(float(self.normal @ e)) <= TOL_MEMBERSHIP * max(1.0, float(np.linalg.norm(e)))


def kernel_hyperplane(g) -> Hyperplane:
    """Hyperplane ``{e : g . e = 0}`` for a nonzero coefficient vector ``g``."""
    g = as_vector(g)
    norm = float(np.linalg.norm(g))
    if norm <= 1e-12:
        raise DegenerateError("the zero functional has no kernel hyperplane")
    return Hyperplane(g / norm)
