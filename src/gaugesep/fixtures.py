"""Bundled instances and the named-oracle registry used by problem files."""

from __future__ import annotations

import numpy as np

from .convexsets import ConvexSet, HPolyhedron, OpenBall, OracleSet
from .errors import InputError
from .geometry import Subspace, span_basis, zero_subspace


def disk_instance() -> tuple[OpenBall, Subspace, np.ndarray]:
    """Open disk of radius sqrt(2) centered at (2, 0) against the origin."""
    a_set = OpenBall(np.array([2.0, 0.0]), np.sqrt(2.0))
    return a_set, zero_subspace(2), np.array([1.0, 0.0])


def halfspace_instance() -> tuple[HPolyhedron, Subspace, np.ndarray]:
    """Open half-space {x > 0} in R^3 against the z-axis."""
    a_set = HPolyhedron(np.array([[-1.0, 0.0, 0.0]]), np.array([0.0]), witness=np.array([1.0, -3.0, 0.0]))
    s = span_basis([np.array([0.0, 0.0, 1.0])])
    return a_set, s, np.array([1.0, -3.0, 0.0])


def quotient_instance() -> tuple[HPolyhedron, Subspace, np.ndarray]:
    """Two-dimensional evaluation quotient of the function-space instance.

    Coordinates are (value at 0, value at 1); the set is the open lower
    half-plane {v < 0}, the subspace collapses to the origin, and the anchor
    is the image (-2, -1) of x |-> x - 2.
    """
    a_set = HPolyhedron(np.array([[0.0, 1.0]]), np.array([0.0]), witness=np.array([-2.0, -1.0]))
    return a_set, zero_subspace(2), np.array([-2.0, -1.0])


def _disk_oracle() -> OracleSet:
    center = np.array([2.0, 0.0])
    radius = np.sqrt(2.0)

    def member(e: np.ndarray) -> bool:
        return float(np.linalg.norm(e - center)) < radius

    return OracleSet(2, member, witness=center)


def _halfspace_oracle() -> OracleSet:
    witness = np.array([1.0, -3.0, 0.0])
    return OracleSet(3, lambda e: e[0] > 0.0, witness=witness)


def _unit_box_oracle() -> OracleSet:
    center = np.array([3.0, 0.0])

    def member(e: np.ndarray) -> bool:
        return bool(np.all(np.abs(e - center) < 1.0))

    return OracleSet(2, member, witness=center)


# Names resolvable from problem files; oracle problems stay data-only.
ORACLE_REGISTRY = {
    "offset-disk": _disk_oracle,
    "halfspace-x": _halfspace_oracle,
    "offset-box": _unit_box_oracle,
}


def oracle_by_name(name: str) -> ConvexSet:
    try:
        factory = ORACLE_REGISTRY[name]
    except KeyError:
        raise InputError(f"unknown oracle fixture {name!r}; known: {sorted(ORACLE_REGISTRY)}") from None
    return factory()
