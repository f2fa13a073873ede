"""The named-oracle registry used by problem files.

The bundled problems themselves are the files under ``problems/``; load
them with ``cli.parse_problem``.
"""

from __future__ import annotations

import numpy as np

from .convexsets import ConvexSet, OracleSet
from .errors import InputError


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
