"""The public surface: ``gaugesep.__all__``, and the test-only machinery that
lives in ``tests/helpers.py`` instead of the package."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np

import gaugesep
from gaugesep import OpenBall, OracleSet, chebyshev_center, pick_interior_point
from gaugesep.convexsets import sample_interior
from gaugesep.extension import _checked_domination, domination_check
from gaugesep.separation import _certificate, verify_separation
from gaugesep.simplexlp import LPResult, solve_lp

from helpers import BisectionGauge

# every module but __main__, which runs the CLI on import
MODULES = [gaugesep] + [
    importlib.import_module(f"gaugesep.{info.name}")
    for info in pkgutil.iter_modules(gaugesep.__path__)
    if info.name != "__main__"
]

REMOVED = [
    "AxiomReport",
    "GAUGE_TOL",
    "Phase1",
    "RECESSION_CAP",
    "_Ball",
    "_ball_phi",
    "_forced_end",
    "_gauge",
    "_gauge_ball_cone",
    "_gauge_bisection",
    "_gauge_section",
    "_kernel_disjoint",
    "_domination_start",
    "_meets",
    "_mirror_rows",
    "_phi",
    "_remark2_pair",
    "_slack",
    "_start",
    "check_seminorm_axioms",
    "decompose",
    "disk_instance",
    "extend_with_values",
    "halfspace_instance",
    "is_empty",
    "quotient_instance",
]


def test_all_is_sorted_and_resolves():
    assert gaugesep.__all__ == sorted(gaugesep.__all__)
    assert len(set(gaugesep.__all__)) == len(gaugesep.__all__)
    missing = [name for name in gaugesep.__all__ if not hasattr(gaugesep, name)]
    assert missing == []


def test_removed_names_are_gone():
    assert len(MODULES) > 10
    for module in MODULES:
        left = [name for name in REMOVED if hasattr(module, name)]
        assert left == [], module.__name__
    assert not hasattr(gaugesep.Subspace, "projector_matrix")
    # solve_lp takes the LP alone, so every LP is its own cold solve
    assert "start" not in inspect.signature(solve_lp).parameters
    assert not {"_phase1", "phase1_basis"} & {f.name for f in dataclasses.fields(LPResult)}
    assert "start" not in inspect.signature(sample_interior).parameters
    assert "start" not in inspect.signature(_certificate).parameters
    # the domination LP starts cold: no caller has a basis worth handing it
    for fn in (domination_check, _checked_domination):
        assert "start" not in inspect.signature(fn).parameters
    # remark2_equivalence_check is the one Remark-2 entry point
    assert not {"g", "gauge_p"} & set(inspect.signature(verify_separation).parameters)
    # pick_interior_point is separate()'s one emptiness decision, on its own LP
    for fn in (chebyshev_center, pick_interior_point):
        assert "ball" not in inspect.signature(fn).parameters


def test_one_seminorm_interface():
    # each gauge type gives its own values, interval ends and polar, so the
    # extension module names no gauge type
    extension = importlib.import_module("gaugesep.extension")
    for cls in (gaugesep.PolyhedralGauge, gaugesep.BallConeGauge, gaugesep.OracleGauge):
        assert cls not in vars(extension).values()
    for cls in (gaugesep.PolyhedralGauge, gaugesep.BallConeGauge, gaugesep.OracleGauge, BisectionGauge):
        missing = [name for name in ("_SLACK", "_values", "_ends", "_polar") if not hasattr(cls, name)]
        assert missing == [], cls.__name__


def test_sample_interior_is_the_membership_walk():
    # certificates sample membership oracles only, so sample_interior walks
    # every set by membership; the direct ball and polyhedron samplers are
    # the test reference helpers.sample_exact
    ball = OpenBall(np.array([2.0, 0.0]), 1.0)
    walk = OracleSet(2, ball.contains, witness=ball.center)
    np.testing.assert_array_equal(sample_interior(ball, 50, seed=3), sample_interior(walk, 50, seed=3))
