"""The public surface: ``gaugesep.__all__``, the test-only machinery that
lives in ``tests/helpers.py`` instead of the package, and the input checks
of the constructors and entry points."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import gaugesep
from gaugesep import (
    BallCone,
    ExplicitMaxAbs,
    HPolyhedron,
    Hyperplane,
    InputError,
    OpenBall,
    OracleSet,
    PartialFunctional,
    PolyhedralGauge,
    Subspace,
    as_vector,
    brute_force_2d_normals,
    chebyshev_center,
    pick_interior_point,
    separate,
    span_basis,
    zero_subspace,
)
from gaugesep._svg import render_svg
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


DISK = OpenBall(np.array([2.0, 0.0]), 1.0)
BALL3 = OpenBall(np.array([2.0, 0.0, 0.0]), 1.0)

# (what is checked, the call, the whole InputError message)
INPUT_CHECKS = [
    ("as_vector-shape", lambda: as_vector([[1.0, 2.0]]), "expected a 1-D vector, got array of shape (1, 2)"),
    ("as_vector-empty", lambda: as_vector([]), "vectors must have positive dimension"),
    ("Subspace-ambient", lambda: Subspace(0, np.zeros((0, 0))), "ambient dimension must be positive"),
    ("Subspace-rows", lambda: Subspace(2, np.zeros((3, 2))), "subspace dimension exceeds ambient dimension"),
    ("span_basis-mixed", lambda: span_basis([[1.0, 0.0], [1.0]]), "vectors have mismatched dimensions: [1, 2]"),
    ("span_basis-empty", lambda: span_basis([]), "ambient_dim is required for an empty span"),
    ("span_basis-ambient", lambda: span_basis([[1.0, 0.0]], 3), "vectors of dimension 2 in ambient R^3"),
    (
        "PartialFunctional-finite",
        lambda: PartialFunctional(span_basis([[1.0, 0.0]]), [np.nan]),
        "functional values must be finite",
    ),
    ("Hyperplane-unit", lambda: Hyperplane([1.0, 1.0]), "hyperplane normal must be unit length; use kernel_hyperplane()"),
    ("HPolyhedron-rows", lambda: HPolyhedron(np.ones(2), np.ones(2)), "HPolyhedron rows must form a 2-D array"),
    ("OracleSet-dim", lambda: OracleSet(0, lambda e: True), "oracle dimension must be positive"),
    ("BallCone-radius", lambda: BallCone(np.array([1.0, 0.0]), 0.0), "ball radius must be positive"),
    ("PolyhedralGauge-rows", lambda: PolyhedralGauge(np.ones(2), np.ones(2)), "gauge rows must form a 2-D array"),
    (
        "PolyhedralGauge-count",
        lambda: PolyhedralGauge(np.eye(2), np.ones(3)),
        "row count of a and length of b disagree",
    ),
    ("ExplicitMaxAbs-rows", lambda: ExplicitMaxAbs([1.0, 1.0]), "coefficient rows must form a 2-D array"),
    ("sample_interior-count", lambda: sample_interior(DISK, 0), "sample count must be positive"),
    ("separate-dimension", lambda: separate(DISK, zero_subspace(3)), "set and subspace dimensions disagree"),
    (
        "chebyshev_center-whole-space",
        lambda: chebyshev_center(HPolyhedron(np.zeros((0, 2)), np.zeros(0))),
        "the whole space has no deepest point; supply constraints or a witness",
    ),
    ("brute_force_2d_normals-dim", lambda: brute_force_2d_normals(BALL3), "the angular oracle is 2-D only"),
    ("brute_force_2d_normals-grid", lambda: brute_force_2d_normals(DISK, 0), "grid must be positive"),
    ("render_svg-dim", lambda: render_svg(BALL3), "SVG rendering is 2-D only"),
]


@pytest.mark.parametrize("call,message", [case[1:] for case in INPUT_CHECKS], ids=[case[0] for case in INPUT_CHECKS])
def test_input_checks_name_their_fault(call, message):
    with pytest.raises(InputError) as raised:
        call()
    assert str(raised.value) == message
