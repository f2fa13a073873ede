"""Acceptance gate: every numbered criterion runs at its stated tolerance
and reports one line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from gaugesep import (
    ExtensionState,
    OpenBall,
    PartialFunctional,
    PolyhedralGauge,
    SeparationOptions,
    brute_force_2d_normals,
    build_D,
    complement_basis,
    domination_check,
    extend_full_state,
    extend_via_separation,
    extension_interval,
    gauge,
    gauge_from_symmetrized,
    pick_interior_point,
    remark2_equivalence_check,
    separate,
    span_basis,
)
from gaugesep.cli import main as cli_main
from gaugesep.separation import _span_functional

from helpers import (
    BisectionGauge,
    bundled,
    dominated_functional,
    random_instance,
    random_polyhedral_gauge,
    random_polytope_instance,
)

CROSS_GAUGE = PolyhedralGauge(
    np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]), np.ones(4)
)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d}: {text}: PASS")


def test_criterion_01_taxicab_gauge_both_paths(monkeypatch):
    """Bisection reference gauge within 1e-6 of |x|+|y|, polyhedral path exact and the
    pipeline's closed-form ball-cone gauge (one batch) within 1e-12, for an exact count
    of the body's membership calls (a cost that does not vary with machine load)."""
    a_set, _, anchor = bundled("example1")
    body = build_D(a_set, anchor)
    member, calls = type(body)._member, []

    def counting(self, e):
        calls.append(1)
        return member(self, e)

    monkeypatch.setattr(type(body), "_member", counting)
    oracle = BisectionGauge(body)
    rng = np.random.default_rng(101)
    points = rng.uniform(-10.0, 10.0, size=(1000, 2))
    start = time.perf_counter()
    oracle_values = np.array([gauge(oracle, e) for e in points])
    poly_values = np.array([gauge(CROSS_GAUGE, e) for e in points])
    closed_values = gauge(gauge_from_symmetrized(body), points)
    elapsed = time.perf_counter() - start
    truth = np.abs(points[:, 0]) + np.abs(points[:, 1])
    oracle_err = float(np.max(np.abs(oracle_values - truth)))
    poly_err = float(np.max(np.abs(poly_values - truth)))
    closed_err = float(np.max(np.abs(closed_values - truth)))
    assert oracle_err < 1e-6
    assert poly_err == 0.0
    assert closed_err < 1e-12
    assert len(calls) == 47670
    report(
        1,
        f"gauge paths agree with |x|+|y| (oracle {oracle_err:.1e}, exact 0, closed form {closed_err:.1e}, "
        f"{len(calls)} membership calls, {elapsed:.2f}s)",
    )


def test_criterion_02_conic_hull_grid():
    """Conic-hull verdicts match {x>0, |y|<x} on a 201x201 grid off a 1e-9 band."""
    from gaugesep import conic_hull_membership

    a_set, _, _ = bundled("example1")
    axis = np.linspace(-3.0, 3.0, 201)
    disagreements = 0
    compared = 0
    for x in axis:
        for y in axis:
            if abs(x) <= 1e-9 or abs(abs(y) - x) <= 1e-9:
                continue  # boundary band
            compared += 1
            expected = x > 0.0 and abs(y) < x
            if conic_hull_membership(a_set, np.array([x, y])) != expected:
                disagreements += 1
    assert compared > 39000
    assert disagreements == 0
    report(2, f"conic verdicts match the wedge on {compared} grid points")


def test_criterion_03_disk_separation_and_sweep():
    """Normal (1, b) with |b| <= 1 + 1e-8; the gamma sweep covers [-1, 1]
    within 1e-6; the angular oracle gives [45, 135] degrees, under 5 s."""
    a_set, s, x = bundled("example1")
    start = time.perf_counter()
    result = separate(a_set, s, SeparationOptions(x=x))
    b = result.g[1] / result.g[0]
    assert abs(b) <= 1.0 + 1e-8
    step = result.steps[0]
    assert step.interval.lo == pytest.approx(-1.0, abs=1e-6)
    assert step.interval.hi == pytest.approx(1.0, abs=1e-6)
    _, functional = (result.gauge_used, None)
    f = _span_functional(s, x)
    for t in np.linspace(0.0, 1.0, 11):
        gamma = step.interval.lo + t * step.interval.width
        g = f.as_coefficients() + gamma * np.asarray(step.direction)
        assert g[1] / g[0] == pytest.approx(-1.0 + 2.0 * t, abs=1e-6)
    angles = np.degrees(brute_force_2d_normals(a_set, 1800))
    assert angles.min() == pytest.approx(45.0, abs=0.1 + 1e-12)
    assert angles.max() == pytest.approx(135.0, abs=0.1 + 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"b sweeps [-1, 1], fan = [{angles.min():.1f}, {angles.max():.1f}] deg, {elapsed:.2f}s")


def test_criterion_04_halfspace_uniqueness():
    """Normal proportional to (1,0,0) with off-axis parts < 1e-8; every
    gamma interval past the span is a point; the gauge kills (0,5,7)."""
    a_set, s, x = bundled("example2")
    result = separate(a_set, s, SeparationOptions(x=x))
    normal = np.asarray(result.hyperplane.normal) * np.sign(result.hyperplane.normal[0])
    assert abs(normal[1]) < 1e-8 and abs(normal[2]) < 1e-8
    assert normal[0] == pytest.approx(1.0, abs=1e-12)
    widths = [step.interval.width for step in result.steps]
    assert widths and all(w < 1e-8 for w in widths)
    assert gauge(result.gauge_used, np.array([0.0, 5.0, 7.0])) == 0.0
    report(4, f"unique normal (1,0,0), interval widths {max(widths):.1e}, seminorm kernel exact")


def test_criterion_05_anchor_gauge_is_one():
    """|p(x) - 1| < 1e-6 over 100 randomized pipeline instances (n <= 4)."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 5))
        a_set, _ = random_instance(rng, n)
        x = np.asarray(a_set.center) if isinstance(a_set, OpenBall) else pick_interior_point(a_set)
        p = gauge_from_symmetrized(build_D(a_set, x))
        worst = max(worst, abs(gauge(p, x) - 1.0))
    assert worst < 1e-6
    report(5, f"anchor gauge within {worst:.1e} of 1 over 100 instances")


def test_criterion_06_remark2_biconditional():
    """Dominated iff kernel-disjoint over 500 candidates per instance."""
    rng = np.random.default_rng(106)
    instances = []
    for _ in range(4):
        n = int(rng.integers(2, 4))
        a_set, s = random_polytope_instance(rng, n)
        x = pick_interior_point(a_set)
        p = gauge_from_symmetrized(build_D(a_set, x))
        instances.append((a_set, s, x, p))
    disk, s0, x0 = bundled("example1")
    instances.append((disk, s0, x0, CROSS_GAUGE))  # exact form of the disk's gauge

    checked = 0
    for a_set, s, x, p in instances:
        f = _span_functional(s, np.asarray(x))
        directions = complement_basis(f.domain)
        if not directions:
            continue
        state = ExtensionState(f, p)
        interval = extension_interval(state, directions[0])
        scale = max(1.0, abs(interval.lo), abs(interval.hi))
        gammas = [interval.lo + t * interval.width for t in np.linspace(0.02, 0.98, 250)]
        for offset in np.linspace(0.05, 2.0, 125):
            gammas.append(interval.hi + offset * scale)
            gammas.append(interval.lo - offset * scale)
        assert len(gammas) == 500
        rest = [0.0] * (len(directions) - 1)
        for gamma in gammas:
            g = f.as_coefficients() + np.array([gamma] + rest) @ np.asarray(directions)
            dominated, disjoint = remark2_equivalence_check(a_set, s, x, p, g)
            assert dominated == disjoint
            checked += 1
    assert checked == 2500
    report(6, f"domination and disjointness agreed on all {checked} candidates")


def test_criterion_07_interval_sandwich_and_domination():
    """500 random dominated instances: lo <= hi + 1e-7 and the full
    extension passes the domination check at 1e-6."""
    rng = np.random.default_rng(107)
    worst_violation = -np.inf
    for trial in range(500):
        n = int(rng.integers(2, 6))
        p = random_polyhedral_gauge(rng, n)
        f, _ = dominated_functional(rng, p, int(rng.integers(1, n)))
        state = ExtensionState(f, p)
        z = next(c for c in np.eye(n) if not f.domain.contains(c))
        interval = extension_interval(state, z)
        assert interval.lo <= interval.hi + 1e-7
        g = extend_full_state(f, p, seed=trial).functional.as_coefficients()
        violation = domination_check(g, p, seed=trial)
        worst_violation = max(worst_violation, violation)
        assert violation <= 1e-6
    report(7, f"500 sandwiches held; worst domination violation {worst_violation:.1e}")


def test_criterion_08_geometric_roundtrip():
    """The geometric route reproduces dominated extensions: domain agreement
    < 1e-8 and domination < 1e-6 on both fixtures plus 50 random instances;
    the half-space fixture returns exactly (1,0,0)."""
    # disk fixture
    f_disk = PartialFunctional(span_basis([np.array([1.0, 0.0])]), np.array([1.0]))
    g_disk = extend_via_separation(f_disk, CROSS_GAUGE).functional.as_coefficients()
    assert g_disk[0] == pytest.approx(1.0, abs=1e-8)
    assert abs(g_disk[1]) <= 1.0 + 1e-8
    assert domination_check(g_disk, CROSS_GAUGE, seed=0) <= 1e-6
    # half-space fixture: unique answer
    domain = span_basis([np.array([1.0, -3.0, 0.0]), np.array([0.0, 0.0, 1.0])])
    f_half = PartialFunctional(domain, np.array([float(u[0]) for u in domain.basis]))
    slab = PolyhedralGauge(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.ones(2))
    g_half = extend_via_separation(f_half, slab).functional.as_coefficients()
    np.testing.assert_allclose(g_half, [1.0, 0.0, 0.0], atol=1e-8)
    # random instances
    rng = np.random.default_rng(108)
    worst_agree = 0.0
    worst_dom = -np.inf
    for trial in range(50):
        n = int(rng.integers(2, 5))
        p = random_polyhedral_gauge(rng, n)
        f, _ = dominated_functional(rng, p, int(rng.integers(1, n)))
        g = extend_via_separation(f, p, seed=trial).functional.as_coefficients()
        worst_agree = max(worst_agree, float(np.max(np.abs(f.domain.basis @ g - f.values))))
        worst_dom = max(worst_dom, domination_check(g, p, seed=trial))
    assert worst_agree < 1e-8
    assert worst_dom <= 1e-6
    report(8, f"52 roundtrips: agreement {worst_agree:.1e}, domination {worst_dom:.1e}")


def test_criterion_09_quotient_fixture():
    """The two-dimensional quotient instance separates along {v = 0}."""
    a_set, s, x = bundled("example3_quotient")
    result = separate(a_set, s, SeparationOptions(x=x))
    normal = np.asarray(result.hyperplane.normal)
    assert abs(normal[0]) < 1e-8
    assert abs(abs(normal[1]) - 1.0) < 1e-12
    assert result.certificate.valid
    report(9, "quotient instance returns the hyperplane {v = 0}")


def test_criterion_10_repro_under_thirty_seconds(capsys):
    """The repro subcommand passes end to end in under 30 s."""
    start = time.perf_counter()
    code = cli_main(["repro"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("REPRO")]
    assert code == 0
    assert len(lines) == 3 and all(line.endswith("PASS") for line in lines)
    assert elapsed < 30.0
    with capsys.disabled():
        pass
    report(10, f"repro reproduced all bundled goldens in {elapsed:.2f}s")
