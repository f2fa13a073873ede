"""Seeded inputs and the operations each workload runs.

An operation is one call into the program plus the independent check of its
output (see ``checks.py``).  Inputs depend on the seed alone; the program
receives only the generated sets, subspaces and problem files.

Every workload function takes the freshly imported ``gaugesep`` package and
calls the program through module attributes (``package.separation.separate``,
``package.cli.main``) at call time, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Instances per rung, in generation order.  poly-sep and ball-sep make one
# pass over many distinct instances, so a run averages over the seed's
# instances; cli-query repeats a fixed mix of queries.  The counts put the
# median latency inside one rung (rot6, ball2, gauge-box8) and the tail, the
# latency with ten ok samples above it, inside another (rot12; the three
# example1 operations just below the nine ball3 ones; verify-box8).
ROTATED_BOXES = {4: 48, 6: 48, 8: 18, 10: 12, 12: 12}
AXIS_BOXES = {20: 9, 40: 6}
BALLS = {2: 40, 3: 9}
# seconds per pass on the reference machine; a run of S seconds makes
# round(S / pass time) passes, so the pass count stays fixed however fast
# the program gets
NOMINAL_PASS_S = {"poly-sep": 27.0, "ball-sep": 35.0, "cli-query": 0.5}
# (subcommand, problem) -> queries per pass
CLI_QUERIES = {
    ("gauge", "example1"): 2,
    ("gauge", "box8"): 20,
    ("gauge", "offset-disk"): 2,
    ("gauge", "offset-box"): 2,
    ("conic", "example1"): 2,
    ("conic", "box8"): 2,
    ("conic", "offset-disk"): 2,
    ("conic", "offset-box"): 2,
    ("verify", "example1"): 2,
    ("verify", "box8"): 12,
}
CLI_FIXED = [(cmd, name) for cmd in ("extend", "roundtrip", "separate") for name in ("example2", "example3_quotient")]

# registry oracles of gaugesep.fixtures, restated as plain data
OFFSET_DISK = (np.array([2.0, 0.0]), float(np.sqrt(2.0)))
OFFSET_BOX_CENTER = np.array([3.0, 0.0])
# the oracle conic test scans dilations on a log grid with ratio ~1.34, so
# oracle conic queries keep at least this ratio of room inside the ray
ORACLE_CONE_ROOM = 1.5

# Rungs whose answers are known to be wrong although the program presents them
# as valid.  They are still checked and counted as wrong; a silent wrong
# answer anywhere else makes the run incorrect.
KNOWN_SILENT_WRONG = {
    # the oracle gauge bisects on the search-backed conic-hull membership,
    # which resolves only to its dilation scan grid, so values are off by
    # 0.1% to 30%
    "gauge-offset-disk",
    "gauge-offset-box",
}


class CliExit(RuntimeError):
    """The command line returned a nonzero exit code."""


@dataclass
class Op:
    label: str  # "<rung>/<index>"
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, bool]]  # (passes the reference check, program claims it valid)
    data: bytes  # canonical input description, hashed into the instance digest

    @property
    def rung(self) -> str:
        return self.label.split("/")[0]


@dataclass(frozen=True)
class Box:
    """``{x : |q^T (x - c)|_i < h_i}`` against the subspace with basis rows ``basis``."""

    c: np.ndarray
    h: np.ndarray
    q: np.ndarray
    basis: np.ndarray

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        proj = self.q.T @ self.c
        return np.vstack([self.q.T, -self.q.T]), np.concatenate([self.h + proj, self.h - proj])

    def separates(self, normal) -> bool:
        return checks.box_separates(normal, self.basis, self.c, self.h, self.q)

    def data(self) -> bytes:
        return b"".join(np.ascontiguousarray(v).tobytes() for v in (self.c, self.h, self.q, self.basis))


@dataclass(frozen=True)
class Ball:
    c: np.ndarray
    r: float
    basis: np.ndarray

    def separates(self, normal) -> bool:
        return checks.ball_separates(normal, self.basis, self.c, self.r)

    def data(self) -> bytes:
        return self.c.tobytes() + np.float64(self.r).tobytes() + np.ascontiguousarray(self.basis).tobytes()


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.label.encode() + b"\0" + op.data)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# instance generators


def _subspace_basis(rng, n: int, k: int, normal=None) -> np.ndarray:
    """Orthonormal rows of a random k-dim subspace, orthogonal to ``normal``."""
    cols = rng.normal(size=(n, k))
    if normal is None:
        return np.linalg.qr(cols)[0].T
    return np.linalg.qr(np.column_stack([normal, cols]))[0][:, 1:].T


def rotated_box(rng, n: int, *, cube: bool = False) -> Box:
    """Dense-row box with n/2 negative-offset rows, against a random n/2-dim S.

    Half the axes put the centre beyond the half-width (those rows have
    negative offsets, so the conic hull gains about n^2/2 cross rows); the
    direction of the centre separates with margin, and S is drawn orthogonal
    to it.
    """
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    h = np.ones(n) if cube else rng.uniform(0.5, 1.5, n)
    while True:
        w = h * rng.uniform(0.2, 0.8, n) * rng.choice([-1.0, 1.0], n)
        far = rng.permutation(n)[: n // 2]
        w[far] = np.sign(w[far]) * h[far] * rng.uniform(1.5, 3.0, far.size)
        if float(w @ w) > 1.1 * float(h @ np.abs(w)):  # |c| > 1.1 * support(c/|c|)
            break
    c = q @ w
    return Box(c, h, q, _subspace_basis(rng, n, n // 2, checks.unit(c)))


def axis_box(rng, n: int, *, dense_s: bool = False) -> Box:
    """Axis box with one negative-offset row (x_0 > c_0 - h_0 > 0) against an
    n/2-dim S inside x_0 = 0: spanned by coordinate axes, or with
    ``dense_s`` by random vectors."""
    h = rng.uniform(0.5, 1.5, n)
    c = h * rng.uniform(-0.8, 0.8, n)
    c[0] = h[0] * rng.uniform(1.5, 3.0)
    if dense_s:
        basis = _subspace_basis(rng, n, n // 2, np.eye(n)[0])
    else:
        basis = np.eye(n)[np.sort(1 + rng.permutation(n - 1)[: n // 2])]
    return Box(c, h, np.eye(n), basis)


def roadmap_box(scale: float) -> Box:
    """(4,6) x (0,2) x (-1,1), times ``scale``, against S = span{e3}."""
    return Box(np.array([5.0, 1.0, 0.0]) * scale, np.ones(3) * scale, np.eye(3), np.array([[0.0, 0.0, 1.0]]))


def random_ball(rng, n: int) -> Ball:
    basis = _subspace_basis(rng, n, n // 2)
    while True:
        c = rng.normal(size=n) * 2.0
        dist = float(np.linalg.norm(c - basis.T @ (basis @ c)))
        if dist >= 0.5:
            return Ball(c, float(rng.uniform(0.3, 0.8)) * dist, basis)


# ---------------------------------------------------------------------------
# library operations


def _subspace(package, basis: np.ndarray, n: int):
    return package.span_basis(list(basis), n) if basis.shape[0] else package.zero_subspace(n)


def _separate_op(package, label: str, a_set, shape, x=None, gamma_rule: str = "upper") -> Op:
    separation = package.separation
    s = _subspace(package, shape.basis, a_set.dim)
    opts = package.SeparationOptions(x=x, gamma_rule=gamma_rule)

    def call():
        return separation.separate(a_set, s, opts)

    def check(result) -> tuple[bool, bool]:
        return shape.separates(np.asarray(result.hyperplane.normal)), bool(result.certificate.valid)

    return Op(label, call, check, shape.data())


def _box_op(package, label: str, box: Box) -> Op:
    a, b = box.rows()
    return _separate_op(package, label, package.HPolyhedron(a, b), box)


def _disk_op(package, label: str, scale: float, gamma_rule: str = "upper") -> Op:
    """Bundled example1 (disk at (2,0), radius sqrt 2, anchor (1,0)), scaled."""
    c, r = OFFSET_DISK
    ball = Ball(c * scale, r * scale, np.zeros((0, 2)))
    x = np.array([1.0, 0.0]) * scale
    return _separate_op(package, label, package.OpenBall(ball.c, ball.r), ball, x=x, gamma_rule=gamma_rule)


def poly_sep(package, rng, workdir: Path) -> list[Op]:
    ops = []
    for n, count in ROTATED_BOXES.items():
        ops += [_box_op(package, f"rot{n}/{i}", rotated_box(rng, n)) for i in range(count)]
    for n, count in AXIS_BOXES.items():
        ops += [_box_op(package, f"axis{n}/{i}", axis_box(rng, n)) for i in range(count)]
    ops.append(_box_op(package, "roadmap-box/x1", roadmap_box(1.0)))
    ops.append(_box_op(package, "roadmap-box/x1e4", roadmap_box(1e4)))
    # fixed robustness row, the same at every seed: with a dense S, 40-D axis
    # boxes make solve_lp report spurious unbounded or infeasible LPs
    ops.append(_box_op(package, "dense-s-box/n40", axis_box(np.random.default_rng(40), 40, dense_s=True)))
    return ops


def ball_sep(package, rng, workdir: Path) -> list[Op]:
    ops = []
    for n, count in BALLS.items():
        for i in range(count):
            ball = random_ball(rng, n)
            ops.append(_separate_op(package, f"ball{n}/{i}", package.OpenBall(ball.c, ball.r), ball))
    # the bundled disk under each gamma rule: three operations of one cost
    # class that are the same at every seed, and hold the tail (see BALLS)
    ops += [_disk_op(package, f"example1/{rule}", 1.0, rule) for rule in ("upper", "lower", "midpoint")]
    ops.append(_disk_op(package, "roadmap-disk/x1e-6", 1e-6))
    ops.append(_disk_op(package, "roadmap-disk/x1e-4", 1e-4))
    return ops


# ---------------------------------------------------------------------------
# command-line operations


def _fmt(v) -> str:
    return ",".join(format(float(t), ".17g") for t in v)


def _cli_op(package, label: str, argv: list[str], check_doc: Callable[[dict], tuple[bool, bool]], data: bytes) -> Op:
    cli = package.cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CliExit(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(text: str) -> tuple[bool, bool]:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return False, True
        return check_doc(doc)

    return Op(label, call, check, data)


def _problem_doc(dim: int, a_node: dict, basis: np.ndarray, x=None) -> dict:
    doc = {"version": 1, "dimension": dim, "A": a_node, "S": {"basis": [list(map(float, v)) for v in basis]}}
    if x is not None:
        doc["x"] = list(map(float, x))
    doc["options"] = {"gamma_rule": "upper", "seed": 0}
    return doc


def _box_node(box: Box) -> dict:
    a, b = box.rows()
    return {"kind": "hpoly", "rows": [{"a": list(map(float, r)), "b": float(o), "strict": True} for r, o in zip(a, b)]}


@dataclass(frozen=True)
class _QueryShape:
    """What the command-line checks know about one problem's set."""

    dim: int
    gauge: Callable[[np.ndarray], float]  # reference gauge around the problem's anchor
    ray: Callable[[np.ndarray, float], tuple[float, float]]  # (y, growth) -> t-interval of t*y in the grown set
    interior: Callable[[], np.ndarray]  # a random interior point
    oracle: bool  # membership answered by the search, which resolves only to its scan grid

    def cone_query(self, rng, inside: bool) -> np.ndarray:
        """A point clearly inside or clearly outside the set's conic hull.

        For oracle sets, inside points keep a dilation range of ratio
        ORACLE_CONE_ROOM along their ray, and outside rays also miss the set
        grown by 20%."""
        room, growth = (ORACLE_CONE_ROOM, 1.2) if self.oracle else (1.0, 1.0)
        while True:
            if inside:
                y = self.interior() * rng.uniform(0.1, 10.0)
                lo, hi = self.ray(y, 1.0)
                if lo > 0.0 and hi >= room * lo:
                    return y
            else:
                y = rng.normal(size=self.dim)
                lo, hi = self.ray(y, growth)
                if lo >= hi:
                    return y


def _bundled_halfspace(name: str) -> tuple[np.ndarray, np.ndarray]:
    """(row a, anchor x) of a bundled problem whose set is {a.e < 0}."""
    raw = json.loads(resources.files("gaugesep").joinpath(f"problems/{name}.json").read_text())
    (row,) = raw["A"]["rows"]
    if row["b"] != 0.0:
        raise ValueError(f"{name} is not a half-space through the origin")
    return np.array(row["a"], dtype=float), np.array(raw["x"], dtype=float)


def _halfspace_checks(cmd: str, a: np.ndarray, x: np.ndarray) -> Callable[[dict], tuple[bool, bool]]:
    g_ref = checks.halfspace_functional(a, x)

    def same(v) -> bool:
        v = np.asarray(v, dtype=float)
        return v.shape == g_ref.shape and float(np.max(np.abs(v - g_ref))) <= 1e-8 * max(1.0, float(np.max(np.abs(g_ref))))

    if cmd == "extend":
        return lambda doc: (same(doc["g"]), True)
    if cmd == "roundtrip":
        return lambda doc: (same(doc["g_direct"]) and same(doc["g_geometric"]), True)

    def separate_check(doc):
        normal = np.asarray(doc["normal"], dtype=float)
        return abs(abs(float(normal @ checks.unit(a))) - 1.0) <= 1e-9, bool(doc["certificate"]["valid"])

    return separate_check


def cli_query(package, rng, workdir: Path) -> list[Op]:
    """Seeded queries against fixed problem files: bundled example1; an 8-D
    rotated cube (no anchor, so the Chebyshev centre, which is the cube's
    centre, anchors it); the ``offset-disk`` and ``offset-box`` registry
    oracles anchored at their witnesses.  The cube is the same at every seed,
    so per-call costs do not depend on the seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    cube = rotated_box(np.random.default_rng(8), 8, cube=True)
    disk_c, disk_r = OFFSET_DISK
    files = {
        "box8": _problem_doc(8, _box_node(cube), cube.basis),
        "offset-disk": _problem_doc(2, {"kind": "oracle", "name": "offset-disk"}, np.zeros((0, 2)), disk_c),
        "offset-box": _problem_doc(2, {"kind": "oracle", "name": "offset-box"}, np.zeros((0, 2)), OFFSET_BOX_CENTER),
    }
    inputs = {"example1": "example1"}
    contents = {"example1": b"example1"}
    for name, doc in files.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1))
        inputs[name], contents[name] = str(path), path.read_bytes()
    unit_box = Box(OFFSET_BOX_CENTER, np.ones(2), np.eye(2), np.zeros((0, 2)))

    def disk_shape(anchor, oracle):
        return _QueryShape(
            2, lambda e: checks.ball_cone_gauge(e, anchor, disk_c, disk_r),
            lambda y, k: checks.ball_ray_interval(y, disk_c, k * disk_r),
            lambda: disk_c + 0.5 * disk_r * checks.unit(rng.normal(size=2)), oracle,
        )

    def box_shape(box, oracle):
        dim = box.c.size
        return _QueryShape(
            dim, lambda e: checks.box_cone_gauge(e, box.c, box.c, box.h, box.q),
            lambda y, k: checks.box_ray_interval(y, box.c, k * box.h, box.q),
            lambda: box.c + box.q @ (box.h * rng.uniform(-0.5, 0.5, dim)), oracle,
        )

    shapes = {
        "example1": disk_shape(np.array([1.0, 0.0]), False),
        "offset-disk": disk_shape(disk_c, True),
        "box8": box_shape(cube, False),
        "offset-box": box_shape(unit_box, True),
    }
    ops = []
    for (cmd, name), count in CLI_QUERIES.items():
        shape = shapes[name]
        for i in range(count):
            label = f"{cmd}-{name}/{i}"
            if cmd == "gauge":
                point = rng.normal(size=shape.dim)
                check = lambda doc, ref=shape.gauge(point): (checks.close(float(doc["value"]), ref), True)
                flag = "--point"
            elif cmd == "conic":
                inside = i % 2 == 0
                point = shape.cone_query(rng, inside)
                check = lambda doc, want=inside: (doc["member"] is want, True)
                flag = "--point"
            else:
                point, valid = _verify_normal(rng, name, cube, want_valid=i % 2 == 0)
                check = lambda doc, want=valid: (doc["certificate"]["valid"] is want, True)
                flag = "--normal"
            argv = [cmd, "--input", inputs[name], f"{flag}={_fmt(point)}"]
            ops.append(_cli_op(package, label, argv, check, contents[name] + point.tobytes()))
    for cmd, name in CLI_FIXED:
        a, x = _bundled_halfspace(name)
        ops.append(_cli_op(package, f"{cmd}-{name}/0", [cmd, "--input", name], _halfspace_checks(cmd, a, x), name.encode()))
    return ops


def _verify_normal(rng, name: str, cube: Box, *, want_valid: bool) -> tuple[np.ndarray, bool]:
    """A unit normal (orthogonal to S) whose verdict is clear by 5%."""
    while True:
        if name == "example1":
            c, r = OFFSET_DISK
            normal = checks.unit(rng.normal(size=2))
            lhs, rhs = abs(float(normal @ c)), r
        else:
            # near the centre direction (which separates) or anywhere orthogonal to S
            v = rng.normal(size=8) + (8.0 * checks.unit(cube.c) if want_valid else 0.0)
            normal = checks.unit(v - cube.basis.T @ (cube.basis @ v))
            lhs, rhs = abs(float(normal @ cube.c)), checks.box_support(normal, cube.h, cube.q)
        valid = lhs >= rhs
        if valid == want_valid and abs(lhs - rhs) >= 0.05 * (lhs + rhs):
            return normal, valid


WORKLOADS = {"poly-sep": poly_sep, "ball-sep": ball_sep, "cli-query": cli_query}
# one fixed operation per workload, run during set-up so that lazy
# initialisation is paid there; the same at every seed
_WARM_BALL = Ball(np.array([2.0, 1.0]), 1.2, np.array([[0.0, 1.0]]))
WARM_UP = {
    "poly-sep": lambda package: _box_op(package, "warm-up/0", rotated_box(np.random.default_rng(0), 4)),
    "ball-sep": lambda package: _separate_op(package, "warm-up/0", package.OpenBall(_WARM_BALL.c, _WARM_BALL.r), _WARM_BALL),
    "cli-query": lambda package: _cli_op(
        package, "warm-up/0", ["conic", "--input", "example1", "--point=3,1"], lambda doc: (doc["member"] is True, True), b""
    ),
}
# rungs kept by the fast self-check: the first instances of the smallest
# rung plus the robustness rows
SMOKE_RUNGS = {
    "poly-sep": ("rot4", {"roadmap-box"}),
    "ball-sep": ("ball2", {"roadmap-disk"}),
    "cli-query": (None, set()),  # first query of every (subcommand, problem) rung
}
SMOKE_INSTANCES = 4


def smoke(workload: str, ops: list[Op]) -> list[Op]:
    smallest, robustness = SMOKE_RUNGS[workload]
    if smallest is None:
        return [op for op in ops if op.label.endswith("/0")]
    first = [op for op in ops if op.rung == smallest][:SMOKE_INSTANCES]
    return first + [op for op in ops if op.rung in robustness]
