"""Command-line front end: problem files in, result documents out.

Subcommands cover every pipeline stage (gauge, conic, extend, separate,
roundtrip, verify), golden reproduction of the bundled instances (repro),
and SVG rendering of 2-D instances (render).

Exit codes: 0 ok, 2 missing file, 3 schema violation, 4 failed precondition,
5 solver failure.  Every result document starts with the same header
(``version``, ``command``, ``seed``, ``tool_version``), written by
``_document`` alone, continues with the subcommand's own fields and ends
with ``timings``.  Documents are deterministic for a fixed seed except for
the ``timings`` field; floats are serialized with 17 significant digits so
values round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from ._svg import render_svg
from .convexsets import ConvexSet, HPolyhedron, OpenBall, build_D, conic_hull_membership, pick_interior_point
from .errors import (
    DegenerateError,
    EmptySetError,
    InputError,
    SchemaError,
    SolverError,
)
from .extension import GAMMA_RULES, extend_full_state
from .fixtures import oracle_by_name
from .gauges import ExplicitMaxAbs, PolyhedralGauge, gauge, gauge_from_symmetrized
from .geometry import Hyperplane, Subspace, span_basis, zero_subspace
from .separation import (
    SeparationOptions,
    brute_force_2d_normals,
    extend_via_separation,
    separate,
    verify_separation,
    _span_functional,
)

_BUILTIN_PROBLEMS = ("example1", "example2", "example3_quotient")


# ---------------------------------------------------------------------------
# serialization

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def dumps(doc, indent: int = 0) -> str:
    """JSON with deterministic key order and 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 1)}' for k, v in doc.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(doc, (list, tuple, np.ndarray)):
        items = [_fmt_float(v) if isinstance(v, float) else dumps(v, indent + 1) for v in doc]
        if sum(len(s) for s in items) < 72 and all("\n" not in s for s in items):
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join(f"{pad}  {s}" for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(doc, bool) or isinstance(doc, np.bool_):
        return "true" if doc else "false"
    if doc is None:
        return "null"
    if isinstance(doc, (int, np.integer)):
        return str(int(doc))
    if isinstance(doc, (float, np.floating)):
        return _fmt_float(float(doc))
    return json.dumps(doc)


def _vector(v) -> list[float]:
    return [float(x) for x in np.asarray(v, dtype=float)]


# ---------------------------------------------------------------------------
# problem files

def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {message}")


def _closed(node: dict, prefix: str, allowed: tuple[str, ...]) -> None:
    """Reject the first key outside ``allowed``, at ``prefix + key`` (docs/schema closes every object)."""
    for key in node:
        if key not in allowed:
            raise SchemaError(f"{prefix}{key}: unexpected key")


def _each(items: list, path: str, parse) -> list:
    """``parse`` of every item; ``parse`` names paths relative to its item, so only a failing one's is built."""
    out = []
    try:
        for item in items:
            out.append(parse(item))
    except SchemaError as exc:
        raise SchemaError(f"{path}[{len(out)}]{exc}") from None
    return out


def _is_number(x, kind=(int, float)) -> bool:
    """Is ``x`` a JSON number of ``kind`` that is a finite float?  JSON
    booleans are not numbers; NaN, Infinity (which Python's json reads) and
    integers beyond the float range are not finite floats."""
    return isinstance(x, kind) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _number_list(node, path: str, length: int | None = None) -> list[float]:
    _require(isinstance(node, list), path, "expected an array of numbers")
    try:  # one pass over the whole list; the per-entry check runs only if it fails
        finite = set(map(type, node)) <= {int, float} and all(map(math.isfinite, node))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        _each(node, path, lambda x: _require(_is_number(x), "", "expected a finite number"))
    if length is not None:
        _require(len(node) == length, path, f"expected {length} entries, got {len(node)}")
    return list(map(float, node))


def _row(row, dim: int, strict: bool) -> tuple[list[float], float]:
    """A polyhedron row (``strict``) or a polyhedral seminorm row, with paths relative to the row."""
    _require(isinstance(row, dict), "", "expected an object")
    _closed(row, ".", ("a", "b", "strict") if strict else ("a", "b"))
    a = _number_list(row.get("a"), ".a", dim)
    off = row.get("b")
    if strict:
        _require(_is_number(off), ".b", "expected a finite number")
        _require(row.get("strict") is True, ".strict", "must be true in version 1")
        _require(any(a), "", "zero rows are not allowed")
    else:
        _require(_is_number(off) and off > 0, ".b", "expected a finite positive number")
    return a, float(off)


def _parse_set(node, dim: int, path: str) -> ConvexSet:
    _require(isinstance(node, dict), path, "expected an object")
    kind = node.get("kind")
    _require(kind in ("ball", "hpoly", "oracle"), f"{path}.kind", "expected one of ball|hpoly|oracle")
    if kind == "ball":
        _closed(node, f"{path}.", ("kind", "center", "radius"))
        center = _number_list(node.get("center"), f"{path}.center", dim)
        radius = node.get("radius")
        _require(_is_number(radius) and radius > 0, f"{path}.radius", "expected a finite positive number")
        return OpenBall(np.array(center), float(radius))
    if kind == "hpoly":
        _closed(node, f"{path}.", ("kind", "rows", "witness"))
        rows = node.get("rows")
        _require(isinstance(rows, list) and rows, f"{path}.rows", "expected a nonempty array")
        a, b = zip(*_each(rows, f"{path}.rows", lambda row: _row(row, dim, strict=True)))
        witness = node.get("witness")
        wit = np.array(_number_list(witness, f"{path}.witness", dim)) if witness is not None else None
        try:
            return HPolyhedron(np.array(a), np.array(b), witness=wit)
        except InputError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    _closed(node, f"{path}.", ("kind", "name"))
    name = node.get("name")
    _require(isinstance(name, str), f"{path}.name", "expected a fixture name string")
    try:
        a_set = oracle_by_name(name)
    except InputError as exc:
        raise SchemaError(f"{path}.name: {exc}") from exc
    _require(a_set.dim == dim, f"{path}.name", f"fixture {name!r} has dimension {a_set.dim}, problem says {dim}")
    return a_set


def _parse_seminorm(node, dim: int, path: str):
    _require(isinstance(node, dict), path, "expected an object")
    kind = node.get("kind")
    _require(kind in ("polyhedral", "explicit"), f"{path}.kind", "expected polyhedral|explicit")
    _closed(node, f"{path}.", ("kind", "rows"))
    rows = node.get("rows")
    _require(isinstance(rows, list) and rows, f"{path}.rows", "expected a nonempty array")
    if kind == "polyhedral":
        a, b = zip(*_each(rows, f"{path}.rows", lambda row: _row(row, dim, strict=False)))
        return PolyhedralGauge(np.array(a), np.array(b))
    return ExplicitMaxAbs(np.array(_each(rows, f"{path}.rows", lambda row: _number_list(row, "", dim))))


class Problem:
    """Validated problem file: the set, the subspace, and the options."""

    def __init__(self, raw: dict):
        _require(isinstance(raw, dict), "$", "top level must be an object")
        _closed(raw, "", ("version", "dimension", "A", "S", "x", "seminorm", "options"))
        _require(_is_number(raw.get("version")) and raw["version"] == 1, "version", "must be the integer 1")
        dim = raw.get("dimension")
        _require(_is_number(dim, int) and dim >= 1, "dimension", "expected a positive integer")
        self.dimension: int = dim
        self.a_set = _parse_set(raw.get("A"), dim, "A")
        s_node = raw.get("S")
        _require(isinstance(s_node, dict), "S", "expected an object")
        _closed(s_node, "S.", ("basis",))
        basis = s_node.get("basis")
        _require(isinstance(basis, list), "S.basis", "expected an array of vectors")
        vectors = [np.array(v) for v in _each(basis, "S.basis", lambda v: _number_list(v, "", dim))]
        self.s: Subspace = span_basis(vectors, dim) if vectors else zero_subspace(dim)
        self.x = np.array(_number_list(raw["x"], "x", dim)) if raw.get("x") is not None else None
        self.seminorm = _parse_seminorm(raw["seminorm"], dim, "seminorm") if raw.get("seminorm") is not None else None
        options = raw.get("options", {})
        _require(isinstance(options, dict), "options", "expected an object")
        _closed(options, "options.", ("gamma_rule", "seed"))
        rule = options.get("gamma_rule", "upper")
        _require(rule in GAMMA_RULES, "options.gamma_rule", "expected " + "|".join(GAMMA_RULES))
        seed = options.get("seed", 0)
        _require(_is_number(seed, int) and seed >= 0, "options.seed", "expected a non-negative integer")
        self.gamma_rule: str = rule
        self.seed: int = seed

    def options(self, args) -> SeparationOptions:
        return SeparationOptions(
            x=self.x,
            gamma_rule=args.gamma_rule or self.gamma_rule,
            seed=args.seed if args.seed is not None else self.seed,
        )


def parse_problem(path: str) -> Problem:
    """Load and validate a problem file (or a bundled problem name)."""
    if path in _BUILTIN_PROBLEMS:
        text = resources.files("gaugesep").joinpath(f"problems/{path}.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return Problem(raw)


# ---------------------------------------------------------------------------
# subcommand helpers

def _anchor(problem: Problem) -> np.ndarray:
    return problem.x if problem.x is not None else pick_interior_point(problem.a_set)


def _pipeline_gauge(problem: Problem, x: np.ndarray | None = None):
    """The problem's seminorm, else the gauge of its symmetrized body at ``x``
    (the problem's anchor when omitted)."""
    if problem.seminorm is not None:
        return problem.seminorm
    return gauge_from_symmetrized(build_D(problem.a_set, _anchor(problem) if x is None else x))


def _certificate_doc(cert) -> dict:
    return {
        "s_in_h_residual": cert.s_in_h_residual,
        "a_clearance": cert.a_clearance,
        "boundary_margin": cert.boundary_margin,
        "farkas_multipliers": None if cert.farkas_multipliers is None else _vector(cert.farkas_multipliers),
        "farkas_residual": cert.farkas_residual,
        "sign_constant": cert.sign_constant,
        "remark2_status": cert.remark2_status,
        "valid": cert.valid,
    }


def _history_doc(steps) -> list[dict]:
    return [
        {
            "direction": _vector(step.direction),
            "lo": step.interval.lo,
            "hi": step.interval.hi,
            "gamma": step.gamma,
        }
        for step in steps
    ]


def _flag_vector(args, flag: str, dim: int) -> np.ndarray:
    """The coordinates given to ``--point`` or ``--normal`` (``flag``)."""
    text = getattr(args, flag)
    if text is None:
        raise InputError(f"{args.command} requires --{flag}")
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"--{flag} must be a comma-separated number list: {exc}") from exc
    if len(values) != dim:
        raise InputError(f"--{flag} has {len(values)} coordinates, problem dimension is {dim}")
    return np.array(values)


def _cmd_separate(problem: Problem, opts: SeparationOptions, args) -> dict:
    result = separate(problem.a_set, problem.s, opts)
    return {
        "normal": _vector(result.hyperplane.normal),
        "g": _vector(result.g),
        "anchor": _vector(result.anchor_x) if result.anchor_x is not None else None,
        "gamma_history": _history_doc(result.steps),
        "certificate": _certificate_doc(result.certificate),
    }


def _cmd_gauge(problem: Problem, opts: SeparationOptions, args) -> dict:
    point = _flag_vector(args, "point", problem.dimension)
    return {"point": _vector(point), "value": gauge(_pipeline_gauge(problem), point)}


def _cmd_conic(problem: Problem, opts: SeparationOptions, args) -> dict:
    point = _flag_vector(args, "point", problem.dimension)
    return {"point": _vector(point), "member": conic_hull_membership(problem.a_set, point)}


def _cmd_extend(problem: Problem, opts: SeparationOptions, args) -> dict:
    x = _anchor(problem)
    p = _pipeline_gauge(problem, x)
    state = extend_full_state(_span_functional(problem.s, x), p, opts.gamma_rule, seed=opts.seed)
    return {
        "g": _vector(state.functional.as_coefficients()),
        "gamma_history": _history_doc(state.history),
        "domination_violation": state.violation,
    }


def _cmd_roundtrip(problem: Problem, opts: SeparationOptions, args) -> dict:
    x = _anchor(problem)
    p = _pipeline_gauge(problem, x)
    functional = _span_functional(problem.s, x)
    direct = extend_full_state(functional, p, opts.gamma_rule, seed=opts.seed)
    geometric = extend_via_separation(functional, p, rule=opts.gamma_rule, seed=opts.seed)
    g_geometric = geometric.functional.as_coefficients()
    return {
        "g_direct": _vector(direct.functional.as_coefficients()),
        "g_geometric": _vector(g_geometric),
        "domain_agreement": float(np.max(np.abs(functional.domain.basis @ g_geometric - functional.values))),
        "domination_violation": geometric.violation,
    }


def _cmd_verify(problem: Problem, opts: SeparationOptions, args) -> dict:
    if args.normal is not None:
        normal = _flag_vector(args, "normal", problem.dimension)
        norm = float(np.linalg.norm(normal))
        if norm <= 1e-12:
            raise InputError("--normal must be nonzero")
        normal = normal / norm
    else:
        normal = np.asarray(separate(problem.a_set, problem.s, opts).hyperplane.normal)
    cert = verify_separation(problem.a_set, problem.s, Hyperplane(normal), seed=opts.seed)
    return {"normal": _vector(normal), "certificate": _certificate_doc(cert)}


def _cmd_render(problem: Problem, opts: SeparationOptions, args) -> dict:
    if problem.dimension != 2:
        raise InputError("render requires a 2-D problem")
    normal = np.asarray(separate(problem.a_set, problem.s, opts).hyperplane.normal)
    admissible = brute_force_2d_normals(problem.a_set, 360)
    svg = render_svg(problem.a_set, s_basis=np.asarray(problem.s.basis), normal=normal, admissible=admissible)
    target = args.svg or "instance.svg"
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(svg)
    return {"svg": target, "normal": _vector(normal)}


def _document(command: str, problem: Problem, args) -> dict:
    """The result document: the header every subcommand shares, the
    subcommand's own fields, and its wall time."""
    start = time.perf_counter()
    opts = problem.options(args)
    doc = {"version": 1, "command": command, "seed": opts.seed, "tool_version": __version__}
    doc.update(_HANDLERS[command](problem, opts, args))
    doc["timings"] = {"total_s": time.perf_counter() - start}
    return doc


def _diff_docs(golden, actual, path="$"):
    """First diverging field between two documents, or None; ``timings``
    is the one nondeterministic field, so it is skipped."""
    if isinstance(golden, dict) and isinstance(actual, dict):
        for key in sorted((set(golden) | set(actual)) - {"timings"}):
            if key not in golden or key not in actual:
                return f"{path}.{key}", golden.get(key, "<absent>"), actual.get(key, "<absent>")
            hit = _diff_docs(golden[key], actual[key], f"{path}.{key}")
            if hit:
                return hit
        return None
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            return path, f"length {len(golden)}", f"length {len(actual)}"
        for i, (g_item, a_item) in enumerate(zip(golden, actual)):
            hit = _diff_docs(g_item, a_item, f"{path}[{i}]")
            if hit:
                return hit
        return None
    if _is_number(golden) and _is_number(actual):
        if abs(float(golden) - float(actual)) <= 1e-9 * max(1.0, abs(float(golden))):
            return None
        return path, golden, actual
    if golden != actual:
        return path, golden, actual
    return None


def _cmd_repro(args) -> int:
    """Re-run the bundled instances and diff against pinned goldens."""
    failures = 0
    for name in _BUILTIN_PROBLEMS:
        doc = _document("separate", parse_problem(name), args)
        golden = json.loads(resources.files("gaugesep").joinpath(f"goldens/{name}.json").read_text())
        hit = _diff_docs(golden, json.loads(dumps(doc)))
        if hit is None:
            print(f"REPRO {name}: PASS")
        else:
            failures += 1
            field, want, got = hit
            print(f"REPRO {name}: FAIL at {field}: golden={want!r} actual={got!r}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point

_HANDLERS = {
    "separate": _cmd_separate,
    "gauge": _cmd_gauge,
    "conic": _cmd_conic,
    "extend": _cmd_extend,
    "roundtrip": _cmd_roundtrip,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugesep",
        description="Separating hyperplanes for open convex sets via gauge functionals.",
    )
    parser.add_argument("command", choices=sorted([*_HANDLERS, "repro"]))
    parser.add_argument("--input", help="problem file path or bundled name (example1, example2, example3_quotient)")
    parser.add_argument("--point", help="comma-separated coordinates for gauge/conic")
    parser.add_argument("--normal", help="comma-separated hyperplane normal for verify")
    parser.add_argument("--gamma-rule", dest="gamma_rule", choices=GAMMA_RULES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output", help="write the result document here instead of stdout")
    parser.add_argument("--svg", help="SVG output path for render")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise InputError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.command == "repro":
            if args.seed is not None or args.gamma_rule is not None:
                raise InputError("repro takes no --seed or --gamma-rule: each golden pins its problem's own options")
            return _cmd_repro(args)
        if not args.input:
            raise InputError(f"{args.command} requires --input")
        doc = _document(args.command, parse_problem(args.input), args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: schema: {exc}", file=sys.stderr)
        return 3
    except (InputError, DegenerateError, EmptySetError) as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return 4
    except (SolverError,) as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 5
    text = dumps(doc) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
