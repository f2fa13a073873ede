"""Spans and counters around the public functions of each layer.

``Tracer.install`` replaces every public module-level function of the layer
modules with a recording wrapper, in every ``gaugesep`` module that binds it
(``from .x import f`` copies the reference, so each binding is patched), and
wraps each set class's ``_member`` with a counter.  ``uninstall`` restores
the originals.  Spans (name, start, end, parent) stay in flat arrays in
memory and are written out once, at the end of the run.

Self time of a span is its duration minus the durations of its direct
children; summing self time by name attributes every traced second to
exactly one layer function.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("simplexlp", "gauges", "convexsets", "extension", "separation", "geometry", "cli")

# (name, unit) of every per-layer metric, in report order; counts and
# seconds are per pass over the workload's operations
PER_LAYER = [
    *[(f"simplexlp.solve_lp.{k}", "count") for k in ("calls", "pivots", "pivot_cells", "not_optimal", "raised")],
    ("simplexlp.solve_lp.self_s", "s"),
    *[(f"gauges.gauge.{k}.{kind}", u) for k, u in (("calls", "count"), ("self_s", "s")) for kind in ("polyhedral", "oracle")],
    ("convexsets.membership.calls", "count"),
    *[(f"extension.extension_interval.{k}.{kind}", u) for k, u in (("calls", "count"), ("self_s", "s")) for kind in ("lp", "search")],
    ("extension.domination_check.calls", "count"),
    ("extension.domination_check.self_s", "s"),
    ("convexsets.chebyshev_center.calls", "count"),
    ("convexsets.chebyshev_center.self_s", "s"),
    ("convexsets.conic_hull.rows_out", "count"),
    ("convexsets.conic_hull_membership.calls", "count"),
    ("convexsets.conic_hull_membership.self_s", "s"),
    ("convexsets.sample_interior.points", "count"),
    ("convexsets.sample_interior.self_s", "s"),
    *[(f"separation.{f}.self_s", "s") for f in ("separate", "verify_separation", "extend_via_separation")],
    *[(f"cli.{f}.self_s", "s") for f in ("parse_problem", "dumps", "main")],
    *[(f"{m}.self_s", "s") for m in LAYERS if m != "simplexlp"],
    ("outcome.fail_share", "ratio"),
    ("outcome.wrong_share", "ratio"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def self_seconds(self, lo: int, hi: int) -> dict[str, float]:
        """Self time by span name over spans ``lo:hi`` (one whole pass)."""
        if hi <= lo:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        dur = np.frombuffer(self.end, dtype=np.float64)[lo:hi] - start
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        inner = parent >= lo
        own = dur - np.bincount(parent[inner] - lo, weights=dur[inner], minlength=hi - lo)
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        totals = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: float(t) for n, t in zip(self.names, totals) if t}

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        gauges = importlib.import_module("gaugesep.gauges")
        oracle_gauge = gauges.OracleGauge
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gaugesep.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                kind = None
                if name == "gauges.gauge":
                    kind = lambda args, kw: "oracle" if isinstance(args[0], oracle_gauge) else "polyhedral"
                elif name == "extension.extension_interval":
                    kind = lambda args, kw: (
                        "search" if kw.get("method", "auto") == "search" or isinstance(args[0].seminorm, oracle_gauge) else "lp"
                    )
                replace[id(fn)] = self._wrap(fn, name, kind, _AFTER.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "gaugesep" or mod_name.startswith("gaugesep."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replace and inspect.isfunction(value):
                        self._undo.append((module, attr, value))
                        setattr(module, attr, replace[id(value)])
        convexsets = importlib.import_module("gaugesep.convexsets")
        for cls in vars(convexsets).values():
            if isinstance(cls, type) and issubclass(cls, convexsets.ConvexSet) and "_member" in vars(cls):
                self._undo.append((cls, "_member", vars(cls)["_member"]))
                cls._member = self._count_member(vars(cls)["_member"])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_member(self, member):
        counts = self.counts

        def counted(set_self, e):
            counts["convexsets.membership.calls"] += 1
            return member(set_self, e)

        return counted

    def _wrap(self, fn, name: str, kind, after):
        counts = self.counts
        base_id = self.name_id(name)
        sig = inspect.signature(fn) if after else None

        def wrapper(*args, **kwargs):
            if kind is None:
                nid, calls = base_id, f"{name}.calls"
            else:
                k = kind(args, kwargs)
                nid, calls = self.name_id(f"{name}:{k}"), f"{name}.calls.{k}"
            counts[calls] += 1
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                self.finish(idx)
            if after is not None:
                after(counts, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def _after_solve_lp(counts, args, result) -> None:
    """Pivots and pivot cells: pivots x tableau rows x tableau columns, with
    the phase-1 tableau size computed from the LP's shape."""
    c = np.asarray(args["c"], dtype=float).reshape(-1)
    n = c.size
    a_ub, b_ub, a_eq = args.get("a_ub"), args.get("b_ub"), args.get("a_eq")
    m_ub = 0 if a_ub is None else np.asarray(a_ub).reshape(-1, n).shape[0]
    m_eq = 0 if a_eq is None else np.asarray(a_eq).reshape(-1, n).shape[0]
    nonneg = args.get("nonneg")
    free = n if nonneg is None else n - int(np.count_nonzero(nonneg))
    flipped = 0 if b_ub is None else int(np.count_nonzero(np.asarray(b_ub, dtype=float) < 0.0))
    columns = n + free + m_ub + m_eq + flipped + 1
    counts["simplexlp.solve_lp.pivots"] += result.iterations
    counts["simplexlp.solve_lp.pivot_cells"] += result.iterations * (m_ub + m_eq) * columns
    counts["simplexlp.solve_lp.not_optimal"] += result.status != "optimal"


def _after_conic_hull(counts, args, result) -> None:
    a = getattr(result, "a", None)
    if a is not None and getattr(result, "b", None) is not None:
        counts["convexsets.conic_hull.rows_out"] += a.shape[0]


def _after_sample_interior(counts, args, result) -> None:
    counts["convexsets.sample_interior.points"] += int(args["count"])


_AFTER = {
    "simplexlp.solve_lp": _after_solve_lp,
    "convexsets.conic_hull": _after_conic_hull,
    "convexsets.sample_interior": _after_sample_interior,
}


def layer_metrics(counts: Counter, self_s: dict[str, float]) -> dict[str, float]:
    """Per-layer values for one pass from its counters and self times."""
    out: dict[str, float] = {}
    for span, seconds in self_s.items():
        base, _, kind = span.partition(":")
        layer = base.split(".")[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + seconds
            key = f"{base}.self_s.{kind}" if kind else f"{base}.self_s"
            out[key] = out.get(key, 0.0) + seconds
    for name, _ in PER_LAYER:
        if name in counts:
            out[name] = float(counts[name])
    return out
