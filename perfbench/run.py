"""gaugesep benchmark: one workload at one seed, closed loop, one client.

    python3 perfbench/run.py --workload poly-sep --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  Set-up (import, input generation, one warm-up call) is
repeated and its median reported as ``setup_s``.  The loop then runs whole
passes over the workload's operations, as many as fill ``--seconds`` at the
workload's nominal pass time, so every run has the same mix and sample count.
Durations are scaled to a reference machine speed measured between
operations (``speed.py``); the raw figures are kept in the run record.  Each
output is checked against an independent reference (``checks.py``) and
counted as ok, raised or wrong.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` the first half of the passes runs untraced and the second half
traced, and the last line carries the per-layer metrics.  A run record (and,
for traced runs, the spans) is written under ``perfbench/runs/``.
"""

from __future__ import annotations

import os

# one thread: fixed before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


class SourceMissing(RuntimeError):
    pass


@dataclass
class Outcome:
    label: str
    kind: str  # "ok" | "raised" | "wrong"
    start: float
    end: float
    silent: bool = False  # wrong, yet the program claimed a valid result
    detail: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def unexpected(self) -> bool:
        """A silent wrong answer outside the known-defect rungs."""
        return self.silent and self.label.split("/")[0] not in workloads.KNOWN_SILENT_WRONG


@dataclass
class Pass:
    outcomes: list[Outcome]
    wall: float
    spans: tuple[int, int] = (0, 0)
    counts: Counter = field(default_factory=Counter)


def import_package():
    """Fresh import of gaugesep from this checkout's src/ (never from elsewhere)."""
    if not (SRC / "gaugesep" / "__init__.py").is_file():
        raise SourceMissing(f"no gaugesep sources under {SRC}")
    for name in [m for m in sys.modules if m == "gaugesep" or m.startswith("gaugesep.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("gaugesep")
    importlib.import_module("gaugesep.cli")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SourceMissing(f"gaugesep was imported from {package.__file__}, not {SRC}")
    return package


def run_op(op: workloads.Op, probe: speed.SpeedProbe, tracer: tracing.Tracer | None = None) -> Outcome:
    probe.maybe_sample()
    span = tracer.begin(tracer.name_id("bench.op")) if tracer else None
    start = perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # every failure of the program is an outcome, never a crash
        end = perf_counter()
        return Outcome(op.label, "raised", start, end, detail=f"{type(exc).__name__}: {exc}"[:300])
    finally:
        if tracer:
            tracer.finish(span)
    end = perf_counter()
    passed, claimed = op.check(result)
    if passed:
        return Outcome(op.label, "ok", start, end)
    return Outcome(op.label, "wrong", start, end, silent=claimed, detail="claimed valid" if claimed else "flagged invalid")


def set_up(workload: str, seed: int, smoke: bool, workdir: Path, probe: speed.SpeedProbe):
    """Repeated set-up; returns (raw seconds, seconds at reference speed, ops)."""
    spans = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = perf_counter()
        package = import_package()
        ops = workloads.WORKLOADS[workload](package, np.random.default_rng(seed), workdir)
        if smoke:
            ops = workloads.smoke(workload, ops)
        # a seeded order spreads every rung over the whole pass, so no rung
        # is timed in a single stretch of the machine's speed drift
        ops = [ops[i] for i in np.random.default_rng([seed, 1]).permutation(len(ops))]
        warm_up = workloads.WARM_UP[workload](package)
        result = warm_up.call()
        if not warm_up.check(result)[0]:
            raise RuntimeError("the warm-up operation returned a wrong answer")
        spans.append((start, perf_counter()))
    probe.sample()
    raw = [end - start for start, end in spans]
    return raw, [(end - start) * probe.factor(start, end) for start, end in spans], ops


def measure(ops, passes: int, probe: speed.SpeedProbe, tracer: tracing.Tracer | None = None) -> list[Pass]:
    out = []
    for _ in range(passes):
        first = len(tracer.start) if tracer else 0
        before = Counter(tracer.counts) if tracer else Counter()
        start = perf_counter()
        outcomes = [run_op(op, probe, tracer) for op in ops]
        wall = perf_counter() - start
        probe.sample()
        if tracer:
            out.append(Pass(outcomes, wall, (first, len(tracer.start)), tracer.counts - before))
        else:
            out.append(Pass(outcomes, wall))
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples beyond it (the maximum when there are too few)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def summarize(passes: list[Pass], probe: speed.SpeedProbe) -> dict:
    """Outcome counts and timings over all passes.  Every operation's
    duration is scaled to the reference speed (see speed.py); the raw
    figures are kept alongside."""
    outcomes = [o for p in passes for o in p.outcomes]
    kinds = Counter(o.kind for o in outcomes)
    scaled = [o.seconds * probe.factor(o.start, o.end) for o in outcomes]
    per_op: dict[str, list[float]] = {}
    for o, t in zip(outcomes, scaled):
        if o.kind == "ok":
            per_op.setdefault(o.label, []).append(t)
    # one latency sample per operation: its median over the passes, so the
    # tail ranks slow operations rather than the machine's sub-ms jitter
    ok_scaled = [statistics.median(ts) for ts in per_op.values()]
    attempted = len(outcomes)
    summary = {
        "attempted": attempted,
        "ok": kinds["ok"],
        "raised": kinds["raised"],
        "wrong": kinds["wrong"],
        "silent_wrong": sum(o.silent for o in outcomes),
        "unexpected_wrong": sum(o.unexpected for o in outcomes),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "ops_per_s": kinds["ok"] / sum(scaled),
        "raw_ops_per_s": kinds["ok"] / sum(o.seconds for o in outcomes),
        "ok_share": kinds["ok"] / attempted,
        "fail_share": (kinds["raised"] + kinds["wrong"]) / attempted,
        "wrong_share": kinds["wrong"] / attempted,
        "outcomes_repeat": all([(o.label, o.kind) for o in p.outcomes] == [(o.label, o.kind) for o in passes[0].outcomes] for p in passes),
        "failures": sorted({(o.label, o.kind, o.detail) for o in outcomes if o.kind != "ok"}),
        "rung_median_ms": {
            rung: 1e3 * statistics.median(t for label, ts in per_op.items() if label.split("/")[0] == rung for t in ts)
            for rung in dict.fromkeys(label.split("/")[0] for label in per_op)
        },
    }
    if ok_scaled:
        value, pct, count = tail(ok_scaled)
        summary.update(
            latency_p50_ms=1e3 * statistics.median(ok_scaled),
            latency_tail_ms=1e3 * value,
            latency_tail_percentile=pct,
            latency_samples=count,
            raw_latency_p50_ms=1e3 * statistics.median(o.seconds for o in outcomes if o.kind == "ok"),
        )
    return summary


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def traced_run(ops, passes: int, probe: speed.SpeedProbe, spans_path: Path, record: dict) -> tuple[dict, list[dict]]:
    """Half the passes untraced, half traced; per-layer values per pass
    (counters from the first traced pass, self times as medians)."""
    untraced = summarize(measure(ops, max(1, passes // 2), probe), probe)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_passes = measure(ops, max(1, passes - passes // 2), probe, tracer)
    finally:
        tracer.uninstall()
    tracer.save(spans_path)
    traced = summarize(traced_passes, probe)
    per_pass = [tracing.layer_metrics(p.counts, tracer.self_seconds(*p.spans)) for p in traced_passes]
    counters = [{k: v for k, v in p.items() if ".self_s" not in k} for p in per_pass]
    values = dict.fromkeys(dict(tracing.PER_LAYER), 0.0)
    values.update(counters[0])
    for name in values:
        if ".self_s" in name:
            values[name] = statistics.median(p.get(name, 0.0) for p in per_pass)
    values["outcome.fail_share"] = traced["fail_share"]
    values["outcome.wrong_share"] = traced["wrong_share"]
    values["trace.ops_per_s_untraced"] = untraced["ops_per_s"]
    values["trace.ops_per_s_traced"] = traced["ops_per_s"]
    values["trace.overhead_ratio"] = untraced["ops_per_s"] / traced["ops_per_s"] if traced["ops_per_s"] else 0.0
    record.update(
        untraced=untraced,
        traced=traced,
        counters=counters[0],
        counters_repeat=all(c == counters[0] for c in counters),
        spans_file=spans_path.name,
        span_count=len(tracer.start),
    )
    return values, [untraced, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest rung and robustness rows only")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"problems-{os.getpid()}"
    try:
        probe = speed.SpeedProbe()
        setup_raw, setup_scaled, ops = set_up(args.workload, args.seed, args.smoke, workdir, probe)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "instance_digest": workloads.digest(ops),
            "operations": [op.label for op in ops],
            "setup_raw_s": setup_raw,
            "setup_scaled_s": setup_scaled,
        }
        passes = max(1, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))
        record["passes"] = passes
        if args.trace:
            values, runs = traced_run(ops, passes, probe, RUNS / f"{args.workload}-seed{args.seed}-spans.npz", record)
            units = dict(tracing.PER_LAYER)
        else:
            summary = summarize(measure(ops, passes, probe), probe)
            values = {k: summary[k] for k in ("ops_per_s", "ok_share", "latency_p50_ms", "latency_tail_ms")}
            values["setup_s"] = statistics.median(setup_scaled)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END
            record["run"] = summary
            runs = [summary]
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["speed_probe"] = {"reference_s": speed.REFERENCE_S, "samples": len(probe.samples),
                             "median_s": statistics.median(probe.samples), "min_s": min(probe.samples), "max_s": max(probe.samples)}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["raised"] + r["wrong"] for r in runs)
    correct = not any(r["unexpected_wrong"] for r in runs)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metric_block(values, units)}
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=result["metrics"])
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for r in runs:
        for label, kind, detail in r["failures"]:
            print(f"# {kind:6s} {label}: {detail}")
        if "latency_tail_ms" in r:
            print(
                f"# {r['passes']} passes, {r['attempted']} ops, {r['ok']} ok; tail is p{r['latency_tail_percentile']:.1f}"
                f" of {r['latency_samples']} ok operations; raw p50 {r['raw_latency_p50_ms']:.4g} ms, raw {r['raw_ops_per_s']:.4g} ops/s"
            )
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
