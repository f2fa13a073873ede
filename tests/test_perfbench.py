"""The traced benchmark still runs against the package: smoke passes of
each workload with the tracer installed, in a copy of the checkout so that
their run records stay out of the source tree, and one untraced poly-sep
pass in process, with poly-sep and ball-sep passes whose extension steps and
hull rows, which run on private seams that the tracer does not wrap, are
counted by spies.  LP, pivot, call and membership counts do not jitter, so
they are pinned."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import gaugesep
from gaugesep import convexsets, extension, gauges, separation, simplexlp

from helpers import record_lps

ROOT = Path(__file__).resolve().parent.parent


def traced_smoke_run(tmp_path, workload: str) -> dict:
    ignore = shutil.ignore_patterns("__pycache__", "runs")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True
    return doc["metrics"]


def test_traced_poly_sep_smoke(tmp_path):
    metrics = traced_smoke_run(tmp_path, "poly-sep")
    # deterministic: the certificate decides domination on boxes, so a
    # domination LP that comes back, or any other extra LP, fails here
    assert metrics["extension.domination_check.calls"]["value"] == 0
    # nor does any step evaluate the gauge: the certificate decides |g| <= p
    assert metrics["gauges.gauge.calls.polyhedral"]["value"] == 0
    # nor a support LP: the last extension step's multipliers certify the side.
    # The tracer wraps solve_lp alone, so it counts the anchors' LPs; each
    # interval solves its two ends in one private shared solve, which it
    # cannot see
    assert metrics["simplexlp.solve_lp.calls"]["value"] == 6
    assert metrics["simplexlp.solve_lp.pivots"]["value"] == 10
    assert metrics["simplexlp.solve_lp.raised"]["value"] == 0
    assert metrics["outcome.fail_share"]["value"] == 0


def test_traced_cli_query_smoke(tmp_path):
    # the spans that attribute a command-line call to parsing, serializing
    # and the rest of main
    metrics = traced_smoke_run(tmp_path, "cli-query")
    for name in ("main", "parse_problem", "dumps"):
        assert metrics[f"cli.{name}.self_s"]["value"] > 0
    # solve_lp alone: the extension ends of extend and roundtrip share a solve
    assert metrics["simplexlp.solve_lp.calls"]["value"] == 8
    assert metrics["simplexlp.solve_lp.pivots"]["value"] == 15
    assert metrics["extension.domination_check.calls"]["value"] == 6
    # 4 gauge queries and 9 basis rows of the caller's f in extend and roundtrip
    assert metrics["gauges.gauge.calls.polyhedral"]["value"] == 13
    assert metrics["convexsets.membership.calls"]["value"] == 1141
    assert metrics["outcome.fail_share"]["value"] == 0


def test_traced_ball_sep_smoke(tmp_path):
    # balls take the closed-form slice and polar: no LP, no search interval
    # and, under the exact certificate, no domination check
    metrics = traced_smoke_run(tmp_path, "ball-sep")
    assert metrics["simplexlp.solve_lp.calls"]["value"] == 0
    # separate() takes its steps through the private extension._step, which
    # the tracer does not wrap, so this count is 0 whatever the steps do:
    # test_ball_sep_pass_searches_no_interval below is the live check
    assert metrics["extension.extension_interval.calls.search"]["value"] == 0
    assert metrics["extension.domination_check.calls"]["value"] == 0
    assert metrics["gauges.gauge.calls.polyhedral"]["value"] == 0
    assert metrics["outcome.fail_share"]["value"] == 0


def test_poly_sep_pass_solves_no_support_lp(monkeypatch, tmp_path):
    # a whole poly-sep pass at seed 0, in process: the last extension step's
    # multipliers certify every box, so the certificate's support LP never
    # runs, and each box solves its anchor's LP and its first step's two,
    # whose one shared phase 1 is counted once
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    support, phase1 = [], []
    original, simplex = separation._support, simplexlp._simplex
    monkeypatch.setattr(separation, "_support", lambda *args: support.append(args) or original(*args))
    monkeypatch.setattr(simplexlp, "_simplex", lambda *args: phase1.append(len(args) == 7) or simplex(*args))
    lps = record_lps(monkeypatch, convexsets, gauges, separation)
    for op in workloads.poly_sep(gaugesep, np.random.default_rng(0), tmp_path):
        assert all(op.check(op.call()))
    assert len(support) == 0
    assert (len(lps), sum(res.iterations for _, res in lps)) == (468, 3231)
    # a phase 1 (the call with no starting inverse) per anchor and per interval
    assert sum(phase1) == 156 + 156


def spy_steps_and_hull_rows(monkeypatch) -> tuple[Counter, list]:
    """The gauge type of every extension step (``extension._step``) and the
    row count of every polyhedron's hull rows (``_hull_rows``, as
    ``convexsets`` and ``separation`` bind it), as a pass runs them."""
    steps, rows = Counter(), []
    step, hull_rows = extension._step, convexsets._hull_rows
    monkeypatch.setattr(extension, "_step", lambda p, *args: steps.update([type(p).__name__]) or step(p, *args))

    def counted(a, b):
        out = hull_rows(a, b)
        rows.append(len(out[0]))
        return out

    for module in (convexsets, separation):
        monkeypatch.setattr(module, "_hull_rows", counted)
    return steps, rows


def run_pass(monkeypatch, tmp_path, workload: str) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    for op in workloads.WORKLOADS[workload](gaugesep, np.random.default_rng(0), tmp_path):
        assert all(op.check(op.call()))


def test_poly_sep_pass_builds_each_hull_once(monkeypatch, tmp_path):
    # a seed-0 poly-sep pass builds each box's 6,308 hull rows once, for its
    # gauge and its certificate together, and takes 522 polyhedral steps
    steps, rows = spy_steps_and_hull_rows(monkeypatch)
    run_pass(monkeypatch, tmp_path, "poly-sep")
    assert steps == Counter({"PolyhedralGauge": 522})
    assert (len(rows), sum(rows)) == (156, 6308)


def test_ball_sep_pass_searches_no_interval(monkeypatch, tmp_path):
    # a seed-0 ball-sep pass: its 14 steps take the ball cone's closed-form
    # slice, no oracle gauge searches an interval, and no LP runs
    steps, rows = spy_steps_and_hull_rows(monkeypatch)
    searches, search = [], gauges.OracleGauge._search
    monkeypatch.setattr(gauges.OracleGauge, "_search", lambda *args: searches.append(args) or search(*args))
    lps = record_lps(monkeypatch, convexsets, gauges, separation)
    run_pass(monkeypatch, tmp_path, "ball-sep")
    assert steps == Counter({"BallConeGauge": 14})
    assert (searches, lps, rows) == ([], [], [])
