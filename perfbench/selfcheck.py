"""Fast self-check of the benchmark (about two minutes).

    python3 perfbench/selfcheck.py

For every workload it runs the smallest rung plus the robustness rows
(``run.py --smoke``) as separate processes and asserts that

- the last line of stdout is the result object, with ``correct`` true;
- every metric named in BENCHMARK.json is printed with the unit given there,
  end-to-end metrics untraced and per-layer metrics traced;
- the deterministic counters (per-layer counts, outcome counts and the
  instance digest) repeat exactly between two traced invocations.

It then runs one full pass of each workload at a held-out seed, which must
come out correct, and checks that a directory holding only BENCHMARK.json
and the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 1017  # never used while the workloads were tuned
TIMEOUT_S = 170


def invoke(cwd: Path, workload: str, seed: int, trace: int, smoke: bool) -> tuple[int, list[str]]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def result_of(workload: str, seed: int, trace: int, smoke: bool = True) -> tuple[dict, dict]:
    code, lines = invoke(ROOT, workload, seed, trace, smoke)
    if code != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit code {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise AssertionError(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']}")
    record = json.loads((HERE / "runs" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def check_metrics(workload: str, result: dict, wanted: list[dict]) -> None:
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in wanted}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(n for n in set(expected) & set(printed) if expected[n] != printed[n])
        raise AssertionError(f"{workload}: missing {missing}, extra {extra}, unit mismatch {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")


def deterministic(record: dict) -> dict:
    traced = record["traced"]
    return {
        "digest": record["instance_digest"],
        "counters": record["counters"],
        "outcomes": (traced["ok"], traced["raised"], traced["wrong"]),
        "counters_repeat": record["counters_repeat"],
    }


def check_bare_directory() -> None:
    bare = HERE / "runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("runs", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = invoke(bare, "cli-query", 0, 0, smoke=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        raise AssertionError(f"bare directory: exit code {code}, stdout {lines[-1:]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        result, _ = result_of(workload, 0, 0)
        check_metrics(workload, result, spec["end_to_end"])
        first, record = result_of(workload, 0, 1)
        check_metrics(workload, first, spec["per_layer"])
        once = deterministic(record)
        _, record = result_of(workload, 0, 1)
        twice = deterministic(record)
        if once != twice or not once["counters_repeat"]:
            raise AssertionError(f"{workload}: counters differ between invocations: {once} != {twice}")
        print(f"ok  {workload}: metrics and units match BENCHMARK.json; counters repeat ({len(once['counters'])} counters)")
    for workload in (w["name"] for w in spec["workloads"]):
        result, record = result_of(workload, HELD_OUT_SEED, 0, smoke=False)
        print(f"ok  {workload}: held-out seed {HELD_OUT_SEED} correct, {result['failed']}/{result['attempted']} failed")
    check_bare_directory()
    print("ok  bare directory: fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
