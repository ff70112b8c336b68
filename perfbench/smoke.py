"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Run from the root of a source checkout. It checks that BENCHMARK.json and
bench.py declare the same workloads and metrics, that every run emits exactly
the declared metrics with their units, that every workload passes its output
checks, that traced and untraced runs print identical label hashes, and that
the benchmark fails without printing a result when the lwec sources are
missing. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import bench

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS), "workloads differ from bench.WORKLOADS")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END, "end_to_end differs from bench.END_TO_END")
    check(
        {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        == {name: (unit, better) for name, (unit, better, _) in bench.PER_LAYER.items()},
        "per_layer differs from bench.PER_LAYER",
    )
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]}, 1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in bench.WORKLOADS:
        hashes = {}
        for trace in (0, 1):
            done = run(workload, trace)
            check(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-500:]}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(result)}")
            failures = [line for line in lines if line.startswith("failure")]
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{workload} trace={trace}: {failures}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            check(emitted == declared[trace], f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            hashes[trace] = sorted(line for line in lines if line.startswith("labels "))
            check(bool(hashes[trace]), f"{workload} trace={trace}: no label hashes printed")
        check(hashes[0] == hashes[1], f"{workload}: traced and untraced label hashes differ")
        print(f"ok {workload}: {len(declared[0])} end-to-end and {len(declared[1])} per-layer metrics, {hashes[0]}")

    bare = ROOT / ".bench_build" / "perfbench-smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(next(iter(bench.WORKLOADS)), 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and not done.stdout.strip(), "benchmark without lwec sources did not fail cleanly")
    print("ok without lwec sources: exit", done.returncode, done.stderr.strip())


if __name__ == "__main__":
    main()
