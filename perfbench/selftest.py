"""Self-test of the benchmark, from the root of a checkout:

    python3 perfbench/selftest.py

For each workload: one short untraced run and two short traced runs at the
same seed. Each must pass every output check and print every metric of
BENCHMARK.json with its unit, and the exact counts of the two traced runs
must be identical. Last, the benchmark run from a directory that holds only
BENCHMARK.json and perfbench/ must exit non-zero without a result.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1

# Units whose values are counts of work, so they repeat exactly.
EXACT_UNITS = {"count", "rows", "bytes", "GFLOP-computed"}


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def run(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload: str, trace: int, declared: list[dict]) -> dict:
    rc, lines = run(workload, trace)
    if rc != 0 or not lines:
        fail(f"{workload} trace={trace}: exit code {rc}")
    doc = json.loads(lines[-1])
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(doc)}")
    if doc["correct"] is not True or doc["failed"] != 0 or doc["attempted"] < 1:
        fail(f"{workload}: correct={doc['correct']} failed={doc['failed']}")
    metrics = doc["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(want))}")
    for name, unit in want.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: bad metric {name}: {metrics[name]}")
    body = "\n".join(lines[:-1])
    missing = [name for name in want if name not in body]
    if missing:
        fail(f"{workload}: metrics not printed by name: {missing}")
    return metrics


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        name = w["name"]
        result(name, 0, bench["end_to_end"])
        first = result(name, 1, bench["per_layer"])
        second = result(name, 1, bench["per_layer"])
        exact = [m["name"] for m in bench["per_layer"] if m["unit"] in EXACT_UNITS]
        differ = {k: (first[k]["value"], second[k]["value"])
                  for k in exact if first[k]["value"] != second[k]["value"]}
        if differ:
            fail(f"{name}: counts differ between two traced runs: {differ}")
        print(f"ok {name}: {len(bench['end_to_end'])} end-to-end and {len(bench['per_layer'])} "
              f"per-layer metrics; {len(exact)} counts repeat exactly")

    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run(bench["workloads"][0]["name"], 0, cwd=bare)
        if rc == 0 or (lines and lines[-1].startswith("{")):
            fail(f"run without sources exited {rc} with output {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok: without sources the benchmark exits {rc} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
