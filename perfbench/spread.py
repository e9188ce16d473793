"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out perfbench/baseline.json]

Runs every workload once per seed with tracing off, in turn, then once
traced at the first seed. Prints for each end-to-end metric the median,
the quartiles and the spread (q3 - q1) / median, next to the metric's
bound in BENCHMARK.json. With --out, writes all of it as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--out", default=None)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            res = run(name, seed, bench["run_seconds"], 0)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        rows = {}
        for k, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            rows[k] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "ok" if spread < bounds[k] / 3 else "WIDE"
            print(f"  {name:18s} {k:14s} median {med:10.5g} [{q1:.5g}, {q3:.5g}] "
                  f"spread {spread:.4f} bound {bounds[k]} {flag}", flush=True)
        traced = run(name, seeds[0], bench["run_seconds"], 1)["metrics"]
        baseline["workloads"][name] = {
            "end_to_end": rows,
            "per_layer_at_first_seed": {k: v["value"] for k, v in traced.items()},
        }
        result_file = os.path.join(ROOT, ".perfbench", "results", f"{name}-seed{seeds[0]}-trace0.json")
        with open(result_file, encoding="utf-8") as fh:
            baseline["environment"] = json.load(fh)["environment"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
