"""Run the benchmark in alternating pairs against the parent commit and
commit its figures as BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --label change --against ../parent

``--against DIR`` names a checkout of the parent commit, whose
``perfbench/run.py`` imports the package from DIR's own ``src/``. For each
workload of BENCHMARK.json it runs ``perfbench/run.py --seed SEED --trace 0``
of both checkouts ``PAIRS`` times, each run in a process of its own, the
parent first in even pairs and this checkout first in odd ones, so that a
drift of the machine's speed reaches both sides alike; then each side once
with ``--trace 1`` for the per-layer figures. It reads the JSON result on
the last line of each run's stdout and, after each ``--trace 0`` run, the
stage figures of the record that run.py writes to
``.perfbench/results/<workload>-seed<SEED>-trace0.json`` in its checkout,
and the minor page faults of the run's process: the ``ru_minflt`` of this
process's finished children (``resource.getrusage(RUSAGE_CHILDREN)``) after
the run less the same before it.

BENCH_<label>.json, at the root of this checkout, holds for each side
(``this`` checkout and the ``parent``) its commit, the environment that
run.py reports, and per workload every run, the median and quartiles of
each end-to-end metric over the runs that succeeded, the same for each
stage metric (``stages``: each metric of the record's ``end_to_end`` block
that BENCHMARK.json does not list, such as ``explain_global_s``, and
``cpu_s`` over the untraced cycles), the same for the minor page faults
(``minor_faults``), and the traced run's per-layer figures; the parent side
is the baseline. A run that exits non-zero or reports ``"correct": false``
is kept as a failed run and left out of the medians. A run whose record is
missing or malformed keeps ``"stages": null`` and is left out of the stage
medians. Each workload also records, per end-to-end metric, in how many
pairs this checkout read better than the parent (ties count for neither)
and how many pairs had no failed side.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3  # the workload seed of every committed BENCH file
PAIRS = 10  # runs per side and workload


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile and count of ``values``."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> tuple[int, str]:
    """Exit code and stdout of one benchmark run of the checkout at ``root``."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def results_path(root: str, workload: str) -> str:
    """The record that ``perfbench/run.py --trace 0`` writes in ``root``."""
    return os.path.join(root, ".perfbench", "results", f"{workload}-seed{SEED}-trace0.json")


def read_stages(path: str, end_to_end: list[str]) -> dict | None:
    """The median of each stage metric of the record at ``path``: each entry
    of its ``end_to_end`` block not named in ``end_to_end``, and ``cpu_s``
    over the untraced cycles. None when the file is missing or malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        stages = {name: float(m["median"]) for name, m in result["end_to_end"].items()
                  if name not in end_to_end}
        cpu = [float(c["cpu_s"]) for c in result["cycles"] if not c["traced"]]
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    if cpu:
        stages["cpu_s"] = statistics.median(cpu)
    return stages


def child_minor_faults() -> int:
    """The minor page faults of every finished child of this process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def parse_run(rc: int, stdout: str) -> dict:
    """One run's record: its exit code, whether it was correct, its metric
    values and the environment run.py printed."""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    env = next((json.loads(line.split(" environment ", 1)[1]) for line in lines
                if line.startswith("# ") and " environment " in line), None)
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {"rc": rc, "correct": rc == 0 and result.get("correct") is True,
            "metrics": metrics, "environment": env}


def commit(root: str) -> dict:
    """HEAD of the checkout at ``root``, and whether its sources or its
    benchmark differ from HEAD."""
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                              check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src", "perfbench")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def summarize(records: list[dict], metrics) -> dict:
    """Median and quartiles of each metric that every record holds."""
    return {name: quartiles([r[name] for r in records]) for name in metrics
            if records and all(name in r for r in records)}


def wins(this: list[dict], parent: list[dict], better: dict[str, str]) -> dict:
    """Per metric, the pairs in which ``this`` read better than ``parent``,
    and the number of pairs whose two runs both succeeded."""
    pairs = [(c["metrics"], p["metrics"]) for c, p in zip(this, parent)
             if c["correct"] and p["correct"]]
    counts = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        counts[name] = sum(sign * (c[name] - p[name]) > 0 for c, p in pairs)
    return {"pairs": len(pairs), "this_better": counts}


def record(label: str, sides: dict[str, str], log=sys.stderr) -> dict:
    """Run every workload ``PAIRS`` times per side, plus one traced run per
    side, and return the BENCH record."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out = {"label": label, "seed": SEED, "pairs": PAIRS, "run_seconds": seconds,
           "command": f"perfbench/run.py --workload W --seed {SEED} --seconds {seconds} "
                      "--trace 0, then once with --trace 1",
           "sides": {side: commit(root) for side, root in sides.items()}, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for i in range(PAIRS):
            order = list(sides)[::-1] if i % 2 == 0 else list(sides)  # parent first in even pairs
            for side in order:
                path = results_path(sides[side], workload)
                if os.path.exists(path):  # a stale record must not be read as this run's
                    os.remove(path)
                faults = child_minor_faults()
                run = parse_run(*run_once(sides[side], workload, SEED, seconds, 0))
                run["minor_faults"] = child_minor_faults() - faults
                run["stages"] = read_stages(path, list(better)) if run["correct"] else None
                runs[side].append(run)
                print(f"{workload} pair {i} {side}: rc={run['rc']} {run['metrics']}", file=log)
        entry = {}
        for side, root in sides.items():
            traced = parse_run(*run_once(root, workload, SEED, seconds, 1))
            print(f"{workload} traced {side}: rc={traced['rc']}", file=log)
            out["sides"][side].setdefault("environment", next(
                (r["environment"] for r in runs[side] if r["environment"]), None))
            for run in runs[side]:
                del run["environment"]
            good = [r for r in runs[side] if r["correct"]]
            stages = [r["stages"] for r in good if r["stages"] is not None]
            entry[side] = {
                "failed": sum(not r["correct"] for r in runs[side]),
                "end_to_end": summarize([r["metrics"] for r in good], list(better)),
                "stages": summarize(stages, sorted({name for s in stages for name in s})),
                "minor_faults": summarize(good, ["minor_faults"]).get("minor_faults"),
                "per_layer": traced["metrics"] if traced["correct"] else None,
                "traced_run": {k: traced[k] for k in ("rc", "correct")},
                "runs": runs[side],
            }
        entry["wins"] = wins(runs["this"], runs["parent"], better)
        out["workloads"][workload] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--against", metavar="DIR", required=True,
                        help="a checkout of the parent commit")
    args = parser.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        parser.error("--label may hold only letters, digits, '-' and '_'")
    parent = os.path.abspath(args.against)
    if not os.path.isfile(os.path.join(parent, "perfbench", "run.py")):
        parser.error(f"{parent} holds no perfbench/run.py")
    sides = {"this": ROOT, "parent": parent}
    result = record(args.label, sides)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    failed = any(e[side]["failed"] or not e[side]["traced_run"]["correct"]
                 for e in result["workloads"].values() for side in sides)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
