"""Benchmark for the stormlens CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explain-gradient --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

One process per workload. Set-up builds the inputs from ``--seed`` (see
workloads.py), repeated SETUP_ROUNDS times so that ``setup_s`` is a median.
Then the workload's cycle of CLI commands runs, through
``stormlens.cli.main`` and timed from outside, until ``--seconds`` are
spent. Every command's outputs are checked after it is timed; a command
fails when its return code is not 0 or a check fails, and a run with a
failure reports no timings and exits 1.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over the cycles. ``--trace 1`` alternates untraced cycles with
cycles traced by spans.Tracer and reports the per-layer metrics. The last
line of stdout is the JSON result; the full record, with the environment,
every stage metric and its quartiles, goes to .perfbench/results/, and
the spans of the traced cycles next to it as JSON lines.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

# One BLAS thread per process: at H=16 the default pool doubles CPU time
# with no wall-time gain, and under --threads 2 it would put four compute
# threads on two cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_ROUNDS = 3

# End-to-end figures beyond BENCHMARK.json's: printed and recorded per
# workload where the stage runs. BENCHMARK.json only lists metrics that
# every workload produces.
STAGE_UNITS = {
    "explain_global_s": "s",
    "correlate_s": "s",
    "train_s": "s",
    "explained_windows_per_s": "1/s",
    "failed_frac": "1",
    "kernel_rel_err": "1",
    "gradient_completeness_gap": "1",
}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Bench:
    def __init__(self, args, cli, wl, spans):
        self.args = args
        self.cli = cli
        self.wl = wl
        self.spans = spans
        self.workload = args.workload
        self.seed = args.seed
        self.work = os.path.join(STATE, f"work-{os.getpid()}")
        self.ops = []
        self.checker = wl.Checker(args.workload)
        self.span_rows: list[dict] = []

    # -- running -------------------------------------------------------------

    def execute(self, op) -> bool:
        t = time.perf_counter()
        try:
            op.rc = self.cli.main(op.argv)
        except SystemExit as exc:
            op.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # report the command as failed, keep the run alive
            traceback.print_exc()
            op.rc = None
        op.wall = time.perf_counter() - t
        self.ops.append(op)
        if op.rc != 0:
            print(f"command failed (rc={op.rc}): stormlens {' '.join(op.argv)}", file=sys.stderr)
        return op.rc == 0

    def setup(self) -> tuple[list[float], float | None]:
        """Runs the set-up rounds; returns their times and the desk TSS."""
        rounds, tss = [], None
        for r in range(SETUP_ROUNDS):
            root = os.path.join(self.work, f"setup-{r}")
            ops = self.wl.setup_ops(self.workload, self.seed, root)
            t = time.perf_counter()
            for op in ops:
                if not self.execute(op):
                    return rounds, None
            rounds.append(time.perf_counter() - t)
            tss = self.checker.setup_round(ops)
            if any(op.failed for op in ops):
                return rounds, None
            if r > 0:
                shutil.rmtree(root)
        return rounds, tss

    def cycle(self, index: int, tracer) -> dict | None:
        root = os.path.join(self.work, f"cycle-{index}")
        ops = self.wl.cycle_ops(self.workload, self.seed, os.path.join(self.work, "setup-0"), root)
        if tracer is not None:
            tracer.install()
        gc.collect()  # garbage of the previous cycle, outside the timed span
        cpu = time.process_time()
        try:
            for op in ops:
                if not self.execute(op):
                    return None
        finally:
            cpu = time.process_time() - cpu
            if tracer is not None:
                tracer.uninstall()
        rec = {"wall_s": sum(op.wall for op in ops), "cpu_s": cpu}
        rec.update(self.checker.cycle(ops))
        if any(op.failed for op in ops):
            return None
        if tracer is not None:
            taken = tracer.take()
            rec["layers"] = self.spans.summarize(taken)
            self.span_rows += self.spans.records(taken, index)
        shutil.rmtree(root)
        return rec

    def run(self) -> int:
        os.makedirs(self.work, exist_ok=True)
        try:
            return self._run()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _run(self) -> int:
        import_s = self.args.import_s
        rounds, setup_tss = self.setup()
        cycles = []
        failed = len(rounds) < SETUP_ROUNDS or any(op.failed for op in self.ops)
        tracer = self.spans.Tracer() if self.args.trace else None
        start = time.perf_counter()
        while not failed:
            use_tracer = tracer if (tracer is not None and len(cycles) % 2 == 1) else None
            rec = self.cycle(len(cycles), use_tracer)
            if rec is None:
                failed = True
                break
            rec["traced"] = use_tracer is not None
            cycles.append(rec)
            need = 2 if tracer is not None else 1
            est = max(c["wall_s"] for c in cycles)
            if len(cycles) >= need and time.perf_counter() - start + est > self.args.seconds:
                break
        attempted = len(self.ops)
        n_failed = sum(op.failed for op in self.ops)
        env = environment(self.seed)
        record = {"workload": self.workload, "seed": self.seed, "seconds": self.args.seconds,
                  "trace": self.args.trace, "environment": env, "attempted": attempted,
                  "failed": n_failed, "commands": [[op.label, op.rc, op.wall] for op in self.ops]}
        print(f"# {self.workload} seed={self.seed} trace={self.args.trace} "
              f"environment {json.dumps(env, sort_keys=True)}")
        if failed or n_failed:
            for op in self.ops:
                if op.failed:
                    print(f"FAILED {op.label}: rc={op.rc} {'; '.join(op.errors)}", file=sys.stderr)
            self.write_record(record)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": n_failed,
                              "metrics": {}}))
            return 1

        bench = _load_benchmark()
        plain = [c for c in cycles if not c["traced"]]
        series: dict[str, list[float]] = {
            # imports once, plus each set-up round
            "setup_s": [import_s + r for r in rounds],
            "wall_s": [c["wall_s"] for c in plain],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
            "failed_frac": [n_failed / attempted],
        }
        series["tss"] = [setup_tss]
        for name in STAGE_UNITS:
            vals = [c[name] for c in plain if c.get(name) is not None]
            if vals:
                series[name] = vals
        summary = {k: _quartiles(v) + (len(v),) for k, v in series.items()}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
        units.update(STAGE_UNITS)
        print(f"# end-to-end, median [q1, q3] over n cycles ({len(plain)} untraced cycles)")
        for name, (q1, med, q3, n) in summary.items():
            print(f"  {name:28s} {med:12.6g} {units.get(name, ''):6s} [{q1:.6g}, {q3:.6g}] n={n}")
        record["end_to_end"] = {k: {"median": v[1], "q1": v[0], "q3": v[2], "n": v[3],
                                    "unit": units.get(k)} for k, v in summary.items()}
        record["cycles"] = cycles

        if not self.args.trace:
            metrics = {m["name"]: {"value": summary[m["name"]][1], "unit": m["unit"]}
                       for m in bench["end_to_end"]}
        else:
            layer_rows = [c["layers"] for c in cycles if c["traced"]]
            layers = {k: statistics.median(r[k] for r in layer_rows) for k in layer_rows[0]}
            layers["cli.cpu_s"] = statistics.median(c["cpu_s"] for c in plain)
            layers["trace.overhead_frac"] = (
                statistics.median(c["wall_s"] for c in cycles if c["traced"])
                / statistics.median(c["wall_s"] for c in plain) - 1.0
            )
            print(f"# per layer, median over {len(layer_rows)} traced cycles")
            for name, value in layers.items():
                print(f"  {name:28s} {value:14.6g} {units.get(name, '')}")
            record["per_layer"] = layers
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in bench["per_layer"]}
        self.write_record(record)
        print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
        return 0

    def write_record(self, record: dict) -> None:
        out = os.path.join(STATE, "results")
        os.makedirs(out, exist_ok=True)
        stem = os.path.join(out, f"{self.workload}-seed{self.seed}-trace{self.args.trace}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True, default=float)
            fh.write("\n")
        if self.span_rows:
            with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
                for row in self.span_rows:
                    fh.write(json.dumps(row) + "\n")


def run_all(args, workloads) -> int:
    """Run every workload in its own process and print one table."""
    worst = 0
    rows = {}
    for name in workloads:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        path = os.path.join(STATE, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        if proc.returncode == 0 and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                rows[name] = json.load(fh)
    print("# all workloads: end-to-end medians")
    names = sorted({k for r in rows.values() for k in r.get("end_to_end", {})})
    print(f"  {'metric':28s} {'unit':6s} " + " ".join(f"{w:>18s}" for w in workloads))
    for metric in names:
        cells, unit = [], ""
        for w in workloads:
            cell = rows.get(w, {}).get("end_to_end", {}).get(metric)
            unit = unit or (cell or {}).get("unit") or ""
            cells.append(f"{cell['median']:18.6g}" if cell else f"{'-':>18s}")
        print(f"  {metric:28s} {unit:6s} " + " ".join(cells))
    return worst


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    os.environ.update(BLAS_ENV)  # before numpy is imported
    if not os.path.isfile(os.path.join(SRC, "stormlens", "cli.py")):
        print(f"error: no stormlens sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import stormlens.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "")):
        print(f"error: imported stormlens from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads as wl

    args.import_s = time.perf_counter() - _T0
    if args.workload == "all":
        return run_all(args, list(wl.WORKLOADS))
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(wl.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return Bench(args, cli, wl, spans).run()


if __name__ == "__main__":
    sys.exit(main())
