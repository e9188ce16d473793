"""Time the model's three call types in this tree against another tree.

Usage, from the root of a checkout:

    python3 tools/layer_bench.py --src ../parent/src > layers.json

Imports ``stormlens`` from this checkout's ``src/`` and, under another
name, from ``--src``, then builds one desk-sized model (T = 10, d = 12,
H = 16, ``init_params`` at seed 0) in each and times, with
``time.process_time``, the call types that every stage runs:

- ``forward_400``: ``LstmModel.predict_proba`` on 400 rows, one forward-only
  tile (predictions, coalition rows, LIME rows);
- ``forward_walk_5000``: ``LstmModel.predict_proba`` on 5,000 rows, LIME's
  default sample count, a walk of several forward-only tiles;
- ``train_step_64``: ``forward_batch`` and ``backward_batch`` with parameter
  gradients on 64 rows, one training batch;
- ``input_gradient_400``: ``LstmModel.input_gradient_batch`` on 400 rows,
  one gradient tile (expected gradients, correlate).

Each round times ``--reps`` calls of each type on each side, this tree first
in even rounds and the other first in odd ones, and keeps the CPU seconds
per call. The JSON printed holds, per call type, the median and quartiles
of both sides, the ratio of the medians (this over other) and in how many
rounds this tree was faster. Both sides get the same inputs, and the tool
exits 1 if their outputs differ in any bit. So it compares only trees
whose outputs agree bit for bit: it refuses, at ``train_step_64``, two trees
whose training steps sum the weight gradients in different orders, such as
one that sums them in one product per weight after the time loop and one
that sums them step by step. A change like that takes its layer figures
from the ``--trace 1`` runs of ``tools/bench_record.py``
(``model.backward.self_s``, ``model.train.self_s``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time

# One BLAS thread, as in the benchmark, before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_record import quartiles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
T, D, H = 10, 12, 16  # the desk model of the README and the benchmark
ROUNDS, REPS = 30, 50


def load_model_module(src: str, name: str):
    """``stormlens.model`` of the source tree ``src``, imported as the
    package ``name``, so that two trees can live in one process."""
    for key in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[key]  # a tree loaded earlier under this name
    pkg = os.path.join(os.path.abspath(src), "stormlens")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".model")


def call_types(model) -> dict:
    """Per call type, a function of no arguments that makes one call with
    ``model``, the module, and returns its output."""
    params = model.init_params(D, H, seed=0)
    rng = np.random.default_rng(0)
    X400, X64 = rng.normal(size=(400, T, D)), rng.normal(size=(64, T, D))
    dz = rng.normal(size=64) / 64
    X5000 = rng.normal(size=(5000, T, D))
    net = model.LstmModel(params)
    work: dict = {}
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}

    def train_step():
        for arr in grads.values():
            arr.fill(0.0)
        _, _, cache = model.forward_batch(params, X64, work=work)
        model.backward_batch(params, cache, dz, work=work, grads=grads)
        return np.concatenate([arr.ravel() for arr in grads.values()])

    return {
        "forward_400": lambda: net.predict_proba(X400),
        "forward_walk_5000": lambda: net.predict_proba(X5000),
        "train_step_64": train_step,
        "input_gradient_400": lambda: net.input_gradient_batch(X400).copy(),
    }


def cpu_per_call(call, reps: int) -> float:
    """CPU seconds of one call, the mean over ``reps`` calls."""
    start = time.process_time()
    for _ in range(reps):
        call()
    return (time.process_time() - start) / reps


def compare(sides: dict, rounds: int, reps: int) -> dict:
    """The record of ``rounds`` alternating rounds of ``reps`` calls per
    call type and side; ``sides`` maps "this" and "other" to call types."""
    times = {name: {side: [] for side in sides} for name in sides["this"]}
    for r in range(rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for name in times:
            for side in order:
                times[name][side].append(cpu_per_call(sides[side][name], reps))
    calls = {}
    for name, by_side in times.items():
        this, other = by_side["this"], by_side["other"]
        calls[name] = {
            "this": quartiles(this), "other": quartiles(other),
            "ratio": statistics.median(this) / statistics.median(other),
            "this_faster": sum(a < b for a, b in zip(this, other)),
        }
    return {"shape": {"T": T, "d": D, "H": H}, "rounds": rounds, "reps": reps,
            "unit": "CPU s per call", "calls": calls}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the other source tree, e.g. ../parent/src")
    parser.add_argument("--rounds", type=int, default=ROUNDS, help="alternating rounds")
    parser.add_argument("--reps", type=int, default=REPS, help="calls per round and side")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        parser.error("--rounds and --reps must be >= 1")
    if not os.path.isfile(os.path.join(args.src, "stormlens", "model.py")):
        parser.error(f"{args.src} holds no stormlens/model.py")
    sides = {"this": call_types(load_model_module(os.path.join(ROOT, "src"), "_layer_this")),
             "other": call_types(load_model_module(args.src, "_layer_other"))}
    for name, call in sides["this"].items():
        mine, theirs = call(), sides["other"][name]()
        if mine.shape != theirs.shape or not np.array_equal(mine.view(np.uint64),
                                                            theirs.view(np.uint64)):
            print(f"error: {name} outputs differ between the two trees", file=sys.stderr)
            return 1
    print(json.dumps(compare(sides, args.rounds, args.reps), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
