"""Workload definitions and output checks for the stormlens benchmark.

Every workload trains on the README desk configuration. Set-up writes the
desk CSV (500 ARs x 14 samples) from the workload seed and trains the desk
checkpoint on it; for the explain workloads it also writes a second,
smaller CSV from another seed for the explainers to work on. A cycle is
the list of CLI commands that one repetition of the workload times.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, field

import numpy as np
from stormlens.features import FEATURE_NAMES

DOMINANT = "TOTPOT"
TSS_MIN = 0.9  # acceptance criterion 6
EFFICIENCY_TOL = 1e-6  # acceptance criterion 1

DESK_FLAGS = ["--window", "10", "--hidden", "16", "--epochs", "40", "--batch", "64", "--lr", "3e-3"]
# rho 0.5 is the planted-recovery setting of acceptance criterion 7. At the
# generator's default of 0.95 the correlate SAVNCPP is close to collinear
# with TOTPOT, and about a quarter of desk models rank it first.
PLANT_FLAGS = ["--rho", "0.5"]
DESK_ARS = 500

WORKLOADS = ("explain-gradient", "explain-coalition", "train")

# (ARs, samples per AR) of the explained CSV. 25 x 14 leaves 20 train ARs =
# 100 train windows, so the gradient background is the full B=100, and 25
# test windows. 10 x 11 leaves two test ARs of 2 windows each: exact
# enumeration at B=10 costs ~1 s a window, and with a single test AR the
# importance ranking rests on one trajectory.
EXPLAIN_CSV = {"explain-gradient": (25, 14), "explain-coalition": (10, 11)}


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """One CLI command: its label, arguments, return code and wall time."""

    label: str
    argv: list[str]
    out: str
    rc: int | None = None
    wall: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.errors)


def setup_ops(workload: str, seed: int, root: str) -> list[Op]:
    desk_csv = os.path.join(root, "desk", "data.csv")
    ops = [
        Op("synth-desk", ["synth", "--out", os.path.join(root, "desk"), "--n-ars", str(DESK_ARS),
                          "--samples-per-ar", "14", *PLANT_FLAGS, "--seed", str(seed)],
           os.path.join(root, "desk")),
        Op("train-desk", ["train", "--data", desk_csv, "--out", os.path.join(root, "model"),
                          *DESK_FLAGS, "--seed", str(seed)], os.path.join(root, "model")),
    ]
    if workload in EXPLAIN_CSV:
        n_ars, per_ar = EXPLAIN_CSV[workload]
        ops.append(Op("synth-explain", ["synth", "--out", os.path.join(root, "explain"),
                                        "--n-ars", str(n_ars), "--samples-per-ar", str(per_ar), *PLANT_FLAGS,
                                        "--seed", str(seed + 1)],
                      os.path.join(root, "explain")))
    return ops


def cycle_ops(workload: str, seed: int, setup_root: str, root: str) -> list[Op]:
    s = ["--seed", str(seed)]
    if workload == "train":
        desk_csv = os.path.join(setup_root, "desk", "data.csv")
        train_out = os.path.join(root, "train")
        return [
            Op("train", ["train", "--data", desk_csv, "--out", train_out, *DESK_FLAGS, *s], train_out),
            Op("evaluate", ["evaluate", "--data", desk_csv, "--model",
                            os.path.join(train_out, "model.json"), "--out", os.path.join(root, "evaluate"),
                            *DESK_FLAGS, *s], os.path.join(root, "evaluate")),
        ]
    inputs = ["--data", os.path.join(setup_root, "explain", "data.csv"),
              "--model", os.path.join(setup_root, "model", "model.json")]

    def op(label, command, *flags):
        out = os.path.join(root, label)
        return Op(label, [command, *inputs, "--out", out, *flags, *s], out)

    if workload == "explain-gradient":
        grad = ["--method", "gradient", "--background", "100", "--n-steps", "16"]
        return [
            op("explain-global", "explain-global", *grad),
            op("explain-local", "explain-local", "--sample-id", "0"),
            op("correlate", "correlate", *grad),
        ]
    # --threads stays at its default of 1: with two pool threads on two
    # vCPUs, a busy neighbour on the host serialises them and the run's wall
    # time moved by up to 1.8x, against ~1.15x for single-threaded runs.
    coal = ["--background", "10"]
    return [
        op("explain-exact", "explain-global", "--method", "exact", *coal),
        op("explain-kernel", "explain-global", "--method", "kernel", "--n-coalitions", "2048", *coal),
    ]


# ---------------------------------------------------------------------------
# checks


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_shap(op: Op) -> list[dict]:
    doc = _load(os.path.join(op.out, "shap.json"))
    if not doc:
        raise CheckFailed("shap.json is empty")
    for e in doc:
        values = [e["base"], e["fx"], *e["phi"]]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite attribution for {e['sample_id']}")
    return doc


def _top_feature(doc: list[dict]) -> str:
    phis = np.array([e["phi"] for e in doc])
    values = np.abs(phis).mean(axis=0)
    order = sorted(range(values.size), key=lambda j: (-values[j], j))
    return FEATURE_NAMES[order[0]]


def check_tss(op: Op) -> float:
    tss = float(_load(os.path.join(op.out, "metrics.json"))["evaluation"]["tss"])
    if not tss >= TSS_MIN:
        raise CheckFailed(f"TSS {tss:.4f} below {TSS_MIN}")
    return tss


def check_gradient(op: Op) -> tuple[list[dict], float]:
    doc = load_shap(op)
    top = _top_feature(doc)
    if top != DOMINANT:
        raise CheckFailed(f"gradient importance ranks {top} first, expected {DOMINANT}")
    gaps = [abs(e["base"] + sum(e["phi"]) - e["fx"]) / max(abs(e["fx"] - e["base"]), 1e-12)
            for e in doc]
    return doc, statistics.median(gaps)


def check_exact(op: Op) -> list[dict]:
    doc = load_shap(op)
    worst = max(abs(e["base"] + sum(e["phi"]) - e["fx"]) for e in doc)
    if worst > EFFICIENCY_TOL:
        raise CheckFailed(f"exact efficiency gap {worst:.3g} above {EFFICIENCY_TOL}")
    top = _top_feature(doc)
    if top != DOMINANT:
        raise CheckFailed(f"exact importance ranks {top} first, expected {DOMINANT}")
    return doc


def kernel_rel_err(kernel: list[dict], exact: list[dict]) -> float:
    ref = {e["sample_id"]: np.array(e["phi"]) for e in exact}
    errs = []
    for e in kernel:
        want = ref[e["sample_id"]]
        errs.append(float(np.linalg.norm(np.array(e["phi"]) - want) / np.linalg.norm(want)))
    return statistics.median(errs)


def check_dependence(op: Op) -> None:
    feature = _load(os.path.join(op.out, "dependence_top.json"))["data"]["feature"]
    if feature != DOMINANT:
        raise CheckFailed(f"dependence_top shows {feature}, expected {DOMINANT}")


def check_local(op: Op) -> None:
    names = [n for n in os.listdir(op.out) if n.startswith("lime_") and not n.endswith("_plot.json")
             and n.endswith(".json")]
    if len(names) != 1:
        raise CheckFailed(f"expected one local explanation, found {names}")
    doc = _load(os.path.join(op.out, names[0]))
    if not all(math.isfinite(e["weight"]) for e in doc["entries"]):
        raise CheckFailed("non-finite local surrogate weight")


class Checker:
    """Checks the outputs of one run's commands.

    A failed check is recorded on the command it blames. The first copy of
    each artifact is kept, so that later ones can be compared byte for byte.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.reference: dict[str, bytes] = {}

    def guard(self, op: Op, fn, *args):
        try:
            return fn(*args)
        except (CheckFailed, OSError, LookupError, ValueError, TypeError) as exc:
            op.errors.append(f"{type(exc).__name__}: {exc}")
            print(f"check failed: {op.label}: {op.errors[-1]}", file=sys.stderr)
            return None

    def same_bytes(self, op: Op, key: str, name: str) -> None:
        path = os.path.join(op.out, name)
        with open(path, "rb") as fh:
            data = fh.read()
        if data != self.reference.setdefault(key, data):
            raise CheckFailed(f"{name} differs from the first run at this seed")

    def setup_round(self, ops: list[Op]) -> float | None:
        """Checks one set-up round; returns the desk checkpoint's TSS."""
        tss = None
        for op in ops:
            if op.label == "train-desk":
                tss = self.guard(op, check_tss, op)
                self.guard(op, self.same_bytes, op, "desk-model", "model.json")
            elif op.label == "synth-desk":
                self.guard(op, self.same_bytes, op, "desk-csv", "data.csv")
        return tss

    def cycle(self, ops: list[Op]) -> dict:
        """Checks one cycle; returns its stage times and quality figures."""
        g = self.guard
        by = {op.label: op for op in ops}
        rec: dict = {}
        if self.workload == "train":
            rec["train_s"] = by["train"].wall
            g(by["train"], check_tss, by["train"])
            g(by["evaluate"], check_tss, by["evaluate"])
            g(by["train"], self.same_bytes, by["train"], "desk-model", "model.json")
            return rec
        explain = [op for op in ops if op.argv[0] == "explain-global"]
        rec["explain_global_s"] = sum(op.wall for op in explain)
        for op in explain:
            g(op, self.same_bytes, op, op.label, "shap.json")
        windows = 0
        if self.workload == "explain-gradient":
            glob = by["explain-global"]
            got = g(glob, check_gradient, glob)
            if got is not None:
                windows = len(got[0])
                rec["gradient_completeness_gap"] = got[1]
            g(by["explain-local"], check_local, by["explain-local"])
            g(by["correlate"], check_dependence, by["correlate"])
            rec["correlate_s"] = by["correlate"].wall
        else:
            exact = g(by["explain-exact"], check_exact, by["explain-exact"])
            kernel = g(by["explain-kernel"], load_shap, by["explain-kernel"])
            if exact is not None and kernel is not None:
                windows = len(exact) + len(kernel)
                rec["kernel_rel_err"] = g(by["explain-kernel"], kernel_rel_err, kernel, exact)
        rec["explained_windows_per_s"] = windows / rec["explain_global_s"]
        return rec
