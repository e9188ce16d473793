"""Command-line front end: synth, train, evaluate, explain-global,
explain-local, correlate.

Every command is a pure function of (config file, flags, input files):
re-running with the same inputs reproduces every artifact byte-for-byte.
Each run writes a ``run_manifest_<command>.json`` with the resolved
config, input digests, and artifact list.

Exit codes: 0 success, 1 internal/numeric failure, 2 user/input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import typing
from dataclasses import dataclass

import numpy as np

from . import analysis, data, lime, model as model_mod, plot, shapley
from .errors import InputError, StormlensError
from .features import FEATURE_NAMES

METHODS = ("exact", "kernel", "gradient")


@dataclass
class RunConfig:
    """Resolved run configuration (defaults < config file < CLI flags)."""

    data: str | None = None
    out: str = "out"
    model: str | None = None
    seed: int = 42
    # data / training
    window: int = 10
    train_fraction: float = 0.8
    hidden: int = 32
    epochs: int = 30
    batch: int = 32
    lr: float = 1e-3
    threshold: float = 0.5
    horizon_hours: int = 24
    # explainers
    method: str = "gradient"
    background: int = 100
    n_coalitions: int = 2048
    n_steps: int = 16
    lime_n: int = 5000
    lime_k: int = 12
    lime_width: float | None = None
    lime_lambda: float = 1.0
    sample_id: str | None = None
    # synthetic generator
    n_ars: int = 200
    samples_per_ar: int = 14
    dominant: str = "TOTPOT"
    correlate: str = "SAVNCPP"
    rho: float = 0.95
    label_noise: float = 0.01

    def validate(self) -> None:
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        if self.window < 1:
            raise InputError("window length must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise InputError("train fraction must be in (0, 1)")
        if self.method not in METHODS:
            raise InputError(f"method must be one of {', '.join(METHODS)}")
        if self.background < 1:
            raise InputError("background size must be >= 1")
        if self.n_steps < 1:
            raise InputError("n_steps must be >= 1")
        if self.lime_n < 10:
            raise InputError("lime_n must be >= 10")
        if not 1 <= self.lime_k <= len(FEATURE_NAMES):
            raise InputError(f"lime_k must be in 1..{len(FEATURE_NAMES)}")
        if self.lime_width is not None and not self.lime_width > 0:
            raise InputError("lime_width must be positive")
        if self.lime_lambda < 0:
            raise InputError("lime_lambda must be nonnegative")
        if not 0.0 < self.threshold < 1.0:
            raise InputError("threshold must be in (0, 1)")

    def plant(self) -> data.PlantSpec:
        spec = data.PlantSpec(
            dominant=self.dominant,
            correlate=self.correlate,
            rho=self.rho,
            label_noise=self.label_noise,
            trend_window=self.window,
        )
        spec.validate()
        return spec

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _optional(parse, none_words: tuple[str, ...]):
    """``parse``, except that any of ``none_words`` means unset (None)."""

    def parse_optional(raw: str):
        return None if raw.lower() in none_words else parse(raw)

    # argparse names the type in "invalid <type> value" messages
    parse_optional.__name__ = f"optional {parse.__name__}"
    return parse_optional


# How a config-file value or a flag value is read, per field type.
_PARSERS = {
    int: int,
    float: float,
    str: str,
    str | None: _optional(str, ("",)),
    float | None: _optional(float, ("", "auto", "none")),
}
_FIELD_PARSERS = {
    name: _PARSERS[hint] for name, hint in typing.get_type_hints(RunConfig).items()
}


def _coerce(key: str, raw: str):
    parse = _FIELD_PARSERS.get(key)
    if parse is None:
        raise InputError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        return parse(raw)
    except ValueError:
        raise InputError(f"config key {key!r}: cannot parse value {raw!r}") from None


def load_config_file(path) -> dict:
    """Parse a flat KEY=VALUE config file ('#' starts a comment)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InputError(f"{path} line {ln}: expected KEY=VALUE")
        key, raw = stripped.split("=", 1)
        key = key.strip().lower()
        values[key] = _coerce(key, raw)
    return values


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per command; every RunConfig field is a flag on each."""
    p = argparse.ArgumentParser(
        prog="stormlens",
        description="solar-storm prediction with global and local explanations",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("synth", "generate a synthetic dataset with planted ground truth"),
        ("train", "train the classifier and report held-out skill"),
        ("evaluate", "evaluate a checkpoint on the held-out split"),
        ("explain-global", "attribution over the test set plus beeswarm/bar/decision plots"),
        ("explain-local", "local surrogate explanation for one test sample"),
        ("correlate", "correlation matrix and dependence plots"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", help="flat KEY=VALUE config file")
        for f in dataclasses.fields(RunConfig):
            # an absent flag (SUPPRESS) leaves the config-file value alone
            sp.add_argument(
                "--" + f.name.replace("_", "-"), dest=f.name, type=_FIELD_PARSERS[f.name],
                choices=METHODS if f.name == "method" else None,
                default=argparse.SUPPRESS, help=f"default: {f.default}",
            )
    return p


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in _FIELD_PARSERS)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# shared plumbing


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(
    cfg: RunConfig, command: str, inputs: list[str], artifacts: list[str],
    extra: dict | None = None,
) -> None:
    """``extra`` is the ``extra`` block of the checkpoint the command read."""
    doc = {
        "command": command,
        "config": cfg.to_dict(),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "artifacts": sorted(artifacts),
    }
    if extra is not None and "norm_stats" not in extra:
        doc["norm_stats_refit"] = True  # refitted on the training split
    _write_json(os.path.join(cfg.out, f"run_manifest_{command.replace('-', '_')}.json"), doc)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise InputError(f"--{name.replace('_', '-')} is required for this command")


def _sanitize(identifier: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "-", identifier)


def _check_extra(path, extra: dict) -> None:
    """Reject a checkpoint ``extra`` field that later steps would misread,
    with an InputError naming it; warn when ``norm_stats`` is absent, as
    they are then refitted on the training split."""

    def bad(field: str, problem: str) -> InputError:
        return InputError(f"model checkpoint {path}: field 'extra.{field}' {problem}")

    rules = {
        "window_length": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
        "train_fraction": (lambda v: type(v) is float and 0.0 < v < 1.0, "a number in (0, 1)"),
        "split_seed": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
        "feature_names": (
            lambda v: type(v) is list and all(type(name) is str for name in v),
            "a list of strings",
        ),
    }
    for field, (ok, want) in rules.items():
        if field in extra and not ok(extra[field]):
            raise bad(field, f"must be {want}, got {extra[field]!r}")

    if "norm_stats" not in extra:
        print(f"warning: model checkpoint {path} has no 'extra.norm_stats'; "
              "refitting them on the training split", file=sys.stderr)
        return
    stats = extra["norm_stats"]
    if type(stats) is not dict:
        raise bad("norm_stats", "is not an object")
    n = len(FEATURE_NAMES)
    for key in ("mean", "std", "constant"):
        value = stats.get(key)
        if type(value) is not list or len(value) != n:
            raise bad(f"norm_stats.{key}", f"must be a list of {n} values")
        if key == "constant":
            if not all(type(v) is bool for v in value):
                raise bad("norm_stats.constant", "must hold only true/false")
        elif not all(type(v) in (int, float) and math.isfinite(v) for v in value):
            raise bad(f"norm_stats.{key}", "must hold only finite numbers")
    if not all(v > 0 for v in stats["std"]):
        raise bad("norm_stats.std", "must be positive")


def _load_model(cfg: RunConfig) -> tuple[model_mod.LstmModel, dict]:
    _require(cfg, "model")
    net, extra = model_mod.load_checkpoint(cfg.model)
    if net.input_dim != len(FEATURE_NAMES):
        raise InputError(f"checkpoint input_dim {net.input_dim} does not match the "
                         f"{len(FEATURE_NAMES)} dataset features")
    _check_extra(cfg.model, extra)
    stored = extra.get("feature_names")
    if stored is not None and tuple(stored) != FEATURE_NAMES:
        raise InputError(
            "checkpoint/dataset mismatch in feature order: checkpoint has "
            + ",".join(stored)
        )
    return net, extra


def _prepare_windows(cfg: RunConfig, extra: dict):
    """(train samples, norm stats, train windows, test windows) as set by
    ``cfg``, or as a checkpoint's ``extra`` records them where it does."""
    _require(cfg, "data")
    samples = data.load_csv(cfg.data)
    window = extra.get("window_length", cfg.window)
    fraction = extra.get("train_fraction", cfg.train_fraction)
    split_seed = extra.get("split_seed", cfg.seed)
    train_s, test_s = data.split(samples, fraction, split_seed)
    stats = data.NormStats.from_dict(extra["norm_stats"]) if "norm_stats" in extra \
        else data.fit_norm_stats(train_s)
    train_w = data.windowize(data.normalize_samples(train_s, stats), window)
    test_w = data.windowize(data.normalize_samples(test_s, stats), window)
    if len(train_w) == 0 or len(test_w) == 0:
        raise InputError(
            f"windowing with T={window} left an empty split "
            f"({len(train_w)} train / {len(test_w)} test windows)"
        )
    return train_s, stats, train_w, test_w


def _explain_test_set(cfg: RunConfig, net, train_w, test_w):
    background = shapley.sample_background(train_w.values, cfg.background, cfg.seed)
    return shapley.explain_set(
        net,
        test_w.values,
        background,
        method=cfg.method,
        seed=cfg.seed,
        sample_ids=test_w.sample_ids,
        n_coalitions=cfg.n_coalitions,
        n_steps=cfg.n_steps,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: RunConfig) -> list[str]:
    plant = cfg.plant()
    samples = data.synth_generate(cfg.n_ars, cfg.samples_per_ar, cfg.seed, plant)
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = cfg.data or os.path.join(cfg.out, "data.csv")
    data.write_csv(csv_path, samples)
    n_pos = sum(1 for s in samples if s.label == "P")
    manifest = {
        "seed": cfg.seed,
        "plant": plant.to_dict(),
        "n_ars": cfg.n_ars,
        "samples_per_ar": cfg.samples_per_ar,
        "n_samples": len(samples),
        "class_counts": {"P": n_pos, "N": len(samples) - n_pos},
        "csv": str(csv_path),
    }
    _write_json(os.path.join(cfg.out, "data_manifest.json"), manifest)
    artifacts = [os.path.basename(csv_path), "data_manifest.json"]
    _write_manifest(cfg, "synth", [], artifacts)
    return artifacts


def cmd_train(cfg: RunConfig) -> list[str]:
    os.makedirs(cfg.out, exist_ok=True)
    _, stats, train_w, test_w = _prepare_windows(cfg, {})

    tc = model_mod.TrainConfig(
        hidden=cfg.hidden, epochs=cfg.epochs, batch=cfg.batch,
        learning_rate=cfg.lr, seed=cfg.seed,
    )
    net, history = model_mod.train(train_w, tc)
    result = model_mod.evaluate(net, test_w, cfg.threshold)

    extra = {
        "window_length": cfg.window,
        "train_fraction": cfg.train_fraction,
        "split_seed": cfg.seed,
        "norm_stats": stats.to_dict(),
        "feature_names": list(FEATURE_NAMES),
        "horizon_hours": cfg.horizon_hours,
        "untrained": cfg.epochs == 0,
    }
    model_path = os.path.join(cfg.out, "model.json")
    model_mod.save_checkpoint(model_path, net, extra)

    metrics = {
        "loss_history": history,
        "evaluation": result.to_dict(),
        "threshold": cfg.threshold,
        "n_train_windows": len(train_w),
        "n_test_windows": len(test_w),
        "n_dropped_train": train_w.n_dropped,
        "n_dropped_test": test_w.n_dropped,
        "train_base_value": shapley.base_value(net, train_w.values),
        "horizon_hours": cfg.horizon_hours,
        "untrained": cfg.epochs == 0,
    }
    _write_json(os.path.join(cfg.out, "metrics.json"), metrics)
    artifacts = ["model.json", "metrics.json"]
    _write_manifest(cfg, "train", [cfg.data], artifacts)
    return artifacts


def cmd_evaluate(cfg: RunConfig) -> list[str]:
    net, extra = _load_model(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    _, _, train_w, test_w = _prepare_windows(cfg, extra)
    result = model_mod.evaluate(net, test_w, cfg.threshold)
    metrics = {
        "evaluation": result.to_dict(),
        "threshold": cfg.threshold,
        "n_test_windows": len(test_w),
        "train_base_value": shapley.base_value(net, train_w.values),
        "horizon_hours": extra.get("horizon_hours", cfg.horizon_hours),
        "untrained": extra.get("untrained", False),
    }
    _write_json(os.path.join(cfg.out, "metrics.json"), metrics)
    artifacts = ["metrics.json"]
    _write_manifest(cfg, "evaluate", [cfg.data, cfg.model], artifacts, extra)
    return artifacts


def cmd_explain_global(cfg: RunConfig) -> list[str]:
    net, extra = _load_model(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    _, _, train_w, test_w = _prepare_windows(cfg, extra)
    explanations = _explain_test_set(cfg, net, train_w, test_w)

    _write_json(
        os.path.join(cfg.out, "shap.json"), [e.to_dict() for e in explanations]
    )
    artifacts = ["shap.json"]

    importance = shapley.global_importance(explanations)
    final_values = test_w.values[:, -1, :]
    artifacts += plot.write_pair(
        cfg.out,
        "beeswarm",
        plot.spec_beeswarm(explanations, final_values, importance, FEATURE_NAMES),
    )
    artifacts += plot.write_pair(cfg.out, "bar", plot.spec_bar(importance, FEATURE_NAMES))
    base = explanations[0].base
    paths, bottom_up = shapley.decision_path(explanations, importance, base)
    artifacts += plot.write_pair(
        cfg.out,
        "decision",
        plot.spec_decision(paths, bottom_up, base, [e.fx for e in explanations], FEATURE_NAMES),
    )
    _write_manifest(cfg, "explain-global", [cfg.data, cfg.model], artifacts, extra)
    return artifacts


def cmd_explain_local(cfg: RunConfig) -> list[str]:
    _require(cfg, "sample_id")
    net, extra = _load_model(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    _, _, train_w, test_w = _prepare_windows(cfg, extra)

    ids = test_w.sample_ids
    if cfg.sample_id in ids:
        index = ids.index(cfg.sample_id)
    elif cfg.sample_id.isdigit() and int(cfg.sample_id) < len(ids):
        index = int(cfg.sample_id)
    else:
        raise InputError(
            f"unknown sample-id {cfg.sample_id!r}; expected a test window id "
            f"such as {ids[0]!r} or an index below {len(ids)}"
        )

    window = test_w.values[index]
    disc = lime.discretizer_fit(train_w.values[:, -1, :])

    def predict_rows(rows: np.ndarray) -> np.ndarray:
        batch = np.repeat(window[None, :, :], rows.shape[0], axis=0)
        batch[:, -1, :] = rows
        return net.predict_proba(batch)

    explanation = lime.explain_local(
        predict_rows,
        window[-1],
        disc,
        n=cfg.lime_n,
        k=cfg.lime_k,
        seed=shapley.subseed(cfg.seed, index),
        ridge_lambda=cfg.lime_lambda,
        kernel_width=cfg.lime_width,
        sample_id=ids[index],
    )
    stem = f"lime_{_sanitize(ids[index])}"
    _write_json(os.path.join(cfg.out, f"{stem}.json"), explanation.to_dict())
    artifacts = [f"{stem}.json"]
    artifacts += plot.write_pair(cfg.out, f"{stem}_plot", plot.spec_lime(explanation))
    _write_manifest(cfg, "explain-local", [cfg.data, cfg.model], artifacts, extra)
    return artifacts


def cmd_correlate(cfg: RunConfig) -> list[str]:
    net, extra = _load_model(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    train_s, _, train_w, test_w = _prepare_windows(cfg, extra)

    matrix = analysis.correlation_matrix(data.features_matrix(train_s))
    with open(os.path.join(cfg.out, "corr.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(matrix.to_csv())
    _write_json(os.path.join(cfg.out, "corr.json"), matrix.to_dict())
    artifacts = ["corr.csv", "corr.json"]

    explanations = _explain_test_set(cfg, net, train_w, test_w)
    importance = shapley.global_importance(explanations)
    top = FEATURE_NAMES[importance.order[0]]
    bottom = FEATURE_NAMES[importance.order[-1]]
    for stem, feature in (("dependence_top", top), ("dependence_bottom", bottom)):
        dep = analysis.dependence_data(feature, explanations, test_w.values, matrix)
        artifacts += plot.write_pair(cfg.out, stem, plot.spec_dependence(dep))
    _write_manifest(cfg, "correlate", [cfg.data, cfg.model], artifacts, extra)
    return artifacts


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "explain-global": cmd_explain_global,
    "explain-local": cmd_explain_local,
    "correlate": cmd_correlate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        _COMMANDS[args.command](cfg)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StormlensError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
