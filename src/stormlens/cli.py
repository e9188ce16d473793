"""Command-line front end: synth, train, evaluate, explain-global,
explain-local, correlate.

Every command is a pure function of (config file, flags, input files):
re-running with the same inputs reproduces every artifact byte-for-byte.
``main`` writes a ``run_manifest_<command>.json`` with the resolved
config, input digests, and artifact list once the command succeeds.

Exit codes: 0 success, 1 internal/numeric failure, 2 user/input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import re
import sys
import typing
from dataclasses import dataclass

import numpy as np

from . import analysis, data, lime, model as model_mod, plot, shapley
from .errors import InputError, ModelOverflowError, StormlensError
from .features import FEATURE_NAMES
from .shapley import METHODS

# The largest value an integer setting may take. Every size, count and seed
# of a run is far below it; a larger one would reach numpy as an integer it
# cannot convert or an array it cannot shape.
MAX_INT_SETTING = 2**31 - 1


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
        if not self.out:
            raise InputError("--out must not be empty")
        # the first file written makes --out, which fails where the nearest
        # existing path among --out and its parents is not a directory
        path = os.path.normpath(self.out)
        while not os.path.lexists(path) and os.path.dirname(path) != path:
            path = os.path.dirname(path) or os.curdir
        if not os.path.isdir(path):
            raise InputError(f"--out {self.out}: {path} is not a directory")
        for name, value in vars(self).items():
            if type(value) is int and value > MAX_INT_SETTING:
                raise InputError(f"--{name.replace('_', '-')} must be at most "
                                 f"{MAX_INT_SETTING}, got {value}")
        # before the finite-float loop, so that a NaN lr gets TrainConfig's message
        self.train_config().validate()
        if self.window < 1:
            raise InputError("window length must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise InputError("train fraction must be in (0, 1)")
        if self.method not in METHODS:
            raise InputError(f"method must be one of {', '.join(METHODS)}")
        if self.background < 1:
            raise InputError("background size must be >= 1")
        if self.n_coalitions < len(FEATURE_NAMES) + 2:
            raise InputError(f"n_coalitions must be >= d + 2 = {len(FEATURE_NAMES) + 2}, "
                             f"got {self.n_coalitions}")
        if self.n_steps < 1:
            raise InputError("n_steps must be >= 1")
        if self.lime_n < 10:
            raise InputError("lime_n must be >= 10")
        if not 1 <= self.lime_k <= len(FEATURE_NAMES):
            raise InputError(f"lime_k must be in 1..{len(FEATURE_NAMES)}")
        if self.lime_width is not None:
            lime.kernel_scale(self.lime_width)
        if not 0.0 < self.threshold < 1.0:
            raise InputError("threshold must be in (0, 1)")
        # every command writes every setting into its manifest, and JSON
        # cannot hold NaN or infinity
        for name, value in vars(self).items():
            if type(value) is float and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if self.lime_lambda < 0:
            raise InputError(f"lime_lambda must be nonnegative, got {self.lime_lambda}")
        self.plant().validate()

    def train_config(self) -> model_mod.TrainConfig:
        return model_mod.TrainConfig(hidden=self.hidden, epochs=self.epochs, batch=self.batch,
                                     learning_rate=self.lr, seed=self.seed)

    def plant(self) -> data.PlantSpec:
        return data.PlantSpec(
            dominant=self.dominant,
            correlate=self.correlate,
            rho=self.rho,
            label_noise=self.label_noise,
            trend_window=self.window,
        )


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
    except (OSError, UnicodeDecodeError) as exc:
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
    for name, (_, _, helptext) in _COMMANDS.items():
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


def _write_manifest(cfg: RunConfig, command: str, inputs: list[str], artifacts: list[str]) -> None:
    digests = {}
    for path in inputs:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
        digests[path] = h.hexdigest()
    doc = {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "inputs": digests,
        "artifacts": sorted(artifacts),
    }
    data.write_json(os.path.join(cfg.out, f"run_manifest_{command.replace('-', '_')}.json"), doc)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise InputError(f"--{name.replace('_', '-')} is required for this command")


def _sanitize(identifier: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "-", identifier)


def _run_record(cfg: RunConfig) -> model_mod.TrainingRecord:
    """The record that ``train`` starts from: ``cfg``'s settings, without
    norm stats or feature names."""
    return model_mod.TrainingRecord(window_length=cfg.window,
                                    train_fraction=cfg.train_fraction, split_seed=cfg.seed)


def _load_model(cfg: RunConfig) -> tuple[model_mod.LstmModel, model_mod.TrainingRecord]:
    """The checkpoint's model and training record, both checked before any
    data is read."""
    net, record = model_mod.load_checkpoint(cfg.model)
    if net.params.input_dim != len(FEATURE_NAMES):
        raise InputError(f"checkpoint input_dim {net.params.input_dim} does not match the "
                         f"{len(FEATURE_NAMES)} dataset features")
    if record.feature_names != FEATURE_NAMES:
        raise InputError("checkpoint/dataset mismatch in feature order: checkpoint has "
                         + ",".join(record.feature_names))
    return net, record


def _prepare_windows(cfg: RunConfig, record: model_mod.TrainingRecord):
    """(train samples, norm stats, train windows, test windows) of ``cfg``'s
    data, windowed and split as ``record`` says; ``train``'s record has no
    stats yet, so they are fitted on the training split."""
    samples = data.load_csv(cfg.data)
    train_s, test_s = data.split(samples, record.train_fraction, record.split_seed)
    stats = record.norm_stats or data.NormStats.fit(train_s.features)
    window = record.window_length
    train_w, test_w = data.windowize(train_s, window), data.windowize(test_s, window)
    stats.apply(train_w.values)
    stats.apply(test_w.values)
    return train_s, stats, train_w, test_w


def _evaluation_metrics(cfg: RunConfig, net, record, train_w, test_w) -> dict:
    """The metrics.json keys that train and evaluate share."""
    return {
        "evaluation": model_mod.evaluate(net, test_w, cfg.threshold).to_dict(),
        "threshold": cfg.threshold,
        "n_test_windows": len(test_w),
        "train_base_value": shapley.base_value(net, train_w.values),
        "untrained": record.untrained,
    }


def _explain_test_set(cfg: RunConfig, net, train_w, test_w) -> list[shapley.ShapExplanation]:
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


def _predict_last_step(net, window: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The model's output for ``window`` with its last time step replaced
    by each of the (n, d) ``rows`` in turn, built and run one tile at a
    time."""
    p = np.empty(rows.shape[0])

    def fill(X, lo, hi):
        X[:, :-1] = window[:-1]
        X[:, -1] = rows[lo:hi]

    for lo, hi, probs in model_mod.walk_tiles(net, rows.shape[0], window.shape, fill):
        p[lo:hi] = probs
    return p


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: RunConfig) -> list[str]:
    plant = cfg.plant()
    samples = data.synth_generate(cfg.n_ars, cfg.samples_per_ar, cfg.seed, plant)
    csv_path = cfg.data or os.path.join(cfg.out, "data.csv")
    data.write_csv(csv_path, samples)
    # relative to --out, so that a --data CSV elsewhere is found from it too
    csv_name = os.path.relpath(csv_path, cfg.out)
    n_pos = int(samples.labels.sum())
    manifest = {
        "seed": cfg.seed,
        "plant": dataclasses.asdict(plant),
        "n_ars": cfg.n_ars,
        "samples_per_ar": cfg.samples_per_ar,
        "n_samples": len(samples),
        "class_counts": {"P": n_pos, "N": len(samples) - n_pos},
        "csv": csv_name,
    }
    data.write_json(os.path.join(cfg.out, "data_manifest.json"), manifest)
    return [csv_name, "data_manifest.json"]


def cmd_train(cfg: RunConfig) -> list[str]:
    record = _run_record(cfg)
    # the training samples are dropped here: only correlate reads them
    stats, train_w, test_w = _prepare_windows(cfg, record)[1:]
    net, history = model_mod.train(train_w, cfg.train_config())

    record = dataclasses.replace(
        record, norm_stats=stats, feature_names=FEATURE_NAMES, untrained=cfg.epochs == 0
    )
    with np.errstate(over="ignore", invalid="ignore"):  # weights finite but huge overflow
        try:
            evaluation = _evaluation_metrics(cfg, net, record, train_w, test_w)
        except ModelOverflowError as exc:
            raise ModelOverflowError(exc.step, " in evaluation: training diverged") from None
    model_mod.save_checkpoint(os.path.join(cfg.out, "model.json"), net, record)

    metrics = {
        **evaluation,
        "loss_history": history,
        "n_train_windows": len(train_w),
        "n_dropped_train": train_w.n_dropped,
        "n_dropped_test": test_w.n_dropped,
    }
    data.write_json(os.path.join(cfg.out, "metrics.json"), metrics)
    return ["model.json", "metrics.json"]


def cmd_evaluate(cfg: RunConfig) -> list[str]:
    net, record = _load_model(cfg)
    _, _, train_w, test_w = _prepare_windows(cfg, record)
    data.write_json(os.path.join(cfg.out, "metrics.json"),
                    _evaluation_metrics(cfg, net, record, train_w, test_w))
    return ["metrics.json"]


def cmd_explain_global(cfg: RunConfig) -> list[str]:
    net, record = _load_model(cfg)
    _, _, train_w, test_w = _prepare_windows(cfg, record)
    explanations = _explain_test_set(cfg, net, train_w, test_w)

    data.write_json(os.path.join(cfg.out, "shap.json"), [e.to_dict() for e in explanations])
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
    return artifacts


def cmd_explain_local(cfg: RunConfig) -> list[str]:
    net, record = _load_model(cfg)
    _, _, train_w, test_w = _prepare_windows(cfg, record)

    ids = test_w.sample_ids
    digits = cfg.sample_id.lstrip("0") or "0"
    if cfg.sample_id in ids:
        index = ids.index(cfg.sample_id)
    # isdecimal, not isdigit: "²" is a digit that int() rejects; an index has no
    # more significant digits than len(ids), and int() takes at most 4,300
    elif (cfg.sample_id.isdecimal() and len(digits) <= len(str(len(ids)))
          and int(digits) < len(ids)):
        index = int(digits)
    else:
        raise InputError(
            f"unknown sample-id {cfg.sample_id!r}; expected a test window id "
            f"such as {ids[0]!r} or an index below {len(ids)}"
        )

    window = test_w.values[index]
    disc = lime.discretizer_fit(train_w.values[:, -1, :])
    explanation = lime.explain_local(
        lambda rows: _predict_last_step(net, window, rows),
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
    data.write_json(os.path.join(cfg.out, f"{stem}.json"), explanation.to_dict())
    artifacts = [f"{stem}.json"]
    artifacts += plot.write_pair(cfg.out, f"{stem}_plot", plot.spec_lime(explanation))
    return artifacts


def cmd_correlate(cfg: RunConfig) -> list[str]:
    net, record = _load_model(cfg)
    train_s, _, train_w, test_w = _prepare_windows(cfg, record)

    matrix = analysis.correlation_matrix(train_s.features)
    del train_s  # only the matrix reads the training samples
    with data.open_artifact(os.path.join(cfg.out, "corr.csv")) as fh:
        fh.write(matrix.to_csv())
    data.write_json(os.path.join(cfg.out, "corr.json"), matrix.to_dict())
    artifacts = ["corr.csv", "corr.json"]

    explanations = _explain_test_set(cfg, net, train_w, test_w)
    importance = shapley.global_importance(explanations)
    top = FEATURE_NAMES[importance.order[0]]
    bottom = FEATURE_NAMES[importance.order[-1]]
    for stem, feature in (("dependence_top", top), ("dependence_bottom", bottom)):
        dep = analysis.dependence_data(feature, explanations, test_w.values, matrix)
        artifacts += plot.write_pair(cfg.out, stem, plot.spec_dependence(dep))
    return artifacts


# Each command's function, required settings and --help line, in --help order.
_COMMANDS = {
    "synth": (cmd_synth, (), "generate a synthetic dataset with planted ground truth"),
    "train": (cmd_train, ("data",), "train the classifier and report held-out skill"),
    "evaluate": (cmd_evaluate, ("model", "data"), "evaluate a checkpoint on the held-out split"),
    "explain-global": (cmd_explain_global, ("model", "data"),
                       "attribution over the test set plus beeswarm/bar/decision plots"),
    "explain-local": (cmd_explain_local, ("model", "data", "sample_id"),
                      "local surrogate explanation for one test sample"),
    "correlate": (cmd_correlate, ("model", "data"), "correlation matrix and dependence plots"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command, required, _ = _COMMANDS[args.command]
    try:
        cfg = resolve_config(args)
        _require(cfg, *required)
        artifacts = command(cfg)
        inputs = [getattr(cfg, name) for name in required if name in ("data", "model")]
        _write_manifest(cfg, args.command, inputs, artifacts)
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StormlensError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a size setting below the cap but beyond this machine
        print(f"internal error: out of memory: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
