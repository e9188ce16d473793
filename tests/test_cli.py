import contextlib
import dataclasses
import gc
import io
import json
import re
import tracemalloc
import typing
import weakref
from datetime import timedelta, timezone
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stormlens import cli, data, model as model_mod, shapley
from stormlens.errors import InputError
from stormlens.features import FEATURE_NAMES


def run(args):
    return cli.main(args)


def synth_args(out, n_ars=10, spa=8, seed=42):
    return [
        "synth", "--out", str(out), "--n-ars", str(n_ars),
        "--samples-per-ar", str(spa), "--seed", str(seed),
    ]


def train_args(out, window=4, epochs=2, hidden=4, seed=42):
    return [
        "train", "--data", str(out / "data.csv"), "--out", str(out),
        "--window", str(window), "--epochs", str(epochs), "--hidden", str(hidden),
        "--batch", "32", "--lr", "3e-3", "--seed", str(seed),
    ]


@pytest.fixture
def trained(tmp_path):
    out = tmp_path / "run"
    assert run(synth_args(out)) == 0
    assert run(train_args(out)) == 0
    return out


class TestSynth:
    def test_csv_header_contract(self, tmp_path):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        header = (out / "data.csv").read_text().splitlines()[0]
        assert header == ",".join(("ar_id", "timestamp") + FEATURE_NAMES + ("label",))
        manifest = json.loads((out / "data_manifest.json").read_text())
        assert manifest["n_samples"] == 80
        assert set(manifest["class_counts"]) == {"P", "N"}

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(synth_args(a)) == 0
        assert run(synth_args(b)) == 0
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()

    def test_invalid_rho_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(synth_args(out) + ["--rho", "1.5"])
        assert code == 2
        assert "rho" in capsys.readouterr().err
        assert not out.exists()

    def test_single_step_window_rejected(self, tmp_path, capsys):
        # the planted trend needs two steps; the model itself takes one
        out = tmp_path / "o"
        assert run(synth_args(out) + ["--window", "1"]) == 2
        assert "trend window must be >= 2" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_writes_model_and_metrics(self, trained):
        metrics = json.loads((trained / "metrics.json").read_text())
        assert metrics["n_train_windows"] > 0
        assert "tss" in metrics["evaluation"]
        assert len(metrics["loss_history"]) == 2
        assert not metrics["untrained"]
        checkpoint = json.loads((trained / "model.json").read_text())
        assert checkpoint["schema"] == "stormlens-model/1"
        assert checkpoint["extra"]["feature_names"] == list(FEATURE_NAMES)
        assert "horizon_hours" not in metrics and "horizon_hours" not in checkpoint["extra"]

    def test_samples_released_before_training(self, tmp_path, monkeypatch):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        halves, alive = [], []
        split, train = data.split, model_mod.train

        def split_spy(*args):
            result = split(*args)
            halves.extend(weakref.ref(half) for half in result)
            return result

        def train_spy(*args):
            gc.collect()
            alive.extend(ref() is not None for ref in halves)
            return train(*args)

        monkeypatch.setattr(data, "split", split_spy)
        monkeypatch.setattr(model_mod, "train", train_spy)
        assert run(train_args(out)) == 0
        assert alive == [False, False]

    def test_zero_epochs_flagged_untrained(self, tmp_path):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        assert run(train_args(out, epochs=0)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["untrained"] is True
        assert metrics["loss_history"] == []

    def test_ar_id_that_xml_cannot_hold_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        csv_path = out / "data.csv"
        lines = csv_path.read_text(encoding="utf-8").split("\n")
        lines[5] = lines[5].replace("AR", "A\x01R", 1)
        csv_path.write_text("\n".join(lines), encoding="utf-8")
        assert run(train_args(out)) == 2
        err = capsys.readouterr().err
        assert "error: line 6: ar_id " in err and "U+0001" in err

    def test_missing_data_file_exit_2(self, tmp_path, capsys):
        code = run(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("offset", [0, 3000])
    def test_non_utf8_data_file_exit_2(self, tmp_path, capsys, offset):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        text = (out / "data.csv").read_bytes()
        (out / "data.csv").write_bytes(text[:offset] + b"\xff\xfe" + text[offset:])
        assert run(train_args(out)) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read data file {out / 'data.csv'}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "inf"], "learning rate must be positive and finite"),
        (["--lr", "nan"], "learning rate must be positive and finite"),
    ], ids=["lr-inf", "lr-nan"])
    def test_bad_setting_exit_2(self, trained, capsys, flags, message):
        assert run(train_args(trained) + flags) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--hidden", "0", "hidden size must be >= 1"),
        ("--epochs", "-1", "epochs must be >= 0"),
        ("--batch", "0", "batch size must be >= 1"),
        ("--seed", "-1", "seed must be nonnegative"),
    ], ids=["hidden", "epochs", "batch", "seed"])
    def test_training_rule_applies_on_a_command_that_does_not_train(
            self, tiny_checkpoint, capsys, flag, value, message):
        # evaluate trains nothing, but every command checks the training
        # settings by model.train's rules before any file is read
        out = tiny_checkpoint / "training-rules" / f"{flag[2:]}{value}"
        code = run(["evaluate", "--data", str(tiny_checkpoint / "data.csv"),
                    "--model", str(tiny_checkpoint / "model.json"), "--out", str(out),
                    f"{flag}={value}"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--rho", "2", "target correlation must satisfy |rho| <= 1, got 2.0"),
        ("--dominant", "FOO", "unknown feature 'FOO'; expected one of "
                              + ", ".join(FEATURE_NAMES)),
        ("--correlate", "TOTPOT", "dominant and correlate features must differ"),
        ("--label-noise", "0.5", "label noise must be in [0, 0.02], got 0.5"),
    ], ids=["rho", "dominant", "correlate", "label-noise"])
    def test_synth_rule_applies_on_a_command_that_does_not_synthesize(
            self, tiny_checkpoint, capsys, flag, value, message):
        # each run manifest records the synth settings, so every command checks them
        out = tiny_checkpoint / "synth-rules" / flag[2:]
        code = run(["evaluate", "--data", str(tiny_checkpoint / "data.csv"),
                    "--model", str(tiny_checkpoint / "model.json"), "--out", str(out),
                    flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_synth_rule_reported_before_the_data_is_read(self, tmp_path, capsys):
        code = run(["train", "--data", str(tmp_path / "absent.csv"),
                    "--out", str(tmp_path / "o"), "--rho", "2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: target correlation must satisfy |rho| <= 1, got 2.0\n")
        assert not (tmp_path / "o").exists()

    def test_bad_training_setting_reported_before_the_data_is_read(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(synth_args(out, spa=8)) == 0
        capsys.readouterr()
        # a 10-step window leaves no window of an 8-sample AR
        assert run(train_args(out, window=10)) == 2
        assert "no window" in capsys.readouterr().err
        assert run(train_args(out, window=10) + ["--lr", "inf"]) == 2
        assert capsys.readouterr().err == "error: learning rate must be positive and finite\n"

    @pytest.mark.parametrize("cells", [1, 2])
    def test_overflowing_feature_rejected(self, tmp_path, capsys, cells):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        samples = data.load_csv(out / "data.csv")
        train_s, _ = data.split(samples, 0.8, 42)
        huge = set(zip(train_s.ar_ids[:cells], train_s.timestamps[:cells]))
        feats = samples.features.copy()
        for i, key in enumerate(zip(samples.ar_ids, samples.timestamps)):
            if key in huge:
                feats[i, FEATURE_NAMES.index("TOTPOT")] = 1e308
        data.write_csv(out / "data.csv", dataclasses.replace(samples, features=feats))
        assert run(train_args(out)) == 2
        assert "TOTPOT" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("ts", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    def test_timestamp_out_of_range_in_utc_exit_2(self, tmp_path, capsys, ts):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        lines = (out / "data.csv").read_text(encoding="utf-8").split("\n")
        lines[1] = lines[1].replace("2024-01-01T00:00:00+00:00", ts)
        (out / "data.csv").write_text("\n".join(lines), encoding="utf-8")
        assert run(train_args(out)) == 2
        err = capsys.readouterr().err
        assert f"error: line 2: timestamp '{ts}' is out of range in UTC" in err
        assert "Traceback" not in err

    def test_diverged_training_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        capsys.readouterr()
        # the second Adam update turns w_x non-finite, whether it is the
        # update of epoch 2's only batch or of epoch 1's second batch
        for batch, where in (("1000", "epoch 2, batch 1"), ("32", "epoch 1, batch 2")):
            assert run(train_args(out) + ["--lr", "1e300", "--batch", batch]) == 1
            err = capsys.readouterr().err
            assert "internal error: parameter w_x contains non-finite values" in err
            assert where in err
            assert "RuntimeWarning" not in err
            assert not (out / "model.json").exists()

    def test_training_diverged_at_evaluation_exit_1(self, tmp_path, capsys):
        # one update leaves the weights finite but so large that evaluating
        # the trained model overflows; pytest makes a RuntimeWarning an error
        out = tmp_path / "o"
        assert run(synth_args(out, n_ars=30, spa=12, seed=1)) == 0
        capsys.readouterr()
        args = train_args(out, window=10, epochs=1, seed=1)
        assert run(args + ["--lr", "1e308", "--batch", "100000"]) == 1
        assert re.fullmatch(r"internal error: non-finite activation at time step \d+ "
                            r"in evaluation: training diverged\n",
                            capsys.readouterr().err)
        assert not (out / "model.json").exists()

    def test_single_step_window_trains(self, tmp_path):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        assert run(train_args(out, window=1)) == 0
        checkpoint = json.loads((out / "model.json").read_text())
        assert checkpoint["extra"]["window_length"] == 1

    def test_manifest_records_inputs_and_artifacts(self, trained):
        manifest = json.loads((trained / "run_manifest_train.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["artifacts"] == ["metrics.json", "model.json"]
        assert len(manifest["inputs"]) == 1
        digest = next(iter(manifest["inputs"].values()))
        assert len(digest) == 64


class TestConfigFile:
    def test_file_values_applied_and_flags_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("hidden=6\nepochs=3\n# comment\nseed=7\n", encoding="utf-8")
        parser = cli._build_parser()
        args = parser.parse_args(["train", "--config", str(cfgfile), "--epochs", "9"])
        cfg = cli.resolve_config(args)
        assert cfg.hidden == 6
        assert cfg.epochs == 9  # flag wins
        assert cfg.seed == 7

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        for key in ("mystery", "threads"):
            cfgfile.write_text(f"{key}=2\n", encoding="utf-8")
            with pytest.raises(InputError, match=key):
                cli.load_config_file(cfgfile)
            assert run(["train", "--config", str(cfgfile)]) == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        for flag in ("--mystery", "--threads"):
            with pytest.raises(SystemExit) as exc:
                run(["train", flag, "2"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"epochs=3\n# caf\xe9\n")
        with pytest.raises(InputError, match="cannot read config file"):
            cli.load_config_file(cfgfile)
        assert run(["train", "--config", str(cfgfile)]) == 2
        assert f"error: cannot read config file {cfgfile}" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("epochs=abc\n", encoding="utf-8")
        with pytest.raises(InputError, match="epochs"):
            cli.load_config_file(cfgfile)

    def test_default_seed_is_42(self):
        assert cli.RunConfig().seed == 42

    @pytest.mark.parametrize(
        "field", dataclasses.fields(cli.RunConfig), ids=lambda f: f.name
    )
    def test_every_field_is_a_flag_and_a_config_key(self, tmp_path, field):
        hint = typing.get_type_hints(cli.RunConfig)[field.name]
        raw, expected = {
            int: ("7", 7), float: ("0.25", 0.25), float | None: ("0.25", 0.25),
            str: ("kernel", "kernel"), str | None: ("kernel", "kernel"),
        }[hint]
        assert expected != field.default
        flag = "--" + field.name.replace("_", "-")
        args = cli._build_parser().parse_args(["train", flag, raw])
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{field.name}={raw}\n", encoding="utf-8")
        from_file = cli.load_config_file(cfgfile)[field.name]
        assert getattr(args, field.name) == from_file == expected
        assert type(from_file) is type(expected)

    @pytest.mark.parametrize(
        "key, raw", [("lime_width", "auto"), ("lime_width", ""), ("lime_width", "none"),
                     ("lime_width", "NONE"), ("sample_id", "")],
    )
    def test_unset_words_give_none(self, tmp_path, key, raw):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key}=0.5\n", encoding="utf-8")
        flag = "--" + key.replace("_", "-")
        args = cli._build_parser().parse_args(
            ["train", "--config", str(cfgfile), flag, raw]
        )
        assert getattr(cli.resolve_config(args), key) is None
        cfgfile.write_text(f"{key}={raw}\n", encoding="utf-8")
        assert cli.load_config_file(cfgfile)[key] is None

    def test_fractional_seed_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed=3.5\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"config key 'seed': cannot parse value '3.5'"):
            cli.load_config_file(cfgfile)
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(["train", "--seed", "3.5"])
        assert exc.value.code == 2
        assert "invalid int value: '3.5'" in capsys.readouterr().err

    def test_method_flag_limited_to_methods(self, capsys):
        parser = cli._build_parser()
        for method in cli.METHODS:
            assert parser.parse_args(["train", "--method", method]).method == method
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "--method", "lime"])
        assert "invalid choice" in capsys.readouterr().err


# The command each integer setting matters to. Every other argument of the
# command is valid, so a value that got past validation would reach it.
INT_SETTING_COMMANDS = {
    "seed": "synth", "window": "synth", "n_ars": "synth", "samples_per_ar": "synth",
    "hidden": "train", "epochs": "train", "batch": "train",
    "background": "explain-global", "n_coalitions": "explain-global",
    "n_steps": "explain-global", "lime_n": "explain-local", "lime_k": "explain-local",
}


class TestIntegerSettings:
    HUGE = 10**20

    def test_every_integer_setting_has_a_case(self):
        hints = typing.get_type_hints(cli.RunConfig)
        assert set(INT_SETTING_COMMANDS) == {name for name, hint in hints.items() if hint is int}

    @pytest.mark.parametrize("field", sorted(INT_SETTING_COMMANDS))
    def test_huge_value_exit_2_names_the_flag(self, trained, capsys, field):
        command = INT_SETTING_COMMANDS[field]
        inputs = ["--data", str(trained / "data.csv"), "--model", str(trained / "model.json"),
                  "--out", str(trained / "x")]
        args = {
            "synth": synth_args(trained / "s"),
            "train": train_args(trained),
            "explain-global": ["explain-global", *inputs, "--method",
                               "kernel" if field == "n_coalitions" else "gradient"],
            "explain-local": ["explain-local", *inputs, "--sample-id", "0"],
        }[command]
        flag = "--" + field.replace("_", "-")
        capsys.readouterr()
        assert run(args + [flag, str(self.HUGE)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be at most {cli.MAX_INT_SETTING}, got {self.HUGE}\n"

    def test_allocation_failure_exit_1(self, trained, capsys, monkeypatch):
        # what a hidden size at the cap meets: numpy cannot allocate w_x
        def refuse(*args):
            raise MemoryError("Unable to allocate 768. GiB for an array with shape "
                              "(8589934588, 12) and data type float64")

        monkeypatch.setattr(model_mod, "init_params", refuse)
        capsys.readouterr()
        assert run(train_args(trained)) == 1
        err = capsys.readouterr().err
        assert err.startswith("internal error: out of memory: Unable to allocate 768. GiB")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", sorted(INT_SETTING_COMMANDS))
    def test_largest_value_passes_the_cap(self, field):
        cfg = cli.RunConfig(**{field: cli.MAX_INT_SETTING})
        try:
            cfg.validate()
        except InputError as exc:  # lime_k has a bound of its own
            assert "at most" not in str(exc)


class TestCheckpoint:
    def evaluate_edited(self, trained, edit):
        doc = json.loads((trained / "model.json").read_text())
        edit(doc)
        (trained / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
        return run([
            "evaluate", "--data", str(trained / "data.csv"),
            "--model", str(trained / "bad.json"), "--out", str(trained / "eval"),
        ])

    def test_missing_params_exit_2(self, trained, capsys):
        assert self.evaluate_edited(trained, lambda doc: doc.pop("params")) == 2
        assert "'params' is missing" in capsys.readouterr().err

    def test_nan_weight_exit_2(self, trained, capsys):
        def poison(doc):
            doc["params"]["w_x"][0][0] = float("nan")

        assert self.evaluate_edited(trained, poison) == 2
        assert "'params.w_x' contains non-finite values" in capsys.readouterr().err

    def test_wrong_shape_exit_2(self, trained, capsys):
        def cut(doc):
            doc["params"]["w_h"] = doc["params"]["w_h"][:3]

        assert self.evaluate_edited(trained, cut) == 2
        err = capsys.readouterr().err
        assert "'params.w_h' has shape (3, 4)" in err
        assert "(16, 4)" in err

    def test_input_dim_other_than_feature_count_exit_2(self, trained, capsys):
        def narrow(doc):
            doc["config"]["input_dim"] = 11
            doc["params"]["w_x"] = [row[:11] for row in doc["params"]["w_x"]]

        assert self.evaluate_edited(trained, narrow) == 2
        assert "input_dim 11" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param(
                "norm_stats", {"mean": [0]}, "'extra.norm_stats.mean' must be a list of 12",
                id="norm_stats-short",
            ),
            pytest.param(
                "norm_stats", "stats", "'extra.norm_stats' is not an object",
                id="norm_stats-string",
            ),
            pytest.param(
                "window_length", "x", "'extra.window_length' must be an integer >= 1, got 'x'",
                id="window_length-string",
            ),
            pytest.param(
                "window_length", 0, "'extra.window_length' must be an integer >= 1",
                id="window_length-zero",
            ),
            pytest.param(
                "window_length", 4.0, "'extra.window_length' must be an integer >= 1",
                id="window_length-float",
            ),
            pytest.param(
                "train_fraction", 1.5, "'extra.train_fraction' must be a number in (0, 1)",
                id="train_fraction-above-1",
            ),
            pytest.param(
                "split_seed", -1, "'extra.split_seed' must be an integer >= 0",
                id="split_seed-negative",
            ),
            pytest.param(
                "split_seed", True, "'extra.split_seed' must be an integer >= 0",
                id="split_seed-bool",
            ),
            pytest.param(
                "feature_names", "TOTPOT", "'extra.feature_names' must be a list of strings",
                id="feature_names-string",
            ),
            pytest.param(
                "untrained", "yes", "'extra.untrained' must be true or false, got 'yes'",
                id="untrained-string",
            ),
            pytest.param(
                "untrained", None, "'extra.untrained' must be true or false, got None",
                id="untrained-null",
            ),
        ],
    )
    def test_bad_extra_field_exit_2(self, trained, capsys, field, value, message):
        def spoil(doc):
            doc["extra"][field] = value

        assert self.evaluate_edited(trained, spoil) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param(
                "std", None, "'extra.norm_stats.std' must be a list of 12",
                id="std-null",
            ),
            pytest.param(
                "std", [0.0] * 12, "'extra.norm_stats.std' must be positive",
                id="std-zero",
            ),
            pytest.param(
                "mean", [float("nan")] * 12, "'extra.norm_stats.mean' must hold only finite",
                id="mean-nan",
            ),
            pytest.param(
                "mean", ["1"] * 12, "'extra.norm_stats.mean' must hold only finite",
                id="mean-strings",
            ),
            pytest.param(
                "constant", [0] * 12, "'extra.norm_stats.constant' must hold only true/false",
                id="constant-ints",
            ),
        ],
    )
    def test_bad_norm_stats_exit_2(self, trained, capsys, key, value, message):
        def spoil(doc):
            doc["extra"]["norm_stats"][key] = value

        assert self.evaluate_edited(trained, spoil) == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def evaluate_without(checkpoint, key, *flags):
        """Evaluate the checkpoint with ``key`` deleted from its extra block,
        or the whole block when ``key`` is None, against a data file that does
        not exist; returns the exit code and the out directory."""
        doc = json.loads((checkpoint / "model.json").read_text(encoding="utf-8"))
        if key is None:
            del doc["extra"]
        else:
            del doc["extra"][key]
        bad, out = checkpoint / "missing.json", checkpoint / "missing-out"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = run(["evaluate", "--data", str(checkpoint / "absent.csv"), "--model", str(bad),
                    "--out", str(out), *flags])
        return code, out

    @pytest.mark.parametrize("key", [
        "window_length", "train_fraction", "split_seed", "norm_stats", "feature_names",
        "untrained", pytest.param(None, id="extra"),
    ])
    def test_missing_extra_field_exit_2(self, tiny_checkpoint, capsys, key):
        # the checkpoint is rejected before the data file, which does not exist;
        # without an extra block, its first field is the one missing
        field = key or "window_length"
        capsys.readouterr()
        code, out = self.evaluate_without(tiny_checkpoint, key)
        assert code == 2
        assert capsys.readouterr().err == (f"error: model checkpoint "
                                           f"{tiny_checkpoint / 'missing.json'}: "
                                           f"field 'extra.{field}' is missing\n")
        assert not out.exists()

    def test_missing_split_seed_is_not_taken_from_the_flags(self, tiny_checkpoint, capsys):
        # a split drawn with another seed would hold training ARs out
        capsys.readouterr()
        code, out = self.evaluate_without(tiny_checkpoint, "split_seed", "--seed", "7")
        assert code == 2
        assert capsys.readouterr().err.endswith("field 'extra.split_seed' is missing\n")
        assert not out.exists()

    def test_non_utf8_checkpoint_exit_2(self, trained, capsys):
        text = (trained / "model.json").read_bytes()
        (trained / "bad.json").write_bytes(text[:3000] + b"\xff" + text[3000:])
        assert run([
            "evaluate", "--data", str(trained / "data.csv"),
            "--model", str(trained / "bad.json"), "--out", str(trained / "eval"),
        ]) == 2
        err = capsys.readouterr().err
        assert f"cannot read model checkpoint {trained / 'bad.json'}" in err
        assert "Traceback" not in err


# The six fields of a checkpoint's extra block, and the norm_stats lists
# whose elements an edit may replace.
EXTRA_FIELDS = ("window_length", "train_fraction", "split_seed", "norm_stats",
                "feature_names", "untrained")
STAT_LISTS = ("norm_stats.mean", "norm_stats.std", "norm_stats.constant")
DELETE = object()  # an edit that deletes the key

# Deleted keys and JSON values of every type: huge ints (10**400 has no
# float64), bools where an int is expected, nan, +-inf, the smallest and
# largest floats, null, strings, lists and objects
EDGE_VALUES = [DELETE, None, True, False, 0, -1, 2**63, 10**30, 10**400, -10**400,
               float("nan"), float("inf"), float("-inf"), 5e-324, 1.7e308, -1.7e308,
               "", "x", [], {}]
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES), st.integers(-3, 30), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(), st.text(max_size=3)), max_size=13),
    st.dictionaries(st.sampled_from(["mean", "std", "constant", "x"]),
                    st.integers(-2, 2), max_size=2),
)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A 10-AR data set and a hidden-2 model trained on it for one epoch."""
    out = tmp_path_factory.mktemp("tiny")
    assert run(synth_args(out)) == 0
    assert run(train_args(out, epochs=1, hidden=2)) == 0
    return out


def evaluate_edited_extra(checkpoint, edits) -> None:
    """Evaluate the checkpoint with its extra block edited, each edit a
    (target, index, value) triple: a field or a norm_stats list is deleted or
    replaced, or one element of the list at ``index`` is replaced. The run must
    exit 0 with well-typed metrics, or 2 with one error line; an edit that
    deletes a field must exit 2."""
    doc = json.loads((checkpoint / "model.json").read_text(encoding="utf-8"))
    extra = doc["extra"]
    # list elements first, then whole keys, so no edit meets a removed key
    for target, index, value in sorted(
        edits, key=lambda edit: (edit[0] in EXTRA_FIELDS, edit[2] is DELETE)
    ):
        if target in EXTRA_FIELDS:
            holder, key = extra, target
        else:
            holder, key = extra["norm_stats"], target.split(".")[1]
            if value is not DELETE:
                holder, key = holder[key], index
        if value is DELETE:
            holder.pop(key, None)
        else:
            holder[key] = value
    bad = checkpoint / "mutated.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = checkpoint / "eval"
    (out / "metrics.json").unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["evaluate", "--data", str(checkpoint / "data.csv"),
                    "--model", str(bad), "--out", str(out)])
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    if any(target in EXTRA_FIELDS and value is DELETE for target, _, value in edits):
        assert code == 2
    if code == 0:
        assert errors == []
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert type(metrics["untrained"]) is bool
    else:
        assert code == 2
        assert len(errors) == 1 and errors[0].startswith("error: ")


class TestCheckpointBoundary:
    @pytest.mark.parametrize("target", EXTRA_FIELDS + STAT_LISTS)
    def test_every_edge_value_exits_0_or_2(self, tiny_checkpoint, target):
        for value in EDGE_VALUES:
            evaluate_edited_extra(tiny_checkpoint, [(target, 0, value)])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(edits=st.lists(
        st.tuples(st.sampled_from(EXTRA_FIELDS + STAT_LISTS), st.integers(0, 11), VALUES),
        min_size=1, max_size=3,
    ))
    def test_mutated_extra_exits_0_or_2(self, tiny_checkpoint, edits):
        evaluate_edited_extra(tiny_checkpoint, edits)


# Cells and timestamps at the edges of what load_csv parses: non-finite and
# huge numbers, Python literals float() takes, and times whose UTC value, or
# offset, is out of datetime's range
EDGE_CELLS = ["nan", "inf", "-inf", "1e308", "-1.7e308", "1e400", "5e-324", "", " ", "x",
              "1_0", "0x10", "\ufeff1"]
EDGE_TIMESTAMPS = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00",
                   "0001-01-01T00:00:00", "9999-12-31T23:59:59.999999Z",
                   "2024-01-01T00:00:00+24:00", "2024-02-30T00:00:00Z", "2024-01-01", ""]
OFFSET_TIMESTAMPS = st.builds(
    lambda dt, minutes: dt.replace(tzinfo=timezone(timedelta(minutes=minutes))).isoformat(),
    st.datetimes(), st.integers(-1439, 1439))
# (kind, line, argument): line 0 is the header, and the index wraps around
CSV_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(1, 90), st.integers(0, 300)),
    st.tuples(st.just("cell"), st.integers(1, 90), st.tuples(
        st.integers(2, 13), st.one_of(st.sampled_from(EDGE_CELLS), st.floats().map(repr)))),
    st.tuples(st.just("timestamp"), st.integers(1, 90),
              st.one_of(st.sampled_from(EDGE_TIMESTAMPS), OFFSET_TIMESTAMPS)),
    st.tuples(st.sampled_from(["add field", "drop field"]), st.integers(1, 90),
              st.integers(0, 15)),
    st.tuples(st.sampled_from(["delete line", "repeat line", "byte-order mark"]),
              st.integers(1, 90), st.none()),
)


def mutate_csv(text: str, edits) -> str:
    """``text`` with each (kind, line, argument) edit of CSV_EDITS applied
    in turn; cells are split at every comma."""
    lines = text.split("\n")
    for kind, line, arg in edits:
        i = line % len(lines)
        cells = lines[i].split(",")
        if kind == "cell":
            cells[arg[0] % len(cells)] = arg[1]
        elif kind == "timestamp":
            cells[1 % len(cells)] = arg
        elif kind == "add field":
            cells.insert(arg % (len(cells) + 1), "1.0")
        elif kind == "drop field":
            del cells[arg % len(cells)]
        lines[i] = ",".join(cells)
        if kind == "truncate":
            lines[i] = lines[i][:arg]
        elif kind == "delete line":
            del lines[i]
        elif kind == "repeat line":
            lines.insert(i, lines[i])
        elif kind == "byte-order mark":
            lines[0] = "\ufeff" + lines[0]
    return "\n".join(lines)


def _reject_constant(name: str):
    raise ValueError(f"{name} in a JSON artifact")


class TestCsvBoundary:
    """``train`` on mutated CSV text exits 0, 1 or 2 and lets no exception
    escape; a failed run prints exactly one error line, and a run that
    succeeds writes every artifact its manifest lists, with finite numbers."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(edits=st.lists(CSV_EDITS, min_size=1, max_size=4))
    @example(edits=[("timestamp", 1, "0001-01-01T00:00:00+01:00")])
    @example(edits=[("timestamp", 80, "9999-12-31T23:59:59-01:00")])
    def test_mutated_csv_exits_0_1_or_2(self, tiny_checkpoint, edits):
        text = (tiny_checkpoint / "data.csv").read_text(encoding="utf-8")
        csv_path = tiny_checkpoint / "mutated.csv"
        csv_path.write_text(mutate_csv(text, edits), encoding="utf-8")
        out = tiny_checkpoint / "csv"
        (out / "run_manifest_train.json").unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["train", "--data", str(csv_path), "--out", str(out),
                        "--window", "4", "--epochs", "1", "--hidden", "2", "--seed", "42"])
        assert code in (0, 1, 2)
        if code != 0:
            errors = [line for line in err.getvalue().splitlines()
                      if line.startswith(("error: ", "internal error: "))]
            assert len(errors) == 1, err.getvalue()
            return
        manifest = json.loads((out / "run_manifest_train.json").read_text(encoding="utf-8"))
        for name in manifest["artifacts"]:
            json.loads((out / name).read_text(encoding="utf-8"), parse_constant=_reject_constant)


# The command each float setting matters to, and the values at the edges of
# what float() parses. Every other argument of the command is valid.
FLOAT_SETTING_COMMANDS = {
    "train_fraction": "train", "lr": "train", "threshold": "train",
    "lime_width": "explain-local", "lime_lambda": "explain-local",
    "rho": "synth", "label_noise": "synth",
}
EDGE_FLOATS = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-0.0"]


class TestFloatSettings:
    """Every float setting at every edge value exits 0, 1 or 2 and lets no
    exception escape; a failed run prints exactly one error line, and a run
    that succeeds writes every artifact its manifest lists, with finite
    numbers in the manifest and in every JSON artifact."""

    def test_every_float_setting_has_a_case(self):
        hints = typing.get_type_hints(cli.RunConfig)
        floats = {name for name, hint in hints.items() if hint in (float, float | None)}
        assert set(FLOAT_SETTING_COMMANDS) == floats

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    @pytest.mark.parametrize("field", sorted(FLOAT_SETTING_COMMANDS))
    def test_edge_value_exits_0_1_or_2(self, tiny_checkpoint, field, value):
        command = FLOAT_SETTING_COMMANDS[field]
        out = tiny_checkpoint / "floats" / f"{field}{value}"
        inputs = ["--data", str(tiny_checkpoint / "data.csv"), "--out", str(out)]
        args = {
            "synth": ["synth", "--out", str(out), "--n-ars", "10", "--samples-per-ar", "8"],
            "train": ["train", *inputs, "--window", "4", "--epochs", "1", "--hidden", "2"],
            "explain-local": ["explain-local", *inputs,
                              "--model", str(tiny_checkpoint / "model.json"),
                              "--sample-id", "0", "--lime-n", "200"],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            # --name=value: argparse reads a spaced "-1e308" as a flag
            code = run(args + [f"--{field.replace('_', '-')}={value}"])
        assert code in (0, 1, 2)
        if code != 0:
            errors = [line for line in err.getvalue().splitlines()
                      if line.startswith(("error: ", "internal error: "))]
            assert len(errors) == 1, err.getvalue()
            return
        manifest_path = out / f"run_manifest_{command.replace('-', '_')}.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"),
                              parse_constant=_reject_constant)
        for name in manifest["artifacts"]:
            text = (out / name).read_text(encoding="utf-8")
            if name.endswith(".json"):
                json.loads(text, parse_constant=_reject_constant)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", sorted(FLOAT_SETTING_COMMANDS))
    def test_non_finite_value_rejected_on_a_command_that_ignores_it(
            self, tiny_checkpoint, capsys, field, value):
        # evaluate reads none of lr, rho and label_noise, but its manifest
        # holds every setting; the setting is rejected before any file is read
        out = tiny_checkpoint / "nonfinite" / f"{field}{value}"
        code = run(["evaluate", "--data", str(tiny_checkpoint / "data.csv"),
                    "--model", str(tiny_checkpoint / "model.json"), "--out", str(out),
                    f"--{field.replace('_', '-')}={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert not out.exists()


class TestExplainGlobal:
    def test_artifacts_and_efficiency(self, trained):
        code = run([
            "explain-global", "--data", str(trained / "data.csv"),
            "--model", str(trained / "model.json"), "--out", str(trained),
            "--method", "exact", "--background", "3", "--seed", "42",
        ])
        assert code == 0
        exps = json.loads((trained / "shap.json").read_text())
        assert all(len(e["phi"]) == 12 for e in exps)
        for e in exps:
            assert abs(e["base"] + sum(e["phi"]) - e["fx"]) < 1e-6
        for stem in ("beeswarm", "bar", "decision"):
            assert (trained / f"{stem}.svg").exists()
            assert (trained / f"{stem}.json").exists()

    def test_kernel_full_enumeration_matches_exact_in_exports(self, trained):
        base_args = [
            "--data", str(trained / "data.csv"), "--model", str(trained / "model.json"),
            "--background", "2", "--seed", "42",
        ]
        out_exact = trained / "exact"
        out_kernel = trained / "kernel"
        assert run(["explain-global", *base_args, "--out", str(out_exact),
                    "--method", "exact"]) == 0
        assert run(["explain-global", *base_args, "--out", str(out_kernel),
                    "--method", "kernel", "--n-coalitions", str(2**12)]) == 0
        ex = json.loads((out_exact / "shap.json").read_text())
        kn = json.loads((out_kernel / "shap.json").read_text())
        worst = max(
            abs(a - b) for e1, e2 in zip(ex, kn) for a, b in zip(e1["phi"], e2["phi"])
        )
        assert worst < 1e-8

    def test_too_few_coalitions_reported_before_any_file_is_read(self, tmp_path, capsys):
        code = run([
            "explain-global", "--data", str(tmp_path / "nope.csv"),
            "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"),
            "--method", "kernel", "--n-coalitions", "5",
        ])
        assert code == 2
        d = len(FEATURE_NAMES)
        assert capsys.readouterr().err == f"error: n_coalitions must be >= d + 2 = {d + 2}, got 5\n"
        assert not (tmp_path / "o").exists()

    def test_feature_order_mismatch_rejected(self, trained, capsys):
        doc = json.loads((trained / "model.json").read_text())
        doc["extra"]["feature_names"] = list(reversed(doc["extra"]["feature_names"]))
        (trained / "model2.json").write_text(json.dumps(doc), encoding="utf-8")
        code = run([
            "explain-global", "--data", str(trained / "data.csv"),
            "--model", str(trained / "model2.json"), "--out", str(trained),
        ])
        assert code == 2
        assert "feature order" in capsys.readouterr().err


class TestExplainLocal:
    def test_by_index_and_by_id(self, trained):
        assert run([
            "explain-local", "--data", str(trained / "data.csv"),
            "--model", str(trained / "model.json"), "--out", str(trained),
            "--sample-id", "0", "--lime-n", "200", "--seed", "42",
        ]) == 0
        lime_files = [
            p for p in sorted(trained.glob("lime_*.json")) if not p.name.endswith("_plot.json")
        ]
        assert lime_files
        doc = json.loads(lime_files[0].read_text())
        assert run([
            "explain-local", "--data", str(trained / "data.csv"),
            "--model", str(trained / "model.json"), "--out", str(trained),
            "--sample-id", doc["sample_id"], "--lime-n", "200", "--seed", "42",
        ]) == 0
        assert len(doc["entries"]) == 12
        assert (trained / f"lime_{cli._sanitize(doc['sample_id'])}_plot.svg").exists()

    def test_unknown_sample_id_exit_2(self, trained, capsys):
        code = run([
            "explain-local", "--data", str(trained / "data.csv"),
            "--model", str(trained / "model.json"), "--out", str(trained),
            "--sample-id", "zzz",
        ])
        assert code == 2
        assert "sample-id" in capsys.readouterr().err

    @pytest.mark.parametrize("sample_id", ["²", "1²"])
    def test_digit_that_is_no_index_exit_2(self, trained, capsys, sample_id):
        code = run([
            "explain-local", "--data", str(trained / "data.csv"),
            "--model", str(trained / "model.json"), "--out", str(trained),
            "--sample-id", sample_id,
        ])
        assert code == 2
        assert f"error: unknown sample-id {sample_id!r}" in capsys.readouterr().err

    def test_index_longer_than_int_converts_exit_2(self, trained, capsys):
        # int() refuses a string of more than 4,300 digits
        sample_id = "9" * 5000
        code = run([
            "explain-local", "--data", str(trained / "data.csv"),
            "--model", str(trained / "model.json"), "--out", str(trained),
            "--sample-id", sample_id,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: unknown sample-id {sample_id!r}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags, field", [
        (["--lime-width", "1e-200"], "lime_width"),  # the square underflows to 0
        (["--lime-width", "1e200"], "lime_width"),  # the square overflows
        (["--lime-lambda", "0", "--lime-n", "10"], "lime_lambda"),  # 10 rows, 12 features
        (["--lime-lambda", "nan"], "lime_lambda"),
        (["--lime-lambda", "inf"], "lime_lambda"),
        (["--lime-lambda", "0", "--lime-n", "13", "--seed", "1"], "lime_n"),  # rank-deficient
    ])
    def test_unusable_surrogate_settings_exit_2(self, trained, capsys, flags, field):
        code = run([
            "explain-local", "--data", str(trained / "data.csv"),
            "--model", str(trained / "model.json"), "--out", str(trained),
            "--sample-id", "0", *flags,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err and "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("value, message", [
        ("nan", "lime_lambda must be finite, got nan"),
        ("inf", "lime_lambda must be finite, got inf"),
        ("-inf", "lime_lambda must be finite, got -inf"),
        ("-1", "lime_lambda must be nonnegative, got -1.0"),
    ], ids=["nan", "inf", "-inf", "-1"])
    def test_lime_lambda_messages(self, tiny_checkpoint, capsys, value, message):
        out = tiny_checkpoint / "lime-lambda" / value
        code = run(["evaluate", "--data", str(tiny_checkpoint / "data.csv"),
                    "--model", str(tiny_checkpoint / "model.json"), "--out", str(out),
                    f"--lime-lambda={value}"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_lime_plot_of_an_id_with_markup_parses(self, tmp_path):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        csv_path = out / "data.csv"
        csv_path.write_text(csv_path.read_text(encoding="utf-8").replace("AR0", "A<&>R0"),
                            encoding="utf-8")
        assert run(train_args(out)) == 0
        assert run([
            "explain-local", "--data", str(csv_path), "--model", str(out / "model.json"),
            "--out", str(out), "--sample-id", "0", "--lime-n", "200",
        ]) == 0
        (svg,) = out.glob("lime_*_plot.svg")
        texts = [el.text for el in ElementTree.parse(svg).iter() if el.tag.endswith("text")]
        assert any(t.startswith("local explanation: A<&>R0") for t in texts)

    # 10, 399 and 801 rows make one, one and two tiles; 5,000 make thirteen
    @pytest.mark.parametrize("n", [10, 399, 801, 5000])
    def test_lime_rows_match_one_repeated_batch(self, n):
        T, d = 10, 12
        rng = np.random.default_rng(n)
        params = model_mod.init_params(d, 16, seed=n)
        window, rows = rng.normal(size=(T, d)), rng.normal(size=(n, d))
        batch = np.repeat(window[None, :, :], n, axis=0)
        batch[:, -1, :] = rows
        want = model_mod.LstmModel(params).predict_proba(batch)
        got = cli._predict_last_step(model_mod.LstmModel(params), window, rows)
        assert np.array_equal(got, want)

    def test_lime_rows_hold_less_than_one_batch(self):
        n, T, d = 5000, 10, 12
        rng = np.random.default_rng(0)
        net = model_mod.LstmModel(model_mod.init_params(d, 16, seed=0))
        window, rows = rng.normal(size=(T, d)), rng.normal(size=(n, d))
        tracemalloc.start()
        try:
            cli._predict_last_step(net, window, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * T * d * 8  # bytes of the (n, T, d) batch


class TestCorrelate:
    def test_matrix_and_dependence_artifacts(self, trained):
        code = run([
            "correlate", "--data", str(trained / "data.csv"),
            "--model", str(trained / "model.json"), "--out", str(trained),
            "--method", "gradient", "--background", "5", "--n-steps", "4",
            "--seed", "42",
        ])
        assert code == 0
        lines = (trained / "corr.csv").read_text().strip().split("\n")
        M = np.array([[float(c) for c in ln.split(",")[1:]] for ln in lines[1:]])
        assert np.abs(M - M.T).max() == 0.0
        doc = json.loads((trained / "corr.json").read_text())
        assert doc["names"] == list(FEATURE_NAMES)
        for stem in ("dependence_top", "dependence_bottom"):
            assert (trained / f"{stem}.svg").exists()

    def test_samples_released_before_attribution(self, trained, monkeypatch):
        halves, alive = [], []
        split, explain_set = data.split, shapley.explain_set

        def split_spy(*args):
            result = split(*args)
            halves.extend(weakref.ref(half) for half in result)
            return result

        def explain_set_spy(*args, **kwargs):
            gc.collect()
            alive.extend(ref() is not None for ref in halves)
            return explain_set(*args, **kwargs)

        monkeypatch.setattr(data, "split", split_spy)
        monkeypatch.setattr(shapley, "explain_set", explain_set_spy)
        assert run([
            "correlate", "--data", str(trained / "data.csv"),
            "--model", str(trained / "model.json"), "--out", str(trained),
            "--method", "gradient", "--background", "5", "--n-steps", "4",
            "--seed", "42",
        ]) == 0
        assert alive == [False, False]

    def test_equal_values_column_constant_in_checkpoint_and_matrix(self, tmp_path):
        # fourteen or more 7.3s have a computed std of ~1e-15, not 0
        out = tmp_path / "o"
        assert run(synth_args(out, n_ars=40)) == 0
        samples = data.load_csv(out / "data.csv")
        j = FEATURE_NAMES.index("MEANGBZ")
        feats = samples.features.copy()
        feats[:, j] = 7.3
        data.write_csv(out / "data.csv", dataclasses.replace(samples, features=feats))
        assert run(train_args(out)) == 0
        stats = json.loads((out / "model.json").read_text())["extra"]["norm_stats"]
        assert stats["constant"][j] is True
        assert stats["mean"][j] == 7.3 and stats["std"][j] == 1.0
        assert run([
            "correlate", "--data", str(out / "data.csv"),
            "--model", str(out / "model.json"), "--out", str(out),
            "--method", "gradient", "--background", "4", "--n-steps", "2",
            "--seed", "42",
        ]) == 0
        doc = json.loads((out / "corr.json").read_text())
        assert doc["constant"][j] is True
        assert all(v == 0.0 for v in doc["values"][j])

    def test_constant_column_flagged_no_crash(self, tmp_path):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        # inject a constant column into the dataset
        samples = data.load_csv(out / "data.csv")
        feats = samples.features.copy()
        feats[:, 7] = 5.0
        data.write_csv(out / "data.csv", dataclasses.replace(samples, features=feats))
        assert run(train_args(out)) == 0
        assert run([
            "correlate", "--data", str(out / "data.csv"),
            "--model", str(out / "model.json"), "--out", str(out),
            "--method", "gradient", "--background", "4", "--n-steps", "2",
            "--seed", "42",
        ]) == 0
        doc = json.loads((out / "corr.json").read_text())
        assert doc["constant"][7] is True


REQUIRED_SETTINGS = [(command, setting) for command, (_, required, _) in cli._COMMANDS.items()
                     for setting in required]


class TestRunFiles:
    """``main`` checks each command's required settings and writes its run
    manifest; ``--out`` exists once a command has written a file to it."""

    def test_required_settings_per_command(self):
        assert {command: required for command, (_, required, _) in cli._COMMANDS.items()} == {
            "synth": (), "train": ("data",), "evaluate": ("model", "data"),
            "explain-global": ("model", "data"), "correlate": ("model", "data"),
            "explain-local": ("model", "data", "sample_id"),
        }

    @pytest.mark.parametrize("command,setting", REQUIRED_SETTINGS,
                             ids=[f"{c}-{s}" for c, s in REQUIRED_SETTINGS])
    def test_missing_required_setting_exit_2_leaves_no_out(
            self, tiny_checkpoint, tmp_path, capsys, command, setting):
        values = {"data": str(tiny_checkpoint / "data.csv"),
                  "model": str(tiny_checkpoint / "model.json"), "sample_id": "0"}
        _, required, _ = cli._COMMANDS[command]
        flags = [arg for name in required if name != setting
                 for arg in (f"--{name.replace('_', '-')}", values[name])]
        out = tmp_path / "o"
        assert run([command, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --{setting.replace('_', '-')} is required for this command\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_missing_data_file_leaves_no_out(self, tiny_checkpoint, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert run([command, "--data", str(tmp_path / "nope.csv"), "--model",
                    str(tiny_checkpoint / "model.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read data file ")
        assert not out.exists()

    def test_csv_without_windows_leaves_no_out(self, tiny_checkpoint, tmp_path, capsys):
        # the tiny set has 8 samples per AR
        out = tmp_path / "o"
        assert run(["train", "--data", str(tiny_checkpoint / "data.csv"), "--window", "9",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "left no windows" in err[0]
        assert not out.exists()

    def test_unknown_sample_id_leaves_no_out(self, tiny_checkpoint, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["explain-local", "--data", str(tiny_checkpoint / "data.csv"), "--model",
                    str(tiny_checkpoint / "model.json"), "--sample-id", "nosuch",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown sample-id 'nosuch'")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_rejected_before_data_is_generated(
            self, tmp_path, monkeypatch, capsys, source):
        monkeypatch.chdir(tmp_path)
        generated = []
        monkeypatch.setattr(data, "synth_generate", lambda *args: generated.append(args))
        if source == "flag":
            argv = ["synth", "--out", ""]
        else:
            (tmp_path / "run.cfg").write_text("out=\n", encoding="utf-8")
            argv = ["synth", "--config", "run.cfg"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: --out must not be empty\n"
        assert generated == []
        assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if source == "config"
                                                              else [])

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_under_a_regular_file_rejected_before_the_data_is_read(
            self, tmp_path, monkeypatch, capsys, out):
        # the data file is missing too: the --out error comes first
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_bytes(b"a regular file\n")
        assert run(["train", "--data", "missing.csv", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: afile is not a directory\n"
        assert (tmp_path / "afile").read_bytes() == b"a regular file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_synth_makes_the_csv_directory_and_lists_it_from_out(self, tmp_path):
        out, csv_path = tmp_path / "o2", tmp_path / "elsewhere" / "new" / "foo.csv"
        assert run(synth_args(out) + ["--data", str(csv_path)]) == 0
        assert csv_path.is_file()
        manifest = json.loads((out / "run_manifest_synth.json").read_text(encoding="utf-8"))
        assert manifest["artifacts"] == ["../elsewhere/new/foo.csv", "data_manifest.json"]
        assert all((out / name).is_file() for name in manifest["artifacts"])
        assert manifest["inputs"] == {}
        assert sorted(p.name for p in out.iterdir()) == [
            "data_manifest.json", "run_manifest_synth.json"]

    @pytest.mark.parametrize("data, want", [(None, "data.csv"),
                                            ("elsewhere/x.csv", "../elsewhere/x.csv")])
    def test_data_manifest_names_the_csv_from_out(self, tmp_path, monkeypatch, data, want):
        monkeypatch.chdir(tmp_path)
        assert run(synth_args("o2") + ([] if data is None else ["--data", data])) == 0
        manifest = json.loads((tmp_path / "o2" / "data_manifest.json").read_text(encoding="utf-8"))
        assert manifest["csv"] == want
        assert (tmp_path / "o2" / want).is_file()

    def test_synth_lists_its_own_csv_by_name(self, tmp_path):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        manifest = json.loads((out / "run_manifest_synth.json").read_text(encoding="utf-8"))
        assert manifest["artifacts"] == ["data.csv", "data_manifest.json"]

    def test_manifest_inputs_are_the_required_files(self, tiny_checkpoint, tmp_path):
        out = tmp_path / "o"
        csv_path, model_path = str(tiny_checkpoint / "data.csv"), str(tiny_checkpoint / "model.json")
        assert run(["explain-local", "--data", csv_path, "--model", model_path,
                    "--sample-id", "0", "--lime-n", "50", "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest_explain_local.json").read_text(encoding="utf-8"))
        assert sorted(manifest["inputs"]) == sorted([csv_path, model_path])
        assert all(len(digest) == 64 for digest in manifest["inputs"].values())
        assert sorted(manifest["artifacts"]) == sorted(p.name for p in out.iterdir()
                                                       if not p.name.startswith("run_manifest"))
