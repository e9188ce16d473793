import dataclasses
import json
import typing

import numpy as np
import pytest

from stormlens import cli, data
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
        assert metrics["horizon_hours"] == 24
        checkpoint = json.loads((trained / "model.json").read_text())
        assert checkpoint["schema"] == "stormlens-model/1"
        assert checkpoint["extra"]["feature_names"] == list(FEATURE_NAMES)

    def test_zero_epochs_flagged_untrained(self, tmp_path):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        assert run(train_args(out, epochs=0)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["untrained"] is True
        assert metrics["loss_history"] == []

    def test_missing_data_file_exit_2(self, tmp_path, capsys):
        code = run(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("cells", [1, 2])
    def test_overflowing_feature_rejected(self, tmp_path, capsys, cells):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        samples = data.load_csv(out / "data.csv")
        train_s, _ = data.split(samples, 0.8, 42)
        huge = {(s.ar_id, s.timestamp) for s in train_s[:cells]}
        edited = []
        for s in samples:
            feats = s.features.copy()
            if (s.ar_id, s.timestamp) in huge:
                feats[FEATURE_NAMES.index("TOTPOT")] = 1e308
            edited.append(data.Sample(s.ar_id, s.timestamp, feats, s.label))
        data.write_csv(out / "data.csv", edited)
        assert run(train_args(out)) == 2
        assert "TOTPOT" in capsys.readouterr().err
        assert not (out / "model.json").exists()

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

    def test_missing_norm_stats_warned_and_recorded(self, trained, capsys):
        assert self.evaluate_edited(trained, lambda doc: doc) == 0
        manifest = json.loads((trained / "eval" / "run_manifest_evaluate.json").read_text())
        assert "norm_stats_refit" not in manifest
        assert "warning" not in capsys.readouterr().err

        assert self.evaluate_edited(trained, lambda doc: doc["extra"].pop("norm_stats")) == 0
        assert "has no 'extra.norm_stats'; refitting" in capsys.readouterr().err
        manifest = json.loads((trained / "eval" / "run_manifest_evaluate.json").read_text())
        assert manifest["norm_stats_refit"] is True


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

    def test_constant_column_flagged_no_crash(self, tmp_path):
        out = tmp_path / "o"
        assert run(synth_args(out)) == 0
        # inject a constant column into the dataset
        samples = data.load_csv(out / "data.csv")
        frozen = []
        for s in samples:
            feats = s.features.copy()
            feats[7] = 5.0
            frozen.append(data.Sample(s.ar_id, s.timestamp, feats, s.label))
        data.write_csv(out / "data.csv", frozen)
        assert run(train_args(out)) == 0
        assert run([
            "correlate", "--data", str(out / "data.csv"),
            "--model", str(out / "model.json"), "--out", str(out),
            "--method", "gradient", "--background", "4", "--n-steps", "2",
            "--seed", "42",
        ]) == 0
        doc = json.loads((out / "corr.json").read_text())
        assert doc["constant"][7] is True
