"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.

The planted synthetic generator provides the ground truth for the
end-to-end criteria; engine-level criteria use small randomized models.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import LinearWindowModel, normalized_windows, random_lstm
from stormlens import analysis, cli, data, lime, model, numerics, shapley
from stormlens.features import FEATURE_NAMES, feature_index


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_shapley_efficiency():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(i)
        net = random_lstm(12, 4, seed=i)
        sample = rng.normal(size=(3, 12))
        background = rng.normal(size=(2, 3, 12))
        e = shapley.exact_shapley(net, sample, background)
        worst = max(worst, abs(e.base + e.phi.sum() - e.fx))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (exact efficiency, d=12, 100 pairs)",
        worst < 1e-6 and elapsed < 120.0,
        f"worst gap {worst:.2e} (< 1e-6), {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_kernel_exact_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(200 + i)
        net = random_lstm(6, 4, seed=i)
        sample = rng.normal(size=(3, 6))
        background = rng.normal(size=(3, 3, 6))
        exact = shapley.exact_shapley(net, sample, background)
        kernel = shapley.kernel_shap(net, sample, background, n_coalitions=2**6, seed=i)
        worst = max(worst, float(np.abs(exact.phi - kernel.phi).max()))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2 (kernel full enumeration = exact, d=6, 20 samples)",
        worst < 1e-8 and elapsed < 60.0,
        f"max |dphi| {worst:.2e} (< 1e-8), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_dummy_and_symmetry_axioms():
    worst_dummy_exact = 0.0
    worst_symmetry = 0.0
    worst_dummy_kernel = 0.0
    worst_dummy_gradient = 0.0
    for i in range(10):
        rng = np.random.default_rng(300 + i)
        # dummy: input column 2 disconnected
        params = model.init_params(6, 4, seed=i)
        params.w_x[:, 2] = 0.0
        net = model.LstmModel(params)
        sample = rng.normal(size=(3, 6))
        background = rng.normal(size=(2, 3, 6))
        e = shapley.exact_shapley(net, sample, background)
        worst_dummy_exact = max(worst_dummy_exact, abs(e.phi[2]))
        k = shapley.kernel_shap(net, sample, background, n_coalitions=2**6, seed=i)
        worst_dummy_kernel = max(worst_dummy_kernel, abs(k.phi[2]))
        # gradient dummy on a linear model with a zero coefficient
        W = rng.normal(size=(3, 6))
        W[:, 2] = 0.0
        lin = LinearWindowModel(W)
        g = shapley.gradient_shap(lin, sample, background, n_steps=4, seed=i)
        worst_dummy_gradient = max(worst_dummy_gradient, abs(g.phi[2]))
        # symmetry: features 1 and 4 exchangeable
        params = model.init_params(6, 4, seed=100 + i)
        params.w_x[:, 4] = params.w_x[:, 1]
        net = model.LstmModel(params)
        sym_sample = rng.normal(size=(3, 6))
        sym_sample[:, 4] = sym_sample[:, 1]
        sym_bg = rng.normal(size=(2, 3, 6))
        sym_bg[:, :, 4] = sym_bg[:, :, 1]
        s = shapley.exact_shapley(net, sym_sample, sym_bg)
        worst_symmetry = max(worst_symmetry, abs(s.phi[1] - s.phi[4]))
    report(
        "criterion 3 (dummy and symmetry axioms)",
        worst_dummy_exact <= 1e-10
        and worst_symmetry <= 1e-10
        and worst_dummy_kernel < 1e-3
        and worst_dummy_gradient <= 1e-10,
        f"dummy exact {worst_dummy_exact:.2e} (<=1e-10), "
        f"symmetry {worst_symmetry:.2e} (<=1e-10), "
        f"dummy kernel {worst_dummy_kernel:.2e} (<1e-3), "
        f"dummy gradient {worst_dummy_gradient:.2e} (<=1e-10)",
    )


def test_criterion_4_gradient_path_closed_form():
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(400 + i)
        W = rng.normal(size=(1, 12))
        net = LinearWindowModel(W, b=float(rng.normal()))
        x = rng.normal(size=(1, 12))
        background = rng.normal(size=(rng.integers(1, 6), 1, 12))
        e = shapley.gradient_shap(net, x, background, n_steps=int(rng.integers(1, 6)),
                                  seed=i)
        closed = W[0] * (x[0] - background[:, 0, :].mean(axis=0))
        worst = max(worst, float(np.abs(e.phi - closed).max()))
    report(
        "criterion 4 (expected-gradients closed form on 50 linear models)",
        worst < 1e-10,
        f"max deviation {worst:.2e} (< 1e-10)",
    )


def test_criterion_5_lstm_gradient_check():
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(500 + i)
        net = random_lstm(12, 8, seed=i)
        seq = rng.normal(size=(5, 12))
        grad = net.input_gradient_batch(seq[None])[0]
        T, d = seq.shape
        batch = np.repeat(seq[None], 2 * T * d, axis=0)
        k = 0
        for t in range(T):
            for j in range(d):
                batch[k, t, j] += h
                batch[k + 1, t, j] -= h
                k += 2
        p = net.predict_proba(batch)
        fd = ((p[0::2] - p[1::2]) / (2 * h)).reshape(T, d)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5 (gradient vs finite differences, 100 draws, H=8 T=5)",
        worst < 1e-4 and elapsed < 120.0,
        f"worst relative error {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 120s)",
    )


@pytest.fixture(scope="module")
def desk_training():
    """Planted 2000/500-window pipeline (criterion 6 scale), trained once."""
    t0 = time.perf_counter()
    plant = data.PlantSpec(rho=0.95, label_noise=0.005)
    samples = data.synth_generate(500, 14, 42, plant)
    train_s, test_s = data.split(samples, 0.8, 42)
    stats = data.NormStats.fit(train_s.features)
    train_w = normalized_windows(train_s, stats, 10)
    test_w = normalized_windows(test_s, stats, 10)
    net, history = model.train(
        train_w,
        model.TrainConfig(hidden=16, epochs=40, batch=64, learning_rate=3e-3, seed=42),
    )
    elapsed = time.perf_counter() - t0
    return net, train_w, test_w, elapsed


def test_criterion_6_desk_scale_training(desk_training):
    net, train_w, test_w, elapsed = desk_training
    assert len(train_w) == 2000 and len(test_w) == 500
    result = model.evaluate(net, test_w)
    report(
        "criterion 6 (desk-scale training, 2000/500 windows, T=10)",
        result.tss >= 0.9 and elapsed < 300.0,
        f"held-out TSS {result.tss:.3f} (>= 0.9), {elapsed:.0f}s (< 300s), "
        f"counts {result.to_dict()['confusion']}",
    )


def test_criterion_7_planted_importance_recovery():
    hits = 0
    n_seeds = 20
    for seed in range(n_seeds):
        plant = data.PlantSpec(dominant="TOTPOT", correlate="SAVNCPP", rho=0.5,
                               label_noise=0.005, trend_window=8)
        samples = data.synth_generate(120, 12, seed, plant)
        train_s, test_s = data.split(samples, 0.8, seed)
        stats = data.NormStats.fit(train_s.features)
        train_w = normalized_windows(train_s, stats, 8)
        test_w = normalized_windows(test_s, stats, 8)
        net, _ = model.train(
            train_w,
            model.TrainConfig(hidden=8, epochs=12, batch=64, learning_rate=3e-3,
                              seed=seed),
        )
        background = shapley.sample_background(train_w.values, 20, seed)
        exps = shapley.explain_set(net, test_w.values[:40], background,
                                   method="gradient", seed=seed, n_steps=8)
        importance = shapley.global_importance(exps)
        hits += importance.order[0] == feature_index("TOTPOT")
    report(
        "criterion 7 (planted dominant feature ranks first, 20 seeds)",
        hits >= 0.95 * n_seeds,
        f"{hits}/{n_seeds} recoveries (need >= 19)",
    )


def test_criterion_8_lime_fidelity(desk_training):
    # part 1: linear single-step models in raw-sampling mode
    worst_r2 = 1.0
    signs_ok = True
    for i in range(5):
        rng = np.random.default_rng(800 + i)
        rows = rng.normal(size=(300, 12)) * rng.uniform(0.5, 2.0, size=12)
        disc = lime.discretizer_fit(rows)
        w = rng.normal(size=12)
        exp = lime.explain_local(lambda r: r @ w, rows[0], disc, n=3000, seed=i,
                                 raw_mode=True)
        worst_r2 = min(worst_r2, exp.fidelity)
        w_std = w * disc.feature_std
        weights = {e.feature: e.weight for e in exp.entries}
        for j, name in enumerate(FEATURE_NAMES):
            if abs(w_std[j]) >= 0.1 and np.sign(weights[name]) != np.sign(w_std[j]):
                signs_ok = False
    # part 2: planted pipeline, most confident positive prediction
    net, train_w, test_w, _ = desk_training
    probs = net.predict_proba(test_w.values)
    idx = int(np.argmax(probs))
    disc = lime.discretizer_fit(train_w.values[:, -1, :])
    window = test_w.values[idx]

    def predict_rows(rows):
        batch = np.repeat(window[None], rows.shape[0], axis=0)
        batch[:, -1, :] = rows
        return net.predict_proba(batch)

    exp = lime.explain_local(predict_rows, window[-1], disc, n=4000, seed=42)
    pos = sum(e.weight for e in exp.entries if e.weight > 0)
    neg = -sum(e.weight for e in exp.entries if e.weight < 0)
    report(
        "criterion 8 (surrogate fidelity and positive-sample reading)",
        worst_r2 > 0.99 and signs_ok and probs[idx] >= 0.5 and pos > neg,
        f"worst raw-mode R2 {worst_r2:.4f} (> 0.99), signs {signs_ok}, "
        f"p={probs[idx]:.3f}, positive magnitude {pos:.2e} > negative {neg:.2e}",
    )


def test_criterion_9_correlation_recovery():
    plant = data.PlantSpec(dominant="TOTPOT", correlate="SAVNCPP", rho=0.95)
    samples = data.synth_generate(400, 14, 42, plant)  # 5600 samples
    matrix = analysis.correlation_matrix(samples.features)
    i, j = feature_index("TOTPOT"), feature_index("SAVNCPP")
    cell = matrix.values[i, j]
    sym = float(np.abs(matrix.values - matrix.values.T).max())
    diag = float(np.abs(np.diag(matrix.values) - 1.0).max())
    partner = analysis.strongest_correlate("TOTPOT", matrix)
    report(
        "criterion 9 (planted correlation recovery)",
        0.90 <= cell <= 1.00 and sym <= 1e-12 and diag <= 1e-12
        and partner.name == "SAVNCPP",
        f"cell {cell:.3f} in [0.90, 1.00], asymmetry {sym:.1e} (<=1e-12), "
        f"diag gap {diag:.1e} (<=1e-12), strongest correlate {partner.name}",
    )


def _run_pipeline(workdir):
    """Full CLI pipeline with relative paths under the given cwd."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        steps = [
            ["synth", "--out", "out", "--n-ars", "50", "--samples-per-ar", "14",
             "--seed", "42"],
            ["train", "--data", "out/data.csv", "--out", "out", "--hidden", "8",
             "--epochs", "6", "--batch", "64", "--lr", "3e-3", "--seed", "42"],
            ["explain-global", "--data", "out/data.csv", "--model", "out/model.json",
             "--out", "out", "--method", "gradient", "--background", "10",
             "--n-steps", "4", "--seed", "42"],
            ["explain-local", "--data", "out/data.csv", "--model", "out/model.json",
             "--out", "out", "--sample-id", "0", "--lime-n", "300", "--seed", "42"],
            ["correlate", "--data", "out/data.csv", "--model", "out/model.json",
             "--out", "out", "--method", "gradient", "--background", "10",
             "--n-steps", "4", "--seed", "42"],
            ["evaluate", "--data", "out/data.csv", "--model", "out/model.json",
             "--out", "out", "--seed", "42"],
        ]
        codes = [cli.main(args) for args in steps]
    finally:
        os.chdir(previous)
    return codes


@pytest.fixture(scope="module")
def pipeline_twice(tmp_path_factory):
    d1 = tmp_path_factory.mktemp("pipeline_a")
    d2 = tmp_path_factory.mktemp("pipeline_b")
    codes1 = _run_pipeline(d1)
    codes2 = _run_pipeline(d2)
    return d1, d2, codes1, codes2


def test_criterion_10_cli_determinism(pipeline_twice):
    d1, d2, codes1, codes2 = pipeline_twice
    assert codes1 == codes2
    files1 = sorted(p.name for p in (d1 / "out").iterdir())
    files2 = sorted(p.name for p in (d2 / "out").iterdir())
    assert files1 == files2
    mismatched = [
        name for name in files1
        if (d1 / "out" / name).read_bytes() != (d2 / "out" / name).read_bytes()
    ]
    report(
        "criterion 10 (byte-identical reruns of every CLI artifact)",
        codes1 == [0] * 6 and not mismatched,
        f"{len(files1)} artifacts compared, mismatches: {mismatched or 'none'}",
    )


def test_criterion_10_across_processes(tmp_path):
    """Criterion 10 with each run in a fresh process, under different hash
    seeds and BLAS thread counts, so neither state left in a process nor
    set or dict order can make two runs agree."""
    steps = [
        ["synth", "--out", "out", "--n-ars", "16", "--samples-per-ar", "8", "--window", "4",
         "--seed", "7"],
        ["train", "--data", "out/data.csv", "--out", "out", "--window", "4", "--hidden", "4",
         "--epochs", "2", "--batch", "32", "--seed", "7"],
        *([command, "--data", "out/data.csv", "--model", "out/model.json", "--out", "out",
           "--method", "gradient", "--background", "5", "--n-steps", "4", "--seed", "7"]
          for command in ("explain-global", "correlate")),
        ["explain-global", "--data", "out/data.csv", "--model", "out/model.json",
         "--out", "out/kernel", "--method", "kernel", "--background", "5",
         "--n-coalitions", "64", "--seed", "7"],
        ["explain-global", "--data", "out/data.csv", "--model", "out/model.json",
         "--out", "out/exact", "--method", "exact", "--background", "2", "--seed", "7"],
        ["explain-local", "--data", "out/data.csv", "--model", "out/model.json", "--out", "out",
         "--sample-id", "0", "--seed", "7"],
    ]
    script = ("import json, sys\nfrom stormlens import cli\n"
              "sys.exit(next((rc for rc in map(cli.main, json.loads(sys.argv[1])) if rc), 0))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = []
    for hash_seed, threads in (("0", "1"), ("1", "2")):
        workdir = tmp_path / f"hash{hash_seed}"
        workdir.mkdir()
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed,
               "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", script, json.dumps(steps)], cwd=workdir,
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        runs.append({path.relative_to(workdir).as_posix(): path.read_bytes()
                     for path in (workdir / "out").rglob("*") if path.is_file()})
    mismatched = sorted(name for name in runs[0].keys() | runs[1].keys()
                        if runs[0].get(name) != runs[1].get(name))
    report(
        "criterion 10b (byte-identical reruns across processes, hash seeds and BLAS threads)",
        not mismatched,
        f"{len(runs[0])} files compared, mismatches: {mismatched or 'none'}",
    )


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert cli.main(["synth", "--out", str(out), "--n-ars", "8", "--samples-per-ar", "6",
                     "--seed", "3"]) == 0
    assert cli.main(["train", "--data", str(out / "data.csv"), "--out", str(out),
                     "--window", "3", "--hidden", "3", "--epochs", "1", "--seed", "3"]) == 0
    return out


@pytest.mark.parametrize("method", ["exact", "kernel", "gradient"])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(0, cli.MAX_INT_SETTING))
def test_criterion_10_at_random_seeds(tiny_model, method, seed):
    """Criterion 10 for each attribution method at seeds drawn at random:
    the same explain-global command, run twice, writes the same bytes."""
    out = tiny_model / f"explain-{method}"
    args = ["explain-global", "--data", str(tiny_model / "data.csv"),
            "--model", str(tiny_model / "model.json"), "--out", str(out), "--method", method,
            "--background", "2", "--n-coalitions", "32", "--n-steps", "2", "--seed", str(seed)]
    runs = []
    for _ in range(2):
        shutil.rmtree(out, ignore_errors=True)
        assert cli.main(args) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert runs[0].keys() == runs[1].keys() and "shap.json" in runs[0]
    mismatched = sorted(name for name in runs[0] if runs[0][name] != runs[1][name])
    assert not mismatched, f"{method} at seed {seed}: {mismatched} differ"


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def test_criterion_11_end_to_end_artifacts(pipeline_twice):
    d1, _, codes1, _ = pipeline_twice
    out = d1 / "out"
    expected = [
        "data.csv", "data_manifest.json", "model.json", "metrics.json",
        "shap.json", "beeswarm.svg", "beeswarm.json", "bar.svg", "bar.json",
        "decision.svg", "decision.json", "corr.csv", "corr.json",
        "dependence_top.svg", "dependence_top.json",
        "dependence_bottom.svg", "dependence_bottom.json",
    ]
    missing = [name for name in expected if not (out / name).exists()]
    lime_exports = [
        p for p in out.glob("lime_*.json") if not p.name.endswith("_plot.json")
    ]
    lime_plots = list(out.glob("lime_*_plot.svg"))
    manifests = list(out.glob("run_manifest_*.json"))
    # every JSON artifact is valid JSON: no NaN or Infinity constant
    invalid = []
    for path in sorted(out.glob("*.json")):
        try:
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        except ValueError:
            invalid.append(path.name)
    report(
        "criterion 11 (end-to-end pipeline completes with all artifacts)",
        codes1 == [0] * 6 and not missing and lime_exports and lime_plots
        and len(manifests) == 6 and not invalid,
        f"exit codes {codes1}, missing: {missing or 'none'}, "
        f"{len(manifests)} manifests, invalid JSON: {invalid or 'none'}",
    )


def test_criterion_11_external_csv_schema(tmp_path):
    """Any well-formed CSV in the documented schema trains end to end,
    including hand-written files that never came from the generator."""
    rng = np.random.default_rng(0)
    rows = []
    for ar in range(6):
        for t in range(12):
            feats = rng.normal(size=12) * 10.0 + 50.0
            label = "P" if rng.random() < 0.5 else "N"
            feats_text = ",".join(f"{v:.6f}" for v in feats)
            rows.append(f"EXT{ar},2024-02-0{ar + 1}T{t:02d}:00:00Z,{feats_text},{label}")
    csv_path = tmp_path / "external.csv"
    header = ",".join(("ar_id", "timestamp") + FEATURE_NAMES + ("label",))
    csv_path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code_train = cli.main([
        "train", "--data", str(csv_path), "--out", str(out), "--window", "6",
        "--epochs", "2", "--hidden", "4", "--seed", "42",
    ])
    code_explain = cli.main([
        "explain-global", "--data", str(csv_path), "--model", str(out / "model.json"),
        "--out", str(out), "--method", "kernel", "--n-coalitions", "64",
        "--background", "5", "--seed", "42",
    ])
    report(
        "criterion 11b (external hand-written CSV runs end to end)",
        code_train == 0 and code_explain == 0 and (out / "shap.json").exists(),
        f"train exit {code_train}, explain exit {code_explain}",
    )
