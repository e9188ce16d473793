from itertools import permutations

import numpy as np
import pytest

from conftest import LinearWindowModel, random_lstm
from stormlens import model, shapley
from stormlens.errors import InputError, SingularSystemError


def permutation_shapley_oracle(net, sample, background):
    """Independent Shapley reference: average marginal contributions over
    all d! feature orderings (the permutation definition)."""
    sample = np.asarray(sample, dtype=np.float64)
    d = sample.shape[1]
    cache = {}

    def v(mask):
        if mask not in cache:
            subset = [j for j in range(d) if mask[j]]
            cache[mask] = shapley.coalition_value(net, sample, background, subset)
        return cache[mask]

    phi = np.zeros(d)
    perms = list(permutations(range(d)))
    for perm in perms:
        mask = [False] * d
        prev = v(tuple(mask))
        for j in perm:
            mask[j] = True
            cur = v(tuple(mask))
            phi[j] += cur - prev
            prev = cur
    return phi / len(perms)


class TestCoalitionValue:
    def test_full_coalition_is_model_output(self):
        net = random_lstm(4, 3, seed=0)
        rng = np.random.default_rng(0)
        sample = rng.normal(size=(3, 4))
        bg = rng.normal(size=(5, 3, 4))
        v = shapley.coalition_value(net, sample, bg, range(4))
        assert v == pytest.approx(float(net.predict_proba(sample[None])[0]), abs=1e-12)

    def test_empty_coalition_is_background_mean(self):
        net = random_lstm(4, 3, seed=1)
        rng = np.random.default_rng(1)
        sample = rng.normal(size=(3, 4))
        bg = rng.normal(size=(5, 3, 4))
        v = shapley.coalition_value(net, sample, bg, [])
        assert v == pytest.approx(float(net.predict_proba(bg).mean()), abs=1e-12)

    def test_single_feature_hand_average(self):
        net = random_lstm(3, 2, seed=2)
        rng = np.random.default_rng(2)
        sample = rng.normal(size=(2, 3))
        bg = rng.normal(size=(2, 2, 3))
        mixed = bg.copy()
        mixed[:, :, 1] = sample[:, 1]  # feature 1 taken from the sample
        want = float(net.predict_proba(mixed).mean())
        assert shapley.coalition_value(net, sample, bg, [1]) == pytest.approx(want, abs=1e-12)


class TestExactShapley:
    def test_linear_two_feature_hand_case(self):
        # f = 2 x1 + 3 x2, background mean 0, sample (1, 1): phi = (2, 3)
        net = LinearWindowModel([[2.0, 3.0]])
        e = shapley.exact_shapley(net, [[1.0, 1.0]], np.zeros((1, 1, 2)))
        assert np.allclose(e.phi, [2.0, 3.0], atol=1e-12)
        assert e.base == 0.0 and e.fx == 5.0

    def test_matches_permutation_oracle(self):
        net = random_lstm(4, 3, seed=5)
        rng = np.random.default_rng(5)
        sample = rng.normal(size=(2, 4))
        bg = rng.normal(size=(3, 2, 4))
        e = shapley.exact_shapley(net, sample, bg)
        oracle = permutation_shapley_oracle(net, sample, bg)
        assert np.allclose(e.phi, oracle, atol=1e-10)

    def test_dummy_axiom(self):
        params = model.init_params(5, 4, seed=6)
        params.w_x[:, 2] = 0.0  # feature 2 never enters the network
        net = model.LstmModel(params)
        rng = np.random.default_rng(6)
        e = shapley.exact_shapley(net, rng.normal(size=(3, 5)), rng.normal(size=(2, 3, 5)))
        assert abs(e.phi[2]) <= 1e-10

    def test_symmetry_axiom(self):
        params = model.init_params(5, 4, seed=7)
        params.w_x[:, 1] = params.w_x[:, 3]  # exchangeable roles
        net = model.LstmModel(params)
        rng = np.random.default_rng(7)
        sample = rng.normal(size=(3, 5))
        sample[:, 3] = sample[:, 1]
        bg = rng.normal(size=(2, 3, 5))
        bg[:, :, 3] = bg[:, :, 1]
        e = shapley.exact_shapley(net, sample, bg)
        assert abs(e.phi[1] - e.phi[3]) <= 1e-10

    def test_efficiency_on_random_models(self):
        for i in range(10):
            rng = np.random.default_rng(50 + i)
            net = random_lstm(6, 3, seed=i)
            e = shapley.exact_shapley(net, rng.normal(size=(3, 6)), rng.normal(size=(2, 3, 6)))
            assert abs(e.base + e.phi.sum() - e.fx) < 1e-6

    def test_enumeration_guard(self):
        net = LinearWindowModel(np.ones((1, 21)))
        with pytest.raises(InputError, match="kernel_shap"):
            shapley.exact_shapley(net, np.ones((1, 21)), np.zeros((1, 1, 21)))


class TestKernelShap:
    def test_full_enumeration_matches_exact(self):
        for i in range(5):
            rng = np.random.default_rng(80 + i)
            net = random_lstm(6, 3, seed=i)
            sample = rng.normal(size=(2, 6))
            bg = rng.normal(size=(3, 2, 6))
            exact = shapley.exact_shapley(net, sample, bg)
            kernel = shapley.kernel_shap(net, sample, bg, n_coalitions=2**6, seed=i)
            assert np.abs(exact.phi - kernel.phi).max() < 1e-8

    def test_constant_model(self):
        net = LinearWindowModel(np.zeros((2, 4)), b=0.37)
        rng = np.random.default_rng(9)
        e = shapley.kernel_shap(net, rng.normal(size=(2, 4)), rng.normal(size=(3, 2, 4)),
                                n_coalitions=64, seed=1)
        assert np.abs(e.phi).max() < 1e-12
        assert e.base == pytest.approx(e.fx, abs=1e-12)

    def test_sampled_mode_deterministic(self):
        net = random_lstm(8, 3, seed=11)
        rng = np.random.default_rng(11)
        sample = rng.normal(size=(2, 8))
        bg = rng.normal(size=(2, 2, 8))
        a = shapley.kernel_shap(net, sample, bg, n_coalitions=40, seed=123)
        b = shapley.kernel_shap(net, sample, bg, n_coalitions=40, seed=123)
        assert np.array_equal(a.phi, b.phi)

    def test_sampled_mode_approximates_exact(self):
        net = random_lstm(8, 3, seed=12)
        rng = np.random.default_rng(12)
        sample = rng.normal(size=(2, 8))
        bg = rng.normal(size=(2, 2, 8))
        exact = shapley.exact_shapley(net, sample, bg)
        approx = shapley.kernel_shap(net, sample, bg, n_coalitions=200, seed=3)
        assert np.abs(exact.phi - approx.phi).max() < 0.05

    def test_too_few_coalitions_rejected(self):
        net = LinearWindowModel(np.ones((1, 6)))
        with pytest.raises(InputError, match="n_coalitions"):
            shapley.kernel_shap(net, np.ones((1, 6)), np.zeros((1, 1, 6)),
                                n_coalitions=5, seed=0)

    def test_singular_regression_suggests_more_coalitions(self, monkeypatch):
        net = LinearWindowModel(np.ones((1, 4)))
        monkeypatch.setattr(
            "stormlens.shapley.numerics.weighted_least_squares",
            lambda *a, **k: (_ for _ in ()).throw(SingularSystemError("forced")),
        )
        with pytest.raises(SingularSystemError, match="larger n_coalitions"):
            shapley.kernel_shap(net, np.ones((1, 4)), np.zeros((1, 1, 4)),
                                n_coalitions=16, seed=0)


class TestGradientShap:
    def test_linear_closed_form(self):
        rng = np.random.default_rng(13)
        W = rng.normal(size=(1, 7))
        net = LinearWindowModel(W)
        x = rng.normal(size=(1, 7))
        bg = rng.normal(size=(5, 1, 7))
        e = shapley.gradient_shap(net, x, bg, n_steps=3, seed=2)
        closed = W[0] * (x[0] - bg[:, 0, :].mean(axis=0))
        assert np.abs(e.phi - closed).max() < 1e-10

    def test_zero_path_length(self):
        rng = np.random.default_rng(14)
        net = random_lstm(5, 3, seed=14)
        b = rng.normal(size=(1, 2, 5))
        e = shapley.gradient_shap(net, b[0], b, n_steps=4, seed=0)
        assert np.all(e.phi == 0.0)

    def test_zero_gradient_field(self):
        params = model.init_params(5, 3, seed=15)
        params.w_out[:] = 0.0
        net = model.LstmModel(params)
        rng = np.random.default_rng(15)
        e = shapley.gradient_shap(net, rng.normal(size=(2, 5)), rng.normal(size=(3, 2, 5)),
                                  n_steps=4, seed=1)
        assert np.all(e.phi == 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        net = random_lstm(5, 3, seed=16)
        x = rng.normal(size=(2, 5))
        bg = rng.normal(size=(3, 2, 5))
        a = shapley.gradient_shap(net, x, bg, n_steps=8, seed=77)
        b = shapley.gradient_shap(net, x, bg, n_steps=8, seed=77)
        assert np.array_equal(a.phi, b.phi)


class TestBaseValue:
    def test_constant_predictor(self):
        net = LinearWindowModel(np.zeros((2, 3)), b=0.37)
        assert shapley.base_value(net, np.zeros((4, 2, 3))) == pytest.approx(0.37)

    def test_mean_of_two(self):
        # windows engineered to produce outputs 0.2 and 0.6
        net = LinearWindowModel([[1.0, 0.0]])
        windows = np.array([[[0.2, 0.0]], [[0.6, 0.0]]])
        assert shapley.base_value(net, windows) == pytest.approx(0.4, abs=1e-15)


def _exp(phi, method="exact", base=0.0, fx=None, sid=""):
    phi = np.asarray(phi, dtype=np.float64)
    return shapley.ShapExplanation(
        sample_id=sid, method=method, base=base,
        fx=base + phi.sum() if fx is None else fx, phi=phi,
    )


class TestGlobalImportance:
    def test_single_explanation_absolute_values(self):
        e = _exp([0.3, -0.5] + [0.0] * 10)
        imp = shapley.global_importance([e])
        assert imp.values[0] == 0.3 and imp.values[1] == 0.5
        assert imp.order[0] == 1

    def test_all_zero_ties_break_by_catalog_order(self):
        imp = shapley.global_importance([_exp([0.0] * 12)])
        assert imp.order == list(range(12))

    def test_mixed_methods_rejected(self):
        with pytest.raises(InputError, match="mixed"):
            shapley.global_importance([_exp([0.0] * 3), _exp([0.0] * 3, method="kernel")])


class TestDecisionPath:
    def test_hand_running_sum(self):
        # base 0.48 with ordered contributions (0.1, -0.2):
        # series must be (0.48, 0.58, 0.38)
        e = _exp([0.1, -0.2])
        imp = shapley.GlobalImportance(values=np.array([1.0, 2.0]), order=[1, 0], method="exact")
        paths, bottom_up = shapley.decision_path([e], imp, base=0.48)
        assert bottom_up == [0, 1]
        assert np.allclose(paths[0], [0.48, 0.58, 0.38], atol=1e-12)

    def test_exact_paths_end_at_fx(self):
        rng = np.random.default_rng(20)
        net = random_lstm(5, 3, seed=20)
        bg = rng.normal(size=(2, 2, 5))
        exps = [
            shapley.exact_shapley(net, rng.normal(size=(2, 5)), bg) for _ in range(4)
        ]
        imp = shapley.global_importance(exps)
        paths, _ = shapley.decision_path(exps, imp, base=exps[0].base)
        for path, e in zip(paths, exps):
            assert abs(path[-1] - e.fx) < 1e-6

    def test_all_zero_phi_flat_line(self):
        e = _exp([0.0] * 4)
        imp = shapley.global_importance([e])
        paths, _ = shapley.decision_path([e], imp, base=0.5)
        assert np.all(paths == 0.5)


class TestExplainSet:
    def test_subseed_stable(self):
        assert shapley.subseed(42, 3) == shapley.subseed(42, 3)
        assert shapley.subseed(42, 3) != shapley.subseed(42, 4)

    @pytest.mark.parametrize("method", ["gradient", "kernel"])
    def test_each_window_seeded_by_its_index(self, method):
        rng = np.random.default_rng(21)
        net = random_lstm(5, 3, seed=21)
        windows = rng.normal(size=(6, 2, 5))
        bg = rng.normal(size=(3, 2, 5))
        explain = {
            "gradient": lambda w, seed: shapley.gradient_shap(net, w, bg, 4, seed),
            "kernel": lambda w, seed: shapley.kernel_shap(net, w, bg, 20, seed),
        }[method]
        got = shapley.explain_set(net, windows, bg, method=method, seed=5,
                                  n_coalitions=20, n_steps=4)
        for i, e in enumerate(got):
            alone = explain(windows[i], shapley.subseed(5, i))
            assert e.phi.tobytes() == alone.phi.tobytes()
            assert (e.base, e.fx) == (alone.base, alone.fx)

    def test_unknown_method_rejected(self):
        net = LinearWindowModel(np.ones((1, 3)))
        with pytest.raises(InputError, match="method"):
            shapley.explain_set(net, np.ones((1, 1, 3)), np.zeros((1, 1, 3)),
                                method="magic", seed=0)
