import tracemalloc
from functools import reduce
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import LinearWindowModel, random_lstm
from stormlens import model, shapley
from stormlens.errors import InputError, SingularSystemError


def coalition_value(net, sample, background, subset) -> float:
    """Value of one feature subset (columns kept from the sample): the
    batched value function on a one-row mask."""
    mask = np.zeros((1, np.asarray(sample).shape[1]), dtype=bool)
    mask[0, list(subset)] = True
    return float(shapley._coalition_values(net, sample, background, mask)[0])


def permutation_shapley_oracle(net, sample, background):
    """Independent Shapley reference: average marginal contributions over
    all d! feature orderings (the permutation definition)."""
    sample = np.asarray(sample, dtype=np.float64)
    d = sample.shape[1]
    cache = {}

    def v(mask):
        if mask not in cache:
            subset = [j for j in range(d) if mask[j]]
            cache[mask] = coalition_value(net, sample, background, subset)
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
        v = coalition_value(net, sample, bg, range(4))
        assert v == pytest.approx(float(net.predict_proba(sample[None])[0]), abs=1e-12)

    def test_empty_coalition_is_background_mean(self):
        net = random_lstm(4, 3, seed=1)
        rng = np.random.default_rng(1)
        sample = rng.normal(size=(3, 4))
        bg = rng.normal(size=(5, 3, 4))
        v = coalition_value(net, sample, bg, [])
        assert v == pytest.approx(float(net.predict_proba(bg).mean()), abs=1e-12)

    def test_single_feature_hand_average(self):
        net = random_lstm(3, 2, seed=2)
        rng = np.random.default_rng(2)
        sample = rng.normal(size=(2, 3))
        bg = rng.normal(size=(2, 2, 3))
        mixed = bg.copy()
        mixed[:, :, 1] = sample[:, 1]  # feature 1 taken from the sample
        want = float(net.predict_proba(mixed).mean())
        assert coalition_value(net, sample, bg, [1]) == pytest.approx(want, abs=1e-12)


class TestCoalitionValues:
    """The value function walks its B m rows, background-major, in the tiles
    of walk_tiles; every value keeps the bits of masking all rows at once
    with np.where, running them in one untiled forward_batch call and adding
    each mask's B outputs window by window."""

    @staticmethod
    def where_oracle(net, sample, background, masks):
        B, (T, d) = background.shape[0], sample.shape
        mixed = np.where(masks[None, :, None, :], sample[None, None], background[:, None])
        probs, _, _ = model.forward_batch(net.params, mixed.reshape(-1, T, d), keep_cache=False)
        return reduce(np.add, probs.reshape(B, masks.shape[0])) / B

    # "desk": B = 10 and all 4,096 masks of d = 12, 40,960 rows; "wide":
    # B = 450 windows of 8 masks; "b100": 64 masks, 16 tiles of whole windows;
    # "ragged": B = 100 and 63 masks, so tiles cut windows
    @pytest.mark.parametrize("which", ["all", "few", "desk", "wide", "b100", "ragged"])
    def test_bits_match_where_oracle(self, which):
        d, T, B = {"desk": (12, 10, 10), "wide": (3, 2, 450), "b100": (6, 3, 100),
                   "ragged": (6, 3, 100)}.get(which, (10, 3, 7))
        net = random_lstm(d, 4, seed=30)
        rng = np.random.default_rng(30)
        sample = rng.normal(size=(T, d))
        bg = rng.normal(size=(B, T, d))
        _, masks = shapley._all_masks(d)  # empty first, full last
        if which == "few":  # less than one tile, the full mask first
            masks = np.concatenate([masks[::-1][:2], rng.random((3, d)) < 0.5])
        elif which == "ragged":
            masks = masks[1:]
        got = shapley._coalition_values(net, sample, bg, masks)
        assert np.array_equal(got, self.where_oracle(net, sample, bg, masks))

    # the 16 masks of d = 4 over B windows: one tile up to B = 28, then 25
    # windows per 400-row tile, and at B = 401 a last tile of 416 rows, as
    # its rest of 16 rows joins the tile before
    @pytest.mark.parametrize("B", [1, 3, 10, 100, 399, 400, 401, 450, 850])
    def test_bits_match_where_oracle_at_background_size(self, B):
        d, T = 4, 2
        net = random_lstm(d, 3, seed=32)
        rng = np.random.default_rng(B)
        sample, bg = rng.normal(size=(T, d)), rng.normal(size=(B, T, d))
        _, masks = shapley._all_masks(d)
        got = shapley._coalition_values(net, sample, bg, masks)
        assert np.array_equal(got, self.where_oracle(net, sample, bg, masks))

    def test_warm_call_holds_no_chunk_of_rows(self):
        # the rows of all 4,096 masks x 10 windows are 39 MB, and one tile of
        # them, 400 rows, is 0.38 MB
        d, T, B, H = 12, 10, 10, 16
        net = random_lstm(d, H, seed=31)
        rng = np.random.default_rng(31)
        sample, bg = rng.normal(size=(T, d)), rng.normal(size=(B, T, d))
        _, masks = shapley._all_masks(d)
        first = shapley._coalition_values(net, sample, bg, masks)
        tracemalloc.start()
        try:
            again = shapley._coalition_values(net, sample, bg, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert np.array_equal(again, first)


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


def _random_lstm_case(d, T, H, B, seed):
    """A random LSTM with unit-scale weights, a sample and a background."""
    rng = np.random.default_rng(seed)
    params = model.init_params(d, H, seed=0)
    for _, arr in params.items():
        arr[...] = rng.normal(size=arr.shape)
    return params, rng.normal(size=(T, d)), rng.normal(size=(B, T, d)), rng


SMALL_LSTMS = dict(d=st.integers(2, 6), T=st.integers(1, 4), H=st.integers(1, 5),
                   B=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))


class TestAxiomProperties:
    """Criteria 1-3 as properties of random small LSTMs, and criterion 4 of
    random linear models, at the criteria's own bounds."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**SMALL_LSTMS)
    def test_exact_efficiency_and_dummy(self, d, T, H, B, seed):
        params, sample, bg, rng = _random_lstm_case(d, T, H, B, seed)
        dummy = int(rng.integers(d))
        params.w_x[:, dummy] = 0.0  # the feature never enters the network
        e = shapley.exact_shapley(model.LstmModel(params), sample, bg)
        assert abs(e.base + e.phi.sum() - e.fx) < 1e-6
        assert abs(e.phi[dummy]) <= 1e-10

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**SMALL_LSTMS)
    def test_exact_symmetry(self, d, T, H, B, seed):
        params, sample, bg, rng = _random_lstm_case(d, T, H, B, seed)
        a, b = (int(j) for j in rng.choice(d, size=2, replace=False))
        params.w_x[:, b] = params.w_x[:, a]  # tied weights and identical columns
        sample[:, b] = sample[:, a]
        bg[:, :, b] = bg[:, :, a]
        e = shapley.exact_shapley(model.LstmModel(params), sample, bg)
        assert abs(e.phi[a] - e.phi[b]) <= 1e-10

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**SMALL_LSTMS)
    @example(d=1, T=3, H=2, B=3, seed=0)  # no non-trivial coalition to regress on
    def test_kernel_full_enumeration_is_exact(self, d, T, H, B, seed):
        params, sample, bg, _ = _random_lstm_case(d, T, H, B, seed)
        net = model.LstmModel(params)
        exact = shapley.exact_shapley(net, sample, bg)
        # 2^d covers every coalition; d + 2 is the least budget kernel_shap takes
        kernel = shapley.kernel_shap(net, sample, bg, n_coalitions=max(2**d, d + 2), seed=seed)
        assert np.abs(exact.phi - kernel.phi).max() < 1e-8

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(T=st.integers(1, 4), d=st.integers(1, 12), B=st.integers(1, 6),
           K=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_gradient_closed_form_on_linear_models(self, T, d, B, K, seed):
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(T, d))
        net = LinearWindowModel(W, b=float(rng.normal()))
        x, bg = rng.normal(size=(T, d)), rng.normal(size=(B, T, d))
        e = shapley.gradient_shap(net, x, bg, n_steps=K, seed=seed)
        closed = (W * (x - bg.mean(axis=0))).sum(axis=0)  # sum_t W[t] (x[t] - mean(bg[:, t]))
        assert np.abs(e.phi - closed).max() < 1e-10


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dn=st.integers(2, 80).flatmap(lambda d: st.tuples(st.just(d), st.integers(d + 2, 400))),
           seed=st.integers(0, 2**32 - 1))
    def test_sampled_coalitions_are_distinct_counted_draws(self, dn, seed):
        d, n = dn
        masks, weights = shapley._sampled_coalitions(d, n, seed)
        sizes = masks.sum(axis=1)
        assert masks.dtype == bool and masks.shape == (weights.size, d)
        assert sizes.min() >= 1 and sizes.max() <= d - 1
        assert np.unique(masks, axis=0).shape[0] == masks.shape[0]
        assert np.all(weights >= 1) and np.array_equal(weights, np.round(weights))
        assert weights.sum() == n
        again = shapley._sampled_coalitions(d, n, seed)
        assert np.array_equal(masks, again[0]) and np.array_equal(weights, again[1])

    def test_sampled_sizes_follow_the_shapley_kernel(self):
        d, n = 6, 100_000
        masks, weights = shapley._sampled_coalitions(d, n, seed=5)
        share = np.bincount(masks.sum(axis=1), weights=weights, minlength=d)[1:] / n
        s = np.arange(1, d)
        kernel = (d - 1) / (s * (d - s))
        assert np.abs(share - kernel / kernel.sum()).max() < 0.01

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

    def test_sampled_mode_is_unbiased_on_an_lstm(self):
        # drawing sizes with the kernel's mass times C(d, s) again gave
        # median errors of 0.17 and 0.21 on these and the next eight seeds
        errs = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            net = random_lstm(12, 4, seed=seed)
            net.params.w_x *= 4
            net.params.w_h *= 2
            sample, bg = rng.normal(size=(3, 12)), rng.normal(size=(4, 3, 12))
            exact = shapley.exact_shapley(net, sample, bg).phi
            approx = shapley.kernel_shap(net, sample, bg, n_coalitions=4000, seed=seed).phi
            errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert np.median(errs) < 0.12

    def test_too_few_coalitions_rejected(self):
        net = LinearWindowModel(np.ones((1, 6)))
        with pytest.raises(InputError, match="n_coalitions"):
            shapley.kernel_shap(net, np.ones((1, 6)), np.zeros((1, 1, 6)),
                                n_coalitions=5, seed=0)

    def test_sampled_mode_runs_past_63_features(self):
        rng = np.random.default_rng(64)
        W = rng.normal(size=(2, 64))
        x, bg = rng.normal(size=(2, 64)), rng.normal(size=(3, 2, 64))
        e = shapley.kernel_shap(LinearWindowModel(W, b=0.5), x, bg, n_coalitions=1000, seed=0)
        closed = (W * (x - bg.mean(axis=0))).sum(axis=0)
        assert np.abs(e.phi - closed).max() < 1e-10

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

    def test_warm_model_allocates_no_path_point_array(self):
        B, K, T, d = 100, 16, 10, 12
        rng = np.random.default_rng(17)
        net = random_lstm(d, 16, seed=17)
        bg = rng.normal(size=(B, T, d))
        x = rng.normal(size=(T, d))
        base = shapley.base_value(net, bg)
        first = shapley.gradient_shap(net, x, bg, n_steps=K, seed=5, base=base)
        tracemalloc.start()
        try:
            again = shapley.gradient_shap(net, x, bg, n_steps=K, seed=5, base=base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < B * K * T * d * 8  # bytes of one (B, K, T, d) array
        assert np.array_equal(again.phi, first.phi)


class TestGradientTiles:
    """gradient_shap builds its path points one tile at a time and adds each
    tile's contributions to a running sum; phi keeps the bits of building
    all B * K points, running them in one input_gradient_batch call and
    taking the mean over (B, K)."""

    @staticmethod
    def whole_batch_oracle(net, sample, background, n_steps, seed):
        B, (T, d) = background.shape[0], sample.shape
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6D]))
        alphas = (np.arange(n_steps)[None, :] + rng.random(size=(B, n_steps))) / n_steps
        diff = sample[None, :, :] - background
        points = alphas[:, :, None, None] * diff[:, None, :, :] + background[:, None, :, :]
        grads = net.input_gradient_batch(points.reshape(B * n_steps, T, d))
        contrib = grads.reshape(B, n_steps, T, d) * diff[:, None, :, :]
        return contrib.mean(axis=(0, 1)).sum(axis=0)

    # B * K rows: 592 (400, 192), 1,300 (3 x 400, 100) and 1,600 (4 x 400)
    @pytest.mark.parametrize("B, K", [(37, 16), (100, 13), (100, 16), (3, 1)])
    def test_bits_match_whole_batch_oracle(self, B, K):
        T, d = 10, 12
        rng = np.random.default_rng(B * K)
        net = random_lstm(d, 16, seed=B)
        sample, bg = rng.normal(size=(T, d)), rng.normal(size=(B, T, d))
        want = self.whole_batch_oracle(random_lstm(d, 16, seed=B), sample, bg, K, 7)
        got = shapley.gradient_shap(net, sample, bg, n_steps=K, seed=7)
        assert np.array_equal(got.phi, want)

    def test_workspace_holds_no_path_point_array(self):
        # at H = 8 the model's own tile arrays are smaller than B * K rows too
        B, K, T, d = 100, 16, 10, 12
        rng = np.random.default_rng(18)
        net = random_lstm(d, 8, seed=18)
        shapley.gradient_shap(net, rng.normal(size=(T, d)), rng.normal(size=(B, T, d)),
                              n_steps=K, seed=5)
        assert max(arr.size for arr in net.work.values()) < B * K * T * d


class TestTileRows:
    """TILE_ROWS sets how the model rows are cut, not the attributions."""

    @pytest.mark.parametrize("tile", [200, 808])
    def test_phi_bits_do_not_depend_on_tile_rows(self, tile, monkeypatch):
        # exact: 256 masks x 30 windows; kernel: up to 300 masks; gradient: 480 points
        d, T, B, H = 8, 10, 30, 16
        rng = np.random.default_rng(tile)
        sample, bg = rng.normal(size=(T, d)), rng.normal(size=(B, T, d))

        def explain():
            net = random_lstm(d, H, seed=34)
            return [shapley.exact_shapley(net, sample, bg).phi,
                    shapley.kernel_shap(net, sample, bg, n_coalitions=300, seed=1).phi,
                    shapley.gradient_shap(net, sample, bg, n_steps=16, seed=1).phi]

        want = explain()
        monkeypatch.setattr(model, "TILE_ROWS", tile)
        for method, got, phi in zip(shapley.METHODS, explain(), want):
            assert np.array_equal(got, phi), method


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
        imp = shapley.GlobalImportance(values=np.array([1.0, 2.0]), order=[1, 0])
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
