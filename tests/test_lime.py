import math
import re

import numpy as np
import pytest

from stormlens import lime
from stormlens.errors import InputError
from stormlens.features import FEATURE_NAMES


def training_rows(seed=0, n=400):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.5, 2.0, size=12)
    shift = rng.normal(size=12)
    return rng.normal(size=(n, 12)) * scale + shift


class TestDiscretizer:
    def test_uniform_grid_quartiles(self):
        rows = np.tile(np.arange(101.0)[:, None], (1, 12))
        disc = lime.discretizer_fit(rows)
        assert np.allclose(disc.cuts[0], [25.0, 50.0, 75.0])

    def test_constant_feature_collapses(self):
        rows = training_rows()
        rows[:, 4] = 3.3
        disc = lime.discretizer_fit(rows)
        assert disc.collapsed[4]
        assert disc.cuts[4, 0] == disc.cuts[4, 1] == disc.cuts[4, 2] == 3.3

    def test_fit_deterministic(self):
        rows = training_rows(3)
        a = lime.discretizer_fit(rows)
        b = lime.discretizer_fit(rows)
        assert np.array_equal(a.cuts, b.cuts)
        assert np.array_equal(a.bin_freq, b.bin_freq)

    def test_needs_four_rows(self):
        with pytest.raises(InputError):
            lime.discretizer_fit(np.zeros((3, 12)))


class TestPerturb:
    def test_self_row(self):
        rows = training_rows(1)
        disc = lime.discretizer_fit(rows)
        Z, R = lime.perturb(rows[0], disc, n=50, seed=0)
        assert np.all(Z[0] == 1.0)
        assert np.array_equal(R[0], rows[0])

    def test_bin_frequencies_match_training(self):
        rows = training_rows(2)
        disc = lime.discretizer_fit(rows)
        _, R = lime.perturb(rows[0], disc, n=10000, seed=1)
        drawn_bins = lime.bin_of(R[1:], disc.cuts)
        for j in range(12):
            freq = np.bincount(drawn_bins[:, j], minlength=4) / drawn_bins.shape[0]
            assert np.abs(freq - disc.bin_freq[j]).max() < 0.05

    def test_deterministic(self):
        rows = training_rows(4)
        disc = lime.discretizer_fit(rows)
        a = lime.perturb(rows[3], disc, n=100, seed=9)
        b = lime.perturb(rows[3], disc, n=100, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestProximity:
    def test_self_weight_one_and_maximal(self):
        rng = np.random.default_rng(5)
        Z = np.ones((20, 12))
        Z[1:] = rng.integers(0, 2, size=(19, 12))
        w = lime.proximity(Z)
        assert w[0] == 1.0
        assert np.all(w[1:] <= w[0])

    def test_full_flip_matches_kernel_formula(self):
        # derived oracle: exp(-12 / (0.75 * sqrt(12))^2)
        Z = np.ones((2, 12))
        Z[1] = 0.0
        w = lime.proximity(Z)
        want = math.exp(-12.0 / (0.75 * math.sqrt(12.0)) ** 2)
        assert w[1] == pytest.approx(want, abs=1e-15)

    def test_monotone_in_hamming_distance(self):
        Z = np.ones((13, 12))
        for k in range(1, 13):
            Z[k, :k] = 0.0
        w = lime.proximity(Z)
        assert np.all(np.diff(w) < 0)


class TestRuleText:
    def test_top_bin_format(self):
        cuts = np.array([0.1, 0.7, 1.34])
        assert lime.rule_text("ABSNJZH", 2.0, cuts) == "ABSNJZH > 1.34"

    def test_bottom_bin_format(self):
        cuts = np.array([-0.81, 0.0, 0.5])
        assert lime.rule_text("TOTUSJZ", -1.0, cuts) == "TOTUSJZ <= -0.81"

    def test_middle_bin_format(self):
        cuts = np.array([0.0, 1.0, 2.0])
        assert lime.rule_text("f", 0.5, cuts) == "0.00 < f <= 1.00"
        assert lime.rule_text("f", 1.5, cuts) == "1.00 < f <= 2.00"

    def test_templates_partition_the_line(self):
        templates = [
            re.compile(r"^f <= -?\d+\.\d{2}$"),
            re.compile(r"^-?\d+\.\d{2} < f <= -?\d+\.\d{2}$"),
            re.compile(r"^f > -?\d+\.\d{2}$"),
        ]
        rng = np.random.default_rng(6)
        for _ in range(200):
            cuts = np.sort(rng.normal(size=3))
            v = rng.normal(scale=3)
            text = lime.rule_text("f", v, cuts)
            assert sum(bool(t.match(text)) for t in templates) == 1


class TestExplainLocal:
    def test_wrong_feature_count_rejected(self):
        rows = training_rows(7)[:, :5]
        disc = lime.discretizer_fit(rows)
        with pytest.raises(InputError, match="discretizer has 5 columns, expected 12"):
            lime.explain_local(lambda r: r[:, 0], rows[0], disc, n=50, seed=0)

    def test_constant_model_is_degenerate(self):
        rows = training_rows(7)
        disc = lime.discretizer_fit(rows)
        exp = lime.explain_local(lambda r: np.full(r.shape[0], 0.5), rows[0], disc,
                                 n=300, seed=0)
        assert max(abs(e.weight) for e in exp.entries) < 1e-8
        assert "degenerate: constant response" in exp.flags
        assert exp.fidelity == 1.0

    def test_linear_model_raw_mode_faithful(self):
        rows = training_rows(8)
        disc = lime.discretizer_fit(rows)
        rng = np.random.default_rng(8)
        w = rng.normal(size=12)
        exp = lime.explain_local(lambda r: r @ w, rows[5], disc, n=3000, seed=1,
                                 raw_mode=True)
        assert exp.fidelity > 0.99
        w_std = w * disc.feature_std  # surrogate acts on z-scored rows
        weights = {e.feature: e.weight for e in exp.entries}
        for j, name in enumerate(FEATURE_NAMES):
            if abs(w_std[j]) >= 0.1:
                assert np.sign(weights[name]) == np.sign(w_std[j])

    def test_monotone_model_positive_weight(self):
        rows = training_rows(9)
        disc = lime.discretizer_fit(rows)
        j = 2
        sample = rows[np.argmax(rows[:, j])]  # sits in the top bin of feature j
        exp = lime.explain_local(lambda r: 1.0 / (1.0 + np.exp(-2.0 * r[:, j])),
                                 sample, disc, n=2000, seed=2)
        weights = {e.feature: e.weight for e in exp.entries}
        assert weights[FEATURE_NAMES[j]] > 0

    def test_bitwise_deterministic(self):
        rows = training_rows(10)
        disc = lime.discretizer_fit(rows)
        rng = np.random.default_rng(10)
        w = rng.normal(size=12)
        a = lime.explain_local(lambda r: r @ w, rows[1], disc, n=500, seed=3)
        b = lime.explain_local(lambda r: r @ w, rows[1], disc, n=500, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_local_pred_identity(self):
        rows = training_rows(11)
        disc = lime.discretizer_fit(rows)
        rng = np.random.default_rng(11)
        w = rng.normal(size=12)
        exp = lime.explain_local(lambda r: r @ w, rows[2], disc, n=500, seed=4)
        # discrete mode: the self row is all ones, so the surrogate's
        # prediction there is intercept + sum of weights
        assert exp.local_pred == pytest.approx(
            exp.intercept + sum(e.weight for e in exp.entries), abs=1e-12
        )

    def test_constant_feature_column_dropped_and_flagged(self):
        rows = training_rows(12)
        rows[:, 6] = 1.25
        disc = lime.discretizer_fit(rows)
        rng = np.random.default_rng(12)
        w = rng.normal(size=12)
        exp = lime.explain_local(lambda r: r @ w, rows[0], disc, n=400, seed=5)
        weights = {e.feature: e.weight for e in exp.entries}
        assert weights[FEATURE_NAMES[6]] == 0.0
        assert any("constant column" in f and FEATURE_NAMES[6] in f for f in exp.flags)

    def test_top_k_limits_entries(self):
        rows = training_rows(13)
        disc = lime.discretizer_fit(rows)
        exp = lime.explain_local(lambda r: r @ np.ones(12), rows[0], disc,
                                 n=400, k=5, seed=6)
        assert len(exp.entries) == 5
        mags = [abs(e.weight) for e in exp.entries]
        assert mags == sorted(mags, reverse=True)
