import math

import numpy as np
import pytest

from stormlens import numerics
from stormlens.data import NormStats
from stormlens.errors import SingularSystemError


def normal_equations_oracle(X, y, w):
    """Independent WLS reference: explicit normal equations via np solve."""
    X = np.asarray(X, dtype=float)
    W = np.diag(np.asarray(w, dtype=float))
    return np.linalg.solve(X.T @ W @ X, X.T @ W @ np.asarray(y, dtype=float))


class TestWeightedLeastSquares:
    def test_identity_design(self):
        beta = numerics.weighted_least_squares(np.eye(2), [2, 3], [1, 1])
        assert np.allclose(beta, [2, 3])

    def test_column_of_ones_gives_weighted_mean(self):
        beta = numerics.weighted_least_squares(np.ones((4, 1)), [1, 2, 3, 4], [1, 1, 1, 1])
        assert np.allclose(beta, [2.5])

    def test_against_normal_equations_oracle(self):
        X = [[1, 0], [1, 1], [1, 2]]
        y = [1, 2, 4]
        w = [1, 4, 1]
        beta = numerics.weighted_least_squares(X, y, w)
        assert np.allclose(beta, normal_equations_oracle(X, y, w), atol=1e-12)
        # frozen oracle values for this system: (2/3, 3/2)
        assert np.allclose(beta, [2.0 / 3.0, 1.5], atol=1e-12)

    def test_residual_orthogonality_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, p = rng.integers(3, 30), rng.integers(1, 5)
            n = max(n, p + 1)
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            w = rng.uniform(0.1, 2.0, size=n)
            beta = numerics.weighted_least_squares(X, y, w)
            grad = X.T @ (w * (y - X @ beta))
            ref = np.abs(X.T @ (w * y)).max()
            assert np.abs(grad).max() <= 1e-8 * max(ref, 1e-12)

    def test_singular_system_raises(self):
        X = [[1, 1], [2, 2], [3, 3]]  # duplicated column
        with pytest.raises(SingularSystemError):
            numerics.weighted_least_squares(X, [1, 2, 3], [1, 1, 1])

    def test_near_singular_positive_definite_system_raises(self):
        # two columns 1e-9 apart: LAPACK's Cholesky factors X'X, whose last
        # pivot is ~1e-14 of its largest diagonal entry; only the relative
        # pivot rule rejects it
        rng = np.random.default_rng(0)
        X = 0.01 * rng.normal(size=(50, 3))
        X[:, 2] = X[:, 1] + 1e-9 * rng.normal(size=50)
        np.linalg.cholesky(X.T @ X)
        with pytest.raises(SingularSystemError, match="at column 2"):
            numerics.weighted_least_squares(X, rng.normal(size=50), np.ones(50))

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            numerics.weighted_least_squares([[1, 2]], [1], [1])

    def test_needs_enough_positive_weights(self):
        with pytest.raises(ValueError):
            numerics.weighted_least_squares([[1, 0], [0, 1], [1, 1]], [1, 2, 3], [1, 0, 0])


class TestRidge:
    def test_lambda_zero_matches_wls(self):
        X, y, w = np.eye(3), [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]
        assert np.array_equal(
            numerics.ridge_regression(X, y, w, 0.0),
            numerics.weighted_least_squares(X, y, w),
        )

    def test_infinite_shrinkage_limit(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        beta = numerics.ridge_regression(X, y, np.ones(10), 1e12)
        assert np.abs(beta).max() < 1e-6

    def test_closed_form_five_sixths(self):
        # (X'X + 1)^-1 X'y with X = (1, 2), y = (1, 2): 5 / 6
        beta = numerics.ridge_regression([[1.0], [2.0]], [1.0, 2.0], [1.0, 1.0], 1.0)
        assert np.allclose(beta, [5.0 / 6.0], atol=1e-14)

    def test_norm_monotone_in_lambda(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        w = rng.uniform(0.5, 1.5, size=20)
        norms = [
            np.linalg.norm(numerics.ridge_regression(X, y, w, lam))
            for lam in (0.0, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            numerics.ridge_regression([[1.0]], [1.0], [1.0], -0.5)


def direct_pearson_oracle(x, y):
    """Direct covariance / sigma formula with population moments."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    mx, my = x.mean(), y.mean()
    cov = ((x - mx) * (y - my)).mean()
    return cov / math.sqrt(((x - mx) ** 2).mean() * ((y - my) ** 2).mean())


class TestPearson:
    def test_self_correlation(self):
        assert numerics.pearson([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == 1.0

    def test_sign_flip(self):
        x = np.array([0.3, -1.0, 2.5, 0.1])
        assert numerics.pearson(x, -x) == -1.0

    def test_against_direct_formula(self):
        x, y = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
        assert numerics.pearson(x, y) == pytest.approx(direct_pearson_oracle(x, y), abs=1e-14)

    def test_constant_input_flag(self):
        assert numerics.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
        assert numerics.constant_columns([1.0, 1.0, 1.0])

    def test_equal_values_are_constant_despite_rounding(self):
        # fourteen 7.3s have a computed std of ~8.9e-16, not 0
        x = np.full(14, 7.3)
        assert x.std() > 0.0 and numerics.constant_columns(x)
        assert numerics.pearson(x, np.arange(14.0)) == 0.0
        assert numerics.pearson(np.arange(14.0), x) == 0.0

    def test_symmetry_bounds_and_affine_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            r = numerics.pearson(x, y)
            assert -1.0 <= r <= 1.0
            assert numerics.pearson(y, x) == pytest.approx(r, abs=1e-15)
            a, b = rng.uniform(0.1, 5.0), rng.normal()
            assert numerics.pearson(a * x + b, y) == pytest.approx(r, abs=1e-12)


class TestZScore:
    """Z-scoring is data.NormStats; it shares Pearson's population moments."""

    def test_hand_zscore_population_sigma(self):
        stats = NormStats.fit([[2.0], [4.0], [6.0]])
        out = stats.apply([[2.0], [4.0], [6.0]]).ravel()
        # oracle: sigma = sqrt(8/3), (2 - 4) / sigma = -1.2247448713915890
        assert np.allclose(out, [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        stats = NormStats.fit([[5.0], [5.0], [5.0]])
        assert stats.constant[0]
        assert np.all(stats.apply([[5.0], [5.0]]) == 0.0)

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=100)
        col = (col - col.mean()) / col.std()
        stats = NormStats.fit(col[:, None])
        again = stats.apply(col[:, None].copy()).ravel()  # apply works in place
        assert np.abs(again - col).max() < 1e-10

    def test_transformed_moments(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 4)) * [1, 10, 0.1, 5] + [3, -7, 0, 100]
        stats = NormStats.fit(X)
        Z = stats.apply(X)
        assert np.abs(Z.mean(axis=0)).max() < 1e-10
        assert np.abs(Z.std(axis=0) - 1.0).max() < 1e-10


class TestQuantiles:
    def test_median_of_even_length(self):
        assert numerics.quantiles([1.0, 2.0, 3.0, 4.0], [0.5])[0] == 2.5

    def test_linear_interpolation_on_uniform_grid(self):
        # oracle: index p * (n - 1) on sorted 0..100 lands on 25 / 50 / 75
        q = numerics.quantiles(np.arange(101.0), [0.25, 0.5, 0.75])
        assert np.allclose(q, [25.0, 50.0, 75.0])

    def test_single_element(self):
        assert np.all(numerics.quantiles([7.0], [0.1, 0.9]) == 7.0)

    def test_monotone_in_probability(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            x = rng.normal(size=rng.integers(1, 40))
            p = np.sort(rng.uniform(0.01, 0.99, size=5))
            p = np.unique(p)
            if p.size < 2:
                continue
            q = numerics.quantiles(x, p)
            assert np.all(np.diff(q) >= 0)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            numerics.quantiles([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            numerics.quantiles([1.0, 2.0], [0.0, 0.5])
