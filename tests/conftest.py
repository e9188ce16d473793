"""Shared test helpers: simple reference models and dataset factories."""

from __future__ import annotations

import numpy as np
import pytest

from stormlens import data, model


class LinearWindowModel:
    """f(X) = sum_{t,j} W[t,j] X[t,j] + b with exact constant gradient.

    Satisfies the same duck-typed interface the attribution engines use
    (predict_proba + input_gradient_batch), so it serves as an independent
    closed-form reference.
    """

    def __init__(self, W, b: float = 0.0):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = float(b)

    def predict_proba(self, X):
        return np.einsum("ntd,td->n", np.asarray(X, dtype=np.float64), self.W) + self.b

    def input_gradient_batch(self, X):
        X = np.asarray(X, dtype=np.float64)
        return np.repeat(self.W[None], X.shape[0], axis=0)

    def input_gradient(self, seq):
        return self.W.copy()


@pytest.fixture
def linear_model_cls():
    return LinearWindowModel


def random_lstm(input_dim: int, hidden: int, seed: int) -> model.LstmModel:
    return model.LstmModel(model.init_params(input_dim, hidden, seed))


@pytest.fixture
def lstm_factory():
    return random_lstm


def small_planted_dataset(seed: int = 42, n_ars: int = 60, samples_per_ar: int = 14):
    plant = data.PlantSpec(rho=0.95, label_noise=0.005)
    return data.synth_generate(n_ars, samples_per_ar, seed, plant), plant


@pytest.fixture
def planted_samples():
    samples, _ = small_planted_dataset()
    return samples


@pytest.fixture(scope="session")
def desk_pipeline():
    """A small trained pipeline shared by explanation tests.

    Returns (model, train_windows, test_windows, norm_stats, samples).
    """
    samples, _ = small_planted_dataset(seed=42, n_ars=120, samples_per_ar=14)
    train_s, test_s = data.split(samples, 0.8, 42)
    stats = data.fit_norm_stats(train_s)
    train_w = data.windowize(data.normalize_samples(train_s, stats), 10)
    test_w = data.windowize(data.normalize_samples(test_s, stats), 10)
    net, _ = model.train(
        train_w,
        model.TrainConfig(hidden=16, epochs=25, batch=64, learning_rate=3e-3, seed=42),
    )
    return net, train_w, test_w, stats, samples
