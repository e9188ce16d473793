"""Local surrogate explanations for single predictions.

The pipeline mirrors standard tabular surrogate explainers: quartile
discretization fitted on training rows, perturbation sampling from the
per-bin empirical distribution, exponential-kernel proximity weighting,
and a weighted ridge fit whose coefficients become the ranked explanation.

Perturbed rows are flat 12-feature vectors; the caller decides how they
enter the sequence model (in this package: the row replaces the final time
step of the explained window, earlier steps stay fixed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import InputError
from .features import FEATURE_NAMES

#: Exponential kernel width default, 0.75 * sqrt(d).
def default_kernel_width(d: int) -> float:
    return 0.75 * np.sqrt(d)


@dataclass
class Discretizer:
    """Per-feature quartile bins with empirical per-bin statistics."""

    cuts: np.ndarray  # (d, 3) quartile boundaries q25 <= q50 <= q75
    bin_freq: np.ndarray  # (d, 4) training frequency of each bin
    bin_mean: np.ndarray  # (d, 4)
    bin_std: np.ndarray  # (d, 4)
    bin_min: np.ndarray  # (d, 4)
    bin_max: np.ndarray  # (d, 4)
    collapsed: np.ndarray  # (d,) True where tied cuts collapse bins
    feature_mean: np.ndarray  # (d,) raw-mode statistics
    feature_std: np.ndarray  # (d,)

    @property
    def n_features(self) -> int:
        return self.cuts.shape[0]


def bin_of(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Quartile bin index in 0..3 for values (last axis = features)."""
    v = np.asarray(values, dtype=np.float64)
    return (
        (v > cuts[..., 0]).astype(np.int64)
        + (v > cuts[..., 1])
        + (v > cuts[..., 2])
    )


def discretizer_fit(rows: np.ndarray) -> Discretizer:
    """Fit quartile bins on training rows (n, d); needs n >= 4."""
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise InputError(f"expected (n, d) training rows, got shape {X.shape}")
    n, d = X.shape
    if n < 4:
        raise InputError(f"need at least 4 training rows to fit quartiles, got {n}")

    cuts = np.empty((d, 3))
    for j in range(d):
        cuts[j] = numerics.quantiles(X[:, j], (0.25, 0.5, 0.75))
    collapsed = (cuts[:, 0] == cuts[:, 1]) | (cuts[:, 1] == cuts[:, 2])

    bins = bin_of(X, cuts)  # (n, d)
    freq = np.zeros((d, 4))
    mean = np.zeros((d, 4))
    std = np.zeros((d, 4))
    lo = np.zeros((d, 4))
    hi = np.zeros((d, 4))
    for j in range(d):
        for b in range(4):
            members = X[bins[:, j] == b, j]
            freq[j, b] = members.size / n
            if members.size:
                mean[j, b] = members.mean()
                std[j, b] = members.std()
                lo[j, b] = members.min()
                hi[j, b] = members.max()
            else:
                # never drawn (frequency 0); keep boundary placeholders
                edge = cuts[j, min(b, 2)]
                mean[j, b] = edge
                lo[j, b] = edge
                hi[j, b] = edge

    fstats = numerics.zscore_fit(X)
    return Discretizer(
        cuts=cuts,
        bin_freq=freq,
        bin_mean=mean,
        bin_std=std,
        bin_min=lo,
        bin_max=hi,
        collapsed=collapsed,
        feature_mean=fstats.mean,
        feature_std=fstats.std,
    )


def perturb(
    sample: np.ndarray, disc: Discretizer, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw perturbations around one sample row.

    Returns ``(interpretable, raw)``, both (n, d). Row 0 is the sample
    itself with an all-ones interpretable vector. Other rows draw each
    feature's bin from the training bin frequencies, then a value from
    that bin's normal (clipped to the bin's observed range); the
    interpretable bit is 1 iff the drawn bin is the sample's bin.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    x = np.asarray(sample, dtype=np.float64).reshape(-1)
    d = disc.n_features
    if x.size != d:
        raise InputError(f"sample has {x.size} features, discretizer has {d}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x11]))

    Z = np.ones((n, d))
    R = np.empty((n, d))
    R[0] = x
    sample_bins = bin_of(x, disc.cuts)
    for j in range(d):
        if n == 1:
            break
        bins_j = rng.choice(4, size=n - 1, p=disc.bin_freq[j])
        noise = rng.standard_normal(n - 1)
        vals = disc.bin_mean[j, bins_j] + disc.bin_std[j, bins_j] * noise
        R[1:, j] = np.clip(vals, disc.bin_min[j, bins_j], disc.bin_max[j, bins_j])
        Z[1:, j] = (bins_j == sample_bins[j]).astype(np.float64)
    return Z, R


def perturb_raw(
    sample: np.ndarray, disc: Discretizer, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Raw-sampling mode: Gaussian perturbations around the sample.

    Returns ``(design, raw)`` where raw rows are sample + N(0, std_f) per
    feature and the design matrix holds the z-scored rows (training
    statistics). Row 0 is the sample itself.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    x = np.asarray(sample, dtype=np.float64).reshape(-1)
    d = disc.n_features
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x12]))
    R = np.empty((n, d))
    R[0] = x
    if n > 1:
        R[1:] = x[None, :] + rng.standard_normal((n - 1, d)) * disc.feature_std
    design = (R - disc.feature_mean) / disc.feature_std
    return design, R


def proximity(design: np.ndarray, width: float | None = None) -> np.ndarray:
    """Exponential kernel weights exp(-D^2 / width^2) from row 0."""
    X = np.asarray(design, dtype=np.float64)
    if width is None:
        width = default_kernel_width(X.shape[1])
    if not width > 0:
        raise InputError("kernel width must be positive")
    d2 = ((X - X[0]) ** 2).sum(axis=1)
    return np.exp(-d2 / width**2)


def rule_text(feature: str, value: float, cuts_row: np.ndarray) -> str:
    """Interval predicate naming the value's quartile bin, 2-decimal bounds."""
    q25, q50, q75 = (float(c) for c in cuts_row)
    b = int(bin_of(np.asarray([value]), np.asarray([[q25, q50, q75]]))[0])
    if b == 0:
        return f"{feature} <= {q25:.2f}"
    if b == 1:
        return f"{q25:.2f} < {feature} <= {q50:.2f}"
    if b == 2:
        return f"{q50:.2f} < {feature} <= {q75:.2f}"
    return f"{feature} > {q75:.2f}"


@dataclass
class LimeEntry:
    feature: str
    rule: str
    weight: float


@dataclass
class LimeExplanation:
    """Ranked local explanation for one sample."""

    sample_id: str
    entries: list[LimeEntry]  # sorted by |weight| descending
    intercept: float
    local_pred: float
    fidelity: float  # weighted R^2 of the surrogate on the perturbations
    flags: list[str]

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "intercept": self.intercept,
            "local_pred": self.local_pred,
            "fidelity": self.fidelity,
            "flags": list(self.flags),
            "entries": [
                {"feature": e.feature, "rule": e.rule, "weight": e.weight}
                for e in self.entries
            ],
        }


def explain_local(
    predict_rows,
    sample: np.ndarray,
    disc: Discretizer,
    n: int = 5000,
    k: int = 12,
    seed: int = 42,
    ridge_lambda: float = 1.0,
    kernel_width: float | None = None,
    raw_mode: bool = False,
    sample_id: str = "",
) -> LimeExplanation:
    """Fit a proximity-weighted ridge surrogate around one sample.

    Parameters
    ----------
    predict_rows : callable mapping (n, d) raw feature rows to (n,) model
        outputs; the caller owns the embedding of rows into model input.
    raw_mode : bypass discretization and regress on z-scored raw rows
        (diagnostic mode for checking surrogate faithfulness on known
        models).
    """
    x = np.asarray(sample, dtype=np.float64).reshape(-1)
    d = disc.n_features
    if d != len(FEATURE_NAMES):
        raise InputError(f"discretizer has {d} columns, expected {len(FEATURE_NAMES)} features")

    if raw_mode:
        design, raw = perturb_raw(x, disc, n, seed)
    else:
        design, raw = perturb(x, disc, n, seed)
    weights = proximity(design, kernel_width)
    y = np.asarray(predict_rows(raw), dtype=np.float64).reshape(-1)
    if y.size != design.shape[0]:
        raise InputError("predict_rows returned the wrong number of outputs")

    flags: list[str] = []
    for j in range(d):
        if disc.collapsed[j]:
            flags.append(f"collapsed bins: {FEATURE_NAMES[j]}")

    keep = [j for j in range(d) if np.ptp(design[:, j]) > 0.0]
    for j in range(d):
        if j not in keep:
            flags.append(f"degenerate: constant column {FEATURE_NAMES[j]}")

    sw = weights / weights.sum()
    ybar = float(sw @ y)
    beta_full = np.zeros(d)
    if keep:
        Xk = design[:, keep]
        xbar = sw @ Xk
        beta = numerics.ridge_regression(Xk - xbar, y - ybar, weights, ridge_lambda)
        beta_full[keep] = beta
        intercept = ybar - float(xbar @ beta)
    else:
        intercept = ybar

    yhat = design @ beta_full + intercept
    ss_res = float(weights @ (y - yhat) ** 2)
    ss_tot = float(weights @ (y - ybar) ** 2)
    if ss_tot < 1e-12:
        flags.append("degenerate: constant response")
        fidelity = 1.0 if ss_res < 1e-12 else 0.0
    else:
        fidelity = 1.0 - ss_res / ss_tot

    local_pred = float(design[0] @ beta_full + intercept)

    ranked = sorted(range(d), key=lambda j: (-abs(beta_full[j]), j))[: max(0, int(k))]
    entries = [
        LimeEntry(
            feature=FEATURE_NAMES[j],
            rule=rule_text(FEATURE_NAMES[j], float(x[j]), disc.cuts[j]),
            weight=float(beta_full[j]),
        )
        for j in ranked
    ]
    return LimeExplanation(
        sample_id=sample_id,
        entries=entries,
        intercept=float(intercept),
        local_pred=local_pred,
        fidelity=float(fidelity),
        flags=flags,
    )
