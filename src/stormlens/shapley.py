"""Global attribution engine: exact Shapley values by coalition enumeration,
a kernel-regression approximation, and an expected-gradients path method.

All three methods attribute one value per feature (time collapsed): the
coalition value function masks a feature's column across every time step,
and the gradient method sums each feature's column over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import InputError, SingularSystemError
from .model import walk_tiles

MAX_EXACT_FEATURES = 20
METHODS = ("exact", "kernel", "gradient")


@dataclass
class ShapExplanation:
    """Per-feature attribution for one explained window.

    For the exact method, ``base + phi.sum() == fx`` within 1e-6.
    """

    sample_id: str
    method: str  # one of METHODS
    base: float
    fx: float
    phi: np.ndarray  # (d,)

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class GlobalImportance:
    """Mean |phi| per feature with the induced descending ranking."""

    values: np.ndarray  # (d,)
    order: list[int]  # feature indices, most important first


def subseed(seed: int, index: int) -> int:
    """Stable per-sample sub-seed derived from (base seed, sample index)."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def sample_background(train_windows: np.ndarray, size: int, seed: int) -> np.ndarray:
    """Uniformly sample reference windows from the training set."""
    train_windows = np.asarray(train_windows, dtype=np.float64)
    n = train_windows.shape[0]
    if n == 0:
        raise InputError("cannot sample a background from an empty training set")
    k = min(int(size), n)
    if k < 1:
        raise InputError("background size must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB6]))
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return train_windows[idx]


def _coalition_values(model, sample, background, masks: np.ndarray) -> np.ndarray:
    """Model output averaged over the background for each coalition mask.

    ``masks`` is (m, d) boolean; True columns are taken from the sample
    (across all time steps), the rest from each background window. The B m
    rows, row b * m + j for mask j over background window b, go through
    ``walk_tiles``, and each tile's outputs are added to the m sums window
    by window, the order in which ``mean(axis=0)`` adds the (B, m) outputs.
    """
    sample = np.asarray(sample, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    B = background.shape[0]
    T, d = sample.shape
    m = masks.shape[0]
    bg_bits = background.reshape(B, T * d).view(np.uint64)
    sample_bits = sample.reshape(T * d).view(np.uint64)

    def runs(lo, hi):
        """(r, b, j0, j1) for each run of the tile of rows lo:hi over one
        window: its rows r:r + j1 - j0 are masks j0:j1 over window b."""
        row = lo
        while row < hi:
            b, j0 = divmod(row, m)
            j1 = min(m, j0 + hi - row)
            yield row - lo, b, j0, j1
            row += j1 - j0

    def fill(X, lo, hi):
        # where(mask, sample, window) bit by bit: window ^ ((window ^ sample)
        # & keep), keep all ones in the cells the mask takes from the sample
        bits = X.reshape(hi - lo, T * d).view(np.uint64)
        for r, b, j0, j1 in runs(lo, hi):
            keep = bits[r : r + j1 - j0]
            keep.reshape(j1 - j0, T, d)[:] = masks[j0:j1, None, :]
            np.negative(keep, out=keep)
            keep &= bg_bits[b] ^ sample_bits
            keep ^= bg_bits[b]

    sums = np.zeros(m)
    for lo, hi, probs in walk_tiles(model, B * m, (T, d), fill):
        for r, _, j0, j1 in runs(lo, hi):
            sums[j0:j1] += probs[r : r + j1 - j0]
    return np.true_divide(sums, B, out=sums)


def _all_masks(d: int) -> tuple[np.ndarray, np.ndarray]:
    ints = np.arange(2**d, dtype=np.int64)
    bits = (ints[:, None] >> np.arange(d)[None, :]) & 1
    return ints, bits.astype(bool)


def exact_shapley(model, sample, background, sample_id: str = "") -> ShapExplanation:
    """Exact Shapley attribution by full coalition enumeration.

    phi_i = sum over S not containing i of
            |S|! (d-1-|S|)! / d! * (v(S + {i}) - v(S))

    Efficiency (base + sum phi = fx) holds by construction.
    """
    sample = np.asarray(sample, dtype=np.float64)
    d = sample.shape[1]
    if d > MAX_EXACT_FEATURES:
        raise InputError(
            f"exact enumeration is guarded at {MAX_EXACT_FEATURES} features "
            f"(got {d}); use kernel_shap instead"
        )
    ints, masks = _all_masks(d)
    values = _coalition_values(model, sample, background, masks)
    pop = masks.sum(axis=1)

    fact = [math.factorial(k) for k in range(d + 1)]
    w = np.array([fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)])

    phi = np.empty(d)
    for i in range(d):
        without = (ints >> i) & 1 == 0
        m = ints[without]
        phi[i] = float(np.sum(w[pop[without]] * (values[m | (1 << i)] - values[m])))

    return ShapExplanation(
        sample_id=sample_id,
        method="exact",
        base=float(values[0]),
        fx=float(values[-1]),
        phi=phi,
    )


def _kernel_weight(d: int, size: np.ndarray) -> np.ndarray:
    comb = np.array([math.comb(d, int(s)) for s in size], dtype=np.float64)
    return (d - 1) / (comb * size * (d - size))


def _sampled_coalitions(d: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` coalitions of d features drawn from the Shapley kernel, as the
    distinct (m, d) masks in sorted order and their draw counts as weights."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5A]))
    sizes = np.arange(1, d)
    size_mass = (d - 1) / (sizes * (d - sizes))
    drawn = rng.choice(sizes, size=n, p=size_mass / size_mass.sum())
    members = rng.permuted(np.arange(d) < drawn[:, None], axis=1)
    masks, counts = np.unique(members, axis=0, return_counts=True)
    return masks, counts.astype(np.float64)


def kernel_shap(
    model, sample, background, n_coalitions: int, seed: int, sample_id: str = "",
    base: float | None = None,
) -> ShapExplanation:
    """Shapley approximation via weighted least squares on binary coalitions.

    The efficiency constraint (sum phi = fx - base) is enforced by
    eliminating the last feature's coefficient. When ``n_coalitions``
    covers all 2^d - 2 non-trivial coalitions the full enumeration is used
    with exact Shapley-kernel weights, which reproduces the exact method.
    Otherwise ``n_coalitions`` coalitions are drawn from the Shapley kernel
    itself: a size s with probability proportional to (d-1)/(s(d-s)), then
    s members uniformly, all in one vectorised draw. Repeated coalitions are
    merged and weighted by their count, so the regression is unweighted
    over the draws. Small budgets repeat coalitions often (at d = 12, 36% of
    the draws fall on the 24 coalitions of size 1 or d - 1), and a
    regression left with too few distinct coalitions is singular: retry
    with a larger ``n_coalitions``. ``base``, when given, must be
    ``base_value(model, background)``; it is computed here otherwise.
    """
    sample = np.asarray(sample, dtype=np.float64)
    d = sample.shape[1]
    if n_coalitions < d + 2:
        raise InputError(f"n_coalitions must be >= d + 2 = {d + 2}, got {n_coalitions}")

    n_nontrivial = 2**d - 2
    if n_coalitions >= n_nontrivial:
        ints, masks = _all_masks(d)
        keep = (ints != 0) & (ints != 2**d - 1)
        masks = masks[keep]
        weights = _kernel_weight(d, masks.sum(axis=1).astype(np.float64))
    else:
        masks, weights = _sampled_coalitions(d, n_coalitions, seed)

    values = _coalition_values(model, sample, background, masks)
    if base is None:
        base = base_value(model, background)
    fx = float(model.predict_proba(sample[None, :, :])[0])

    Z = masks.astype(np.float64)
    y = values - base - Z[:, -1] * (fx - base)
    X = Z[:, :-1] - Z[:, -1:]
    try:
        beta = numerics.weighted_least_squares(X, y, weights)
    except (SingularSystemError, ValueError) as exc:
        raise SingularSystemError(
            f"kernel regression is singular ({exc}); retry with a larger n_coalitions"
        ) from None
    phi = np.append(beta, (fx - base) - beta.sum())

    return ShapExplanation(
        sample_id=sample_id, method="kernel", base=base, fx=fx, phi=phi
    )


def gradient_shap(
    model, sample, background, n_steps: int, seed: int, sample_id: str = "",
    base: float | None = None,
) -> ShapExplanation:
    """Expected-gradients attribution along sample-to-background paths.

    For every background window, ``n_steps`` stratified interpolation
    points are drawn (one uniform jitter per stratum); the input gradient
    at each point is weighted by (sample - background) and averaged. The
    per-cell attribution is then summed over time steps to give one value
    per feature. ``base`` is as for :func:`kernel_shap`. The B * n_steps
    points, row b * n_steps + k for background window b, are built and run
    one tile at a time, and each tile's gradients times (sample -
    background) are added to a running sum at once, so no array holds all
    of them.
    """
    if n_steps < 1:
        raise InputError("n_steps must be >= 1")
    sample = np.asarray(sample, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    B = background.shape[0]
    T, d = sample.shape
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6D]))
    jitter = rng.random(size=(B, n_steps))
    alphas = (np.arange(n_steps)[None, :] + jitter) / n_steps  # (B, K) in (0, 1)
    alpha_rows = alphas.reshape(B * n_steps, 1, 1)

    diff = sample[None, :, :] - background  # (B, T, d)

    def fill(X, lo, hi):
        b = np.arange(lo, hi) // n_steps
        np.multiply(alpha_rows[lo:hi], diff[b], out=X)
        X += background[b]  # background + alpha * diff

    # The rows are added in row order, as mean() over the whole (B * K, T, d)
    # array adds them: each tile's reduce starts from the running sum
    # (contrib[0] + total is total + contrib[0], bit for bit).
    total = None
    for lo, hi, contrib in walk_tiles(model, B * n_steps, (T, d), fill, gradients=True):
        contrib *= diff[np.arange(lo, hi) // n_steps]  # the gradient times (sample - background)
        if total is not None:
            contrib[0] += total
        total = np.add.reduce(contrib, axis=0, out=total)
    per_cell = np.true_divide(total, B * n_steps, out=total)  # (T, d)
    phi = per_cell.sum(axis=0)

    if base is None:
        base = base_value(model, background)
    fx = float(model.predict_proba(sample[None, :, :])[0])
    return ShapExplanation(
        sample_id=sample_id, method="gradient", base=base, fx=fx, phi=phi
    )


def base_value(model, windows: np.ndarray) -> float:
    """Mean model output over a set of (training) windows."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.shape[0] == 0:
        raise InputError("base value needs a nonempty window set")
    return float(model.predict_proba(windows).mean())


def explain_set(
    model,
    windows: np.ndarray,
    background: np.ndarray,
    method: str,
    seed: int,
    sample_ids: list[str] | None = None,
    n_coalitions: int = 2048,
    n_steps: int = 16,
) -> list[ShapExplanation]:
    """Explain every window with the chosen method, one window at a time.

    Window ``i`` is explained with the sub-seed ``subseed(seed, i)``, so its
    result is the one ``kernel_shap``/``gradient_shap`` give for that window
    alone, whatever the other windows are. Their base value, the same for
    every window, is computed once per call.
    """
    windows = np.asarray(windows, dtype=np.float64)
    n = windows.shape[0]
    ids = sample_ids if sample_ids is not None else [str(i) for i in range(n)]
    if len(ids) != n:
        raise InputError("sample_ids length does not match the window count")
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; expected {', '.join(METHODS)}")

    explanations = []
    base = base_value(model, background) if method != "exact" and n else None
    for i, w in enumerate(windows):
        if method == "exact":
            e = exact_shapley(model, w, background, sample_id=ids[i])
        elif method == "kernel":
            e = kernel_shap(model, w, background, n_coalitions, subseed(seed, i),
                            sample_id=ids[i], base=base)
        else:
            e = gradient_shap(model, w, background, n_steps, subseed(seed, i),
                              sample_id=ids[i], base=base)
        explanations.append(e)
    return explanations


def global_importance(explanations: list[ShapExplanation]) -> GlobalImportance:
    """Mean |phi| per feature, ranked descending (ties by catalog order)."""
    if not explanations:
        raise InputError("need at least one explanation")
    methods = {e.method for e in explanations}
    if len(methods) > 1:
        raise InputError(f"mixed explanation methods: {sorted(methods)}")
    phis = np.stack([e.phi for e in explanations])
    values = np.abs(phis).mean(axis=0)
    order = sorted(range(values.size), key=lambda j: (-values[j], j))
    return GlobalImportance(values=values, order=order)


def decision_path(
    explanations: list[ShapExplanation],
    importance: GlobalImportance,
    base: float,
) -> tuple[np.ndarray, list[int]]:
    """Cumulative attribution series per sample, least important first.

    Returns (paths, bottom_up) where ``paths[i]`` has d+1 values starting
    at the base and ``bottom_up`` lists the feature indices in the order
    they are added (least important at the bottom of the plot).
    """
    d = explanations[0].phi.size if explanations else 0
    if sorted(importance.order) != list(range(d)):
        raise InputError("importance ranking must cover every feature exactly once")
    bottom_up = list(reversed(importance.order))
    paths = np.empty((len(explanations), d + 1))
    for i, exp in enumerate(explanations):
        paths[i, 0] = base
        paths[i, 1:] = base + np.cumsum(exp.phi[bottom_up])
    return paths, bottom_up
