"""Reference LSTM-attention cell for the bit-equality tests of
``stormlens.model``: ``forward_batch`` and ``backward_batch`` there must
reproduce every output, cache entry and gradient of these, bit for bit, and
``train`` there every parameter and loss of :func:`train` here, which keeps
one Adam state array per parameter.

Here the gate array ``A`` is (T, n, 4H), with the gates [i, f, o, g] side by
side in the last axis; ``stormlens.model`` keeps it as (T, 4, n, H). Each
step concatenates its row [x_t, h_{t-1}, 1] and multiplies it by
W = [w_x, w_h, b] as it is, and the i, f and o gates take
sigmoid(z) = 1/2 + tanh(z / 2) / 2; ``stormlens.model`` halves those rows
of W instead, which gives z / 2 with the same bits. When input gradients
are wanted, both compute the backward pass's two weight products, da
[w_x, w_h] and dU w_att, against the weights zero-padded to a multiple of 8
columns (see :func:`_times_padded`).
"""

from __future__ import annotations

import numpy as np

from stormlens import model
from stormlens.errors import ModelOverflowError
from stormlens.model import LstmParams


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-z) overflows below z = -709.78, giving 0
        return 1.0 / (1.0 + np.exp(-z))


def _times_padded(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w``, computed against ``w`` zero-padded on the right to a
    multiple of 8 columns, of which the first ``w.shape[1]`` are kept."""
    m = w.shape[1]
    return (a @ np.pad(w, ((0, 0), (0, -m % 8))))[..., :m]


def forward_batch(params: LstmParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run the network on a batch of sequences.

    Parameters
    ----------
    X : (n, T, d) finite float array.

    Returns
    -------
    (probs (n,), alphas (n, T), cache) where the cache holds every
    intermediate needed by :func:`backward_batch`.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ValueError(f"expected (n, T, d) input, got shape {X.shape}")
    n, T, d = X.shape
    if d != params.input_dim:
        raise ValueError(f"input dim {d} does not match model dim {params.input_dim}")
    if T < 1:
        raise ValueError("need at least one time step")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite values")
    H = params.hidden

    W = np.concatenate([params.w_x, params.w_h, params.b[:, None]], axis=1)
    A = np.empty((T, n, 4 * H))
    XH = np.empty((T, n, d + H + 1))  # row t is [x_t, h_{t-1}, 1]
    C = np.zeros((T + 1, n, H))
    Hs = np.zeros((T + 1, n, H))
    for t in range(T):
        XH[t] = np.concatenate([X[:, t], Hs[t - 1], np.ones((n, 1))], axis=1)
        a = A[t]
        a[...] = XH[t] @ W.T
        a[:, : 3 * H] = 0.5 + 0.5 * np.tanh(a[:, : 3 * H] / 2)  # sigmoid
        a[:, 3 * H :] = np.tanh(a[:, 3 * H :])
        i, f, o, g = (a[:, k * H : (k + 1) * H] for k in range(4))
        C[t] = f * C[t - 1] + i * g
        Hs[t] = o * np.tanh(C[t])
    Hs_T = Hs[:T]
    # h_t = o * tanh(c_t) is non-finite wherever c_t is
    finite = np.isfinite(Hs_T).all(axis=(1, 2))
    if not finite.all():
        raise ModelOverflowError(int(np.argmin(finite)))

    # additive attention over hidden states
    S = np.tanh(Hs_T @ params.w_att.T + params.b_att)  # (T, n, H)
    e = (S @ params.v_att).T  # (n, T)
    e_shift = e - e.max(axis=1, keepdims=True)
    expe = np.exp(e_shift)
    alpha = expe / expe.sum(axis=1, keepdims=True)  # (n, T)
    ctx = np.einsum("nt,tnh->nh", alpha, Hs_T)
    z = ctx @ params.w_out + params.b_out[0]
    p = _sigmoid(z)

    cache = {
        "X": X, "XH": XH, "A": A, "C": C, "Hs": Hs_T, "S": S, "alpha": alpha, "ctx": ctx,
        "z": z, "p": p,
    }
    return p, alpha, cache


def backward_batch(
    params: LstmParams,
    cache: dict,
    dz: np.ndarray,
    want_param_grads: bool = True,
    want_input_grads: bool = False,
) -> tuple[dict | None, np.ndarray | None]:
    """Reverse-mode pass from an upstream gradient on the logit z.

    Returns ``(param_grads, input_grads)``; each is None unless requested.
    Parameter gradients are summed over the batch.
    """
    X = cache["X"]
    n, T, d = X.shape
    H = params.hidden
    A, C, Hs_T, S, alpha = cache["A"], cache["C"], cache["Hs"], cache["S"], cache["alpha"]

    grads = (
        {name: np.zeros_like(arr) for name, arr in params.items()}
        if want_param_grads
        else None
    )
    dX = np.zeros_like(X) if want_input_grads else None

    dz = np.asarray(dz, dtype=np.float64).reshape(n)
    if want_param_grads:
        grads["w_out"] += cache["ctx"].T @ dz
        grads["b_out"] += np.array([dz.sum()])
    dctx = dz[:, None] * params.w_out[None, :]  # (n, H)

    # attention backward
    dalpha = np.einsum("nh,tnh->nt", dctx, Hs_T)  # (n, T)
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    dS = de.T[:, :, None] * params.v_att[None, None, :]  # (T, n, H)
    dU = dS * (1.0 - S**2)
    if want_param_grads:
        grads["v_att"] += de.T.reshape(T * n) @ S.reshape(T * n, H)
        # [w_att, b_att]: all T n rows [h_t, 1] in one product
        HO = np.concatenate([Hs_T, np.ones((T, n, 1))], axis=2)
        g_att = dU.reshape(T * n, H).T @ HO.reshape(T * n, H + 1)
        grads["w_att"] += g_att[:, :H]
        grads["b_att"] += g_att[:, H]
    times = _times_padded if want_input_grads else np.matmul
    dH_ext = alpha.T[:, :, None] * dctx[None, :, :] + times(dU, params.w_att)  # (T, n, H)

    # backprop through time; da holds the gate gradients [i, f, o, g]
    da = np.empty((n, 4 * H))
    if want_param_grads:
        DA = np.empty((T, n, 4 * H))  # every step's da
    dh_next = np.zeros((n, H))
    dc_next = np.zeros((n, H))
    for t in range(T - 1, -1, -1):
        i, f, o, g = (A[t][:, k * H : (k + 1) * H] for k in range(4))
        tc = np.tanh(C[t])
        dh = dH_ext[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tc**2)
        da[:, :H] = dc * g * i * (1.0 - i)
        da[:, H : 2 * H] = dc * C[t - 1] * f * (1.0 - f)
        da[:, 2 * H : 3 * H] = dh * tc * o * (1.0 - o)
        da[:, 3 * H :] = dc * i * (1.0 - g**2)
        if want_param_grads:
            DA[t] = da
        if want_input_grads:  # [dx_t, dh_{t-1}] = da [w_x, w_h]
            dxh = _times_padded(da, np.concatenate([params.w_x, params.w_h], axis=1))
            dX[:, t, :], dh_next = dxh[:, :d], dxh[:, d:]
        else:
            dh_next = da @ params.w_h
        dc_next = dc * f
    if want_param_grads:  # [w_x, w_h, b]: all T n rows [x_t, h_{t-1}, 1] in one product
        g_Wt = cache["XH"].reshape(T * n, d + H + 1).T @ DA.reshape(T * n, 4 * H)
        grads["w_x"] += g_Wt[:d].T
        grads["w_h"] += g_Wt[d : d + H].T
        grads["b"] += g_Wt[d + H]

    return grads, dX


def train(sequences, config) -> tuple[LstmParams, list[float]]:
    """Adam on class-weighted binary cross-entropy, one parameter at a time,
    with the schedule, shuffling and initialisation of ``model.train``."""
    n = len(sequences)
    y = sequences.labels.astype(np.float64)
    n_pos = int(y.sum())
    sample_w = np.where(y == 1.0, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))

    params = model.init_params(sequences.values.shape[2], config.hidden, config.seed)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    b1, b2, eps = model.ADAM_BETA1, model.ADAM_BETA2, model.ADAM_EPS
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    step = 0
    history = []
    X = sequences.values
    for epoch in range(config.epochs):
        frac = epoch / max(config.epochs - 1, 1)
        lr = config.learning_rate * (1.0 + (model.LR_DECAY - 1.0) * frac)
        order = shuffle_rng.permutation(n)
        loss_sum = weight_sum = 0.0
        for lo in range(0, n, config.batch):
            idx = order[lo : lo + config.batch]
            xb, yb, wb = X[idx], y[idx], sample_w[idx]
            p, _, cache = forward_batch(params, xb)
            loss_sum += float((wb * model._bce_from_logits(cache["z"], yb)).sum())
            weight_sum += float(wb.sum())
            grads, _ = backward_batch(params, cache, wb * (p - yb) / wb.sum())
            step += 1
            for name, arr in params.items():
                gr = grads[name]
                m[name] = b1 * m[name] + (1 - b1) * gr
                v[name] = b2 * v[name] + (1 - b2) * gr**2
                mhat = m[name] / (1 - b1**step)
                vhat = v[name] / (1 - b2**step)
                arr -= lr * mhat / (np.sqrt(vhat) + eps)
        history.append(loss_sum / weight_sum)
    return params, history
