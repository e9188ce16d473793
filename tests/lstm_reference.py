"""Reference LSTM-attention cell for the bit-equality tests of
``stormlens.model``: ``forward_batch`` and ``backward_batch`` there must
reproduce every output, cache entry and gradient of these, bit for bit, and
``train`` there every parameter and loss of :func:`train` here, which keeps
one Adam state array per parameter.

Both keep the batch on the last axis, in m columns: n rounded up to a
multiple of 8, the pad columns zero. Here the gate array ``A`` is
(T, 4H, m), with the gates [i; f; o; g] stacked on the middle axis;
``stormlens.model`` keeps it as (T, 4, H, m), and its attention scores as
(H, T, m), where they are (T, H, m) here. Each step concatenates its column
block [x_t; h_{t-1}; 1] and multiplies W = [w_x, w_h, b] as it is by it,
and the i, f and o gates take sigmoid(z) = 1/2 + tanh(z / 2) / 2;
``stormlens.model`` halves those rows of W instead, which gives z / 2 with
the same bits. Each product that sums over steps and columns (the weight
gradients) or is one product over all steps there (v_att S) takes its T
blocks side by side as one (k, T m) array, as ``stormlens.model`` lays
them out.
"""

from __future__ import annotations

import numpy as np

from stormlens import model
from stormlens.errors import ModelOverflowError
from stormlens.model import LstmParams


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-z) overflows below z = -709.78, giving 0
        return 1.0 / (1.0 + np.exp(-z))


def forward_batch(params: LstmParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run the network on a batch of sequences.

    Parameters
    ----------
    X : (n, T, d) finite float array.

    Returns
    -------
    (probs (n,), alphas (n, T), cache) where the cache holds every
    intermediate needed by :func:`backward_batch`, with the batch on the
    last axis in m columns, the pad columns zero.
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
    m = -(-n // 8) * 8

    W = np.concatenate([params.w_x, params.w_h, params.b[:, None]], axis=1)
    X_cols = np.zeros((T, d, m))  # column j of X_cols[t] is x_t of row j
    X_cols[:, :, :n] = X.transpose(1, 2, 0)
    ones = np.zeros((1, m))
    ones[0, :n] = 1.0
    A = np.empty((T, 4 * H, m))
    XH = np.empty((T, d + H + 1, m))  # block t is [x_t; h_{t-1}; 1]
    C = np.zeros((T + 1, H, m))
    Hs = np.zeros((T + 1, H, m))
    for t in range(T):
        XH[t] = np.concatenate([X_cols[t], Hs[t - 1], ones], axis=0)
        a = A[t]
        a[...] = W @ XH[t]
        a[: 3 * H] = 0.5 + 0.5 * np.tanh(a[: 3 * H] / 2)  # sigmoid
        a[3 * H :] = np.tanh(a[3 * H :])
        i, f, o, g = (a[k * H : (k + 1) * H] for k in range(4))
        C[t] = f * C[t - 1] + i * g
        Hs[t] = o * np.tanh(C[t])
    Hs_T = Hs[:T]
    # h_t = o * tanh(c_t) is non-finite wherever c_t is
    finite = np.isfinite(Hs_T[:, :, :n]).all(axis=(1, 2))
    if not finite.all():
        raise ModelOverflowError(int(np.argmin(finite)))

    # additive attention over hidden states
    S = np.tanh(params.w_att @ Hs_T + params.b_att[:, None])  # (T, H, m)
    e = (params.v_att @ _feature_major(S)).reshape(T, m)
    e_shift = e - e.max(axis=0)
    expe = np.exp(e_shift)
    alpha = expe / expe.sum(axis=0)  # (T, m)
    ctx = np.einsum("tm,thm->hm", alpha, Hs_T)
    z = (params.w_out @ ctx)[:n] + params.b_out[0]
    p = _sigmoid(z)

    cache = {
        "X": X, "XH": XH, "A": A, "C": C, "Hs": Hs_T, "S": S, "alpha": alpha, "ctx": ctx,
        "z": z, "p": p,
    }
    return p, alpha[:, :n].T, cache


def _feature_major(Y: np.ndarray) -> np.ndarray:
    """The (T, k, m) blocks of ``Y`` side by side, as one (k, T m) array."""
    T, k, m = Y.shape
    return Y.transpose(1, 0, 2).reshape(k, T * m)


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
    m = A.shape[2]

    grads = (
        {name: np.zeros_like(arr) for name, arr in params.items()}
        if want_param_grads
        else None
    )
    dX = np.zeros_like(X) if want_input_grads else None

    dz = np.asarray(dz, dtype=np.float64).reshape(n)
    dz_cols = np.zeros(m)
    dz_cols[:n] = dz
    if want_param_grads:
        grads["w_out"] += cache["ctx"] @ dz_cols
        grads["b_out"] += np.array([dz.sum()])
    dctx = dz_cols[None, :] * params.w_out[:, None]  # (H, m)

    # attention backward
    dalpha = np.einsum("hm,thm->tm", dctx, Hs_T)  # (T, m)
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=0))
    dS = de[:, None, :] * params.v_att[None, :, None]  # (T, H, m)
    dU = dS * (1.0 - S**2)
    if want_param_grads:
        grads["v_att"] += _feature_major(S) @ de.reshape(T * m)
        # [w_att, b_att]: all T m columns [h_t; 1] in one product
        ones = np.zeros((T, 1, m))
        ones[:, :, :n] = 1.0
        HO = np.concatenate([Hs_T, ones], axis=1)
        g_att = _feature_major(dU) @ _feature_major(HO).T
        grads["w_att"] += g_att[:, :H]
        grads["b_att"] += g_att[:, H]
    dH_ext = alpha[:, None, :] * dctx[None, :, :] + params.w_att.T @ dU  # (T, H, m)

    # backprop through time; da holds the gate gradients [i; f; o; g]
    da = np.empty((4 * H, m))
    if want_param_grads:
        DA = np.empty((T, 4 * H, m))  # every step's da
    dh_next = np.zeros((H, m))
    dc_next = np.zeros((H, m))
    for t in range(T - 1, -1, -1):
        i, f, o, g = (A[t][k * H : (k + 1) * H] for k in range(4))
        tc = np.tanh(C[t])
        dh = dH_ext[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tc**2)
        da[:H] = dc * g * i * (1.0 - i)
        da[H : 2 * H] = dc * C[t - 1] * f * (1.0 - f)
        da[2 * H : 3 * H] = dh * tc * o * (1.0 - o)
        da[3 * H :] = dc * i * (1.0 - g**2)
        if want_param_grads:
            DA[t] = da
        if want_input_grads:  # [dx_t; dh_{t-1}] = [w_x, w_h]' da
            dxh = np.concatenate([params.w_x, params.w_h], axis=1).T @ da
            dX[:, t, :], dh_next = dxh[:d, :n].T, dxh[d:]
        else:
            dh_next = params.w_h.T @ da
        dc_next = dc * f
    if want_param_grads:  # [w_x, w_h, b]: all T m columns [x_t; h_{t-1}; 1] in one product
        g_Wt = _feature_major(cache["XH"]) @ _feature_major(DA).T
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
