"""LSTM-with-attention binary classifier, implemented directly on numpy.

Forward pass, per step t on input x_t (batch, d):

    a    = x_t W_x' + h_{t-1} W_h' + b          gates stacked [i, f, o, g]
    i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o);  g = tanh(a_g)
    c_t  = f * c_{t-1} + i * g
    h_t  = o * tanh(c_t)

All steps share one (T, n, 4H) gate array ``A``: it starts as the input
projection x_t W_x' of every step, computed in one matmul, and step t
overwrites ``A[t]`` with its activated gates [i, f, o, g]. The cell states
``C`` and hidden states ``Hs`` are (T + 1, n, H) arrays whose last row stays
zero, so step 0 reads its initial state at index t - 1 = -1 like any other
step. Finiteness is checked once per call, after the loop.

Additive attention over the hidden states:

    s_t  = tanh(h_t W_att' + b_att)
    e_t  = s_t . v_att
    alpha = softmax(e)                          one weight per time step
    ctx  = sum_t alpha_t h_t
    p    = sigmoid(ctx . w_out + b_out)         probability of class P

The backward pass is exact reverse-mode differentiation of this graph and
serves both training (parameter gradients) and attribution (input
gradients). It reads the gates from ``A`` and writes the four gate
gradients of a step into one (n, 4H) buffer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModelOverflowError, NonFiniteParameterError
from .data import SequenceSet

CHECKPOINT_SCHEMA = "stormlens-model/1"

# The most rows one batched explainer pass hands to a forward call.
CHUNK_ROWS = 4096


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


@dataclass
class LstmParams:
    """All trainable arrays. Gate rows of w_x / w_h / b are stacked in the
    order i, f, o, g; each block has ``hidden`` rows."""

    w_x: np.ndarray  # (4H, d)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    w_att: np.ndarray  # (H, H)
    b_att: np.ndarray  # (H,)
    v_att: np.ndarray  # (H,)
    w_out: np.ndarray  # (H,)
    b_out: np.ndarray  # (1,)

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]

    def items(self):
        for name in ("w_x", "w_h", "b", "w_att", "b_att", "v_att", "w_out", "b_out"):
            yield name, getattr(self, name)

    def check_finite(self, where: str = "") -> None:
        for name, arr in self.items():
            if not np.all(np.isfinite(arr)):
                raise NonFiniteParameterError(
                    f"parameter {name} contains non-finite values{where}")

    def to_dict(self) -> dict:
        return {name: arr.tolist() for name, arr in self.items()}


def _param_shapes(input_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The shape of every LstmParams array for input size d and hidden size H."""
    d, H = input_dim, hidden
    return {
        "w_x": (4 * H, d), "w_h": (4 * H, H), "b": (4 * H,), "w_att": (H, H),
        "b_att": (H,), "v_att": (H,), "w_out": (H,), "b_out": (1,),
    }


def init_params(input_dim: int, hidden: int, seed: int) -> LstmParams:
    """Uniform(-1/sqrt(H), 1/sqrt(H)) weights, zero biases, forget bias +1."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    H = int(hidden)
    d = int(input_dim)
    lim = 1.0 / np.sqrt(H)

    def u(*shape):
        return rng.uniform(-lim, lim, size=shape)

    b = np.zeros(4 * H)
    b[H : 2 * H] = 1.0
    return LstmParams(
        w_x=u(4 * H, d),
        w_h=u(4 * H, H),
        b=b,
        w_att=u(H, H),
        b_att=np.zeros(H),
        v_att=u(H),
        w_out=u(H),
        b_out=np.zeros(1),
    )


@dataclass
class Prediction:
    """Model output for one sequence: positive-class probability and the
    attention distribution over time steps (nonnegative, sums to 1)."""

    probability: float
    attention: np.ndarray  # (T,)


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

    A = np.empty((T, n, 4 * H))
    np.matmul(X.transpose(1, 0, 2), params.w_x.T, out=A)
    C = np.zeros((T + 1, n, H))
    Hs = np.zeros((T + 1, n, H))
    for t in range(T):
        a = A[t]
        a += Hs[t - 1] @ params.w_h.T
        a += params.b
        a[:, : 3 * H] = _sigmoid(a[:, : 3 * H])
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
        "X": X, "A": A, "C": C, "Hs": Hs, "S": S, "alpha": alpha, "ctx": ctx, "z": z, "p": p,
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
    A, C, Hs, S, alpha = cache["A"], cache["C"], cache["Hs"], cache["S"], cache["alpha"]
    Hs_T = Hs[:T]

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
        grads["v_att"] += np.einsum("tnh,nt->h", S, de)
        grads["w_att"] += np.einsum("tnh,tnk->hk", dU, Hs_T)
        grads["b_att"] += dU.sum(axis=(0, 1))
    dH_ext = alpha.T[:, :, None] * dctx[None, :, :] + dU @ params.w_att  # (T, n, H)

    # backprop through time; da holds the gate gradients [i, f, o, g]
    da = np.empty((n, 4 * H))
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
            grads["w_x"] += da.T @ X[:, t, :]
            grads["w_h"] += da.T @ Hs[t - 1]
            grads["b"] += da.sum(axis=0)
        if want_input_grads:
            dX[:, t, :] = da @ params.w_x
        dh_next = da @ params.w_h
        dc_next = dc * f

    return grads, dX


class LstmModel:
    """Immutable trained classifier exposing prediction and gradient access."""

    def __init__(self, params: LstmParams):
        params.check_finite()
        self.params = params

    @property
    def hidden(self) -> int:
        return self.params.hidden

    @property
    def input_dim(self) -> int:
        return self.params.input_dim

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probabilities for (n, T, d) input."""
        p, _, _ = forward_batch(self.params, X)
        return p

    def forward(self, seq: np.ndarray) -> Prediction:
        """Predict one (T, d) sequence."""
        seq = np.asarray(seq, dtype=np.float64)
        p, alpha, _ = forward_batch(self.params, seq[None, :, :])
        return Prediction(probability=float(p[0]), attention=alpha[0])

    def input_gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Exact gradient of the output probability w.r.t. every input cell."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty_like(X)
        for lo in range(0, X.shape[0], CHUNK_ROWS):
            part = X[lo : lo + CHUNK_ROWS]
            p, _, cache = forward_batch(self.params, part)
            dz = p * (1.0 - p)  # d sigmoid(z) / dz
            _, dX = backward_batch(
                self.params, cache, dz, want_param_grads=False, want_input_grads=True
            )
            out[lo : lo + part.shape[0]] = dX
        return out

    def input_gradient(self, seq: np.ndarray) -> np.ndarray:
        """(T, d) gradient of the probability for a single sequence."""
        seq = np.asarray(seq, dtype=np.float64)
        return self.input_gradient_batch(seq[None, :, :])[0]


LR_DECAY = 0.1  # the final epoch runs at learning_rate * LR_DECAY (linear ramp)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    hidden: int = 32
    epochs: int = 30
    batch: int = 32
    learning_rate: float = 1e-3
    seed: int = 42

    def validate(self) -> None:
        if self.hidden < 1:
            raise InputError("hidden size must be >= 1")
        if self.epochs < 0:
            raise InputError("epochs must be >= 0")
        if self.batch < 1:
            raise InputError("batch size must be >= 1")
        if not self.learning_rate > 0:
            raise InputError("learning rate must be positive")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")


def _bce_from_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Numerically stable binary cross-entropy per element."""
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def train(
    sequences: SequenceSet, config: TrainConfig | None = None
) -> tuple[LstmModel, list[float]]:
    """Train with Adam on class-weighted binary cross-entropy.

    Deterministic for a fixed seed (single-threaded orchestration). Returns
    the trained model and the mean training loss per epoch.
    """
    config = config or TrainConfig()
    config.validate()
    n = len(sequences)
    if n == 0:
        raise InputError("training set is empty")
    y = sequences.labels.astype(np.float64)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == n:
        raise InputError("training set contains a single class; need both P and N")

    w_pos = n / (2.0 * n_pos)
    w_neg = n / (2.0 * (n - n_pos))
    sample_w = np.where(y == 1.0, w_pos, w_neg)

    params = init_params(sequences.values.shape[2], config.hidden, config.seed)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))

    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    step = 0
    history: list[float] = []

    X = sequences.values
    # a diverging run overflows here; the check after each update names it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            frac = epoch / max(config.epochs - 1, 1)
            lr = config.learning_rate * (1.0 + (LR_DECAY - 1.0) * frac)
            order = shuffle_rng.permutation(n)
            loss_sum = 0.0
            weight_sum = 0.0
            for lo in range(0, n, config.batch):
                idx = order[lo : lo + config.batch]
                xb, yb, wb = X[idx], y[idx], sample_w[idx]
                p, _, cache = forward_batch(params, xb)
                z = cache["z"]
                losses = _bce_from_logits(z, yb)
                loss_sum += float((wb * losses).sum())
                weight_sum += float(wb.sum())
                dz = wb * (p - yb) / wb.sum()
                grads, _ = backward_batch(params, cache, dz, want_param_grads=True)
                step += 1
                for name, arr in params.items():
                    gr = grads[name]
                    m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * gr
                    v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * gr**2
                    mhat = m[name] / (1 - ADAM_BETA1**step)
                    vhat = v[name] / (1 - ADAM_BETA2**step)
                    arr -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
                params.check_finite(f" after the update of epoch {epoch + 1}, "
                                    f"batch {lo // config.batch + 1}: training diverged")
            history.append(loss_sum / weight_sum)

    return LstmModel(params), history


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


def tss_from_counts(counts: ConfusionCounts) -> tuple[float, bool]:
    """True Skill Statistic: sensitivity minus false-alarm rate.

    A class with zero denominator contributes 0 to its term; the returned
    flag marks that degeneracy.
    """
    degenerate = False
    pos = counts.tp + counts.fn
    neg = counts.fp + counts.tn
    if pos > 0:
        sens = counts.tp / pos
    else:
        sens = 0.0
        degenerate = True
    if neg > 0:
        far = counts.fp / neg
    else:
        far = 0.0
        degenerate = True
    return sens - far, degenerate


@dataclass
class EvalResult:
    counts: ConfusionCounts
    tss: float
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "confusion": self.counts.to_dict(),
            "tss": self.tss,
            "degenerate": self.degenerate,
        }


def evaluate(model: LstmModel, test: SequenceSet, threshold: float = 0.5) -> EvalResult:
    """Confusion counts and TSS at the given probability threshold.

    Predictions with probability >= threshold count as positive.
    """
    if len(test) == 0:
        raise InputError("test set is empty")
    p = model.predict_proba(test.values)
    pred = p >= threshold
    actual = test.labels == 1
    counts = ConfusionCounts(
        tp=int(np.sum(pred & actual)),
        fp=int(np.sum(pred & ~actual)),
        tn=int(np.sum(~pred & ~actual)),
        fn=int(np.sum(~pred & actual)),
    )
    tss, degenerate = tss_from_counts(counts)
    return EvalResult(counts=counts, tss=tss, degenerate=degenerate)


def save_checkpoint(path, model: LstmModel, extra: dict | None = None) -> None:
    """Write the model as a single JSON file; floats round-trip exactly."""
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "config": {"input_dim": model.input_dim, "hidden": model.hidden},
        "params": model.params.to_dict(),
        "extra": extra or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> tuple[LstmModel, dict]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    The parameter names, their shapes against the stored ``config`` and
    their finiteness are checked; a bad field raises an InputError naming it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read model checkpoint {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"model checkpoint {path} is not valid JSON: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise InputError(f"unsupported checkpoint schema {schema!r} in {path}")

    def bad(field: str, problem: str) -> InputError:
        return InputError(f"model checkpoint {path}: field {field!r} {problem}")

    config, raw, extra = doc.get("config"), doc.get("params"), doc.get("extra", {})
    for field, value in (("config", config), ("params", raw), ("extra", extra)):
        if not isinstance(value, dict):
            raise bad(field, "is missing or not an object")
    for key in ("input_dim", "hidden"):
        value = config.get(key)
        if type(value) is not int or value < 1:
            raise bad(f"config.{key}", f"must be a positive integer, got {value!r}")
    shapes = _param_shapes(config["input_dim"], config["hidden"])
    arrays = {}
    for name, shape in shapes.items():
        field = f"params.{name}"
        if name not in raw:
            raise bad(field, "is missing")
        try:
            arr = np.asarray(raw[name], dtype=np.float64)
        except (TypeError, ValueError):
            raise bad(field, "is not a numeric array") from None
        if arr.shape != shape:
            raise bad(field, f"has shape {arr.shape}, but config gives {shape}")
        if not np.all(np.isfinite(arr)):
            raise bad(field, "contains non-finite values")
        arrays[name] = arr
    return LstmModel(LstmParams(**arrays)), extra
