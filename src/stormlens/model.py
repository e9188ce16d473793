"""LSTM-with-attention binary classifier, implemented directly on numpy.

Forward pass, per step t on input x_t (batch, d):

    a    = x_t W_x' + h_{t-1} W_h' + b          gates stacked [i, f, o, g]
    i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o);  g = tanh(a_g)
    c_t  = f * c_{t-1} + i * g
    h_t  = o * tanh(c_t)

with sigmoid(z) = 1 / (1 + exp(-z)) computed as written, which is 0 where
exp(-z) overflows (z below about -709.78).

The activated gates of all steps live in one gate-major (T, 4, n, H) array
``A``, so each gate of a step is one contiguous (n, H) block and the
elementwise work runs over whole blocks. Each call first copies w_x, w_h
and b with the rows of the i, f and o gates negated. Step t computes
x_t W_x' and h_{t-1} W_h' with these weights into two (n, 4H) buffers that
every step reuses, adds them and then b in that order, and copies the sum
gate-major into ``A[t]``. Negating every product of a sum negates the sum
exactly, so the i, f, o rows hold -z with the bits of z, up to the sign of
a zero, which exp does not see: their sigmoid is exp, + 1 and reciprocal in
place, ``1 / (1 + exp(-z))`` as written with no negation pass. Step 0 skips
h_{-1} W_h' and its add: a product of zeros is +0 in the BLAS builds
tested, and adding +0 changes no sum but -0, which such a product never is.
It keeps f * c_{-1}: where i * g is -0, as when a closed input gate meets
g < 0, only adding f * c_{-1} = +0 makes c_0 the +0 of the formula. The first
buffer also serves as the cell update's scratch. Both buffers and the
negated weights share one step scratch array (``_step_scratch``) with the
attention scores ``S``, which are computed after the loop, when the buffers
are dead. The cell states ``C`` and hidden states ``Hs`` are (T + 1, n, H)
arrays whose last row is zero, so step 0 reads its initial state at index
t - 1 = -1 like any other step. Finiteness is checked once per call, on the
output: a NaN in any hidden state reaches its row's probability, and only
then are the steps scanned for the first one that overflowed.

``forward_batch`` runs in one of two modes of the same loop and layout:
``A`` keeps ``kept`` steps of gates and ``C`` ``kept + 1`` rows of cell
state, step t using ``A[t % kept]`` and ``C[t % (kept + 1)]``. With
``keep_cache=True`` (training and gradients) ``kept = T`` and the cache
returns ``A``, ``C`` and ``Hs`` for :func:`backward_batch`; with
``keep_cache=False`` (every forward-only call) ``kept = 1`` and no cache is
returned.

One rule batches every model row. ``LstmModel.predict_proba`` and
``walk_tiles`` (which hands ``LstmModel.input_gradient_batch``, one forward
and one backward call, every gradient tile) walk their rows in row order,
in the tiles of ``_tile_bounds``: every tile starts at a multiple of
``TILE_ROWS`` (itself a multiple of 8) and none is shorter than
``TILE_ROWS`` rows unless the batch is. The coalition rows of exact and
kernel attribution are built in groups of whole masks, ``TILE_ROWS // B``
masks of B background windows (at least one), and each group is one
``predict_proba`` call of at most ``max(B, TILE_ROWS)`` rows.

Output bits depend on the numpy/BLAS build and on the batch a row is
computed in, not on the layout of ``A`` or on the mode: the tests compare
both passes bit for bit with a reference cell that keeps ``A`` as
(T, n, 4H), and tiled calls with the whole batch in one call. In the
builds tested, once a call has a few hundred rows, a row's bits depend only
on its offset mod 4 in the call, for every forward product and for the
backward pass's three weight products as it computes them for input
gradients: da W_x (the input gradients), da W_h and dU W_att then each
multiply by the weight zero-padded to a multiple of 8 columns and keep the
first columns. Unpadded, these products change BLAS kernel with the row
count (in OpenBLAS 0.3.31, (n, 4H) @ (4H, 12) below about 1,310 rows;
da W_h and dU W_att at some H between 9 and 28 at every size), so a tile's
rows would not match the whole batch. A backward pass without input
gradients (training) multiplies by the weights as they are. The padded
product has the unpadded bits where the width is a multiple of 8 already
(H = 16 or 32 for da W_h and dU W_att), and at d = 12 in calls of about
1,310 rows or more, such as the 1,600 path points of an explained window
at B = 100 and K = 16. Smaller calls (B = 10 gives 160 rows) and other
widths get other last bits than the unpadded product would give.

Both passes take an optional ``work`` dict and then keep their large arrays
in it, reused by the next call with that dict instead of allocated anew;
``_forward_arrays`` and ``_backward_arrays`` list them. A cache built with a
``work`` dict, and the input gradients read from it, are valid only until
the next call with that dict; the backward call is one, as its step arrays
take the forward pass's step scratch, where ``S`` lives. ``LstmModel`` keeps one such dict, sized by
``reserve`` for a walk's largest tile before its first, in which every tile
of ``predict_proba`` and every ``input_gradient_batch`` call runs (the
latter also returns its result in it), so one model must not run them from
two threads at once; ``train`` keeps another for its batches. The
explainers hand the model no whole batch: they build one tile of their rows
at a time in the same dict (a group of coalition rows, or through
``walk_tiles`` gradient path points and LIME rows) and run it, so the dict
holds at most one tile of model input and one of input gradients.

Additive attention over the hidden states:

    s_t  = tanh(h_t W_att' + b_att)
    e_t  = s_t . v_att
    alpha = softmax(e)                          one weight per time step
    ctx  = sum_t alpha_t h_t
    p    = sigmoid(ctx . w_out + b_out)         probability of class P

The backward pass is exact reverse-mode differentiation of this graph and
serves both training (parameter gradients) and attribution (input
gradients). It reads the gates from ``A`` and computes the four gate
gradients of a step in one contiguous (4, n, H) buffer, whose last product
writes them into the (n, 4H) layout that every weight matmul reads; tanh(c_t)
of every step is computed before the loop, in an array that is dead by
then. Step 0 computes no dh_{-1} or dc_{-1}, which nothing reads.

With parameter gradients, the gate gradients da of step t go to row t of a
(T, n, 4H) array ``DA``, and each weight's gradient is one product over all
T n rows after the loop: DA' X for w_x, with X taken time-major; DA[1:]'
Hs[:T-1] for w_h, as h_{-1} is zero and step 0 adds no term; the column
sums of DA for b. The attention's w_att and v_att gradients are one matmul
each over the (T n, H) rows too. Without parameter gradients ``DA`` keeps
one step, as ``A`` keeps one without a cache. A sum over all rows at once
runs in another order than a sum of per-step products, so the trained
weights' last bits depend on this order; the forward pass and the input
gradients do not.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModelOverflowError, NonFiniteParameterError
from .data import NormStats, SequenceSet, write_json

CHECKPOINT_SCHEMA = "stormlens-model/1"

# The rows of one tile of LstmModel.predict_proba and walk_tiles, and the most
# rows of one group of coalition masks (exact, kernel). In the numpy/BLAS
# builds tested, a row's bits depend on its offset mod 4 in its call and on
# whether the call has exactly one row, so tiles that start at multiples of 8
# and hold at least TILE_ROWS rows give every row the bits of one whole-batch
# call (the backward products are padded for this, see the module docstring;
# tests/test_model.py holds both passes to it). A coalition group is one call
# of its own, so its size sets its rows' offsets: another value can change the
# bytes of exact and kernel shap.json. At T = 10, H = 16, d = 12 on one core,
# 1,600 rows forward and backward took ~15 ms per call in tiles of 384-512
# rows, ~16 ms in tiles of 256-320 rows and ~17 ms untiled; 4,090 rows
# forward-only took ~37 ms in 400-row tiles against ~38.5 ms in 1,024-row
# tiles, in a quarter of the workspace (1.6 MB against 6.5 MB).
TILE_ROWS = 400


def work_buffer(work: dict | None, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array of ``shape``: a new one when ``work`` is
    None, else a view of ``work[key]``, which grows to the largest size
    asked for."""
    if work is None:
        return np.empty(shape)
    size = math.prod(shape)
    buf = work.get(key)
    if buf is None or buf.size < size:
        buf = work[key] = np.empty(size)
    return buf[:size].reshape(shape)


def _tile_bounds(n: int) -> list[int]:
    """Row bounds of the tiles of an n-row batch: every tile starts at a
    multiple of ``TILE_ROWS`` and the last one takes the remainder, so no
    tile is shorter than ``TILE_ROWS`` rows unless the whole batch is."""
    starts = range(0, max(1, n // TILE_ROWS) * TILE_ROWS, TILE_ROWS)
    return [*starts, n]


def walk_tiles(model, n: int, row_shape: tuple[int, ...], fill, gradients: bool = False):
    """Run ``model`` on an n-row batch that is never built whole.

    The rows are walked in order, in the tiles of ``_tile_bounds(n)``. For
    each tile (lo, hi), ``fill(X, lo, hi)`` writes rows lo:hi of the batch
    into X, an uninitialised (hi - lo, *row_shape) array of the model's
    ``work`` dict (a new one for a model without it); then ``(lo, hi, out)``
    is yielded, where ``out`` is the model's ``predict_proba`` of X, or with
    ``gradients`` its ``input_gradient_batch``, valid until the next tile.
    Each tile is one call of either method: ``predict_proba`` cuts no batch
    of fewer than ``2 * TILE_ROWS`` rows, and ``input_gradient_batch`` none;
    ``model.reserve`` sizes the workspace of either for the largest tile.
    """
    work = getattr(model, "work", None)
    call = model.input_gradient_batch if gradients else model.predict_proba
    bounds = _tile_bounds(n)
    if work is not None:  # sized for the last tile, the largest, before the first
        work_buffer(work, "rows", (bounds[-1] - bounds[-2], *row_shape))
        model.reserve(bounds[-1] - bounds[-2], row_shape[0], gradients)
    for lo, hi in zip(bounds, bounds[1:]):
        X = work_buffer(work, "rows", (hi - lo, *row_shape))
        fill(X, lo, hi)
        yield lo, hi, call(X)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function ``1 / (1 + exp(-z))``, bit for bit, in ``out``
    (which may be ``z``) or a new array. Below z = -709.78, where exp(-z)
    overflows, the result is its limit 0, with no warning; NaN propagates."""
    out = np.negative(z, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _param_shapes(input_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The one table of LstmParams arrays: each name with its shape for
    input size d and hidden size H, in the order that checkpoints, the flat
    training vector and ``init_params``'s draws follow. Names starting with
    ``b`` are biases."""
    d, H = input_dim, hidden
    return {
        "w_x": (4 * H, d), "w_h": (4 * H, H), "b": (4 * H,), "w_att": (H, H),
        "b_att": (H,), "v_att": (H,), "w_out": (H,), "b_out": (1,),
    }


@dataclass
class LstmParams:
    """All trainable arrays, shaped and ordered as ``_param_shapes`` gives.
    Gate rows of w_x / w_h / b are stacked in the order i, f, o, g; each
    block has ``hidden`` rows."""

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray
    w_att: np.ndarray
    b_att: np.ndarray
    v_att: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]

    def items(self):
        for name in _param_shapes(self.input_dim, self.hidden):
            yield name, getattr(self, name)

    def check_finite(self, where: str = "") -> None:
        for name, arr in self.items():
            if not np.all(np.isfinite(arr)):
                raise NonFiniteParameterError(
                    f"parameter {name} contains non-finite values{where}")


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive views of ``flat``, one per name of ``shapes``, in order."""
    views, lo = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[lo : lo + size].reshape(shape)
        lo += size
    return views


def init_params(input_dim: int, hidden: int, seed: int) -> LstmParams:
    """Uniform(-1/sqrt(H), 1/sqrt(H)) weights, drawn in table order, zero
    biases, forget bias +1."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    H = int(hidden)
    lim = 1.0 / np.sqrt(H)
    arrays = {
        name: np.zeros(shape) if name.startswith("b") else rng.uniform(-lim, lim, size=shape)
        for name, shape in _param_shapes(int(input_dim), H).items()
    }
    arrays["b"][H : 2 * H] = 1.0
    return LstmParams(**arrays)


def _step_scratch(work: dict | None, n: int, T: int, d: int, H: int):
    """The step scratch of both passes on n rows of T steps of d inputs: a
    flat array whose first 8 n H entries hold the forward loop's two (n, 4H)
    products x_t W_x' and h_{t-1} W_h', or the backward loop's eight (n, H)
    arrays; then the forward pass's negated w_x, w_h and b. After the
    forward loop its first T n H entries hold the attention scores S, which
    the backward pass reads before its loop."""
    return work_buffer(work, "step", (max(8 * n * H + 4 * H * (d + H + 1), T * n * H),))


def _forward_arrays(work: dict | None, n: int, T: int, d: int, H: int, keep_cache: bool):
    """The step scratch, ``A`` (``kept`` steps of gates), ``C`` (``kept + 1``
    rows of cell state) and ``Hs`` of ``forward_batch`` on n rows of T steps
    of d inputs, where ``kept`` is T with a cache and 1 without."""
    kept = T if keep_cache else 1
    return (_step_scratch(work, n, T, d, H),
            work_buffer(work, "A", (kept, 4, n, H)),
            work_buffer(work, "C", (kept + 1, n, H)),
            work_buffer(work, "Hs", (T + 1, n, H)))


def _backward_arrays(work: dict | None, params: LstmParams, n: int, T: int,
                     input_grads: bool, param_grads: bool):
    """The weights w_x, w_h, w_att of ``backward_batch`` on n rows of T steps,
    then its arrays dx, dU, dH_ext, sq, dG, DA, bptt (eight (n, H) arrays of
    the step scratch), dh_w and X_tm. ``DA`` holds the gate gradients of
    ``kept`` steps, step t in ``DA[t % kept]``: with ``param_grads``
    ``kept = T``, and the weight gradients are products of all T steps after
    the loop, which read X time-major from the (T, n, d) array X_tm; without,
    ``kept = 1`` and X_tm is None. With ``input_grads`` the weights and the
    products dx, dH_ext and dh_w are zero-padded to a multiple of 8 columns,
    so that no row's bits depend on the call's row count (see the module
    docstring); without, dx is None."""
    weights = {"w_x": params.w_x, "w_h": params.w_h, "w_att": params.w_att}
    if input_grads:
        for key, w in weights.items():
            k, m = w.shape
            if m % 8:  # a width of a multiple of 8 is used as it is
                weights[key] = padded = work_buffer(work, key + "8", (k, -(-m // 8) * 8))
                padded[:, m:] = 0.0
                padded[:, :m] = w
    w_x, w_h, w_att = weights.values()
    d, H = params.input_dim, params.hidden
    dH_ext = work_buffer(work, "dH_ext", (T, n, w_att.shape[1]))
    return (w_x, w_h, w_att,
            work_buffer(work, "dx", (n, w_x.shape[1])) if input_grads else None,
            work_buffer(work, "dU", (T, n, H)),
            dH_ext,
            # sq (1 - S**2) is dead once dU has it, so dH_ext may overwrite it
            dH_ext.reshape(-1)[: T * n * H].reshape(T, n, H),
            work_buffer(work, "dG", (4, n, H)),
            work_buffer(work, "da", (T if param_grads else 1, n, 4 * H)),
            # the forward pass's step scratch, where S is dead once dU has it
            _step_scratch(work, n, T, d, H)[: 8 * n * H].reshape(8, n, H),
            work_buffer(work, "dh_next", (n, w_h.shape[1])),
            work_buffer(work, "X_tm", (T, n, d)) if param_grads else None)


def forward_batch(
    params: LstmParams, X: np.ndarray, keep_cache: bool = True, work: dict | None = None
) -> tuple[np.ndarray, np.ndarray, dict | None]:
    """Run the network on a batch of sequences.

    Parameters
    ----------
    X : (n, T, d) finite float array.
    keep_cache : keep every step's gates and cell state and return them.
    work : optional dict of arrays reused between calls (see the module
        docstring); the cache is valid until the next call with it.

    Returns
    -------
    (probs (n,), alphas (n, T), cache) where the cache holds every
    intermediate needed by :func:`backward_batch`, or is None when
    ``keep_cache`` is False.
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

    step, A, C, Hs = _forward_arrays(work, n, T, d, H, keep_cache)
    kept = A.shape[0]  # steps of gates kept
    xw, hw = step[: 8 * n * H].reshape(2, n, 4 * H)
    wx, wh, bn = _views(step[8 * n * H :],
                        {"w_x": (4 * H, d), "w_h": (4 * H, H), "b": (4 * H,)}).values()
    # w_x, w_h and b with their i, f, o rows negated
    for neg, w in ((wx, params.w_x), (wh, params.w_h), (bn, params.b)):
        np.negative(w[: 3 * H], neg[: 3 * H])
        neg[3 * H :] = w[3 * H :]
    ig = step[: n * H].reshape(n, H)  # xw is dead once A[t] holds the step's sum
    xw_gates = xw.reshape(n, 4, H).transpose(1, 0, 2)
    wx_t, wh_t, X_steps = wx.T, wh.T, X.transpose(1, 0, 2)
    # the initial state; every other row is written before it is read
    C[-1] = Hs[T] = 0.0
    for t in range(T):
        # x_t W_x' + h_{t-1} W_h' + b with its i, f, o rows negated, copied
        # gate-major into A[t]; h_{-1} W_h' is zero, and adding it changes no bit
        np.matmul(X_steps[t], wx_t, xw)
        if t:
            np.matmul(Hs[t - 1], wh_t, hw)
            np.add(xw, hw, xw)
        np.add(xw, bn, xw)
        a = A[t % kept]
        np.copyto(a, xw_gates)
        ifo = a[:3]  # 1 / (1 + exp(-z)) of the negated sums -z
        with np.errstate(over="ignore"):
            np.exp(ifo, ifo)
        np.add(ifo, 1.0, ifo)
        np.reciprocal(ifo, ifo)
        i, f, o, g = a
        np.tanh(g, g)
        np.multiply(i, g, ig)
        c = C[t % (kept + 1)]
        np.multiply(f, C[(t - 1) % (kept + 1)], c)
        np.add(c, ig, c)
        h = Hs[t]
        np.tanh(c, h)
        np.multiply(h, o, h)
    Hs_T = Hs[:T]

    # additive attention over hidden states
    S = np.matmul(Hs_T, params.w_att.T, out=step[: T * n * H].reshape(T, n, H))
    S += params.b_att
    np.tanh(S, out=S)
    # softmax over t, in place in the (n, T) transposed view of S v_att
    alpha = (S @ params.v_att).T
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=1, keepdims=True)
    ctx = np.einsum("nt,tnh->nh", alpha, Hs_T)
    z = ctx @ params.w_out + params.b_out[0]
    p = _sigmoid(z)
    # A NaN in any h_t (o * tanh(c_t) is never infinite) reaches its row's p
    # through the attention, so the steps are scanned only when p has one.
    if not np.isfinite(p).all():
        finite = np.isfinite(Hs_T).all(axis=(1, 2))
        if not finite.all():
            raise ModelOverflowError(int(np.argmin(finite)))

    if not keep_cache:
        return p, alpha, None
    cache = {
        "X": X, "A": A, "C": C, "Hs": Hs, "S": S, "alpha": alpha, "ctx": ctx, "z": z, "p": p,
    }
    return p, alpha, cache


def backward_batch(
    params: LstmParams,
    cache: dict,
    dz: np.ndarray,
    work: dict | None = None,
    grads: dict | None = None,
    out: np.ndarray | None = None,
) -> tuple[dict | None, np.ndarray | None]:
    """Reverse-mode pass from an upstream gradient on the logit z.

    Returns ``(grads, input_grads)``. Parameter gradients are computed only
    when ``grads`` is given, one array per parameter: they are summed over
    the batch and added to its arrays, so zero them first. Input gradients
    are computed only when ``out``, an (n, T, d) array, is given: they are
    written into it and returned, else None is.
    """
    X = cache["X"]
    n, T, d = X.shape
    H = params.hidden
    A, C, Hs, S, alpha = cache["A"], cache["C"], cache["Hs"], cache["S"], cache["alpha"]
    Hs_T = Hs[:T]
    w_x, w_h, w_att, dx, dU, dH_ext, sq, dG, DA, bptt, dh_w, X_tm = _backward_arrays(
        work, params, n, T, out is not None, grads is not None)

    dz = np.asarray(dz, dtype=np.float64).reshape(n)
    if grads is not None:
        grads["w_out"] += cache["ctx"].T @ dz
        grads["b_out"] += np.array([dz.sum()])
    dctx = dz[:, None] * params.w_out[None, :]  # (n, H)

    # attention backward
    dalpha = np.einsum("nh,tnh->nt", dctx, Hs_T)  # (n, T)
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    # dS, then dS * (1 - S**2); (T, n, H)
    np.multiply(de.T[:, :, None], params.v_att, out=dU)
    dU *= np.subtract(1.0, np.square(S, out=sq), out=sq)
    if grads is not None:
        grads["v_att"] += de.T.reshape(T * n) @ S.reshape(T * n, H)
        grads["w_att"] += dU.reshape(T * n, H).T @ Hs_T.reshape(T * n, H)
        grads["b_att"] += dU.sum(axis=(0, 1))
    dH_ext = np.matmul(dU, w_att, out=dH_ext)[:, :, :H]  # (T, n, H)
    dH_ext += np.multiply(alpha.T[:, :, None], dctx, out=dU)
    tanh_C = np.tanh(C[:T], out=dU)  # tanh(c_t) of every step, in the dead dU

    # backprop through time; dG holds the gate gradients [i, f, o, g]
    # gate-major, and their last factors go straight into da = DA[t % kept],
    # the (n, 4H) layout that w_x and w_h multiply
    dh, dc, dc_next = bptt[:3]
    factors = bptt[3:]  # 1 - i, 1 - f, 1 - o, then 1 - g**2 and 1 - tc**2
    ifo_1m, sq_1m, tc_1m = factors[:3], factors[3:], factors[4]
    kept = DA.shape[0]
    DA_gates = DA.reshape(kept, n, 4, H).transpose(0, 2, 1, 3)
    dG_gi, dG_f, dG_o = dG[::3], dG[1], dG[2]  # dG_gi: the i and g rows
    dh_next = dh_w[:, :H]
    dh_next.fill(0.0)  # the others are written before they are read
    dc_next.fill(0.0)
    if out is not None:
        dx_d, out_steps = dx[:, :d], out.transpose(1, 0, 2)
    for t in range(T - 1, -1, -1):
        a, da = A[t], DA[t % kept]
        f, o, g = a[1:]
        tc = tanh_C[t]
        np.add(dH_ext[t], dh_next, dh)
        np.subtract(1.0, a[:3], ifo_1m)
        np.square(g, sq_1m[0])
        np.square(tc, tc_1m)
        np.subtract(1.0, sq_1m, sq_1m)
        # dc = dc_next + dh * o * (1 - tc**2)
        np.multiply(dh, o, dc)
        np.multiply(dc, tc_1m, dc)
        np.add(dc, dc_next, dc)
        # each gate gradient keeps the operation order ((a * b) * c) * d:
        # dc g i (1 - i), dc c_{t-1} f (1 - f), dh tc o (1 - o), dc i (1 - g**2)
        np.multiply(dc, a[3::-3], dG_gi)
        np.multiply(dc, C[t - 1], dG_f)
        np.multiply(dh, tc, dG_o)
        np.multiply(dG[:3], a[:3], dG[:3])
        np.multiply(dG, factors[:4], DA_gates[t % kept])
        if out is not None:
            np.matmul(da, w_x, dx)
            np.copyto(out_steps[t], dx_d)
        if t:  # dh_{-1} and dc_{-1} are never read
            np.matmul(da, w_h, dh_w)
            np.multiply(dc, f, dc_next)

    if grads is not None:  # one product per weight over the T n rows of every step
        rows = DA.reshape(T * n, 4 * H)
        np.copyto(X_tm, X.transpose(1, 0, 2))
        grads["w_x"] += rows.T @ X_tm.reshape(T * n, d)
        # step 0 adds no term: h_{-1} is zero
        grads["w_h"] += rows[n:].T @ Hs[: T - 1].reshape((T - 1) * n, H)
        grads["b"] += rows.sum(axis=0)
    return grads, out


class LstmModel:
    """Trained classifier exposing prediction and gradient access.

    The parameters are never changed. ``work`` holds the scratch arrays that
    every call of ``predict_proba`` and ``input_gradient_batch`` reuses from
    call to call, so one model must not run either from two threads at once.
    """

    def __init__(self, params: LstmParams):
        params.check_finite()
        self.params = params
        self.work: dict[str, np.ndarray] = {}

    def reserve(self, n: int, T: int, gradients: bool = False) -> None:
        """Size ``work`` for forward-only tiles of up to n rows of T steps, or
        with ``gradients`` for ``input_gradient_batch``'s (both passes)."""
        _forward_arrays(self.work, n, T, self.params.input_dim, self.params.hidden, gradients)
        if gradients:
            _backward_arrays(self.work, self.params, n, T, True, False)
            work_buffer(self.work, "grad", (n, T, self.params.input_dim))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probabilities for (n, T, d) input, computed
        forward-only tile by tile (see ``_tile_bounds``), in row order, in
        ``work``. A ModelOverflowError names the step of the first tile to
        overflow."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3:
            raise ValueError(f"expected (n, T, d) input, got shape {X.shape}")
        bounds = _tile_bounds(X.shape[0])
        self.reserve(bounds[-1] - bounds[-2], X.shape[1])  # the last tile, the largest
        p = np.empty(X.shape[0])
        for lo, hi in zip(bounds, bounds[1:]):
            p[lo:hi] = forward_batch(self.params, X[lo:hi], keep_cache=False, work=self.work)[0]
        return p

    def input_gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Exact gradient of the output probability w.r.t. every input cell,
        in one forward and one backward call in ``work`` (``walk_tiles``
        tiles a batch). The result is one of ``work``'s arrays, valid until
        the next call that uses it."""
        p, _, cache = forward_batch(self.params, X, work=self.work)
        dz = p * (1.0 - p)  # d sigmoid(z) / dz
        out = work_buffer(self.work, "grad", cache["X"].shape)
        return backward_batch(self.params, cache, dz, work=self.work, out=out)[1]


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InputError("learning rate must be positive and finite")
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

    # the parameters, their gradients and both Adam moments are flat vectors;
    # params and grads are per-parameter views into the first two
    init = init_params(sequences.values.shape[2], config.hidden, config.seed)
    shapes = _param_shapes(init.input_dim, init.hidden)
    flat = np.concatenate([arr.ravel() for _, arr in init.items()])
    grad = np.zeros_like(flat)
    params = LstmParams(**_views(flat, shapes))
    grads = _views(grad, shapes)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    t, u = np.empty_like(flat), np.empty_like(flat)  # Adam scratch
    work: dict[str, np.ndarray] = {}
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    step = 0
    history: list[float] = []

    def diverged(update: tuple[int, int]) -> str:
        return f" after the update of epoch {update[0]}, batch {update[1]}: training diverged"

    X = sequences.values
    update = None  # (epoch, batch) of the last update, both from 1
    # a diverging run overflows here; the check after each update names it,
    # as does the next forward pass if the parameters stay finite
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
                try:
                    p, _, cache = forward_batch(params, xb, work=work)
                except ModelOverflowError as exc:
                    if update is None:
                        raise
                    raise ModelOverflowError(exc.step, diverged(update)) from None
                z = cache["z"]
                losses = _bce_from_logits(z, yb)
                loss_sum += float((wb * losses).sum())
                weight_sum += float(wb.sum())
                dz = wb * (p - yb) / wb.sum()
                grad.fill(0.0)
                backward_batch(params, cache, dz, work=work, grads=grads)
                step += 1
                # m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g**2,
                # flat -= lr * (m / (1 - b1**step)) / (sqrt(v / (1 - b2**step)) + eps)
                m *= ADAM_BETA1
                m += np.multiply(grad, 1 - ADAM_BETA1, out=t)
                v *= ADAM_BETA2
                v += np.multiply(np.square(grad, out=t), 1 - ADAM_BETA2, out=t)
                np.divide(m, 1 - ADAM_BETA1**step, out=t)
                t *= lr
                np.sqrt(np.divide(v, 1 - ADAM_BETA2**step, out=u), out=u)
                u += ADAM_EPS
                t /= u
                flat -= t
                update = (epoch + 1, lo // config.batch + 1)
                if not np.isfinite(flat).all():
                    params.check_finite(diverged(update))
            history.append(loss_sum / weight_sum)

    return LstmModel(params), history


@dataclass(frozen=True)
class Evaluation:
    """Confusion counts on a held-out set and their True Skill Statistic."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def tss(self) -> float:
        """Sensitivity minus false-alarm rate; a class with zero denominator
        contributes 0 to its term (see ``degenerate``)."""
        pos = self.tp + self.fn
        neg = self.fp + self.tn
        sens = self.tp / pos if pos > 0 else 0.0
        far = self.fp / neg if neg > 0 else 0.0
        return sens - far

    @property
    def degenerate(self) -> bool:
        """True when either class is absent from the set."""
        return self.tp + self.fn == 0 or self.fp + self.tn == 0

    def to_dict(self) -> dict:
        return {
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
            "tss": self.tss,
            "degenerate": self.degenerate,
        }


def evaluate(model: LstmModel, test: SequenceSet, threshold: float = 0.5) -> Evaluation:
    """Confusion counts and TSS at the given probability threshold.

    Predictions with probability >= threshold count as positive.
    """
    if len(test) == 0:
        raise InputError("test set is empty")
    p = model.predict_proba(test.values)
    pred = p >= threshold
    actual = test.labels == 1
    return Evaluation(
        tp=int(np.sum(pred & actual)),
        fp=int(np.sum(pred & ~actual)),
        tn=int(np.sum(~pred & ~actual)),
        fn=int(np.sum(~pred & actual)),
    )


# Each checkpoint ``extra`` field but norm_stats: a test of its JSON value
# and what the error message asks for.
_RECORD_RULES = {
    "window_length": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "train_fraction": (lambda v: type(v) is float and 0.0 < v < 1.0, "a number in (0, 1)"),
    "split_seed": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "feature_names": (lambda v: type(v) is list and all(type(s) is str for s in v),
                      "a list of strings"),
    "horizon_hours": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "untrained": (lambda v: type(v) is bool, "true or false"),
}


@dataclass(frozen=True)
class TrainingRecord:
    """A checkpoint's ``extra`` block: the windowing, split and z-scores that
    later commands rebuild, and what reports say of the training. ``train``
    builds one from its settings before it has fitted the stats, so
    ``norm_stats`` and ``feature_names`` default to None; a checkpoint holds
    every field."""

    window_length: int
    train_fraction: float
    split_seed: int
    horizon_hours: int
    norm_stats: NormStats | None = None
    feature_names: tuple[str, ...] | None = None
    untrained: bool = False

    def to_dict(self) -> dict:
        """The JSON form; every field must be set."""
        return {**vars(self), "norm_stats": self.norm_stats.to_dict(),
                "feature_names": list(self.feature_names)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingRecord":
        """The inverse of :meth:`to_dict`; other keys are ignored. A missing
        or bad field raises an InputError naming it as ``extra.<field>``."""
        for f in dataclasses.fields(cls):
            if f.name not in d:
                raise InputError(f"field 'extra.{f.name}' is missing")
        values = {name: d[name] for name in _RECORD_RULES}
        for name, value in values.items():
            ok, want = _RECORD_RULES[name]
            if not ok(value):
                raise InputError(f"field 'extra.{name}' must be {want}, got {value!r}")
        values["feature_names"] = tuple(values["feature_names"])
        return cls(**values, norm_stats=NormStats.from_dict(d["norm_stats"]))


def save_checkpoint(path, model: LstmModel, record: TrainingRecord) -> None:
    """Write the model and its training record as a single JSON file;
    floats round-trip exactly."""
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "config": {"input_dim": model.params.input_dim, "hidden": model.params.hidden},
        "params": dict(model.params.items()),
        "extra": record.to_dict(),
    }
    write_json(path, doc)


def load_checkpoint(path) -> tuple[LstmModel, TrainingRecord]:
    """Load a checkpoint written by :func:`save_checkpoint`. The parameters'
    names, shapes and finiteness are checked, and ``extra`` is read as a
    TrainingRecord. A missing or bad field raises an InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read model checkpoint {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, or an integer too long to convert
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
    try:
        record = TrainingRecord.from_dict(extra)
    except InputError as exc:
        raise InputError(f"model checkpoint {path}: {exc}") from None
    return LstmModel(LstmParams(**arrays)), record
