"""LSTM-with-attention binary classifier, implemented directly on numpy.

Forward pass, per step t on input x_t (batch, d):

    a    = [x_t, h_{t-1}, 1] W'                 W = [w_x, w_h, b], gates stacked [i, f, o, g]
    i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o);  g = tanh(a_g)
    c_t  = f * c_{t-1} + i * g
    h_t  = o * tanh(c_t)

with sigmoid(z) = 1/2 + tanh(z / 2) / 2, which never overflows and is
exactly 0 or 1 once |z| is above about 38.

The rows [x_t, h_{t-1}, 1] of all steps live in one time-major
(T + 1, n, d + H + 1) array ``XH``: each call copies X into its x slots,
zeroes the h slot of row 0 (h_{-1}) and puts 1 in the last column, and step
t writes h_t into the h slot of row t + 1. So the hidden states ``Hs`` are a
view of ``XH``, and step 0 is a step like any other. Each call builds W with
the rows of the i, f and o gates halved, which is exact unless a weight is
subnormal, so a step is one product ``XH[t]`` W' into an (n, 4H) buffer, one
tanh of it into ``A[t]``, and * 1/2, + 1/2 on i, f and o. ``A`` holds the
gates gate-major, (T, 4, n, H), so that the elementwise work runs over whole
contiguous (n, H) blocks. The buffer (also the cell update's scratch) and W
share one step scratch array (``_step_scratch``) with the attention scores
``S``, computed after the loop. The cell states ``C`` are a (T + 1, n, H)
array whose last row is zero, so step 0 reads c_{-1} at index t - 1 = -1.

Finiteness is checked once per call, on the output: a NaN in any hidden
state, or an infinite attention score, reaches its row's probability, and
only then are the steps scanned for the first one with either. (A gate's
sum of finite terms overflows to inf, not NaN, in a BLAS product that fuses
its multiply-adds, so diverged weights show first in the attention.)

``forward_batch`` runs in one of two modes of the same loop and layout:
``A`` keeps ``kept`` steps of gates and ``C`` ``kept + 1`` rows of cell
state, step t using ``A[t % kept]`` and ``C[t % (kept + 1)]``. With
``keep_cache=True`` (training and gradients) ``kept = T`` and the cache
returns ``XH``, ``A``, ``C`` and ``Hs`` for :func:`backward_batch`; with
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
(T, n, 4H) and concatenates each step's row, and tiled calls with the
whole batch in one call. In the builds tested, once a call has a few
hundred rows, a row's bits depend only on its offset mod 4 in the call,
for every forward product and for the two backward products that input
gradients need, da [w_x, w_h] (dx_t and dh_{t-1} at once) and dU w_att, as
they compute them: against the weights zero-padded to a multiple of 8
columns, keeping the first columns. Unpadded, such products change BLAS
kernel with the row count (in OpenBLAS 0.3.31, (n, 4H) @ (4H, 12) did below
about 1,310 rows, and dU w_att at some H between 9 and 28 at every size),
so a tile's rows would not match the whole batch. Training computes no
input gradients and multiplies da by w_h and dU by w_att as they are.

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

where this sigmoid is ``1 / (1 + exp(-z))`` as written (``_sigmoid``), so
that p keeps its relative precision near 0.

The backward pass is exact reverse-mode differentiation of this graph and
serves both training (parameter gradients) and attribution (input
gradients). It reads the gates from ``A`` and computes the four gate
gradients of a step in one contiguous (4, n, H) buffer, whose last product
writes them into the (n, 4H) layout that every weight matmul reads; tanh(c_t)
of every step is computed before the loop, in an array that is dead by
then. Without input gradients step 0 computes no dh_{-1}, which nothing
reads.

With parameter gradients, the gate gradients da of step t go to row t of a
(T, n, 4H) array ``DA``, and the gradient of W = [w_x, w_h, b] is one
product over the T n rows [x_t, h_{t-1}, 1] of ``XH``. Likewise that of
[w_att, b_att] is one product over the rows [h_t, 1] of ``XH[1:]``, and that
of v_att one over the rows of ``S``. Without parameter gradients ``DA`` keeps
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
    flat array whose first 4 n H entries hold the forward loop's (n, 4H)
    product [x_t, h_{t-1}, 1] W', and the next 4 H (d + H + 1) the weights W
    of the forward pass; or the backward loop's eight (n, H) arrays. After
    the forward loop its first T n H entries hold the attention scores S,
    which the backward pass reads before its loop."""
    return work_buffer(work, "step", (max(4 * H * (n + d + H + 1), 8 * n * H, T * n * H),))


def _forward_arrays(work: dict | None, n: int, T: int, d: int, H: int, keep_cache: bool):
    """The step scratch, ``A`` (``kept`` steps of gates), ``C`` (``kept + 1``
    rows of cell state) and ``XH`` (T + 1 rows of [x_t, h_{t-1}, 1]) of
    ``forward_batch`` on n rows of T steps of d inputs, where ``kept`` is T
    with a cache and 1 without."""
    kept = T if keep_cache else 1
    return (_step_scratch(work, n, T, d, H),
            work_buffer(work, "A", (kept, 4, n, H)),
            work_buffer(work, "C", (kept + 1, n, H)),
            work_buffer(work, "XH", (T + 1, n, d + H + 1)))


def _padded(work: dict | None, key: str, blocks: tuple[np.ndarray, ...]) -> np.ndarray:
    """The 2-D ``blocks`` side by side, zero-padded on the right to a
    multiple of 8 columns, in ``work[key]``."""
    m = sum(w.shape[1] for w in blocks)
    out = work_buffer(work, key, (blocks[0].shape[0], -(-m // 8) * 8))
    out[:, m:] = 0.0
    np.concatenate(blocks, axis=1, out=out[:, :m])
    return out


def _backward_arrays(work: dict | None, params: LstmParams, n: int, T: int,
                     input_grads: bool, param_grads: bool):
    """The weights w_back and w_att of ``backward_batch``'s two products on
    n rows of T steps, da w_back per step and dU w_att once, then its arrays
    back (da w_back), dU, dH_ext, sq, dG, DA and bptt (eight (n, H) arrays
    of the step scratch). With ``input_grads`` w_back is [w_x, w_h], so that
    one product gives [dx_t, dh_{t-1}], and both weights are zero-padded to a
    multiple of 8 columns, so that no row's bits depend on the call's row
    count (see the module docstring); without, w_back is w_h and both are
    used as they are. ``DA`` holds the gate gradients of ``kept`` steps, step
    t in ``DA[t % kept]``: with ``param_grads`` ``kept = T``, and the weight
    gradients are one product of all T steps after the loop; without,
    ``kept = 1``."""
    if input_grads:
        w_back = _padded(work, "w_xh8", (params.w_x, params.w_h))
        w_att = _padded(work, "w_att8", (params.w_att,))
    else:
        w_back, w_att = params.w_h, params.w_att
    d, H = params.input_dim, params.hidden
    dH_ext = work_buffer(work, "dH_ext", (T, n, w_att.shape[1]))
    return (w_back, w_att,
            work_buffer(work, "back", (n, w_back.shape[1])),
            work_buffer(work, "dU", (T, n, H)),
            dH_ext,
            # sq (1 - S**2) is dead once dU has it, so dH_ext may overwrite it
            dH_ext.reshape(-1)[: T * n * H].reshape(T, n, H),
            work_buffer(work, "dG", (4, n, H)),
            work_buffer(work, "da", (T if param_grads else 1, n, 4 * H)),
            # the forward pass's step scratch, where S is dead once dU has it
            _step_scratch(work, n, T, d, H)[: 8 * n * H].reshape(8, n, H))


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

    step, A, C, XH = _forward_arrays(work, n, T, d, H, keep_cache)
    kept = A.shape[0]  # steps of gates kept
    xw = step[: 4 * n * H].reshape(n, 4 * H)
    W = step[4 * n * H : 4 * H * (n + d + H + 1)].reshape(4 * H, d + H + 1)
    # W = [w_x, w_h, b] with its i, f, o rows halved, so that those gates'
    # tanh gives sigmoid(z) = 1/2 + tanh(z / 2) / 2
    W[:, :d] = params.w_x
    W[:, d:-1] = params.w_h
    W[:, -1] = params.b
    W[: 3 * H] *= 0.5
    np.copyto(XH[:T, :, :d], X.transpose(1, 0, 2))
    XH[0, :, d:-1] = 0.0  # h_{-1}
    XH[:, :, -1] = 1.0
    Hs = XH[1:, :, d:-1]  # h_t, written by step t into row t + 1
    C[-1] = 0.0  # c_{-1}; every other row is written before it is read
    ig = step[: n * H].reshape(n, H)  # xw is dead once A[t] holds its tanh
    xw_gates = xw.reshape(n, 4, H).transpose(1, 0, 2)
    Wt = W.T
    for t in range(T):
        np.matmul(XH[t], Wt, xw)
        a = A[t % kept]
        np.tanh(xw_gates, a)  # gate-major
        ifo = a[:3]
        np.multiply(ifo, 0.5, ifo)
        np.add(ifo, 0.5, ifo)
        i, f, o, g = a
        np.multiply(i, g, ig)
        c = C[t % (kept + 1)]
        np.multiply(f, C[(t - 1) % (kept + 1)], c)
        np.add(c, ig, c)
        h = Hs[t]
        np.tanh(c, h)
        np.multiply(h, o, h)

    # additive attention over hidden states
    S = np.matmul(Hs, params.w_att.T, out=step[: T * n * H].reshape(T, n, H))
    S += params.b_att
    np.tanh(S, out=S)
    # softmax over t, in place in the (n, T) transposed view of S v_att
    alpha = (S @ params.v_att).T
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=1, keepdims=True)
    ctx = np.einsum("nt,tnh->nh", alpha, Hs)
    z = ctx @ params.w_out + params.b_out[0]
    p = _sigmoid(z)
    # A NaN in any h_t (o * tanh(c_t) is never infinite) reaches its row's p
    # through the attention, and so does an infinite attention score s_t .
    # v_att through the softmax, so the steps are scanned only when p has one.
    if not np.isfinite(p).all():
        finite = np.isfinite(Hs).all(axis=(1, 2)) & np.isfinite(S @ params.v_att).all(axis=1)
        if not finite.all():
            raise ModelOverflowError(int(np.argmin(finite)))

    if not keep_cache:
        return p, alpha, None
    cache = {
        "X": X, "XH": XH, "A": A, "C": C, "Hs": Hs, "S": S, "alpha": alpha, "ctx": ctx,
        "z": z, "p": p,
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
    n, T, d = cache["X"].shape
    H = params.hidden
    XH, A, C, Hs, S = cache["XH"], cache["A"], cache["C"], cache["Hs"], cache["S"]
    alpha = cache["alpha"]
    w_back, w_att, back, dU, dH_ext, sq, dG, DA, bptt = _backward_arrays(
        work, params, n, T, out is not None, grads is not None)

    dz = np.asarray(dz, dtype=np.float64).reshape(n)
    if grads is not None:
        grads["w_out"] += cache["ctx"].T @ dz
        grads["b_out"] += np.array([dz.sum()])
    dctx = dz[:, None] * params.w_out[None, :]  # (n, H)

    # attention backward
    dalpha = np.einsum("nh,tnh->nt", dctx, Hs)  # (n, T)
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    # dS, then dS * (1 - S**2); (T, n, H)
    np.multiply(de.T[:, :, None], params.v_att, out=dU)
    dU *= np.subtract(1.0, np.square(S, out=sq), out=sq)
    if grads is not None:
        grads["v_att"] += de.T.reshape(T * n) @ S.reshape(T * n, H)
        # [w_att, b_att]: one product over the T n rows [h_t, 1] of XH[1:],
        # copied contiguous, as at H = 1 BLAS sums a strided column in another order
        h1 = np.ascontiguousarray(XH[1:, :, d:]).reshape(T * n, H + 1)
        g_att = dU.reshape(T * n, H).T @ h1
        grads["w_att"] += g_att[:, :H]
        grads["b_att"] += g_att[:, H]
    dH_ext = np.matmul(dU, w_att, out=dH_ext)[:, :, :H]  # (T, n, H)
    dH_ext += np.multiply(alpha.T[:, :, None], dctx, out=dU)
    tanh_C = np.tanh(C[:T], out=dU)  # tanh(c_t) of every step, in the dead dU

    # backprop through time; dG holds the gate gradients [i, f, o, g]
    # gate-major, and their last factors go straight into da = DA[t % kept],
    # the (n, 4H) layout that w_back multiplies
    dh, dc, dc_next = bptt[:3]
    factors = bptt[3:]  # 1 - i, 1 - f, 1 - o, then 1 - g**2 and 1 - tc**2
    ifo_1m, sq_1m, tc_1m = factors[:3], factors[3:], factors[4]
    kept = DA.shape[0]
    DA_gates = DA.reshape(kept, n, 4, H).transpose(0, 2, 1, 3)
    dG_gi, dG_f, dG_o = dG[::3], dG[1], dG[2]  # dG_gi: the i and g rows
    if out is not None:  # back = da [w_x, w_h] = [dx_t, dh_{t-1}]
        dx, dh_next, out_steps = back[:, :d], back[:, d : d + H], out.transpose(1, 0, 2)
    else:  # back = da w_h = dh_{t-1}
        dh_next = back
    dh_next.fill(0.0)  # the others are written before they are read
    dc_next.fill(0.0)
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
            np.matmul(da, w_back, back)
            np.copyto(out_steps[t], dx)
        elif t:  # dh_{-1} is never read
            np.matmul(da, w_back, back)
        np.multiply(dc, f, dc_next)

    if grads is not None:  # W = [w_x, w_h, b]: one product over the T n rows [x_t, h_{t-1}, 1]
        g_Wt = XH[:T].reshape(T * n, d + H + 1).T @ DA.reshape(T * n, 4 * H)
        grads["w_x"] += g_Wt[:d].T
        grads["w_h"] += g_Wt[d:-1].T
        grads["b"] += g_Wt[-1]
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
