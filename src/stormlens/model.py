"""LSTM-with-attention binary classifier, implemented directly on numpy.

Forward pass, per step t on input x_t (batch, d):

    a    = [x_t, h_{t-1}, 1] W'                 W = [w_x, w_h, b], gates stacked [i, f, o, g]
    i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o);  g = tanh(a_g)
    c_t  = f * c_{t-1} + i * g
    h_t  = o * tanh(c_t)

with sigmoid(z) = 1/2 + tanh(z / 2) / 2, which never overflows and is
exactly 0 or 1 once |z| is above about 38.

Every array of both passes keeps the batch on its last, contiguous axis, in
m columns: n rounded up to a multiple of 8 (``_columns``), the pad columns
zero. The columns [x_t; h_{t-1}; 1] of all steps live in one
(T + 1, d + H + 1, m) array ``XH``: each call copies X into the x rows of
its real columns, zeroes the h rows of block 0 (h_{-1}) and puts 1 in the
last row of the real columns and 0 in the pads, and step t writes h_t into
the contiguous block ``XH[t + 1, d:d+H]``. So the hidden states ``Hs`` are
a view of ``XH``, and step 0 is a step like any other. Each call builds W
with the rows of the i, f and o gates halved, which is exact unless a
weight is subnormal, so a step is one product W ``XH[t]`` straight into
the (4H, m) gates ``A[t]``, one tanh of them in place, and * 1/2, + 1/2 on
i, f and o. ``A`` holds the gates gate-major, (T, 4, H, m), so that the
elementwise work runs over whole contiguous (H, m) blocks. W and the cell
update's (H, m) scratch share one step scratch array (``_step_scratch``)
with the attention scores ``S``, (H, T, m), computed after the loop. The
cell states ``C`` are a (T + 1, H, m) array whose last block is zero, so
step 0 reads c_{-1} at index t - 1 = -1. A pad column holds zeros in every
step: its gates are W 0 = 0, so i = f = o = 1/2, g = 0 and c = h = 0.

Finiteness is checked once per call, on the output: a NaN in any hidden
state, or an infinite attention score, reaches its row's probability, and
only then are the steps scanned, in the real columns alone, for the first
one with either. (A gate's sum of finite terms overflows to inf, not NaN,
in a BLAS product that fuses its multiply-adds, so diverged weights show
first in the attention. The pad columns of a non-finite weight are
0 * inf = NaN from step 0, which is why the scan skips them.)

``forward_batch`` runs in one of two modes of the same loop and layout:
``A`` keeps ``kept`` steps of gates and ``C`` ``kept + 1`` blocks of cell
state, step t using ``A[t % kept]`` and ``C[t % (kept + 1)]``. With
``keep_cache=True`` (training and gradients) ``kept = T`` and the cache
returns ``XH``, ``A``, ``C`` and ``Hs`` for :func:`backward_batch`; with
``keep_cache=False`` (every forward-only call) ``kept = 1`` and no cache is
returned.

One rule batches every model row. ``LstmModel.predict_proba`` and
``walk_tiles`` (which hands every tile to ``predict_proba``, or to
``LstmModel.input_gradient_batch``, one forward and one backward call) walk
their rows in row order, in the tiles of ``_tile_bounds``: every tile starts
at a multiple of ``TILE_ROWS`` (itself a multiple of 8) and holds
``TILE_ROWS`` rows but the last, which holds the rest, and a rest of fewer
than ``MIN_TILE_ROWS`` rows joins the tile before it. So no tile of a batch
that is cut is shorter than ``MIN_TILE_ROWS`` rows, and none is longer than
``TILE_ROWS + MIN_TILE_ROWS - 1``.

Output bits depend on the numpy/BLAS build, not on the layout of ``A``, on
the mode or, forward-only, on the batch a row is computed in: the tests
compare both passes bit for bit with a reference cell that keeps ``A`` as
(T, 4H, m) and concatenates each step's column block, tiled calls with the
whole batch in one call, and calls of 1 to 7 rows with the same rows in a
400-row batch. Every product of both passes runs over the m columns, so a
BLAS kernel that blocks its work by columns sees a multiple of 8 of them
whatever n is, and a column's bits do not depend on the others. The
weights are never padded: the backward pass multiplies da by [w_x, w_h]'
(dx_t and dh_{t-1} at once) with input gradients and by w_h' without, and
dU by w_att', as they are. One product is not column-invariant in the
builds tested: with OpenBLAS 0.3.31 at H = 128, [w_x, w_h]' da over 8
columns (a call of at most 8 rows) gives other bits than over more, which
``MIN_TILE_ROWS`` keeps out of every batch that is cut.

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
explainers hand the model no whole batch: through ``walk_tiles`` they build
one tile of their rows at a time in the same dict (coalition rows, gradient
path points and LIME rows) and run it, so the dict holds at most one tile of
model input and one of input gradients.

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
gradients). It reads the gates from ``A`` and writes the four gate
gradients of a step gate-major, as (4, H, m), into ``da``, the (4H, m)
block that the weights [w_x, w_h]' (or w_h') multiply into the contiguous
row blocks [dx_t; dh_{t-1}] (or dh_{t-1}); tanh(c_t) of every step is
computed before the loop, in an array that is dead by then. Without input
gradients step 0 computes no dh_{-1}, which nothing reads. The pad columns
of dz are zero, and so is every pad column's gradient.

With parameter gradients, the gate gradients da of step t go to block t
of a (T, 4H, m) array ``DA``. After the loop ``DA`` and ``XH`` are copied
feature-major, as (4H, T, m) and (d + H + 1, T + 1, m), and the gradient of
W = [w_x, w_h, b] is one product over their T m columns [x_t; h_{t-1}; 1].
Likewise that of [w_att, b_att] is one product over the columns [h_t; 1]
of the copy of ``XH``, and that of v_att one over the columns of ``S``.
Without parameter gradients ``DA`` keeps one step, as ``A`` keeps one
without a cache. A sum over all columns at once runs in another order than
a sum of per-step products, so the trained weights' last bits depend on
this order; the forward pass and the input gradients do not.
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

# The rows of one tile of LstmModel.predict_proba and walk_tiles. Both passes
# pad a call's batch to a multiple of 8 columns, so in the numpy/BLAS builds
# tested a row's bits do not depend on the call it runs in (but see
# MIN_TILE_ROWS), and tiles give every row the bits of one whole-batch call,
# whatever TILE_ROWS is (tests/test_model.py holds both passes to it). At
# T = 10, H = 16, d = 12 on one core, 1,600 rows forward and backward took
# ~15 ms per call in tiles of 384-512 rows, ~16 ms in tiles of 256-320 rows and
# ~17 ms untiled; 4,090 rows forward-only took ~37 ms in 400-row tiles against
# ~38.5 ms in 1,024-row tiles, in a quarter of the workspace (1.6 MB against
# 6.5 MB); both measured before the batch was padded.
TILE_ROWS = 400
# The fewest rows of the last tile of a batch that is cut; a shorter rest joins
# the tile before it. With OpenBLAS 0.3.31 at T = 10, d = 12, the last rows of a
# batch run in a call of their own after a 400-row tile kept the whole batch's
# bits forward-only at each of twelve H from 1 to 128 and every rest of 1 to
# 399 rows; with input gradients, rests of 1 to 8 rows lost them at H = 128,
# where [w_x, w_h]' da over 8 columns takes another kernel, and none of 9 rows
# or more did.
MIN_TILE_ROWS = 64


def _work_buffer(work: dict | None, key: str, shape: tuple[int, ...]) -> np.ndarray:
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
    """Row bounds of the tiles of an n-row batch: a tile starts at every
    multiple of ``TILE_ROWS`` that leaves at least ``MIN_TILE_ROWS`` rows
    after it, and the last tile takes the rest. So every tile but the last
    holds ``TILE_ROWS`` rows, and the last from ``MIN_TILE_ROWS`` (or the
    whole batch, when it is shorter) to ``TILE_ROWS + MIN_TILE_ROWS - 1``."""
    return [*range(0, max(1, n - MIN_TILE_ROWS + 1), TILE_ROWS), n]


def _largest_tile(bounds: list[int]) -> int:
    return max(hi - lo for lo, hi in zip(bounds, bounds[1:]))


def walk_tiles(model, n: int, row_shape: tuple[int, ...], fill, gradients: bool = False):
    """Run ``model`` on an n-row batch that is never built whole.

    The rows are walked in order, in the tiles of ``_tile_bounds(n)``. For
    each tile (lo, hi), ``fill(X, lo, hi)`` writes rows lo:hi of the batch
    into X, an uninitialised (hi - lo, *row_shape) array of the model's
    ``work`` dict (a new one for a model without it); then ``(lo, hi, out)``
    is yielded, where ``out`` is the model's ``predict_proba`` of X, or with
    ``gradients`` its ``input_gradient_batch``, valid until the next tile.
    Each tile is one call of either method, as neither cuts a tile again;
    ``model.reserve`` sizes the workspace of either for the largest tile
    before the first.
    """
    work = getattr(model, "work", None)
    call = model.input_gradient_batch if gradients else model.predict_proba
    bounds = _tile_bounds(n)
    if work is not None:
        largest = _largest_tile(bounds)
        _work_buffer(work, "rows", (largest, *row_shape))
        model.reserve(largest, row_shape[0], gradients)
    for lo, hi in zip(bounds, bounds[1:]):
        X = _work_buffer(work, "rows", (hi - lo, *row_shape))
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


def _columns(n: int) -> int:
    """The columns that n rows take in the arrays of both passes: n rounded
    up to a multiple of 8, so that no product's kernel depends on n mod 8."""
    return -(-n // 8) * 8


def _step_scratch(work: dict | None, m: int, T: int, d: int, H: int):
    """The step scratch of both passes on m columns of T steps of d inputs: a
    flat array whose first 4 H (d + H + 1) entries hold the weights W of the
    forward pass and the next H m its (H, m) product i g; or the weights
    [w_x, w_h] of the backward pass and then its eight (H, m) arrays. After
    the forward loop its first H T m entries hold the attention scores S,
    which the backward pass reads before it builds its weights."""
    return _work_buffer(work, "step", (max(4 * H * (d + H + 1) + H * m, H * T * m,
                                           4 * H * (d + H) + 8 * H * m),))


def _forward_arrays(work: dict | None, m: int, T: int, d: int, H: int, keep_cache: bool):
    """The step scratch, ``A`` (``kept`` steps of gates), ``C`` (``kept + 1``
    steps of cell state) and ``XH`` (T + 1 blocks [x_t; h_{t-1}; 1]) of
    ``forward_batch`` on m columns of T steps of d inputs, where ``kept`` is
    T with a cache and 1 without."""
    kept = T if keep_cache else 1
    return (_step_scratch(work, m, T, d, H),
            _work_buffer(work, "A", (kept, 4, H, m)),
            _work_buffer(work, "C", (kept + 1, H, m)),
            _work_buffer(work, "XH", (T + 1, d + H + 1, m)))


def _backward_arrays(work: dict | None, m: int, T: int, d: int, H: int,
                     input_grads: bool, param_grads: bool):
    """The arrays of ``backward_batch`` on m columns of T steps of d inputs:
    dz (m,), back (the product with [w_x, w_h] with ``input_grads``, else
    with w_h), dU (H, T, m), dH_ext (T, H, m), dG (4, H, m) and DA (the gate
    gradients of ``kept`` steps, (kept, 4H, m), step t in ``DA[t % kept]``),
    where ``kept`` is T with ``param_grads`` and 1 without; then, with
    ``param_grads``, the feature-major copies of ``XH`` and ``DA``,
    (d + H + 1, T + 1, m) and (4H, T, m), else None twice."""
    kept = T if param_grads else 1
    feature_major = ((_work_buffer(work, "XH_fm", (d + H + 1, T + 1, m)),
                      _work_buffer(work, "DA_fm", (4 * H, T, m)))
                     if param_grads else (None, None))
    return (_work_buffer(work, "dz", (m,)),
            _work_buffer(work, "back", (d + H if input_grads else H, m)),
            _work_buffer(work, "dU", (H, T, m)),
            _work_buffer(work, "dH_ext", (T, H, m)),
            _work_buffer(work, "dG", (4, H, m)),
            _work_buffer(work, "da", (kept, 4 * H, m)),
            *feature_major)


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
    m = _columns(n)

    step, A, C, XH = _forward_arrays(work, m, T, d, H, keep_cache)
    kept = A.shape[0]  # steps of gates kept
    W = step[: 4 * H * (d + H + 1)].reshape(4 * H, d + H + 1)
    ig = step[4 * H * (d + H + 1) : 4 * H * (d + H + 1) + H * m].reshape(H, m)
    # W = [w_x, w_h, b] with its i, f, o rows halved, so that those gates'
    # tanh gives sigmoid(z) = 1/2 + tanh(z / 2) / 2
    W[:, :d] = params.w_x
    W[:, d:-1] = params.w_h
    W[:, -1] = params.b
    W[: 3 * H] *= 0.5
    np.copyto(XH[:T, :d, :n], X.transpose(1, 2, 0))
    XH[:, :d, n:] = 0.0
    XH[0, d:-1] = 0.0  # h_{-1}
    XH[:, -1, :n] = 1.0
    XH[:, -1, n:] = 0.0  # so that the pad columns stay zero in every array
    Hs = XH[1:, d:-1]  # h_t, written by step t into block t + 1
    C[-1] = 0.0  # c_{-1}; every other step is written before it is read
    for t in range(T):
        a = A[t % kept]
        np.matmul(W, XH[t], a.reshape(4 * H, m))  # gate-major
        np.tanh(a, a)
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

    # additive attention over hidden states; S[:, t] holds step t's scores
    S = step[: H * T * m].reshape(H, T, m)
    np.matmul(params.w_att, Hs, S.transpose(1, 0, 2))
    S += params.b_att[:, None, None]
    np.tanh(S, S)
    # softmax over t, in place in the (T, m) product v_att S
    alpha = (params.v_att @ S.reshape(H, T * m)).reshape(T, m)
    alpha -= alpha.max(axis=0)
    np.exp(alpha, alpha)
    alpha /= alpha.sum(axis=0)
    ctx = np.einsum("tm,thm->hm", alpha, Hs)
    z = (params.w_out @ ctx)[:n] + params.b_out[0]
    p = _sigmoid(z)
    # A NaN in any h_t (o * tanh(c_t) is never infinite) reaches its row's p
    # through the attention, and so does an infinite attention score s_t .
    # v_att through the softmax, so the steps are scanned only when p has
    # one, and only in the real columns.
    if not np.isfinite(p).all():
        e = (params.v_att @ S.reshape(H, T * m)).reshape(T, m)[:, :n]
        finite = np.isfinite(Hs[:, :, :n]).all(axis=(1, 2)) & np.isfinite(e).all(axis=1)
        if not finite.all():
            raise ModelOverflowError(int(np.argmin(finite)))

    if not keep_cache:
        return p, alpha[:, :n].T, None
    cache = {
        "X": X, "XH": XH, "A": A, "C": C, "Hs": Hs, "S": S, "alpha": alpha, "ctx": ctx,
        "z": z, "p": p,
    }
    return p, alpha[:, :n].T, cache


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
    m = XH.shape[2]
    dzp, back, dU, dH_ext, dG, DA, XH_fm, DA_fm = _backward_arrays(
        work, m, T, d, H, out is not None, grads is not None)

    dz = np.asarray(dz, dtype=np.float64).reshape(n)
    dzp[:n] = dz
    dzp[n:] = 0.0  # so that every pad column's gradient is zero
    if grads is not None:
        grads["w_out"] += cache["ctx"] @ dzp
        grads["b_out"] += np.array([dz.sum()])
    dctx = params.w_out[:, None] * dzp[None, :]  # (H, m)

    # attention backward
    dalpha = np.einsum("hm,thm->tm", dctx, Hs)  # (T, m)
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=0))
    # dS, then dS * (1 - S**2); (H, T, m)
    np.multiply(de, params.v_att[:, None, None], out=dU)
    sq = dH_ext.reshape(H, T, m)  # 1 - S**2 is dead once dU has it, so dH_ext may overwrite it
    dU *= np.subtract(1.0, np.square(S, out=sq), out=sq)
    if grads is not None:
        grads["v_att"] += S.reshape(H, T * m) @ de.reshape(T * m)
        # [w_att, b_att] here and W = [w_x, w_h, b] after the loop: one
        # product each over the T m columns [h_t; 1] and [x_t; h_{t-1}; 1] of
        # XH, copied feature-major so that both are (k, T m) views
        np.copyto(XH_fm, XH.transpose(1, 0, 2))
        g_att = dU.reshape(H, T * m) @ XH_fm[d:, 1:].reshape(H + 1, T * m).T
        grads["w_att"] += g_att[:, :H]
        grads["b_att"] += g_att[:, H]
    np.matmul(params.w_att.T, dU.transpose(1, 0, 2), dH_ext)
    dH_ext += np.multiply(alpha[:, None, :], dctx, out=dU.reshape(T, H, m))
    tanh_C = np.tanh(C[:T], out=dU.reshape(T, H, m))  # tanh(c_t) of every step, in the dead dU

    # backprop through time; dG holds the gate gradients [i, f, o, g]
    # gate-major, and their last factors go straight into da = DA[t % kept]
    # (4H, m), which the weights [w_x, w_h]' (or w_h') multiply
    step = _step_scratch(work, m, T, d, H)  # S is dead once dU has it
    w_back = step[: 4 * H * (d + H)].reshape(4 * H, d + H)
    if out is not None:  # back = [w_x, w_h]' da = [dx_t; dh_{t-1}]
        w_back[:, :d] = params.w_x
        w_back[:, d:] = params.w_h
        dx, dh_next, out_steps = back[:d, :n].T, back[d:], out.transpose(1, 0, 2)
    else:  # back = w_h' da = dh_{t-1}
        w_back = params.w_h
        dh_next = back
    bptt = step[4 * H * (d + H) : 4 * H * (d + H) + 8 * H * m].reshape(8, H, m)
    dh, dc, dc_next = bptt[:3]
    factors = bptt[3:]  # 1 - i, 1 - f, 1 - o, then 1 - g**2 and 1 - tc**2
    ifo_1m, sq_1m, tc_1m = factors[:3], factors[3:], factors[4]
    kept = DA.shape[0]
    DA_gates = DA.reshape(kept, 4, H, m)
    dG_gi, dG_f, dG_o = dG[::3], dG[1], dG[2]  # dG_gi: the i and g rows
    w_back_t = w_back.T
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
            np.matmul(w_back_t, da, back)
            np.copyto(out_steps[t], dx)
        elif t:  # dh_{-1} is never read
            np.matmul(w_back_t, da, back)
        np.multiply(dc, f, dc_next)

    if grads is not None:  # W = [w_x, w_h, b]: one product over the T m columns [x_t; h_{t-1}; 1]
        np.copyto(DA_fm, DA.transpose(1, 0, 2))
        g_Wt = XH_fm[:, :T].reshape(d + H + 1, T * m) @ DA_fm.reshape(4 * H, T * m).T
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
        d, H, m = self.params.input_dim, self.params.hidden, _columns(n)
        _forward_arrays(self.work, m, T, d, H, gradients)
        if gradients:
            _backward_arrays(self.work, m, T, d, H, True, False)
            _work_buffer(self.work, "grad", (n, T, d))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probabilities for (n, T, d) input, computed
        forward-only tile by tile (see ``_tile_bounds``), in row order, in
        ``work``, which is sized for the largest tile before the first. A
        ModelOverflowError names the step of the first tile to overflow."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3:
            raise ValueError(f"expected (n, T, d) input, got shape {X.shape}")
        bounds = _tile_bounds(X.shape[0])
        self.reserve(_largest_tile(bounds), X.shape[1])
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
        out = _work_buffer(self.work, "grad", cache["X"].shape)
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
