import dataclasses
import json
import math
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lstm_reference
from stormlens import model
from stormlens.data import NormStats, SequenceSet
from stormlens.errors import InputError, ModelOverflowError
from stormlens.features import FEATURE_NAMES


def make_sequence_set(values, labels):
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
    return SequenceSet(
        values=values,
        labels=np.asarray(labels, dtype=np.int8),
        ar_ids=tuple(f"AR{i}" for i in range(n)),
        end_times=tuple(t0 + timedelta(hours=i) for i in range(n)),
    )


def separable_windows(n=200, T=5, d=12, seed=0):
    """Windows whose class is a clean ramp up or down in feature 0."""
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=0.05, size=(n, T, d))
    labels = np.zeros(n, dtype=np.int8)
    ramp = np.linspace(0.2, 1.0, T)
    for i in range(n):
        sign = 1.0 if i % 2 == 0 else -1.0
        values[i, :, 0] += sign * ramp
        labels[i] = 1 if sign > 0 else 0
    return make_sequence_set(values, labels)


class ScalarOracle:
    """Independently coded step-by-step recurrence (per-gate matrices,
    plain Python loops) used to cross-check the vectorized forward pass."""

    def __init__(self, H, d, rng):
        u = lambda *s: rng.uniform(-0.5, 0.5, size=s)
        self.H, self.d = H, d
        self.Wi, self.Wf, self.Wo, self.Wg = u(H, d), u(H, d), u(H, d), u(H, d)
        self.Ui, self.Uf, self.Uo, self.Ug = u(H, H), u(H, H), u(H, H), u(H, H)
        self.bi, self.bf, self.bo, self.bg = u(H), u(H), u(H), u(H)
        self.Wa, self.ba, self.va = u(H, H), u(H), u(H)
        self.wo, self.bo_ = u(H), float(u(1)[0])

    def probability(self, seq):
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        H = self.H
        h = [0.0] * H
        c = [0.0] * H
        hs = []
        for x in seq:
            def gate(W, U, b, act):
                return [
                    act(
                        b[r]
                        + sum(W[r][k] * x[k] for k in range(self.d))
                        + sum(U[r][k] * h[k] for k in range(H))
                    )
                    for r in range(H)
                ]

            gi = gate(self.Wi, self.Ui, self.bi, sig)
            gf = gate(self.Wf, self.Uf, self.bf, sig)
            go = gate(self.Wo, self.Uo, self.bo, sig)
            gg = gate(self.Wg, self.Ug, self.bg, math.tanh)
            c = [gf[r] * c[r] + gi[r] * gg[r] for r in range(H)]
            h = [go[r] * math.tanh(c[r]) for r in range(H)]
            hs.append(list(h))
        es = []
        for hvec in hs:
            s = [
                math.tanh(self.ba[r] + sum(self.Wa[r][k] * hvec[k] for k in range(H)))
                for r in range(H)
            ]
            es.append(sum(self.va[r] * s[r] for r in range(H)))
        mx = max(es)
        ws = [math.exp(e - mx) for e in es]
        alpha = [w / sum(ws) for w in ws]
        ctx = [sum(alpha[t] * hs[t][r] for t in range(len(seq))) for r in range(H)]
        z = self.bo_ + sum(self.wo[r] * ctx[r] for r in range(H))
        return sig(z), alpha

    def to_params(self):
        return model.LstmParams(
            w_x=np.vstack([self.Wi, self.Wf, self.Wo, self.Wg]),
            w_h=np.vstack([self.Ui, self.Uf, self.Uo, self.Ug]),
            b=np.concatenate([self.bi, self.bf, self.bo, self.bg]),
            w_att=self.Wa.copy(),
            b_att=self.ba.copy(),
            v_att=self.va.copy(),
            w_out=self.wo.copy(),
            b_out=np.array([self.bo_]),
        )


def predict_one(net, seq):
    """(probability, attention) of one (T, d) sequence."""
    seq = np.asarray(seq, dtype=np.float64)
    p, alpha, _ = model.forward_batch(net.params, seq[None], keep_cache=False)
    return float(p[0]), alpha[0]


class TestForward:
    def test_all_zero_parameters(self):
        params = model.LstmParams(
            w_x=np.zeros((8, 12)), w_h=np.zeros((8, 2)), b=np.zeros(8),
            w_att=np.zeros((2, 2)), b_att=np.zeros(2), v_att=np.zeros(2),
            w_out=np.zeros(2), b_out=np.zeros(1),
        )
        net = model.LstmModel(params)
        probability, attention = predict_one(net, np.ones((4, 12)))
        assert probability == 0.5
        assert np.allclose(attention, 0.25)

    def test_singleton_attention(self):
        net = model.LstmModel(model.init_params(12, 4, seed=1))
        _, attention = predict_one(net, np.random.default_rng(0).normal(size=(1, 12)))
        assert attention.shape == (1,)
        assert attention[0] == 1.0

    def test_against_scalar_recurrence_oracle(self):
        rng = np.random.default_rng(17)
        oracle = ScalarOracle(H=2, d=2, rng=rng)
        net = model.LstmModel(oracle.to_params())
        seq = rng.normal(size=(3, 2))
        want_p, want_alpha = oracle.probability(seq.tolist())
        probability, attention = predict_one(net, seq)
        assert probability == pytest.approx(want_p, abs=1e-12)
        assert np.allclose(attention, want_alpha, atol=1e-12)

    def test_attention_is_distribution(self):
        rng = np.random.default_rng(2)
        net = model.LstmModel(model.init_params(6, 5, seed=3))
        for _ in range(20):
            seq = rng.normal(size=(rng.integers(1, 8), 6))
            _, attention = predict_one(net, seq)
            assert np.all(attention >= 0)
            assert abs(attention.sum() - 1.0) < 1e-10

    def test_permuted_steps_keep_attention_normalized(self):
        rng = np.random.default_rng(4)
        net = model.LstmModel(model.init_params(6, 5, seed=5))
        seq = rng.normal(size=(6, 6))
        for _ in range(5):
            perm = rng.permutation(6)
            _, attention = predict_one(net, seq[perm])
            assert abs(attention.sum() - 1.0) < 1e-10

    def test_saturated_gates_raise_no_floating_point_error(self):
        # pre-activations of +-1e3 and more: tanh(z / 2) is exactly +-1, so i,
        # f and o are exactly 0 or 1, and nothing overflows in either pass
        rng = np.random.default_rng(0)
        n, T, d, H = 7, 5, 3, 4
        params = _random_params(d, H, rng, scale=0.5)
        params.w_x[:] = 1e3 * rng.choice([-1.0, 1.0], size=params.w_x.shape)
        X = rng.choice([-1.0, 1.0], size=(n, T, d))  # d odd: no sum of +-1e3 is 0
        with np.errstate(over="raise", invalid="raise"):
            p, _, cache = model.forward_batch(params, X)
            model.backward_batch(params, cache, p * (1.0 - p), grads=zero_grads(params),
                                 out=np.empty(X.shape))
        ifo = cache["A"][:, :3]
        assert np.isin(ifo, [0.0, 1.0]).all()
        assert (ifo == 0.0).any() and (ifo == 1.0).any()
        assert not np.signbit(ifo).any()

    def test_overflow_error_identifies_step(self):
        params = model.init_params(3, 2, seed=0)
        params.w_x[0, 0] = np.nan  # bypass LstmModel's finite check
        with pytest.raises(ModelOverflowError) as err:
            model.forward_batch(params, np.ones((1, 4, 3)))
        assert err.value.step == 0

    def test_overflow_error_identifies_later_step(self):
        # an infinite input weight saturates every gate while x = 1, and step 2,
        # where x = 0, computes 0 * inf; finite terms cannot make a NaN there,
        # as a BLAS product with fused multiply-adds keeps each term exact, and
        # a sum that overflowed stays inf
        params = model.init_params(1, 2, seed=0)
        params.w_x[:] = np.inf  # bypass LstmModel's finite check
        X = np.ones((2, 4, 1))
        X[:, 2, :] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ModelOverflowError) as err:
                model.forward_batch(params, X)
        assert err.value.step == 2



class TestInputGradient:
    def test_dead_output_path(self):
        params = model.init_params(12, 4, seed=7)
        params.w_out[:] = 0.0
        net = model.LstmModel(params)
        g = net.input_gradient_batch(np.random.default_rng(1).normal(size=(5, 12))[None])[0]
        assert np.all(g == 0.0)

    def test_finite_difference_oracle(self):
        h = 1e-5
        worst = 0.0
        for i in range(20):
            rng = np.random.default_rng(100 + i)
            net = model.LstmModel(model.init_params(12, 8, seed=i))
            seq = rng.normal(size=(5, 12))
            g = net.input_gradient_batch(seq[None])[0]
            T, d = seq.shape
            batch = np.repeat(seq[None], 2 * T * d, axis=0)
            k = 0
            for t in range(T):
                for j in range(d):
                    batch[k, t, j] += h
                    batch[k + 1, t, j] -= h
                    k += 2
            p = net.predict_proba(batch)
            fd = ((p[0::2] - p[1::2]) / (2 * h)).reshape(T, d)
            rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-6)
            worst = max(worst, rel.max())
        assert worst < 1e-4

    def test_duplicated_columns_with_tied_weights(self):
        params = model.init_params(12, 4, seed=9)
        params.w_x[:, 5] = params.w_x[:, 2]  # tie the two input columns
        net = model.LstmModel(params)
        seq = np.random.default_rng(3).normal(size=(6, 12))
        seq[:, 5] = seq[:, 2]
        g = net.input_gradient_batch(seq[None])[0]
        assert np.array_equal(g[:, 2], g[:, 5])


def _central_differences(loss, arr, h):
    """d loss / d arr by central differences, perturbing ``arr`` in place."""
    fd = np.empty_like(arr)
    for idx in np.ndindex(arr.shape):
        keep = arr[idx]
        arr[idx] = keep + h
        up = loss()
        arr[idx] = keep - h
        down = loss()
        arr[idx] = keep
        fd[idx] = (up - down) / (2 * h)
    return fd


def zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params.items()}


def same_bits(got, want):
    """Equal shapes and bits, so that +0 and -0 differ."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


class TestBackwardProperties:
    """backward_batch against central finite differences (criterion 5's
    h and bound) on random shapes, parameters and inputs."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 3), T=st.integers(1, 4), d=st.integers(1, 3),
        H=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, T=1, d=1, H=1, seed=0)
    @example(n=2, T=1, d=3, H=3, seed=1)
    @example(n=3, T=4, d=2, H=1, seed=2)
    def test_gradients_match_finite_differences(self, n, T, d, H, seed):
        rng = np.random.default_rng(seed)
        params = model.init_params(d, H, seed=0)
        for _, arr in params.items():
            arr[...] = rng.normal(scale=0.5, size=arr.shape)
        X = rng.normal(size=(n, T, d))

        def loss():  # mean probability over the batch
            return model.forward_batch(params, X)[0].mean()

        p, _, cache = model.forward_batch(params, X)
        grads, dX = model.backward_batch(
            params, cache, p * (1.0 - p) / n, grads=zero_grads(params), out=np.empty(X.shape)
        )
        for name, grad, arr in [("X", dX, X)] + [(k, grads[k], a) for k, a in params.items()]:
            fd = _central_differences(loss, arr, h=1e-5)
            rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
            assert rel.max() < 1e-4, name


class TestBitsAgainstReference:
    """The gate-major cell computes every output, cached intermediate and
    gradient with the same bits as the reference cell, whose gate array is
    (T, n, 4H)."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 40), T=st.integers(1, 5), d=st.integers(1, 4),
        H=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, T=1, d=1, H=1, seed=0)
    @example(n=13, T=3, d=2, H=1, seed=1)
    @example(n=9, T=1, d=3, H=5, seed=2)
    @example(n=1, T=4, d=12, H=16, seed=3)
    @example(n=37, T=10, d=12, H=16, seed=4)
    @example(n=64, T=1, d=12, H=16, seed=5)  # step 0 alone, at training batch size
    @example(n=400, T=10, d=12, H=16, seed=6)  # one whole tile
    def test_forward_and_backward_match_reference(self, n, T, d, H, seed):
        rng = np.random.default_rng(seed)
        params = model.init_params(d, H, seed=0)
        for _, arr in params.items():
            arr[...] = rng.normal(scale=1.5, size=arr.shape)
        X = rng.normal(scale=2.0, size=(n, T, d))
        dz = rng.normal(size=n)

        p, alpha, cache = model.forward_batch(params, X)
        want_p, want_alpha, want = lstm_reference.forward_batch(params, X)
        assert np.array_equal(p, want_p) and np.array_equal(alpha, want_alpha)
        assert same_bits(p, want_p) and same_bits(alpha, want_alpha)
        for key in ("C", "Hs", "S", "alpha", "ctx", "z", "p"):
            assert np.array_equal(cache[key], want[key]), key
            assert same_bits(cache[key], want[key]), key
        gates = cache["A"].transpose(0, 2, 1, 3).reshape(T, n, 4 * H)
        assert np.array_equal(gates, want["A"]) and same_bits(gates, want["A"])

        grads, dX = model.backward_batch(params, cache, dz, grads=zero_grads(params),
                                         out=np.empty(X.shape))
        want_grads, want_dX = lstm_reference.backward_batch(params, want, dz, True, True)
        assert np.array_equal(dX, want_dX) and same_bits(dX, want_dX)
        for name, grad in want_grads.items():
            assert np.array_equal(grads[name], grad), name
            assert same_bits(grads[name], grad), name

    def test_closed_input_gate_keeps_the_sign_of_the_cell_state(self):
        # i = 1/2 + tanh(-400) / 2 is exactly +0 and g < 0, so i * g is -0,
        # and c_0 = f * c_{-1} + i * g is +0 only because f * c_{-1} is added
        params = model.init_params(1, 1, seed=0)
        params.w_x[:, 0] = [-800.0, 0.5, 0.5, -1.0]
        params.b[:] = 0.0
        X = np.ones((1, 2, 1))
        _, _, cache = model.forward_batch(params, X)
        _, _, want = lstm_reference.forward_batch(params, X)
        assert np.signbit(want["C"][:2]).sum() == 0
        for key in ("C", "Hs", "S", "alpha", "ctx", "z", "p"):
            assert same_bits(cache[key], want[key]), key


def _textbook_cell(params, X):
    """p and dp/dX of the model, with separate input and recurrent products
    and sigmoid(z) = 1 / (1 + exp(-z)) in each gate, written apart from
    lstm_reference."""
    n, T, _ = X.shape
    H = params.hidden

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    h, c = np.zeros((n, H)), np.zeros((n, H))
    gates, cells, hs = [], [c], []
    for t in range(T):
        a = X[:, t] @ params.w_x.T + h @ params.w_h.T + params.b
        i, f, o = (sigmoid(a[:, k * H : (k + 1) * H]) for k in range(3))
        g = np.tanh(a[:, 3 * H :])
        c = f * c + i * g
        h = o * np.tanh(c)
        gates.append((i, f, o, g))
        cells.append(c)
        hs.append(h)
    Hs = np.stack(hs)  # (T, n, H)
    S = np.tanh(Hs @ params.w_att.T + params.b_att)
    e = (S @ params.v_att).T  # (n, T)
    alpha = np.exp(e - e.max(axis=1, keepdims=True))
    alpha /= alpha.sum(axis=1, keepdims=True)
    ctx = np.einsum("nt,tnh->nh", alpha, Hs)
    p = sigmoid(ctx @ params.w_out + params.b_out[0])

    dctx = (p * (1.0 - p))[:, None] * params.w_out
    dalpha = np.einsum("nh,tnh->nt", dctx, Hs)
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    dHs = (de.T[:, :, None] * params.v_att * (1.0 - S**2)) @ params.w_att
    dHs += alpha.T[:, :, None] * dctx
    dX = np.empty(X.shape)
    dh, dc = np.zeros((n, H)), np.zeros((n, H))
    for t in range(T - 1, -1, -1):
        i, f, o, g = gates[t]
        tc = np.tanh(cells[t + 1])
        dh = dh + dHs[t]
        dc = dc + dh * o * (1.0 - tc**2)
        da = np.concatenate([dc * g * i * (1.0 - i), dc * cells[t] * f * (1.0 - f),
                             dh * tc * o * (1.0 - o), dc * i * (1.0 - g**2)], axis=1)
        dX[:, t] = da @ params.w_x
        dh, dc = da @ params.w_h, dc * f
    return p, dX


class TestTextbookCell:
    """The model agrees with the cell written out as the textbook has it, to
    rounding: a slip in the algebra of sigmoid(z) = 1/2 + tanh(z / 2) / 2 or
    of the concatenated products, made alike in the model and in
    lstm_reference, would fail here."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6), T=st.integers(1, 6), d=st.integers(1, 5),
        H=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, T=10, d=12, H=16, seed=0)
    def test_probabilities_and_input_gradients_agree(self, n, T, d, H, seed):
        rng = np.random.default_rng(seed)
        params = _random_params(d, H, rng, scale=1.0)
        X = rng.normal(size=(n, T, d))
        want_p, want_dX = _textbook_cell(params, X)
        net = model.LstmModel(params)
        assert np.abs(net.predict_proba(X) - want_p).max() <= 1e-12
        assert np.abs(net.input_gradient_batch(X) - want_dX).max() <= 1e-12


class TestBackwardOutputs:
    """Parameter gradients keep the gate gradients of every step, input
    gradients alone those of one; a call that asks for both gives the bits
    of the two calls that ask for one each."""

    # H a multiple of 8: the input-gradient pass then multiplies w_att
    # unpadded, as training does, and in these shapes its padded da [w_x, w_h]
    # gives dh_{t-1} the bits of training's da w_h, so both calls have the same da
    @pytest.mark.parametrize("n, T, d, H, seed", [
        (1, 1, 1, 8, 0), (13, 4, 3, 8, 1), (64, 10, 12, 16, 2), (400, 10, 12, 16, 3)])
    def test_both_outputs_match_the_calls_with_one(self, n, T, d, H, seed):
        rng = np.random.default_rng(seed)
        params = _random_params(d, H, rng, scale=1.5)
        X = rng.normal(size=(n, T, d))
        dz = rng.normal(size=n)
        cache = model.forward_batch(params, X)[2]
        work = {}  # shared: the input-only call sizes DA for one step, the next for T
        _, want_dX = model.backward_batch(params, cache, dz, work=work, out=np.empty(X.shape))
        want_dX = want_dX.copy()
        grads, dX = model.backward_batch(params, cache, dz, work=work, grads=zero_grads(params),
                                         out=np.empty(X.shape))
        want_grads, _ = model.backward_batch(params, cache, dz, work=work,
                                             grads=zero_grads(params))
        assert same_bits(dX, want_dX)
        for name, grad in want_grads.items():
            assert same_bits(grads[name], grad), name

    def test_one_step_gives_w_h_an_exactly_zero_gradient(self):
        # h_{-1} is zero, so w_h takes no term; the other weights do
        rng = np.random.default_rng(0)
        params = _random_params(3, 4, rng, scale=1.5)
        X = rng.normal(size=(5, 1, 3))
        cache = model.forward_batch(params, X)[2]
        grads, _ = model.backward_batch(params, cache, rng.normal(size=5),
                                        grads=zero_grads(params))
        assert same_bits(grads["w_h"], np.zeros_like(params.w_h))
        # c_{-1} is zero too, so of w_x and b only the forget gate's rows are
        for name in ("w_x", "b"):
            forget = grads[name][4:8]
            assert not forget.any() and np.count_nonzero(grads[name]) == 3 * forget.size, name


class TestParamsUnchanged:
    """Both passes read the parameters and never write them: the forward
    pass's W with its halved gate rows and the backward pass's padded
    weights are copies."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 40), T=st.integers(1, 5), d=st.integers(1, 12),
        H=st.integers(1, 9), seed=st.integers(0, 2**32 - 1), input_grads=st.booleans(),
    )
    @example(n=64, T=10, d=12, H=16, seed=0, input_grads=False)
    @example(n=64, T=10, d=12, H=16, seed=0, input_grads=True)
    def test_calls_leave_every_parameter_bit_identical(self, n, T, d, H, seed, input_grads):
        rng = np.random.default_rng(seed)
        params = _random_params(d, H, rng, scale=1.5)
        before = {name: arr.copy() for name, arr in params.items()}
        X = rng.normal(size=(n, T, d))
        work = {}

        def unchanged(call):  # checked after each call: a later one could undo a write
            for name, arr in params.items():
                assert same_bits(arr, before[name]), (call, name)

        model.forward_batch(params, X, keep_cache=False, work=work)
        unchanged("forward-only")
        p, _, cache = model.forward_batch(params, X, work=work)
        unchanged("forward")
        if input_grads:  # as LstmModel.input_gradient_batch calls it
            model.backward_batch(params, cache, p * (1.0 - p), work=work,
                                 out=np.empty(X.shape))
        else:  # as train calls it
            model.backward_batch(params, cache, rng.normal(size=n), work=work,
                                 grads=zero_grads(params))
        unchanged("backward")


def _random_params(d, H, rng, scale):
    params = model.init_params(d, H, seed=0)
    for _, arr in params.items():
        arr[...] = rng.normal(scale=scale, size=arr.shape)
    return params


class TestForwardOnlyTiles:
    """predict_proba cuts a batch into forward-only tiles; every row keeps
    the bits of the reference cell run on the whole batch at once."""

    TILE, MIN = model.TILE_ROWS, model.MIN_TILE_ROWS
    # either side of one and two tiles, rests either side of MIN_TILE_ROWS =
    # 64, then row counts around powers of two
    SIZES = [TILE - 1, TILE, TILE + 1, 2 * TILE - 1, 2 * TILE + 1, 2 * TILE + 7,
             TILE + 37, TILE + 63, TILE + 64, 2 * TILE + 64,
             1023, 1024, 1025, 2047, 2049, 2055, 4090, 4097, 5000]

    def test_tile_rows_keep_row_offsets_mod_8(self):
        assert self.TILE % 8 == 0

    @pytest.mark.parametrize("n", SIZES)
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(T=st.integers(1, 10), d=st.integers(1, 12), H=st.integers(1, 32),
           seed=st.integers(0, 2**32 - 1))
    @example(T=10, d=12, H=16, seed=1)
    @example(T=3, d=5, H=32, seed=2)
    @example(T=10, d=12, H=32, seed=3)  # where a rest of up to 37 rows lost bits
    def test_bits_match_whole_batch_reference(self, n, T, d, H, seed):
        rng = np.random.default_rng(seed)
        params = _random_params(d, H, rng, scale=1.0)
        X = rng.normal(scale=2.0, size=(n, T, d))
        want_p, want_alpha, _ = lstm_reference.forward_batch(params, X)

        assert np.array_equal(model.LstmModel(params).predict_proba(X), want_p)
        p, alpha, cache = model.forward_batch(params, X, keep_cache=False)
        assert cache is None
        assert np.array_equal(p, want_p) and np.array_equal(alpha, want_alpha)

    @pytest.mark.parametrize("n, bounds", [
        (0, [0, 0]), (1, [0, 1]), (1024, [0, 400, 800, 1024]),
        (2047, [0, 400, 800, 1200, 1600, 2047]), (2048, [0, 400, 800, 1200, 1600, 2048]),
        (3077, [0, 400, 800, 1200, 1600, 2000, 2400, 2800, 3077]),
        (400, [0, 400]), (799, [0, 400, 799]), (800, [0, 400, 800]),
        (399, [0, 399]), (401, [0, 401]), (463, [0, 463]), (464, [0, 400, 464]),
    ])
    def test_no_tile_shorter_than_tile_rows(self, n, bounds):
        # tiles of TILE_ROWS, and a rest shorter than MIN_TILE_ROWS joins the last
        assert (self.TILE, self.MIN) == (400, 64)  # the bounds above are written out for them
        assert model._tile_bounds(n) == bounds

    def test_tile_rows_lie_between_min_and_max(self):
        for n in range(3 * self.TILE):
            bounds = model._tile_bounds(n)
            rows = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == n and np.all(np.array(bounds[:-1]) % 8 == 0)
            assert rows.max() <= self.TILE + self.MIN - 1, n
            assert rows.size == 1 or rows.min() >= self.MIN, n

    def test_peak_memory_below_half_of_full_forward(self):
        params = model.init_params(12, 16, seed=0)
        X = np.random.default_rng(0).normal(size=(5000, 10, 12))

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        tiled = peak(lambda: model.LstmModel(params).predict_proba(X))
        full = peak(lambda: model.forward_batch(params, X))
        assert tiled < full / 2


class TestSharedWorkspace:
    """Forward-only tiles run in the model's workspace, which is sized for
    the largest tile run in it; gradient calls reuse the same arrays."""

    @pytest.mark.parametrize("shape", [(), (5,), (900, 3), (1, 2, 3, 4)])
    def test_input_other_than_n_t_d_rejected(self, shape):
        net = model.LstmModel(model.init_params(3, 2, seed=0))
        for call in (net.predict_proba, net.input_gradient_batch):
            with pytest.raises(ValueError) as exc:
                call(np.zeros(shape))
            assert str(exc.value) == f"expected (n, T, d) input, got shape {shape}"

    @pytest.mark.parametrize("T, d, H", [(10, 12, 16), (3, 5, 32)])
    def test_alternating_calls_match_a_fresh_model(self, T, d, H):
        rng = np.random.default_rng(T)
        params = _random_params(d, H, rng, scale=0.5)
        net = model.LstmModel(params)
        for n in (5000, 7, 2047, 1):
            X = rng.normal(size=(n, T, d))
            want = model.LstmModel(params).predict_proba(X)
            assert np.array_equal(net.predict_proba(X), want), n
            G = rng.normal(size=(1600, T, d))
            want = model.LstmModel(params).input_gradient_batch(G)
            assert np.array_equal(net.input_gradient_batch(G), want), n

    def test_repeated_call_allocates_less_than_one_tile_of_hidden_states(self):
        T, d, H = 10, 12, 16
        net = model.LstmModel(model.init_params(d, H, seed=0))
        X = np.random.default_rng(0).normal(size=(4096, T, d))
        net.predict_proba(X)
        tracemalloc.start()
        try:
            net.predict_proba(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (T + 1) * model.TILE_ROWS * H * 8  # bytes of one tile's Hs

    @staticmethod
    def _traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [5000, 850])  # the largest tile is the first and the last
    def test_cold_walk_allocates_its_workspace_once(self, n):
        # beyond the workspace, a cold call peaks where a warm one does: the
        # arrays are sized for the largest tile before the first
        T, d, H = 10, 12, 16
        params = model.init_params(d, H, seed=0)
        X = np.random.default_rng(0).normal(size=(n, T, d))

        def fill(rows, lo, hi):
            rows[:] = X[lo:hi]

        calls = {
            "predict_proba": lambda net: net.predict_proba(X),
            "walk_tiles": lambda net: list(model.walk_tiles(net, n, (T, d), fill)),
        }
        for name, call in calls.items():
            net = model.LstmModel(params)
            cold = self._traced_peak(lambda: call(net))
            work = sum(arr.nbytes for arr in net.work.values())
            warm = self._traced_peak(lambda: call(net))
            assert cold - work <= warm + 4096, name


class TestGradientWorkspace:
    """input_gradient_batch reuses its arrays between calls; no call may
    read what an earlier one left in them."""

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(T=st.integers(1, 10), d=st.integers(1, 12), H=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1))
    @example(T=10, d=12, H=16, seed=0)
    def test_each_call_matches_a_fresh_model(self, T, d, H, seed):
        rng = np.random.default_rng(seed)
        params = _random_params(d, H, rng, scale=0.5)
        net = model.LstmModel(params)
        for n in (1600, 7, 1600, 1, 4100):
            X = rng.normal(size=(n, T, d))
            want = model.LstmModel(params).input_gradient_batch(X)
            assert np.array_equal(net.input_gradient_batch(X), want), n


class TestGradientTiles:
    """walk_tiles is the one gradient tiler: it runs input_gradient_batch on
    the tiles of _tile_bounds, and every row keeps the bits of one
    input_gradient_batch call on the whole batch."""

    TILE, MIN = model.TILE_ROWS, model.MIN_TILE_ROWS
    SIZES = [TILE - 1, TILE, TILE + 1, 2 * TILE + 7, TILE + 37, TILE + 63, TILE + 64,
             2 * TILE + 64, 1600, 4100]

    def test_tile_rows_keep_row_offsets_mod_8(self):
        assert self.TILE % 8 == 0 and 256 <= self.TILE <= 512

    @staticmethod
    def _untiled(params, X):
        return model.LstmModel(params).input_gradient_batch(X)

    @classmethod
    def _walked(cls, net, X):
        """X's input gradients from gradient walk_tiles, whose tiles start at
        multiples of TILE_ROWS and hold fewer than TILE_ROWS + MIN_TILE_ROWS
        rows."""
        got = np.empty(X.shape)

        def fill(rows, lo, hi):
            rows[:] = X[lo:hi]

        bounds = [0]
        for lo, hi, grads in model.walk_tiles(net, X.shape[0], X.shape[1:], fill,
                                              gradients=True):
            assert lo == bounds[-1] and lo % cls.TILE == 0 and hi - lo < cls.TILE + cls.MIN
            bounds.append(hi)
            got[lo:hi] = grads
        assert bounds[-1] == X.shape[0]
        return got

    @pytest.mark.parametrize("n", SIZES)
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(T=st.integers(1, 10), d=st.integers(1, 12), H=st.integers(1, 32),
           seed=st.integers(0, 2**32 - 1))
    @example(T=10, d=12, H=16, seed=1)
    @example(T=5, d=7, H=9, seed=2)
    @example(T=3, d=12, H=27, seed=3)
    @example(T=10, d=12, H=32, seed=4)  # where a rest of up to 37 rows lost bits
    def test_bits_match_one_untiled_call(self, n, T, d, H, seed):
        rng = np.random.default_rng(seed)
        params = _random_params(d, H, rng, scale=1.0)
        X = rng.normal(scale=2.0, size=(n, T, d))
        got = self._walked(model.LstmModel(params), X)
        assert np.array_equal(got, self._untiled(params, X))

    @pytest.mark.parametrize("T, d, H", [(10, 12, 16), (1, 1, 1), (4, 5, 11)])
    def test_one_row_batch_matches_one_untiled_call(self, T, d, H):
        rng = np.random.default_rng(H)
        params = _random_params(d, H, rng, scale=1.0)
        X = rng.normal(size=(1, T, d))
        got = self._walked(model.LstmModel(params), X)
        assert np.array_equal(got, self._untiled(params, X))

    def test_repeated_call_allocates_less_than_one_untiled_gate_array(self):
        T, d, H, n = 10, 12, 16, 1600
        untiled_A = T * 4 * n * H * 8  # bytes
        net = model.LstmModel(model.init_params(d, H, seed=0))
        X = np.random.default_rng(0).normal(size=(n, T, d))

        def fill(rows, lo, hi):
            rows[:] = X[lo:hi]

        def walk():
            for _ in model.walk_tiles(net, n, (T, d), fill, gradients=True):
                pass

        walk()
        tracemalloc.start()
        try:
            walk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < untiled_A
        assert max(arr.nbytes for arr in net.work.values()) < untiled_A

    def test_cold_walk_sizes_its_workspace_once(self):
        # tiles of 400, 400 and 450 rows: the forward-with-cache, backward and
        # result arrays are sized for the largest, the last, before the first
        T, d, H, n = 10, 12, 16, 1250
        net = model.LstmModel(model.init_params(d, H, seed=0))
        X = np.random.default_rng(0).normal(size=(n, T, d))

        def fill(rows, lo, hi):
            rows[:] = X[lo:hi]

        tracemalloc.start()
        try:
            for _ in model.walk_tiles(net, n, (T, d), fill, gradients=True):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        work = sum(arr.nbytes for arr in net.work.values())
        assert peak - work < 0.5 * 2**20


class TestSigmoid:
    SPECIAL = [0.0, 5e-324, 1e-300, 36.0, 709.8, 745.0, 1e308, np.inf]

    def test_bits_match_closed_form(self):
        rng = np.random.default_rng(6)
        z = np.concatenate([
            self.SPECIAL, np.negative(self.SPECIAL), [np.nan],
            rng.normal(scale=20.0, size=500), rng.uniform(-1e-3, 1e-3, size=100),
        ])
        with np.errstate(over="ignore"):  # exp(-z) overflows below z = -709.78
            want = 1.0 / (1.0 + np.exp(-z))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model._sigmoid(z)
            in_place = z.copy()
            assert model._sigmoid(in_place, out=in_place) is in_place
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(in_place.view(np.uint64), want.view(np.uint64))
        # 709.8 and beyond: exp(-z) is below half an ulp of 1, or overflows
        k = len(self.SPECIAL)
        assert got[4:k].tolist() == [1.0] * 4 and got[k + 4 : 2 * k].tolist() == [0.0] * 4


class TestTrain:
    def test_separable_windows_reach_low_loss(self):
        train_set = separable_windows()
        cfg = model.TrainConfig(hidden=8, epochs=30, batch=32, learning_rate=3e-3, seed=0)
        _, history = model.train(train_set, cfg)
        assert history[-1] < 0.3

    def test_zero_epochs_returns_initialization(self):
        train_set = separable_windows(n=20)
        cfg = model.TrainConfig(hidden=4, epochs=0, seed=11)
        net, history = model.train(train_set, cfg)
        init = model.init_params(12, 4, seed=11)
        assert history == []
        for (_, a), (_, b) in zip(net.params.items(), init.items()):
            assert np.array_equal(a, b)

    def test_same_seed_bit_identical(self):
        train_set = separable_windows(n=40)
        cfg = model.TrainConfig(hidden=4, epochs=3, batch=16, seed=5)
        net1, h1 = model.train(train_set, cfg)
        net2, h2 = model.train(train_set, cfg)
        assert h1 == h2
        for (_, a), (_, b) in zip(net1.params.items(), net2.params.items()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, batch, T", [(40, 16, 4), (37, 64, 3), (203, 64, 10)])
    def test_matches_per_parameter_adam_reference(self, n, batch, T):
        # 40 = 2 x 16 + 8 and 203 = 3 x 64 + 11 end each epoch with a short batch
        train_set = separable_windows(n=n, T=T, seed=n)
        cfg = model.TrainConfig(hidden=5, epochs=3, batch=batch, learning_rate=1e-2, seed=3)
        net, history = model.train(train_set, cfg)
        want_params, want_history = lstm_reference.train(train_set, cfg)
        assert history == want_history
        for (name, got), (_, want) in zip(net.params.items(), want_params.items()):
            assert np.array_equal(got, want), name

    def test_overflow_after_an_update_names_the_divergence(self):
        # the first update leaves the weights finite but near 6e307, so the
        # next forward pass's attention scores overflow, from step 1 on, before
        # any parameter check can fail
        train_set = separable_windows(n=40)
        train_set.values *= 4.0
        cfg = model.TrainConfig(hidden=8, epochs=3, batch=32, learning_rate=6e307, seed=0)
        with pytest.raises(ModelOverflowError) as err:
            model.train(train_set, cfg)
        assert str(err.value) == ("non-finite activation at time step 1 after the update "
                                  "of epoch 1, batch 1: training diverged")

    def test_single_class_rejected(self):
        values = np.zeros((10, 3, 12))
        train_set = make_sequence_set(values, np.ones(10))
        with pytest.raises(InputError, match="single class"):
            model.train(train_set, model.TrainConfig(epochs=1))


class _FixedOutput:
    def __init__(self, outputs):
        self.outputs = np.asarray(outputs, dtype=np.float64)

    def predict_proba(self, X):
        return self.outputs


class TestEvaluate:
    def test_perfect_predictions(self):
        labels = [1, 0, 1, 0, 1]
        test_set = make_sequence_set(np.zeros((5, 2, 12)), labels)
        result = model.evaluate(_FixedOutput([0.9, 0.1, 0.8, 0.2, 0.7]), test_set)
        assert result.tss == 1.0 and not result.degenerate

    def test_all_positive_predictions(self):
        labels = [1, 0, 1, 0]
        test_set = make_sequence_set(np.zeros((4, 2, 12)), labels)
        result = model.evaluate(_FixedOutput([0.9, 0.9, 0.9, 0.9]), test_set)
        assert result.tss == 0.0

    def test_arithmetic_from_definition(self):
        result = model.Evaluation(tp=40, fn=10, fp=20, tn=30)
        assert result.tss == pytest.approx(0.8 - 0.4, abs=1e-15)
        assert not result.degenerate

    def test_degenerate_class_flagged(self):
        result = model.Evaluation(tp=0, fn=0, fp=1, tn=1)
        assert result.degenerate and result.tss == -0.5

    def test_swap_invariance_on_symmetric_counts(self):
        # swapping the P/N roles together with threshold complementation
        # maps tp<->tn and fp<->fn; TSS is invariant on symmetric counts
        sym = model.Evaluation(tp=30, fp=10, tn=30, fn=10)
        swapped = model.Evaluation(tp=sym.tn, fp=sym.fn, tn=sym.tp, fn=sym.fp)
        assert sym.tss == swapped.tss

    def test_swap_invariance_is_an_identity(self):
        # sens' = 1 - far and far' = 1 - sens, so the invariance actually
        # holds for every count table, not just symmetric ones
        rng = np.random.default_rng(8)
        for _ in range(20):
            tp, fp, tn, fn = (int(v) for v in rng.integers(1, 50, size=4))
            a = model.Evaluation(tp=tp, fp=fp, tn=tn, fn=fn).tss
            b = model.Evaluation(tp=tn, fp=fn, tn=tp, fn=fp).tss
            assert a == pytest.approx(b, abs=1e-12)

    def test_to_dict_is_the_metrics_block(self):
        result = model.Evaluation(tp=3, fp=1, tn=2, fn=0)
        assert result.to_dict() == {
            "confusion": {"tp": 3, "fp": 1, "tn": 2, "fn": 0},
            "tss": 1.0 - 1.0 / 3.0,
            "degenerate": False,
        }


def explicit_init_params(d, H, seed):
    """init_params written out field by field: uniform draws for w_x, w_h,
    w_att, v_att and w_out in that order, zero biases, forget bias +1."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    lim = 1.0 / np.sqrt(H)

    def u(*shape):
        return rng.uniform(-lim, lim, size=shape)

    b = np.zeros(4 * H)
    b[H : 2 * H] = 1.0
    return model.LstmParams(
        w_x=u(4 * H, d), w_h=u(4 * H, H), b=b, w_att=u(H, H), b_att=np.zeros(H),
        v_att=u(H), w_out=u(H), b_out=np.zeros(1),
    )


class TestParamTable:
    @pytest.mark.parametrize("d,H,seed", [(12, 16, 42), (3, 1, 0), (12, 32, 7), (1, 5, 3)])
    def test_init_params_matches_explicit_construction(self, d, H, seed):
        got = model.init_params(d, H, seed)
        want = explicit_init_params(d, H, seed)
        for name, shape in model._param_shapes(d, H).items():
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape == shape, name
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name

    def test_items_and_fields_follow_the_table(self):
        params = model.init_params(4, 3, seed=0)
        table = list(model._param_shapes(4, 3))
        assert [name for name, _ in params.items()] == table
        assert [f.name for f in dataclasses.fields(model.LstmParams)] == table


def full_record() -> model.TrainingRecord:
    rng = np.random.default_rng(4)
    stats = NormStats(mean=rng.normal(size=12), std=rng.uniform(0.5, 2.0, size=12),
                      constant=np.arange(12) % 5 == 0)
    return model.TrainingRecord(window_length=10, train_fraction=0.8, split_seed=42,
                                norm_stats=stats, feature_names=FEATURE_NAMES, untrained=True)


def assert_same_record(got: model.TrainingRecord, want: model.TrainingRecord) -> None:
    """Equal fields of equal types, the norm stats array by array."""
    fields = [f.name for f in dataclasses.fields(model.TrainingRecord)]
    assert [type(getattr(got, f)) for f in fields] == [type(getattr(want, f)) for f in fields]
    assert dataclasses.replace(got, norm_stats=None) == dataclasses.replace(want, norm_stats=None)
    if want.norm_stats is not None:
        for name in ("mean", "std", "constant"):
            a, b = getattr(got.norm_stats, name), getattr(want.norm_stats, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestCheckpoint:
    def test_round_trip_reproduces_predictions_bit_identically(self, tmp_path):
        net = model.LstmModel(model.init_params(12, 6, seed=21))
        path = tmp_path / "model.json"
        model.save_checkpoint(path, net, full_record())
        loaded, record = model.load_checkpoint(path)
        assert_same_record(record, full_record())
        X = np.random.default_rng(2).normal(size=(7, 4, 12))
        assert np.array_equal(net.predict_proba(X), loaded.predict_proba(X))

    def test_every_field_is_required_and_other_keys_ignored(self, tmp_path):
        net = model.LstmModel(model.init_params(12, 2, seed=0))
        path = tmp_path / "model.json"
        model.save_checkpoint(path, net, full_record())
        doc = json.loads(path.read_text(encoding="utf-8"))
        fields = [f.name for f in dataclasses.fields(model.TrainingRecord)]
        assert sorted(doc["extra"]) == sorted(fields)
        doc["extra"]["note"] = 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert_same_record(model.load_checkpoint(path)[1], full_record())
        for name in fields:
            edited = {**doc, "extra": {k: v for k, v in doc["extra"].items() if k != name}}
            path.write_text(json.dumps(edited), encoding="utf-8")
            with pytest.raises(InputError, match=rf"field 'extra\.{name}' is missing$"):
                model.load_checkpoint(path)
        del doc["extra"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InputError, match=r"field 'extra\.window_length' is missing$"):
            model.load_checkpoint(path)

    def test_extra_horizon_hours_is_ignored(self, tmp_path):
        # checkpoints written while horizon_hours was a setting still hold it
        net = model.LstmModel(model.init_params(12, 2, seed=0))
        path = tmp_path / "model.json"
        model.save_checkpoint(path, net, full_record())
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["extra"]["horizon_hours"] = 24
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded, record = model.load_checkpoint(path)
        assert_same_record(record, full_record())
        X = np.random.default_rng(2).normal(size=(3, 4, 12))
        assert np.array_equal(net.predict_proba(X), loaded.predict_proba(X))

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema": "nope"}', encoding="utf-8")
        with pytest.raises(InputError, match="schema"):
            model.load_checkpoint(path)
