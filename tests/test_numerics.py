import math
import mmap
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handsat import numerics as nm
from handsat.errors import ContractError


def rand_param(shape, rng, scale=0.5):
    return nm.parameter(rng.standard_normal(shape) * scale)


def test_backward_shared_subexpression_exact_and_frees_intermediates():
    """s = x * y is an operand at three depths, twice of one add:
    out = sum((s + s) * s + s), so d out / d s = 4s + 1. Every value is
    exact in binary, so every summation order gives the same bits."""
    x = nm.parameter([1.0, -2.0, 3.0])
    y = nm.parameter([0.5, 4.0, -1.0])
    s = nm.mul(x, y)
    doubled = nm.add(s, s)
    product = nm.mul(doubled, s)
    total = nm.add(product, s)
    out = nm.sum_all(total)
    out.backward()
    ds = 4.0 * s.data + 1.0
    assert np.array_equal(x.grad, ds * y.data)
    assert np.array_equal(y.grad, ds * x.data)
    assert all(t.grad is None for t in (s, doubled, product, total, out))


def test_sum_squares_is_one_node_whatever_the_order():
    # 1e16 + 1 + 1 left to right is 1e16; the exact sum is 1e16 + 2
    blocks = [nm.parameter(np.array([1e8])), nm.parameter(np.ones(1)),
              nm.parameter(np.ones((1, 1)))]
    total = nm.sum_squares(blocks)
    assert total._parents == tuple(blocks)  # one node over the blocks
    assert total.item() == nm.sum_squares(blocks[::-1]).item() == 1e16 + 2
    rng = np.random.default_rng(8)
    blocks = [rand_param(shape, rng) for shape in ((3, 4), (5,))]
    report = nm.grad_check(lambda: nm.sum_squares(blocks),
                           {str(i): b for i, b in enumerate(blocks)},
                           samples_per_block=4)
    assert report.passed, report.to_json()


def test_backward_frees_the_tape_and_refuses_a_second_pass():
    x = nm.parameter([1.0, 2.0])
    y = nm.mul(x, x)
    out = nm.sum_all(y)
    out.backward()
    assert y._parents == () and out._parents == ()
    with pytest.raises(ContractError, match="already used"):
        nm.sum_all(nm.scale(y, 2.0)).backward()


def test_exact_sum_ignores_order_and_zero_padding():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-8, 8, (5, 7))
    padded = np.zeros((5, 20))
    padded[:, :7] = rows
    total = nm.exact_sum(nm.constant(rows)).data
    assert total.shape == ()
    assert total.tobytes() == nm.exact_sum(nm.constant(padded)).data.tobytes()
    assert total.tobytes() == nm.exact_sum(nm.constant(rows[:, ::-1])).data.tobytes()
    assert total.tobytes() == nm.exact_sum(
        *(nm.constant(r) for r in rows[::-1])).data.tobytes()
    assert float(total) == math.fsum(rows.ravel())
    a, b = rand_param((3, 4), rng), rand_param((2,), rng)
    report = nm.grad_check(
        lambda: nm.exact_sum(nm.square(nm.exact_sum(a, b)), a), {"a": a, "b": b})
    assert report.passed, report.to_json()


# ---------------------------------------------------------------------------
# masked softmax
# ---------------------------------------------------------------------------

def test_masked_softmax_uniform_when_equal():
    out = nm.masked_softmax(nm.constant([1.0, 1.0, 1.0]), np.array([True, True, True]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_masked_softmax_exp_ratio():
    # scores (0, ln 2): exp ratio 1:2
    out = nm.masked_softmax(nm.constant([0.0, math.log(2.0)]), np.array([True, True]))
    np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)


def test_masked_softmax_empty_support_is_zero():
    out = nm.masked_softmax(nm.constant([5.0, 9.0]), np.array([False, False]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0])


def test_masked_softmax_length_mismatch():
    with pytest.raises(ContractError):
        nm.masked_softmax(nm.constant([1.0, 2.0]), np.array([True]))


@given(st.integers(2, 12), st.integers(0, 2 ** 12 - 1), st.random_module())
@settings(max_examples=60, deadline=None)
def test_masked_softmax_rows_sum_to_one_or_zero(n, maskbits, rngmod):
    rng = np.random.default_rng(maskbits + n)
    scores = nm.constant(rng.standard_normal(n) * 4)
    allowed = np.array([(maskbits >> i) & 1 == 1 for i in range(n)])
    out = nm.masked_softmax(scores, allowed).data
    assert np.all(out[~allowed] == 0.0)
    if allowed.any():
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out[allowed] > 0)
    else:
        assert np.all(out == 0.0)


def test_masked_softmax_grad_zero_at_disallowed():
    rng = np.random.default_rng(3)
    scores = rand_param(5, rng)
    allowed = np.array([True, False, True, True, False])
    out = nm.masked_softmax(scores, allowed)
    loss = nm.sum_all(nm.square(out))
    loss.backward()
    assert np.all(scores.grad[~allowed] == 0.0)
    report = nm.grad_check(
        lambda: nm.sum_all(nm.square(nm.masked_softmax(scores, allowed))),
        {"scores": scores}, samples_per_block=5)
    assert report.passed, report.to_json()


def reference_masked_softmax(s, allowed):
    """masked_softmax's forward as a row-wise formula, with the padded
    copies its denominator used to make written out."""
    masked = np.where(allowed, s, -np.inf)
    rowmax = np.max(masked, axis=-1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.exp(np.where(allowed, s - rowmax, -np.inf))
    *lead, m, n = np.atleast_2d(e).shape
    m_pad, n_pad = (-(-x // nm.ROW_BLOCK) * nm.ROW_BLOCK for x in (m, n))
    padded = np.zeros((*lead, m_pad, n_pad))
    padded[..., :m, :n] = np.atleast_2d(e)
    ones = np.zeros((n_pad, 1))
    ones[:n] = 1.0
    denom = padded.reshape(*lead, -1, nm.ROW_BLOCK, n_pad) @ ones[None]
    denom = denom.reshape(*lead, m_pad, 1)[..., :m, :].reshape(rowmax.shape)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def softmax_masks(shape, rng):
    """A random mask with an empty and a full row where there are rows, an
    all-True and an all-False one."""
    mixed = rng.random(shape) < 0.6
    if len(shape) > 1:
        mixed[..., 0, :] = False
        mixed[..., 1, :] = True
    return [mixed, np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)]


@pytest.mark.parametrize("lead", [(), (17,), (2, 16), (2, 3, 5)],
                         ids=["1d", "2d", "3d", "4d"])
def test_masked_softmax_bits_match_reference(lead):
    """Forward values and gradients have the bytes of the reference formula
    on both sides of each padding boundary, with NaN and +-inf at
    disallowed positions; an all-allowed mask is also run as None."""
    rng = np.random.default_rng(43 + len(lead))
    for n in (1, 2, 3, 15, 16, 17, 32, 64, 65):
        shape = lead + (n,)
        g = rng.standard_normal(shape)
        for allowed in softmax_masks(shape, rng):
            s = rng.standard_normal(shape) * 4
            s[~allowed] = rng.choice([np.nan, np.inf, -np.inf], int((~allowed).sum()))
            expect = reference_masked_softmax(s, allowed)
            expect_grad = expect * (g - np.sum(g * expect, axis=-1, keepdims=True))
            runs = [lambda p: nm.masked_softmax(p, allowed)]
            if allowed.all():
                runs.append(lambda p: nm.masked_softmax(p, None))
            for run in runs:
                scores = nm.parameter(s)
                out = run(scores)
                nm.sum_all(nm.mul(out, nm.constant(g))).backward()
                assert out.data.tobytes() == expect.tobytes(), (shape, allowed)
                assert scores.grad.tobytes() == expect_grad.tobytes(), (shape, allowed)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def test_layer_norm_identity_on_normalized_input():
    out = nm.layer_norm(nm.constant([1.0, -1.0]), nm.constant([1.0, 1.0]),
                        nm.constant([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-4)


def test_layer_norm_constant_vector_collapses_to_bias():
    out = nm.layer_norm(nm.constant([2.0, 2.0]), nm.constant([1.0, 1.0]),
                        nm.constant([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.0, 0.0], atol=1e-8)


def test_layer_norm_affine():
    # [0, 2] normalizes to [-1, 1]; bias 1 shifts back to [0, 2]
    out = nm.layer_norm(nm.constant([0.0, 2.0]), nm.constant([1.0, 1.0]),
                        nm.constant([1.0, 1.0]))
    np.testing.assert_allclose(out.data, [0.0, 2.0], atol=1e-4)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=16))
@settings(max_examples=60, deadline=None)
def test_layer_norm_shift_invariant(xs):
    x = np.asarray(xs)
    if np.ptp(x) < 1e-6:
        return
    d = len(xs)
    ones = nm.constant(np.ones(d))
    zeros = nm.constant(np.zeros(d))
    a = nm.layer_norm(nm.constant(x), ones, zeros).data
    b = nm.layer_norm(nm.constant(x + 7.5), ones, zeros).data
    np.testing.assert_allclose(a, b, atol=1e-6)
    assert abs(a.mean()) < 1e-8


def test_layer_norm_grad():
    rng = np.random.default_rng(11)
    x = rand_param((3, 6), rng)
    gain = rand_param(6, rng)
    bias = rand_param(6, rng)

    def loss():
        return nm.sum_all(nm.square(nm.layer_norm(x, gain, bias)))

    report = nm.grad_check(loss, {"x": x, "gain": gain, "bias": bias})
    assert report.passed, report.to_json()


def reference_layer_norm(x, gain, bias, g, eps=1e-5):
    """layer_norm's output and its x, gain and bias gradients for the
    upstream gradient g, with numpy's .mean."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gx = g * gain
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    lead = tuple(range(x.ndim - 1))  # a sum over no axis would turn -0 into 0
    return (gain * xhat + bias, inv * (gx - m1 - xhat * m2),
            (g * xhat).sum(axis=lead) if lead else g * xhat,
            g.sum(axis=lead) if lead else g)


@pytest.mark.parametrize("lead", [(), (17,), (2, 16), (2, 3, 5)],
                         ids=["1d", "2d", "3d", "4d"])
def test_layer_norm_bits_match_reference(lead):
    rng = np.random.default_rng(47 + len(lead))
    for d in (1, 2, 3, 15, 16, 17, 32, 64, 65):
        x, gain, bias = (nm.parameter(rng.standard_normal(shape) * 3)
                         for shape in (lead + (d,), (d,), (d,)))
        g = rng.standard_normal(lead + (d,))
        out = nm.layer_norm(x, gain, bias)
        nm.sum_all(nm.mul(out, nm.constant(g))).backward()
        expect = reference_layer_norm(x.data, gain.data, bias.data, g)
        for got, want in zip((out.data, x.grad, gain.grad, bias.grad), expect):
            assert got.tobytes() == want.tobytes(), (lead, d)


# ---------------------------------------------------------------------------
# lstm
# ---------------------------------------------------------------------------

def zero_lstm(input_size, k):
    return nm.LstmParams(
        w=nm.parameter(np.zeros((4 * k, input_size))),
        u=nm.parameter(np.zeros((4 * k, k))),
        b=nm.parameter(np.zeros(4 * k)),
    )


def rand_lstm(input_size, k, rng):
    return nm.LstmParams(
        w=rand_param((4 * k, input_size), rng),
        u=rand_param((4 * k, k), rng),
        b=rand_param(4 * k, rng),
    )


def test_lstm_step_all_zero():
    k = 3
    p = zero_lstm(2, k)
    h, c = nm.lstm_step(nm.constant(np.zeros(2)), nm.constant(np.zeros(k)),
                        nm.constant(np.zeros(k)), p)
    np.testing.assert_array_equal(h.data, np.zeros(k))
    np.testing.assert_array_equal(c.data, np.zeros(k))


def test_lstm_step_zero_params_unit_cell():
    # gates sit at 0.5, candidate at 0: c = 0.5 * c_prev, h = 0.5 * tanh(c)
    k = 4
    p = zero_lstm(3, k)
    h, c = nm.lstm_step(nm.constant(np.zeros(3)), nm.constant(np.zeros(k)),
                        nm.constant(np.ones(k)), p)
    np.testing.assert_allclose(c.data, 0.5 * np.ones(k), atol=1e-12)
    np.testing.assert_allclose(h.data, 0.5 * math.tanh(0.5) * np.ones(k), atol=1e-12)


def test_lstm_step_output_shapes():
    rng = np.random.default_rng(5)
    p = rand_lstm(3, 2, rng)
    h, c = nm.lstm_step(nm.constant(rng.standard_normal(3)),
                        nm.constant(rng.standard_normal(2)),
                        nm.constant(rng.standard_normal(2)), p)
    assert h.shape == (2,) and c.shape == (2,)


def test_lstm_step_shape_mismatch():
    p = zero_lstm(3, 2)
    with pytest.raises(ContractError):
        nm.lstm_step(nm.constant(np.zeros(4)), nm.constant(np.zeros(2)),
                     nm.constant(np.zeros(2)), p)


def test_lstm_sequence_matches_composed_steps():
    rng = np.random.default_rng(7)
    T, input_size, k = 5, 3, 4
    p = rand_lstm(input_size, k, rng)
    x = rng.standard_normal((T, input_size))

    seq, _ = nm.lstm_sequence(nm.constant(x[None]), p)
    h = nm.constant(np.zeros(k))
    c = nm.constant(np.zeros(k))
    for t in range(T):
        h, c = nm.lstm_step(nm.constant(x[t]), h, c, p)
        np.testing.assert_allclose(seq.data[0, t], h.data, atol=1e-12)


def test_lstm_sequence_backward_matches_composed_steps():
    rng = np.random.default_rng(9)
    T, input_size, k = 4, 3, 3
    x = rng.standard_normal((T, input_size))

    p1 = rand_lstm(input_size, k, rng)
    p2 = nm.LstmParams(w=nm.parameter(p1.w.data.copy()),
                       u=nm.parameter(p1.u.data.copy()),
                       b=nm.parameter(p1.b.data.copy()))

    loss1 = nm.sum_all(nm.square(nm.lstm_sequence(nm.constant(x[None]), p1)[0]))
    loss1.backward()

    h = nm.constant(np.zeros(k))
    c = nm.constant(np.zeros(k))
    loss2 = nm.constant(0.0)
    for t in range(T):
        h, c = nm.lstm_step(nm.constant(x[t]), h, c, p2)
        loss2 = nm.add(loss2, nm.sum_all(nm.square(h)))
    loss2.backward()

    assert loss1.item() == pytest.approx(loss2.item(), rel=1e-12)
    np.testing.assert_allclose(p1.w.grad, p2.w.grad, atol=1e-10)
    np.testing.assert_allclose(p1.u.grad, p2.u.grad, atol=1e-10)
    np.testing.assert_allclose(p1.b.grad, p2.b.grad, atol=1e-10)


def test_lstm_sequence_grad_check():
    rng = np.random.default_rng(13)
    p = rand_lstm(3, 4, rng)
    x = rand_param((1, 5, 3), rng)

    def loss():
        return nm.sum_all(nm.square(nm.lstm_sequence(x, p)[0]))

    report = nm.grad_check(loss, {"x": x, "w": p.w, "u": p.u, "b": p.b},
                           samples_per_block=10)
    assert report.passed, report.to_json()


@pytest.mark.parametrize("lengths", [[3, 1, 5, 2, 5], [5, 5, 5, 5, 5]],
                         ids=["ragged", "equal"])
def test_batched_lstm_sequence_matches_per_sequence_steps(lengths):
    """Each sequence follows lstm_step. A loss that reads sequence b only up
    to step lengths[b] - 1, as the encoder does, gives the gradients of the
    stepped sequences, and inputs past a sequence's end get exactly zero."""
    rng = np.random.default_rng(23)
    T, B, input_size, k = 5, len(lengths), 3, 4
    weights = rng.standard_normal((B, T, k))
    weights[np.arange(T) >= np.array(lengths)[:, None]] = 0.0
    p1 = rand_lstm(input_size, k, rng)
    x1 = rand_param((B, T, input_size), rng)
    hs, _ = nm.lstm_sequence(x1, p1)
    loss1 = nm.sum_all(nm.mul(hs, nm.constant(weights)))
    loss1.backward()

    p2 = nm.LstmParams(*(nm.parameter(t.data.copy()) for t in (p1.w, p1.u, p1.b)))
    x2 = nm.parameter(x1.data.copy())
    loss2 = nm.constant(0.0)
    for b, length in enumerate(lengths):
        h = c = nm.constant(np.zeros(k))
        for t in range(length):
            h, c = nm.lstm_step(nm.row(nm.row(x2, b), t), h, c, p2)
            np.testing.assert_allclose(hs.data[b, t], h.data, atol=1e-10)
            loss2 = nm.add(loss2, nm.sum_all(nm.mul(h, nm.constant(weights[b, t]))))
    loss2.backward()

    assert loss1.item() == pytest.approx(loss2.item(), rel=1e-12)
    for batched, stepped in ((x1, x2), (p1.w, p2.w), (p1.u, p2.u), (p1.b, p2.b)):
        np.testing.assert_allclose(batched.grad, stepped.grad, atol=1e-10)
    for b, length in enumerate(lengths):
        assert not x1.grad[b, length:].any()


def test_batched_lstm_sequence_grad_check():
    rng = np.random.default_rng(31)
    p = rand_lstm(3, 4, rng)
    x = rand_param((4, 3, 3), rng)

    def loss():
        return nm.sum_all(nm.square(nm.lstm_sequence(x, p)[0]))

    report = nm.grad_check(loss, {"x": x, "w": p.w, "u": p.u, "b": p.b},
                           samples_per_block=12)
    assert report.passed, report.to_json()


def reference_lstm_gradients(x, w, u, b, grad_h):
    """hs and the gradients for x, w, u and b of lstm_sequence on x (B, T,
    in) with upstream grad_h (B, T, k), from a forward that keeps every
    intermediate (the time-major copy of x and tanh of every cell state
    included) and the all-steps backward that read them: c_prev by
    concatenation, the four step derivatives stacked, a separate dpre."""
    B, T, n = x.shape
    k = u.shape[1]
    half = np.full(4 * k, 0.5)
    half[2 * k:3 * k] = 1.0
    shift = 1.0 - half
    xs = x.transpose(1, 0, 2).reshape(T * B, n)
    pre_x = nm.fixed_matmul(xs, (w * half[:, None]).T)
    pre_x += b * half
    pre_x = pre_x.reshape(T, B, 4 * k)
    u_half = np.ascontiguousarray((u * half[:, None]).T)
    gates = np.empty((T, B, 4 * k))
    i, f, g, o = (gates[..., j * k:(j + 1) * k] for j in range(4))
    tcs, hs, cs = (np.empty((T, B, k)) for _ in range(3))
    blocks = -(-B // nm.ROW_BLOCK)
    state = np.zeros((blocks, nm.ROW_BLOCK, k))
    product = np.empty((blocks, nm.ROW_BLOCK, 4 * k))
    h_prev = state.reshape(-1, k)[:B]
    recurrent = product.reshape(-1, 4 * k)[:B]
    c = np.zeros((B, k))
    for t in range(T):
        act = gates[t]
        np.matmul(state, u_half, out=product)
        np.add(recurrent, pre_x[t], out=act)
        np.tanh(act, out=act)
        act *= half
        act += shift
        np.multiply(f[t], c, out=cs[t])
        cs[t] += i[t] * g[t]
        np.tanh(cs[t], out=tcs[t])
        np.multiply(o[t], tcs[t], out=hs[t])
        h_prev[...] = hs[t]
        c = cs[t]

    c_prev = np.concatenate([np.zeros((1, B, k)), cs[:-1]])
    dgate = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                      i * (1.0 - g * g), tcs * o * (1.0 - o)], axis=2)
    dc_dh = o * (1.0 - tcs * tcs)
    grad_h = grad_h.transpose(1, 0, 2)
    dpre = np.empty((T, B, 4, k))
    dh = np.zeros((B, k))
    dc = np.zeros((B, k))
    for t in range(T - 1, -1, -1):
        dh += grad_h[t]
        dc += dh * dc_dh[t]
        np.multiply(dgate[t, :, :3], dc[:, None], out=dpre[t, :, :3])
        np.multiply(dgate[t, :, 3], dh, out=dpre[t, :, 3])
        dh = dpre[t].reshape(B, 4 * k) @ u
        dc *= f[t]
    flat = dpre.reshape(T * B, 4 * k)
    h_prev = np.concatenate([np.zeros((1, B, k)), hs[:-1]]).reshape(T * B, k)
    return (hs.transpose(1, 0, 2),
            (flat @ w).reshape(T, B, n).transpose(1, 0, 2),
            flat.T @ xs, flat.T @ h_prev, flat.sum(axis=0))


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 40), T=st.integers(1, 8), k=st.integers(1, 12),
       n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_lstm_sequence_backward_keeps_the_bits_of_the_all_steps_backward(
        B, T, k, n, seed):
    """The in-place backward, with its cell states and their tanh
    recomputed, gives every gradient bit for bit as the backward that kept
    them all."""
    rng = np.random.default_rng(seed)
    p = rand_lstm(n, k, rng)
    x = rand_param((B, T, n), rng, scale=1.5)
    grad_h = rng.standard_normal((B, T, k))
    hs, _ = nm.lstm_sequence(x, p)
    nm.sum_all(nm.mul(hs, nm.constant(grad_h))).backward()
    expected = reference_lstm_gradients(x.data, p.w.data, p.u.data, p.b.data,
                                        grad_h)
    got = (hs.data, x.grad, p.w.grad, p.u.grad, p.b.grad)
    for name, a, b in zip(("hs", "x", "w", "u", "b"), got, expected):
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 40), T=st.integers(1, 8), k=st.integers(1, 12),
       n=st.integers(1, 6), R=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_lstm_sequence_on_indexed_rows_has_the_bits_of_the_gathered_grid(
        B, T, k, n, R, seed):
    """lstm_sequence(rows, p, index=i) gives hs and the rows', w's, u's and
    b's gradients bit for bit as lstm_sequence(rows[i], p) after
    gather_rows: the ids repeat (R rows for B * T steps) and row 0 is a
    zero padding row."""
    rng = np.random.default_rng(seed)
    p = rand_lstm(n, k, rng)
    table = rng.standard_normal((R, n)) * 1.5
    table[0] = 0.0
    index = rng.integers(0, R, size=(B, T))
    grad_h = rng.standard_normal((B, T, k))
    got, expected = [], []
    for indexed in (True, False):
        rows = nm.parameter(table.copy())
        for leaf in (p.w, p.u, p.b):
            leaf.grad = None
        if indexed:
            hs, _ = nm.lstm_sequence(rows, p, index=index)
        else:
            hs, _ = nm.lstm_sequence(nm.gather_rows(rows, index), p)
        nm.sum_all(nm.mul(hs, nm.constant(grad_h))).backward()
        (got if indexed else expected).extend(
            [hs.data, rows.grad, p.w.grad, p.u.grad, p.b.grad])
    for name, a, b in zip(("hs", "x", "w", "u", "b"), got, expected):
        assert a.tobytes() == b.tobytes(), name


def test_taped_lstm_sequence_keeps_only_gates_and_hidden_states():
    """What a taped call leaves allocated, its output included, is the
    gates (4k per step and row) and the hidden states (k), plus the final
    cell state it returns and a few objects. Called on indexed rows, it
    keeps no (B, T, in) grid of them either (40 * 8 * 6 floats, 15,360
    bytes, above the slack)."""
    rng = np.random.default_rng(37)
    B, T, n, k = 40, 8, 6, 16
    p = rand_lstm(n, k, rng)
    grid = rand_param((B, T, n), rng)
    rows = rand_param((B * T // 3, n), rng)
    index = rng.integers(0, B * T // 3, size=(B, T))
    for x, idx in ((grid, None), (rows, index)):
        tracemalloc.start()
        try:
            out, carry = nm.lstm_sequence(x, p, index=idx)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del out, carry
        assert kept <= 8 * (5 * k * T * B + B * k) + 4096, (idx is not None, kept)


def test_mapped_copy_is_a_writable_copy_in_a_mapping_of_its_own():
    """mapped_copy keeps the values' bits (-0.0 included) and shape, in
    writable memory that is an anonymous mapping, not the values' own."""
    values = np.array([[-0.0, 1.5, np.inf], [2.0, -3.0, 1e-300]])
    out = nm.mapped_copy(values)
    assert out.shape == values.shape and out.dtype == np.float64
    assert out.tobytes() == values.tobytes()
    assert not np.shares_memory(out, values)
    assert isinstance(out.base.base.obj, mmap.mmap)
    out[0, 0] = 7.0
    assert values[0, 0] == 0.0
    assert nm.mapped_copy(np.broadcast_to(-0.0, (4,))).tobytes() == \
        np.full(4, -0.0).tobytes()


def test_dropout_keeps_the_bits_of_its_scaled_mask():
    """dropout forms keep / (1 - p) from a boolean mask, forward and
    backward, with the bits of the float mask (r >= p) / (1 - p)."""
    rng = np.random.default_rng(41)
    p = 0.3
    x = rand_param((50, 7), rng)
    g = rng.standard_normal((50, 7))
    out = nm.dropout(x, p, np.random.default_rng(5))
    nm.sum_all(nm.mul(out, nm.constant(g))).backward()
    mask = (np.random.default_rng(5).random((50, 7)) >= p) / (1.0 - p)
    assert out.data.tobytes() == (x.data * mask).tobytes()
    assert x.grad.tobytes() == (g * mask).tobytes()


@pytest.mark.parametrize("batch", [1, 3], ids=["one", "equal"])
def test_lstm_sequence_saturated_gates_stay_finite(batch):
    """Pre-activations around +-1e3 give finite states and gradients, and
    gates of exactly 0 or 1: every state equals lstm_step's, whose guarded
    sigmoid gives exact 0 and 1 there."""
    rng = np.random.default_rng(43)
    T, input_size, k = 6, 3, 4
    p = rand_lstm(input_size, k, rng)
    p.b.data[:] = 1e3 * rng.choice([-1.0, 1.0], size=4 * k)
    x = nm.parameter(rng.standard_normal((batch, T, input_size)))
    hs, _ = nm.lstm_sequence(x, p)
    nm.sum_all(nm.mul(hs, nm.constant(rng.standard_normal(hs.shape)))).backward()
    for leaf in (x, p.w, p.u, p.b):
        assert np.all(np.isfinite(leaf.grad))
    for b in range(batch):
        h = c = nm.constant(np.zeros(k))
        for t in range(T):
            h, c = nm.lstm_step(nm.constant(x.data[b, t]), h, c, p)
            np.testing.assert_array_equal(hs.data[b, t], h.data)


@pytest.mark.parametrize("x_shape", [(3,), (4, 3), (4, 1, 2, 3), (4, 2, 5)],
                         ids=["1d", "2d", "4d", "wrong_width"])
def test_lstm_sequence_rejects_bad_shapes(x_shape):
    with pytest.raises(ContractError):
        nm.lstm_sequence(nm.constant(np.zeros(x_shape)), zero_lstm(3, 2))


@pytest.mark.parametrize("x_shape, index", [
    ((4, 3), np.zeros(3, dtype=int)), ((4, 3), np.zeros((2, 0), dtype=int)),
    ((2, 4, 3), np.zeros((2, 4), dtype=int)), ((4, 5), np.zeros((2, 3), dtype=int)),
    ((4, 3), np.full((2, 3), 4)), ((4, 3), np.full((2, 3), -1))],
    ids=["1d_index", "no_steps", "3d_rows", "wrong_width", "past_the_rows",
         "negative"])
def test_lstm_sequence_rejects_bad_indexed_rows(x_shape, index):
    with pytest.raises(ContractError):
        nm.lstm_sequence(nm.constant(np.zeros(x_shape)), zero_lstm(3, 2),
                         index=index)


@pytest.mark.parametrize("batch", [1, 20])
def test_lstm_sequence_resumed_prefix_has_the_uninterrupted_bits(batch):
    """Running the first T0 steps and then the rest from the carried (h, c)
    gives the bytes of one T-step run, for every T0 on either side of the
    ROW_BLOCK edge; so does running every step alone, as a stream does."""
    rng = np.random.default_rng(53)
    T, input_size, k = nm.ROW_BLOCK + 4, 5, 6
    p = nm.LstmParams(*(nm.constant(rng.standard_normal(shape) * 0.5)
                        for shape in ((4 * k, input_size), (4 * k, k), 4 * k)))
    x = rng.standard_normal((batch, T, input_size))
    whole, (h, c) = nm.lstm_sequence(nm.constant(x), p)
    for t0 in range(1, T):
        head, carry = nm.lstm_sequence(nm.constant(x[:, :t0]), p)
        tail, end = nm.lstm_sequence(nm.constant(x[:, t0:]), p, carry)
        assert head.data.tobytes() == whole.data[:, :t0].tobytes(), t0
        assert tail.data.tobytes() == whole.data[:, t0:].tobytes(), t0
        assert end[0].tobytes() == h.tobytes() and end[1].tobytes() == c.tobytes()
    carry = None
    for t in range(T):
        step, carry = nm.lstm_sequence(nm.constant(x[:, t:t + 1]), p, carry)
        assert step.data.tobytes() == whole.data[:, t:t + 1].tobytes(), t


def test_lstm_sequence_refuses_a_carried_state_on_the_tape():
    state = (np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ContractError, match="untaped"):
        nm.lstm_sequence(nm.constant(np.zeros((1, 4, 3))), zero_lstm(3, 2), state)


# ---------------------------------------------------------------------------
# grad_check harness itself
# ---------------------------------------------------------------------------

def test_grad_check_quadratic_is_tight():
    theta = nm.parameter(np.array([1.0, -2.0, 3.0]))
    report = nm.grad_check(lambda: nm.sum_all(nm.square(theta)), {"theta": theta},
                           samples_per_block=3)
    assert report.passed
    assert report.max_rel_error < 1e-6


def test_grad_check_aborts_on_nan():
    theta = nm.parameter(np.array([1.0]))

    def loss():
        return nm.constant(np.array(np.nan))

    report = nm.grad_check(loss, {"theta": theta})
    assert report.aborted
    assert not report.passed


# ---------------------------------------------------------------------------
# assorted ops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
def test_linear_rows_matches_matmul(bias):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((6, 5))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(4) if bias else np.zeros(4)
    out = nm.linear_rows(nm.constant(x), nm.constant(w),
                         nm.constant(b) if bias else None)
    np.testing.assert_allclose(out.data, x @ w.T + b, atol=1e-12)


@pytest.mark.parametrize("width, out", [(32, 128), (96, 32), (32, 2), (5, 3)])
def test_rows_matmul_row_bits_are_fixed(width, out):
    """In a row-padded fixed_matmul (as linear_rows and the LSTM use it), a
    row's bits depend neither on the row count, nor on the other rows'
    contents, nor on where the row sits in its block."""
    rng = np.random.default_rng(37)
    w = rng.standard_normal((out, width))
    x = rng.standard_normal((130, width))
    full = nm.fixed_matmul(x, w.T)
    np.testing.assert_allclose(full, x @ w.T, rtol=1e-12, atol=1e-12)
    for rows in range(1, 131):
        assert nm.fixed_matmul(x[:rows], w.T).tobytes() == full[:rows].tobytes(), rows
    for position in range(nm.ROW_BLOCK + 3):
        other = rng.standard_normal((position + 1 + int(rng.integers(0, 70)), width))
        other[position] = x[0]
        assert nm.fixed_matmul(other, w.T)[position].tobytes() == full[0].tobytes()


@pytest.mark.parametrize("width", [1, 8, 32, 96])
def test_causal_prefix_bits_are_fixed(width):
    """Scores, causal contexts and causal softmax rows computed on the first
    rows positions have the bytes of the same rows computed on all 130. The
    weights have exact-zero tails and all-zero rows (row 0, and rows with no
    earlier allowed position), where only the sign of zero could differ."""
    rng = np.random.default_rng(41)
    a = rng.standard_normal((130, width))
    b = rng.standard_normal((130, width))
    causal = np.tril(np.ones((130, 130), dtype=bool), k=-1)
    causal[:, rng.random(130) < 0.3] = False
    causal[rng.random(130) < 0.1] = False
    weights = np.where(causal, rng.random((130, 130)), 0.0)
    scores = nm.pairwise_scores(nm.constant(a), nm.constant(b)).data
    ctx = nm.attend(nm.constant(weights), nm.constant(b)).data
    attn = nm.masked_softmax(nm.constant(scores), causal).data
    np.testing.assert_allclose(scores, a @ b.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ctx, weights @ b, rtol=1e-12, atol=1e-12)
    for rows in range(1, 131):
        s = nm.pairwise_scores(nm.constant(a[:rows]), nm.constant(b[:rows])).data
        c = nm.attend(nm.constant(weights[:rows, :rows]), nm.constant(b[:rows])).data
        p = nm.masked_softmax(nm.constant(s), causal[:rows, :rows]).data
        assert s.tobytes() == scores[:rows, :rows].tobytes(), rows
        assert c.tobytes() == ctx[:rows].tobytes(), rows
        assert p.tobytes() == attn[:rows, :rows].tobytes(), rows


def test_batched_pairwise_scores_and_attend_match_2d_slices():
    """Leading batch axes give, slice by slice, the bits of the 2-D call on
    that slice alone, forward and backward."""
    rng = np.random.default_rng(29)
    for shape in [(3,), (2, 3), (1,)]:
        a = rand_param(shape + (5, 4), rng)
        b = rand_param(shape + (7, 4), rng)
        p = rand_param(shape + (5, 7), rng)
        g_scores = rng.standard_normal(shape + (5, 7))
        g_ctx = rng.standard_normal(shape + (5, 4))
        scores = nm.pairwise_scores(a, b)
        ctx = nm.attend(p, b)
        nm.add(nm.sum_all(nm.mul(scores, nm.constant(g_scores))),
               nm.sum_all(nm.mul(ctx, nm.constant(g_ctx)))).backward()
        for idx in np.ndindex(*shape):
            a2, b2, p2 = (nm.parameter(t.data[idx]) for t in (a, b, p))
            s2 = nm.pairwise_scores(a2, b2)
            c2 = nm.attend(p2, b2)
            np.testing.assert_array_equal(scores.data[idx], s2.data)
            np.testing.assert_array_equal(ctx.data[idx], c2.data)
            nm.add(nm.sum_all(nm.mul(s2, nm.constant(g_scores[idx]))),
                   nm.sum_all(nm.mul(c2, nm.constant(g_ctx[idx])))).backward()
            for batched, sliced in ((a, a2), (b, b2), (p, p2)):
                np.testing.assert_array_equal(batched.grad[idx], sliced.grad)


def test_attention_is_the_op_chain_forward_and_backward():
    """attention() is pairwise_scores, the re-weighting, masked_softmax and
    attend in that order: the same bits forward and the same gradients."""
    rng = np.random.default_rng(31)
    allowed = np.tril(np.ones((6, 6), dtype=bool), k=-1)
    allowed[:, 2] = False
    position = nm.constant(rng.random((6, 6)))
    g = rng.standard_normal((6, 4))
    runs = []
    for composite in (True, False):
        q, k, v = (rand_param((6, 4), np.random.default_rng(i)) for i in range(3))
        if composite:
            ctx, weights = nm.attention(q, k, v, allowed,
                                        reweight=lambda s: nm.attend(s, position))
        else:
            scores = nm.attend(nm.pairwise_scores(q, k), position)
            weights = nm.masked_softmax(scores, allowed)
            ctx = nm.attend(weights, v)
        nm.sum_all(nm.mul(ctx, nm.constant(g))).backward()
        runs.append([ctx.data, weights.data, q.grad, k.grad, v.grad])
    for a, b in zip(*runs):
        assert a.tobytes() == b.tobytes()
    np.testing.assert_array_equal(runs[0][0][0], 0.0)  # a row with no key


def test_attention_padded_batch_bits_match_each_dialogue():
    """A (B, L_max, d) batch whose masks are False past each dialogue's
    length gives each dialogue the context and weights bits of its own
    unpadded call, whatever the padded rows hold, without and with a
    row-wise re-weighting; a row with nothing allowed gets a zero context."""
    rng = np.random.default_rng(37)
    for case in range(200):
        batch, width = int(rng.integers(1, 6)), int(rng.choice([4, 8, 32]))
        lengths = rng.integers(1, 50, size=batch)
        longest = int(lengths.max())
        q, k, v = (rng.standard_normal((batch, longest, width)) for _ in range(3))
        allowed = np.zeros((batch, longest, longest), dtype=bool)
        for b, n in enumerate(lengths):
            allowed[b, :n, :n] = np.tri(n, n, -int(rng.integers(0, 2)), dtype=bool)
            allowed[b, :n, :n] &= rng.random(n) < 0.7
        reweight = None if case % 2 else (lambda s: nm.scale(s, 0.3))

        def call(*arrays):
            ctx, weights = nm.attention(*map(nm.constant, arrays[:3]), arrays[3],
                                        reweight)
            return ctx.data, weights.data

        ctx, weights = call(q, k, v, allowed)
        for b, n in enumerate(lengths):
            solo_ctx, solo_weights = call(q[b, :n], k[b, :n], v[b, :n],
                                          allowed[b, :n, :n])
            assert ctx[b, :n].tobytes() == solo_ctx.tobytes(), case
            assert weights[b, :n, :n].tobytes() == solo_weights.tobytes(), case
            assert np.all(weights[b, :n, n:] == 0.0)
            empty = ~allowed[b, :n, :n].any(axis=1)
            assert np.all(ctx[b, :n][empty] == 0.0)


def test_pairwise_scores_and_attend_match_blas():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((7, 4))
    p = rng.random((3, 5))
    np.testing.assert_allclose(
        nm.pairwise_scores(nm.constant(a), nm.constant(b)).data, a @ b.T, atol=1e-12)
    np.testing.assert_allclose(
        nm.attend(nm.constant(p), nm.constant(a)).data, p @ a, atol=1e-12)


def test_composite_graph_grad_check():
    # exercise most ops in one chained expression
    rng = np.random.default_rng(23)
    w = rand_param((4, 6), rng)
    b = rand_param(4, rng)
    x = rand_param((5, 6), rng)
    gain = rand_param(4, rng)
    bias = rand_param(4, rng)
    table = rand_param((9, 6), rng)

    def loss():
        gathered = nm.gather_rows(table, [1, 3, 3, 8, 0])
        mixed = nm.add(x, gathered)
        lin = nm.relu(nm.linear_rows(mixed, w, b))
        scores = nm.pairwise_scores(lin, lin)
        allowed = np.tril(np.ones((5, 5), dtype=bool), k=-1)
        attn = nm.masked_softmax(scores, allowed)
        ctx = nm.attend(attn, lin)
        normed = nm.layer_norm(nm.add(ctx, lin), gain, bias)
        cat = nm.concat_cols(normed, lin)
        return nm.mean_all(nm.square(nm.tanh(cat)))

    report = nm.grad_check(
        loss,
        {"w": w, "b": b, "x": x, "gain": gain, "bias": bias, "table": table},
        samples_per_block=8)
    assert report.passed, report.to_json()


def test_gather_rows_accumulates_repeated_ids():
    table = nm.parameter(np.ones((4, 2)))
    out = nm.gather_rows(table, [2, 2, 1])
    nm.sum_all(out).backward()
    np.testing.assert_array_equal(table.grad, [[0, 0], [1, 1], [2, 2], [0, 0]])


@pytest.mark.parametrize("ids_shape", [(60,), (7, 40)], ids=["ids_1d", "ids_2d"])
def test_gather_rows_backward_has_the_bits_of_add_at(ids_shape):
    """The table's gradient is bit for bit np.add.at's into zeros: repeated
    ids (9 rows for 60 or 280 ids), magnitudes from 1e-8 to 1e8 and -0.0
    entries, some rows receiving only -0.0."""
    rng = np.random.default_rng(43)
    table = nm.parameter(rng.normal(size=(9, 5)))
    ids = rng.integers(0, 8, size=ids_shape)  # row 8 is never gathered
    ids.flat[:4] = 7
    g = rng.normal(size=ids_shape + (5,))
    g *= 10.0 ** rng.integers(-8, 9, g.shape)
    g[rng.random(g.shape) < 0.2] = -0.0
    g[ids == 7] = -0.0
    out = nm.gather_rows(table, ids)
    nm.sum_all(nm.mul(out, nm.constant(g))).backward()
    expected = np.zeros_like(table.data)
    np.add.at(expected, ids, g)
    assert table.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("ids", [[], [2, -1]], ids=["empty", "negative"])
def test_gather_rows_refuses_ids_it_cannot_gather(ids):
    with pytest.raises(ContractError, match="gather_rows"):
        nm.gather_rows(nm.parameter(np.ones((4, 2))), ids)


def test_dropout_train_scaling_and_grad():
    rng = np.random.default_rng(29)
    x = nm.parameter(np.ones((200,)))
    out = nm.dropout(x, 0.25, rng)
    kept = out.data != 0
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.75)
    nm.sum_all(out).backward()
    np.testing.assert_allclose(x.grad[kept], 1.0 / 0.75)
    np.testing.assert_array_equal(x.grad[~kept], 0.0)


def test_pad_and_slice_roundtrip_grad():
    rng = np.random.default_rng(31)
    a = rand_param((3, 4), rng)

    def loss():
        return nm.sum_all(nm.square(nm.pad_cols(a, 7)))

    report = nm.grad_check(loss, {"a": a})
    assert report.passed


def test_finite_outputs_invariant():
    rng = np.random.default_rng(37)
    x = nm.constant(rng.standard_normal((8, 8)) * 20)
    allowed = np.tril(np.ones((8, 8), dtype=bool))
    for t in (nm.masked_softmax(x, allowed),
              nm.layer_norm(x, nm.constant(np.ones(8)), nm.constant(np.zeros(8))),
              nm.sigmoid(nm.scale(x, 50.0)),
              nm.tanh(nm.scale(x, 50.0))):
        assert np.all(np.isfinite(t.data))


# ---------------------------------------------------------------------------
# BLAS thread count
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def byte_level_runs():
    """The byte-level row and prefix tests, re-run in a fresh interpreter at
    1 and at 2 BLAS threads, both started at once."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    tests = ROOT / "tests"
    procs = {}
    try:
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            procs[threads] = subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 str(tests / "test_numerics.py"), str(tests / "test_encoder.py"),
                 str(tests / "test_model.py"), "-k", "bits or prefix"],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
        yield procs
    finally:
        for proc in procs.values():
            proc.kill()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_byte_level_checks_hold_at_each_blas_thread_count(byte_level_runs, threads):
    """OpenBLAS reads its thread count once, at import, and may split a GEMM
    differently with more threads; re-run the byte-level row and prefix
    tests in a fresh interpreter at 1 and at 2 threads."""
    proc = byte_level_runs[threads]
    out, _ = proc.communicate(timeout=600)
    # pytest exits 5 if nothing is selected
    assert proc.returncode == 0, f"at {threads} BLAS threads:\n{out[-3000:]}"
