import numpy as np
import pytest

from handsat import decoders as dec
from handsat import numerics as nm
from handsat.corpus import Role, SentimentLabel
from handsat.numerics import LstmParams


def handoff_params(d, k, rng=None, zero=False):
    def w(shape):
        if zero:
            return nm.parameter(np.zeros(shape))
        return nm.parameter(nm.glorot_uniform(shape, rng))

    return dec.HandoffDecoderParams(
        cell=LstmParams(w=w((4 * k, d)), u=w((4 * k, k)), b=w(4 * k)),
        out_w=w((2, k)), out_b=w(2))


def satisfaction_params(d, k, z, rng, ff_mult=2):
    def w(shape):
        return nm.parameter(nm.glorot_uniform(shape, rng))

    def b(size):
        return nm.parameter(np.zeros(size))

    trans = dec.TransformerParams(
        wq=w((k, k)), bq=b(k), wk=w((k, k)),
        wv=w((k, k)), bv=b(k), wo=w((k, k)), bo=b(k),
        ff1_w=w((ff_mult * k, k)), ff1_b=b(ff_mult * k),
        ff2_w=w((k, ff_mult * k)), ff2_b=b(k),
        ln1_gain=nm.parameter(np.ones(k)), ln1_bias=b(k),
        ln2_gain=nm.parameter(np.ones(k)), ln2_bias=b(k))
    return dec.SatisfactionDecoderParams(
        proj_w=w((k, d)), proj_b=b(k), transformer=trans,
        local_w=w((3, k)), local_b=b(3),
        attn_w=w((z, k)), attn_b=b(z), query=w((z,)))


def test_decode_handoff_zero_params_uniform():
    p = handoff_params(3, 2, zero=True)
    probs, _ = dec.decode_handoff(nm.constant(np.zeros((1, 4, 3))), p)
    np.testing.assert_allclose(probs.data, np.full((1, 4, 2), 0.5), atol=1e-12)


def test_decode_handoff_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = handoff_params(3, 4, rng=rng)
    probs, _ = dec.decode_handoff(nm.constant(rng.standard_normal((1, 6, 3))), p)
    np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones((1, 6)), atol=1e-9)


def test_decode_handoff_causal():
    rng = np.random.default_rng(1)
    p = handoff_params(3, 4, rng=rng)
    m = rng.standard_normal((1, 6, 3))
    full = dec.decode_handoff(nm.constant(m), p)[0].data
    prefix = dec.decode_handoff(nm.constant(m[:, :4]), p)[0].data
    np.testing.assert_array_equal(full[:, :4], prefix)


def test_decode_satisfaction_single_customer_one_hot():
    rng = np.random.default_rng(2)
    p = satisfaction_params(3, 4, 5, rng)
    q = nm.constant(rng.standard_normal((5, 3)))
    is_customer = np.array([False, False, True, False, False])
    overall, local, importance = dec.decode_satisfaction(q, is_customer, p, 2,
                                                         "attention")
    np.testing.assert_array_equal(importance.data,
                                  [0.0, 0.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(overall.data, local.data[2], atol=1e-12)


def test_decode_satisfaction_identical_locals_convexity():
    rng = np.random.default_rng(3)
    p = satisfaction_params(3, 4, 5, rng)
    # zero classifier weights force every local row to softmax(bias)
    p.local_w.data[:] = 0.0
    p.local_b.data[:] = np.array([0.3, -0.1, 0.6])
    q = nm.constant(rng.standard_normal((6, 3)))
    is_customer = np.array([True, False, True, False, True, True])
    overall, local, importance = dec.decode_satisfaction(q, is_customer, p, 2,
                                                         "attention")
    expect = np.exp(p.local_b.data) / np.exp(p.local_b.data).sum()
    np.testing.assert_allclose(local.data, np.tile(expect, (6, 1)), atol=1e-12)
    np.testing.assert_allclose(overall.data, expect, atol=1e-12)


def test_decode_satisfaction_convex_hull_bound():
    rng = np.random.default_rng(4)
    p = satisfaction_params(3, 4, 5, rng)
    for _ in range(10):
        L = int(rng.integers(2, 8))
        q = nm.constant(rng.standard_normal((L, 3)))
        is_customer = rng.random(L) < 0.6
        if not is_customer.any():
            is_customer[0] = True
        overall, local, importance = dec.decode_satisfaction(q, is_customer, p, 2,
                                                             "attention")
        rows = local.data[is_customer]
        assert np.all(overall.data >= rows.min(axis=0) - 1e-12)
        assert np.all(overall.data <= rows.max(axis=0) + 1e-12)
        assert np.all(importance.data[~is_customer] == 0.0)
        assert overall.data.sum() == pytest.approx(1.0, abs=1e-9)




def test_transformer_block_causal_rows():
    rng = np.random.default_rng(6)
    p = satisfaction_params(3, 4, 5, rng)
    x = rng.standard_normal((6, 4))
    full = dec.transformer_block(nm.constant(x), p.transformer, heads=2).data
    prefix = dec.transformer_block(nm.constant(x[:3]), p.transformer, heads=2).data
    np.testing.assert_array_equal(full[:3], prefix)


def _slice_cols(a, lo, hi):
    """Column slice as a tape op, as the per-head reference cuts heads."""
    def back(g):
        full = np.zeros_like(a.data)
        full[:, lo:hi] = g
        nm._accum(a, full)

    return nm._make(a.data[:, lo:hi], (a,), back)


def reference_transformer_block(x, params, heads, eps=1e-5):
    """transformer_block with one Python iteration per head: each head cut
    out by column slices, the contexts joined by concat_cols."""
    length, width = x.data.shape
    head_dim = width // heads
    q = nm.linear_rows(x, params.wq, params.bq)
    k = nm.linear_rows(x, params.wk)
    v = nm.linear_rows(x, params.wv, params.bv)
    allowed = np.tril(np.ones((length, length), dtype=bool))
    contexts = []
    for h in range(heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        scores = nm.scale(
            nm.pairwise_scores(_slice_cols(q, lo, hi), _slice_cols(k, lo, hi)),
            1.0 / np.sqrt(head_dim))
        attn = nm.masked_softmax(scores, allowed)
        contexts.append(nm.attend(attn, _slice_cols(v, lo, hi)))
    ctx = contexts[0]
    for extra in contexts[1:]:
        ctx = nm.concat_cols(ctx, extra)
    attended = nm.linear_rows(ctx, params.wo, params.bo)
    x1 = nm.layer_norm(nm.add(x, attended), params.ln1_gain, params.ln1_bias, eps)
    ff = nm.linear_rows(nm.relu(nm.linear_rows(x1, params.ff1_w, params.ff1_b)),
                        params.ff2_w, params.ff2_b)
    return nm.layer_norm(nm.add(x1, ff), params.ln2_gain, params.ln2_bias, eps)


def test_transformer_block_matches_per_head_reference():
    """The head-axis block is bit-identical to the per-head loop, forward
    and backward, over random lengths, head counts and head widths."""
    rng = np.random.default_rng(41)
    for _ in range(100):
        heads = int(rng.choice([1, 2, 4]))
        width = heads * int(rng.integers(1, 9))
        length = int(rng.integers(1, 65))
        params = satisfaction_params(3, width, 2, rng).transformer
        leaves = [nm.parameter(rng.standard_normal((length, width)))]
        leaves += list(vars(params).values())
        for t in leaves:
            t.data = rng.standard_normal(t.data.shape)
        weights = nm.constant(rng.standard_normal((length, width)))
        results = []
        for block in (dec.transformer_block, reference_transformer_block):
            for t in leaves:
                t.grad = None
            out = block(leaves[0], params, heads)
            nm.sum_all(nm.mul(out, weights)).backward()
            results.append([out.data] + [t.grad for t in leaves])
        for new, ref in zip(*results):
            np.testing.assert_array_equal(new, ref)


def test_map_sentiment_cases():
    roles = [Role.CUSTOMER, Role.AGENT, Role.CUSTOMER]
    local = np.array([[0.2, 0.5, 0.3],
                      [0.9, 0.05, 0.05],
                      [1 / 3, 1 / 3, 1 / 3]])
    out = dec.map_sentiment(local, roles)
    assert out == {0: SentimentLabel.NEUTRAL, 2: SentimentLabel.POSITIVE}


def test_map_sentiment_agent_only_empty():
    assert dec.map_sentiment(np.ones((2, 3)) / 3, [Role.AGENT, Role.AGENT]) == {}


def test_aggregate_single_customer_all_modes_agree():
    local = nm.constant(np.array([[0.1, 0.2, 0.7],
                                  [0.5, 0.3, 0.2]]))
    is_customer = np.array([False, True])
    importance = nm.constant(np.array([0.0, 1.0]))
    att = dec.aggregate_variant(local, is_customer, "attention", importance)
    avg = dec.aggregate_variant(local, is_customer, "average")
    last = dec.aggregate_variant(local, is_customer, "last")
    vote = dec.aggregate_variant(local, is_customer, "voting")
    np.testing.assert_allclose(att.data, local.data[1], atol=1e-12)
    np.testing.assert_allclose(avg.data, local.data[1], atol=1e-12)
    np.testing.assert_allclose(last.data, local.data[1], atol=1e-12)
    np.testing.assert_array_equal(vote.data, [1.0, 0.0, 0.0])


def test_aggregate_average():
    local = nm.constant(np.array([[1.0, 0.0, 0.0],
                                  [0.0, 0.0, 1.0]]))
    out = dec.aggregate_variant(local, np.array([True, True]), "average")
    np.testing.assert_allclose(out.data, [0.5, 0.0, 0.5], atol=1e-12)


def test_aggregate_voting_majority():
    local = nm.constant(np.array([[0.1, 0.2, 0.7],
                                  [0.2, 0.1, 0.7],
                                  [0.2, 0.7, 0.1]]))
    out = dec.aggregate_variant(local, np.array([True, True, True]), "voting")
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 1.0])


def test_handoff_decoder_grad_check():
    rng = np.random.default_rng(7)
    p = handoff_params(3, 4, rng=rng)
    m = nm.parameter(rng.standard_normal((1, 5, 3)))

    def loss():
        return nm.mean_all(nm.square(dec.decode_handoff(m, p)[0]))

    blocks = {"m": m, "w": p.cell.w, "u": p.cell.u, "b": p.cell.b,
              "ow": p.out_w, "ob": p.out_b}
    report = nm.grad_check(loss, blocks, samples_per_block=8)
    assert report.passed, report.to_json()


def test_satisfaction_decoder_grad_check():
    rng = np.random.default_rng(8)
    p = satisfaction_params(3, 4, 5, rng)
    q = nm.parameter(rng.standard_normal((5, 3)))
    is_customer = np.array([True, False, True, False, True])

    def loss():
        overall, local, importance = dec.decode_satisfaction(q, is_customer, p, 2,
                                                             "attention")
        return nm.add(nm.sum_all(nm.square(overall)),
                      nm.mean_all(nm.square(local)))

    blocks = {"q": q, "proj_w": p.proj_w, "proj_b": p.proj_b,
              "local_w": p.local_w, "local_b": p.local_b,
              "attn_w": p.attn_w, "attn_b": p.attn_b, "query": p.query,
              "wq": p.transformer.wq, "wo": p.transformer.wo,
              "ff1": p.transformer.ff1_w, "ff2": p.transformer.ff2_w,
              "ln1g": p.transformer.ln1_gain, "ln2b": p.transformer.ln2_bias}
    report = nm.grad_check(loss, blocks, samples_per_block=6)
    assert report.passed, report.to_json()
