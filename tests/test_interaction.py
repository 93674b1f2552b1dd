import numpy as np
import pytest

from handsat import interaction as ia
from handsat import numerics as nm
from handsat.errors import ContractError


def make_params(in_width, d, rng=None, zero=False):
    def w(shape):
        if zero:
            return nm.parameter(np.zeros(shape))
        return nm.parameter(nm.glorot_uniform(shape, rng))

    return ia.InteractionParams(
        handoff_w=w((d, in_width)), handoff_b=w(d),
        satisfaction_w=w((d, in_width)), satisfaction_b=w(d),
        fusion_w=w((d, 2 * d)), fusion_b=w(d),
        norm_gain=nm.parameter(np.ones(d)), norm_bias=w(d),
    )


def batch_of_one(t):
    """(L, ...) -> the (1, L, ...) padded layout of a one-dialogue batch."""
    return nm.row(t, (None,))


def run_layer(x, is_customer, p, mode="full"):
    """One dialogue through the whole layer as forward_batch runs it, a
    batch of one: (padded output, the dialogue's attention)."""
    handoff, satisfaction = ia.task_projections(batch_of_one(x), p)
    views = (nm.row(handoff, 0), nm.row(satisfaction, 0))
    attention = ia.interact(views, is_customer, mode=mode)
    return ia.fuse(handoff, satisfaction, [attention], p, mode=mode), attention


def test_projections_zero_params():
    p = make_params(6, 3, zero=True)
    x = nm.constant(np.random.default_rng(0).standard_normal((4, 6)))
    h, s = ia.task_projections(x, p)
    np.testing.assert_array_equal(h.data, np.zeros((4, 3)))
    np.testing.assert_array_equal(s.data, np.zeros((4, 3)))


def test_projections_identity_block_passthrough():
    d, width = 3, 6
    p = make_params(width, d, zero=True)
    p.handoff_w.data[:, :d] = np.eye(d)
    x = nm.constant(np.abs(np.random.default_rng(1).standard_normal((4, width))))
    h, _ = ia.task_projections(x, p)  # rectifier passes non-negatives
    np.testing.assert_allclose(h.data, x.data[:, :d], atol=1e-12)


def test_projections_branches_diverge():
    rng = np.random.default_rng(2)
    p = make_params(6, 3, rng=rng)
    x = nm.constant(rng.standard_normal((4, 6)))
    h, s = ia.task_projections(x, p)
    assert not np.allclose(h.data, s.data)


def test_sat_to_handoff_single_candidate():
    # roles [agent, customer, agent]: row 3 may attend only to position 2
    rng = np.random.default_rng(3)
    p = make_params(6, 3, rng=rng)
    x = nm.constant(rng.standard_normal((3, 6)))
    h, s = ia.task_projections(x, p)
    is_customer = np.array([False, True, False])
    _, attn = ia.satisfaction_to_handoff(h, s, is_customer)
    np.testing.assert_array_equal(attn.data[2], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(attn.data[0], [0.0, 0.0, 0.0])  # no past


def test_sat_to_handoff_zero_agent_mass():
    rng = np.random.default_rng(4)
    p = make_params(8, 4, rng=rng)
    for _ in range(20):
        L = int(rng.integers(2, 9))
        x = nm.constant(rng.standard_normal((L, 8)))
        h, s = ia.task_projections(x, p)
        is_customer = rng.random(L) < 0.5
        _, attn = ia.satisfaction_to_handoff(h, s, is_customer)
        assert np.all(attn.data[:, ~is_customer] == 0.0)
        # strictly-past: diagonal and above are zero
        assert np.all(np.triu(attn.data) == 0.0)


def test_positional_weights_single_position():
    np.testing.assert_array_equal(ia.position_matrix(3)[0], [1.0, 0.0, 0.0])


def test_positional_weights_hand_value():
    got = ia.position_matrix(3)[1]
    e13, e23 = np.exp(1 / 3), np.exp(2 / 3)
    np.testing.assert_allclose(got, [e13 / (e13 + e23), e23 / (e13 + e23), 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(got[:2], [0.4174, 0.5826], atol=5e-5)


def test_positional_weights_strictly_increasing():
    for L in (1, 2, 5, 17, 50):
        for t in range(1, L + 1):
            b = ia.position_matrix(L)[t - 1]
            assert np.all(b[t:] == 0.0)
            assert b.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(b[:t]) > 0) or t == 1


def test_handoff_to_sat_single_row():
    rng = np.random.default_rng(5)
    p = make_params(6, 3, rng=rng)
    x = nm.constant(rng.standard_normal((1, 6)))
    h, s = ia.task_projections(x, p)
    out, attention = run_layer(x, np.array([True]), p)
    attn = attention.attn_handoff_to_sat
    np.testing.assert_array_equal(attn.data, [[1.0]])
    expect = nm.layer_norm(nm.add(nm.attend(attn, h), s), p.norm_gain, p.norm_bias)
    np.testing.assert_allclose(out.satisfaction_fused.data[0], expect.data, atol=1e-12)


def test_handoff_to_sat_residual_path():
    # with a zero handoff view the context vanishes and only the residual
    # satisfaction view reaches the layer norm
    rng = np.random.default_rng(6)
    p = make_params(6, 3, rng=rng)
    s = nm.constant(rng.standard_normal((1, 3)))
    h = nm.constant(np.zeros((1, 3)))
    attention = ia.interact((h, s), np.array([True]))
    q = ia.fuse(batch_of_one(h), batch_of_one(s), [attention], p).satisfaction_fused
    expect = nm.layer_norm(s, p.norm_gain, p.norm_bias)
    np.testing.assert_allclose(q.data[0], expect.data, atol=1e-12)


def test_handoff_to_sat_causal_mask():
    rng = np.random.default_rng(7)
    p = make_params(8, 4, rng=rng)
    for _ in range(10):
        L = int(rng.integers(2, 9))
        x = nm.constant(rng.standard_normal((L, 8)))
        h, s = ia.task_projections(x, p)
        _, attn = ia.handoff_to_satisfaction(s, h, ia.position_matrix(L))
        assert np.all(np.triu(attn.data, k=1) == 0.0)
        np.testing.assert_allclose(attn.data.sum(axis=1), np.ones(L), atol=1e-9)


def test_interact_no_interact_passthrough():
    rng = np.random.default_rng(8)
    p = make_params(8, 4, rng=rng)
    x = nm.constant(rng.standard_normal((5, 8)))
    is_customer = np.array([True, False, True, False, True])
    out, _ = run_layer(x, is_customer, p, mode="no_interact")
    assert out.handoff_fused is out.handoff_view
    assert out.satisfaction_fused is out.satisfaction_view


def test_interact_no_position_matches_full_at_length_one():
    rng = np.random.default_rng(9)
    p = make_params(8, 4, rng=rng)
    x = nm.constant(rng.standard_normal((1, 8)))
    is_customer = np.array([True])
    full, _ = run_layer(x, is_customer, p, mode="full")
    nopos, _ = run_layer(x, is_customer, p, mode="no_position")
    np.testing.assert_array_equal(full.satisfaction_fused.data,
                                  nopos.satisfaction_fused.data)


def test_interact_no_select_attends_to_agents():
    rng = np.random.default_rng(10)
    p = make_params(8, 4, rng=rng)
    x = nm.constant(rng.standard_normal((6, 8)))
    is_customer = np.array([True, False, True, False, True, False])
    _, attention = run_layer(x, is_customer, p, mode="no_select")
    agent_mass = attention.attn_sat_to_handoff.data[:, ~is_customer].sum()
    assert agent_mass > 0.0


def test_interact_unknown_mode():
    views = (nm.constant(np.zeros((2, 2))), nm.constant(np.zeros((2, 2))))
    with pytest.raises(ContractError):
        ia.interact(views, np.array([True, False]), mode="bogus")


def test_interact_role_perturbation_invariance():
    # changing the satisfaction view at agent positions cannot change the
    # handoff fusion when role selection is on
    rng = np.random.default_rng(11)
    p = make_params(8, 4, rng=rng)
    base = rng.standard_normal((5, 4))
    h = nm.constant(rng.standard_normal((5, 4)))
    is_customer = np.array([True, False, True, False, True])

    altered = base.copy()
    altered[~is_customer] += rng.standard_normal(((~is_customer).sum(), 4)) * 3
    fused1, fused2 = (
        ia.fuse(batch_of_one(h), batch_of_one(s), [ia.interact((h, s), is_customer)],
                p).handoff_fused
        for s in (nm.constant(base), nm.constant(altered)))
    np.testing.assert_array_equal(fused1.data, fused2.data)


def test_interaction_grad_check():
    rng = np.random.default_rng(12)
    p = make_params(8, 4, rng=rng)
    x = nm.parameter(rng.standard_normal((5, 8)))
    is_customer = np.array([True, False, True, False, True])

    def loss():
        out, _ = run_layer(x, is_customer, p, mode="full")
        return nm.mean_all(nm.square(
            nm.concat_cols(out.handoff_fused, out.satisfaction_fused)))

    blocks = {"x": x,
              "hw": p.handoff_w, "hb": p.handoff_b,
              "sw": p.satisfaction_w, "sb": p.satisfaction_b,
              "fw": p.fusion_w, "fb": p.fusion_b,
              "ng": p.norm_gain, "nb": p.norm_bias}
    report = nm.grad_check(loss, blocks, samples_per_block=8)
    assert report.passed, report.to_json()
