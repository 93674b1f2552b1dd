import numpy as np
import pytest

from handsat import encoder as enc
from handsat import numerics as nm
from handsat.corpus import PAD_INDEX
from handsat.errors import ContractError
from handsat.numerics import LstmParams


def make_params(vocab, n, k, rng=None, zero=False):
    def w(shape):
        if zero:
            return nm.parameter(np.zeros(shape))
        return nm.parameter(nm.glorot_uniform(shape, rng))

    table = np.zeros((vocab, n)) if zero else nm.glorot_uniform((vocab, n), rng)
    table[0] = 0.0
    return enc.EncoderParams(
        embedding=nm.parameter(table),
        fwd=LstmParams(w=w((4 * k, n)), u=w((4 * k, k)), b=w(4 * k)),
        bwd=LstmParams(w=w((4 * k, n)), u=w((4 * k, k)), b=w(4 * k)),
    )


def test_zero_params_zero_vector():
    p = make_params(5, 3, k=2, zero=True)
    rep = enc.shared_encode([[2, 3, 4], [1]], p, max_len=2)
    np.testing.assert_array_equal(rep.data[0, :, 2:], np.zeros((2, 4)))


def test_utterance_vector_length_2k():
    rng = np.random.default_rng(0)
    p = make_params(6, 3, k=2, rng=rng)
    rep = enc.shared_encode([[1], [2, 3]], p, max_len=3)
    assert rep.shape == (1, 2, 3 + 4)


def test_empty_utterance_rejected():
    p = make_params(5, 3, k=2, zero=True)
    with pytest.raises(ContractError):
        enc.shared_encode([[2], []], p, max_len=4)


def test_encode_matches_unrolled_cells():
    # oracle: step the cells by hand over each utterance, both directions;
    # the utterances have different lengths, so the batch is ragged
    rng = np.random.default_rng(42)
    n, k, max_len = 3, 2, 4
    p = make_params(7, n, k, rng=rng)
    dialogue = [[2, 5], [3], [6, 1, 4]]
    got = enc.shared_encode(dialogue, p, max_len=max_len).data[0, :, max_len:]

    emb = p.embedding.data
    zero = nm.constant(np.zeros(k))
    for row, ids in zip(got, dialogue):
        h = c = zero
        for i in ids:
            h, c = nm.lstm_step(nm.constant(emb[i]), h, c, p.fwd)
        fwd_last = h.data
        h = c = zero
        for i in reversed(ids):
            h, c = nm.lstm_step(nm.constant(emb[i]), h, c, p.bwd)
        bwd_last = h.data
        np.testing.assert_allclose(row, np.concatenate([fwd_last, bwd_last]),
                                   atol=1e-12)


def test_matching_features_hand_case():
    v = nm.constant(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    out = enc.matching_features(v, max_len=4)
    np.testing.assert_array_equal(
        out.data,
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0]])


def test_matching_features_strictly_lower_triangular():
    rng = np.random.default_rng(1)
    L = 6
    v = nm.constant(rng.standard_normal((L, 4)))
    out = enc.matching_features(v, max_len=8).data
    for t in range(L):
        assert np.all(out[t, t:] == 0.0)
    assert np.all(out[0] == 0.0)


def test_matching_features_orthonormal_rows():
    v = nm.constant(np.eye(4))
    out = enc.matching_features(v, max_len=4).data
    np.testing.assert_array_equal(out, np.zeros((4, 4)))


def test_matching_features_overflow():
    v = nm.constant(np.ones((5, 2)))
    with pytest.raises(ContractError):
        enc.matching_features(v, max_len=4)


def test_shared_encode_single_utterance():
    rng = np.random.default_rng(2)
    p = make_params(9, 3, k=2, rng=rng)
    rep = enc.shared_encode([[1, 2]], p, max_len=6)
    assert rep.shape == (1, 1, 6 + 4)
    np.testing.assert_array_equal(rep.data[0, 0, :6], np.zeros(6))


def test_shared_encode_causal_rows():
    rng = np.random.default_rng(3)
    p = make_params(12, 3, k=2, rng=rng)
    base = [[1, 2, 3], [4, 5], [6, 7], [8, 9]]
    full = enc.shared_encode(base, p, max_len=6).data[0]
    perturbed = [row[:] for row in base]
    perturbed[2] = [10, 11]
    alt = enc.shared_encode(perturbed, p, max_len=6).data[0]
    np.testing.assert_array_equal(full[:2], alt[:2])
    assert not np.array_equal(full[2], alt[2])


def test_encoder_grad_check():
    rng = np.random.default_rng(4)
    p = make_params(10, 3, k=2, rng=rng)
    ids = [[1, 2, 3], [4, 5], [6]]

    def loss():
        return nm.mean_all(nm.square(enc.shared_encode(ids, p, max_len=5)))

    blocks = {"emb": p.embedding,
              "fw": p.fwd.w, "fu": p.fwd.u, "fb": p.fwd.b,
              "bw": p.bwd.w, "bu": p.bwd.u, "bb": p.bwd.b}
    report = nm.grad_check(loss, blocks, samples_per_block=8)
    assert report.passed, report.to_json()


def test_shared_encode_prefixes_are_bit_identical():
    # every prefix re-encoded on its own gives the first rows of the full
    # dialogue; the last utterance is the longest, so prefixes run fewer steps
    rng = np.random.default_rng(5)
    p = make_params(30, 8, k=6, rng=rng)
    lengths = list(rng.integers(1, 9, size=23)) + [12]
    dialogue = [list(rng.integers(1, 30, size=n)) for n in lengths]
    max_len = 64
    full = enc.shared_encode(dialogue, p, max_len=max_len).data[0]
    for cut in range(1, len(dialogue) + 1):
        prefix = enc.shared_encode(dialogue[:cut], p, max_len=max_len).data[0]
        assert prefix[:, max_len:].tobytes() == full[:cut, max_len:].tobytes(), cut
        np.testing.assert_array_equal(prefix, full[:cut])


def test_ragged_utterance_vectors_bits_match_solo_encoding():
    """Each utterance of a ragged dialogue gets the bits it gets when encoded
    alone, however far its column runs past its end; those padded steps give
    the padding row an exactly zero gradient, with dropout on or off."""
    rng = np.random.default_rng(6)
    p = make_params(30, 8, k=6, rng=rng)
    lengths = [1, 9, 3, 17, 2, 6, 17, 4]
    dialogue = [list(rng.integers(1, 30, size=n)) for n in lengths]
    max_len = 8
    full = enc.shared_encode(dialogue, p, max_len=max_len)
    for t, ids in enumerate(dialogue):
        solo = enc.shared_encode([ids], p, max_len=max_len).data[0, 0, max_len:]
        assert solo.tobytes() == full.data[0, t, max_len:].tobytes(), t
    for dropout_rng in (None, np.random.default_rng(7)):
        p.embedding.grad = None
        rep = enc.shared_encode(dialogue, p, max_len=max_len, dropout=0.3,
                                rng=dropout_rng)
        weights = nm.constant(rng.standard_normal(rep.shape))
        nm.sum_all(nm.mul(rep, weights)).backward()
        assert not p.embedding.grad[PAD_INDEX].any()
        assert p.embedding.grad[1:].any()
