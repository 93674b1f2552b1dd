"""Shared utterance/matching encoder.

Each utterance runs through a word-level bidirectional LSTM; the final
forward and backward hidden states are concatenated into a fixed-width
utterance vector. A strictly-past matching block (dot products against every
earlier utterance vector, zero-padded to the configured maximum dialogue
length) is prepended, giving the shared representation both task branches
start from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError
from .numerics import LstmParams, Tensor


@dataclass
class EncoderParams:
    embedding: Tensor   # (|V|, n); padding row zero and never gathered
    fwd: LstmParams     # word-level cell, input n, hidden k
    bwd: LstmParams

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size


def encode_utterance(token_ids: list[int], params: EncoderParams,
                     dropout: float = 0.0,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Utterance vector of length 2k: [last forward hidden; last backward
    hidden]. Dropout (train only) applies to the embedded tokens."""
    if len(token_ids) == 0:
        raise ContractError("cannot encode an empty utterance")
    embedded = nm.gather_rows(params.embedding, token_ids)
    if dropout > 0.0:
        if rng is None:
            raise ContractError("dropout requires an RNG")
        embedded = nm.dropout(embedded, dropout, rng)
    h_fwd = nm.row(nm.lstm_sequence(embedded, params.fwd), -1)
    h_bwd = nm.row(nm.lstm_sequence(nm.flip_rows(embedded), params.bwd), -1)
    return nm.concat1d([h_fwd, h_bwd])


def matching_features(vectors: Tensor, max_len: int) -> Tensor:
    """Row t holds dot(v_t, v_j) for j < t, then zeros out to max_len; the
    support is strictly lower-triangular (row 1 is all zeros)."""
    length = vectors.data.shape[0]
    if length > max_len:
        raise ContractError(f"dialogue length {length} exceeds max {max_len}")
    scores = nm.pairwise_scores(vectors, vectors)
    strict_past = np.tril(np.ones((length, length)), k=-1)
    return nm.pad_cols(nm.mul(scores, nm.constant(strict_past)), max_len)


def shared_encode(token_ids: list[list[int]], params: EncoderParams,
                  max_len: int, dropout: float = 0.0,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Shared representation (L, max_len + 2k) both task branches start
    from: matching features, then utterance vectors."""
    if len(token_ids) > max_len:
        raise ContractError(f"dialogue length {len(token_ids)} exceeds max {max_len}")
    vectors = nm.stack_rows([
        encode_utterance(ids, params, dropout=dropout, rng=rng)
        for ids in token_ids])
    matched = matching_features(vectors, max_len)
    return nm.concat_cols(matched, vectors)
