"""Shared utterance/matching encoder.

Each utterance runs through a word-level bidirectional LSTM; the final
forward and backward hidden states are concatenated into a fixed-width
utterance vector. A strictly-past matching block (dot products against every
earlier utterance vector, zero-padded to the configured maximum dialogue
length) is prepended, giving the shared representation both task branches
start from.

All N utterances of a dialogue are encoded together, time-major. The tokens
are embedded once, in dialogue order, plus one padding row; dropout applies
to that table, so both directions see the same dropped tokens. Two (T, N)
index grids, T the longest utterance's length, pick each direction's inputs
from it: column n of the forward grid holds utterance n's tokens in order,
column n of the backward grid holds them reversed, and both hold the padding
row below the utterance's length. One length-masked lstm_sequence per
direction then runs all columns at once; a column's state freezes after its
last token, so row T - 1 holds every utterance's final state. Because the
batched recurrence computes its rows in fixed-shape blocks, an utterance's
vector has the same bits whichever utterances run beside it, and a dialogue
prefix gives the first rows of the full dialogue's vectors bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .corpus import PAD_INDEX
from .errors import ContractError
from .numerics import LstmParams, Tensor


@dataclass
class EncoderParams:
    embedding: Tensor   # (|V|, n); padding row zero, read only at padded
                        # grid positions, whose gradient is exactly zero
    fwd: LstmParams     # word-level cell, input n, hidden k
    bwd: LstmParams

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size


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
    from: matching features, then utterance vectors. Dropout applies to
    the embedded tokens when an rng is given."""
    if len(token_ids) > max_len:
        raise ContractError(f"dialogue length {len(token_ids)} exceeds max {max_len}")
    lengths = np.array([len(ids) for ids in token_ids], dtype=np.intp)
    if lengths.size == 0 or lengths.min() == 0:
        raise ContractError("cannot encode an empty dialogue or utterance")
    # token table in dialogue order; its last row is the padding row
    table = nm.gather_rows(params.embedding,
                           [i for ids in token_ids for i in ids] + [PAD_INDEX])
    if rng is not None and dropout > 0.0:
        table = nm.dropout(table, dropout, rng)
    starts = np.cumsum(lengths) - lengths
    step = np.arange(lengths.max())[:, None]
    live = step < lengths
    pad = table.data.shape[0] - 1
    fwd = np.where(live, starts + step, pad)
    bwd = np.where(live, starts + lengths - 1 - step, pad)
    h_fwd = nm.lstm_sequence(nm.gather_rows(table, fwd), params.fwd, lengths)
    h_bwd = nm.lstm_sequence(nm.gather_rows(table, bwd), params.bwd, lengths)
    vectors = nm.concat_cols(nm.row(h_fwd, -1), nm.row(h_bwd, -1))
    matched = matching_features(vectors, max_len)
    return nm.concat_cols(matched, vectors)
