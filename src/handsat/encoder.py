"""Shared utterance/matching encoder.

Each utterance runs through a word-level bidirectional LSTM; the final
forward and backward hidden states are concatenated into a fixed-width
utterance vector. A strictly-past matching block (dot products against every
earlier utterance vector, zero-padded to the configured maximum dialogue
length) is prepended, giving the shared representation both task branches
start from.

All N utterances of a dialogue are encoded together, as a batch of N token
sequences. The tokens are embedded once, in dialogue order, plus one
padding row; dropout applies to that table, so both directions see the same
dropped tokens. Two (N, T) index grids, T the longest utterance's length,
pick each direction's inputs from it: row n of the forward grid holds
utterance n's tokens in order, row n of the backward grid holds them
reversed, and both hold the padding row past the utterance's length. One
lstm_sequence per direction then runs all rows for all T steps, and each
direction's state is picked at the utterance's own last step, entry
length - 1 of its row; the padded steps after it get an exactly zero
gradient. Because the batched recurrence computes its rows in fixed-shape
blocks, an utterance's vector has the same bits whichever utterances run
beside it, and a dialogue prefix gives the first rows of the full
dialogue's vectors bit for bit.

Several dialogues encode as one batch of utterances: their utterances are
listed back to back and a size per dialogue says where each ends. The
vectors are laid out on a (B, L_max) grid of utterance slots, each dialogue
in its own slice, zero past its end; the matching block is one batched
product over it, and the representation keeps that layout.
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


def matching_features(vectors: Tensor, max_len: int) -> Tensor:
    """Row t holds dot(v_t, v_j) for j < t, then zeros out to max_len; the
    support is strictly lower-triangular (row 1 is all zeros). vectors is
    (L, w), or (..., L, w) with leading batch axes."""
    length = vectors.data.shape[-2]
    if length > max_len:
        raise ContractError(f"dialogue length {length} exceeds max {max_len}")
    scores = nm.pairwise_scores(vectors, vectors)
    strict_past = nm.constant(nm.tril(length, -1))  # as 0.0 / 1.0
    return nm.pad_cols(nm.mul(scores, strict_past), max_len)


def shared_encode(token_ids: list[list[int]], params: EncoderParams,
                  max_len: int, dropout: float = 0.0,
                  rng: np.random.Generator | None = None,
                  sizes: list[int] | None = None) -> Tensor:
    """Shared representation both task branches start from, one row per
    utterance slot, (B, L_max, max_len + 2k): matching features, then
    utterance vectors. token_ids holds one dialogue's utterances, or those
    of several dialogues back to back with sizes[b] utterances in dialogue
    b, whose rows are the first sizes[b] of slice b; a row's matching
    features cover its own dialogue. Dropout applies to the embedded tokens
    when an rng is given."""
    sizes = [len(token_ids)] if sizes is None else list(sizes)
    if sum(sizes) != len(token_ids):
        raise ContractError(f"{len(token_ids)} utterances for dialogue sizes {sizes}")
    lengths = np.array([len(ids) for ids in token_ids], dtype=np.intp)
    if min(sizes, default=0) == 0 or lengths.min() == 0:
        raise ContractError("cannot encode an empty dialogue or utterance")
    if max(sizes) > max_len:
        raise ContractError(f"dialogue length {max(sizes)} exceeds max {max_len}")
    # token table in dialogue order; its last row is the padding row, which
    # fills the grids past each utterance's end and is part of the dropout draw
    table = nm.gather_rows(params.embedding,
                           [i for ids in token_ids for i in ids] + [PAD_INDEX])
    if rng is not None:
        table = nm.dropout(table, dropout, rng)
    starts = np.cumsum(lengths) - lengths
    step = np.arange(lengths.max())
    live = step < lengths[:, None]
    pad = table.data.shape[0] - 1
    fwd = np.where(live, starts[:, None] + step, pad)
    bwd = np.where(live, (starts + lengths - 1)[:, None] - step, pad)
    h_fwd, _ = nm.lstm_sequence(nm.gather_rows(table, fwd), params.fwd)
    h_bwd, _ = nm.lstm_sequence(nm.gather_rows(table, bwd), params.bwd)
    last = (np.arange(lengths.size), lengths - 1)
    vectors = nm.concat_cols(nm.row(h_fwd, last), nm.row(h_bwd, last))
    ends = np.cumsum(sizes)
    grid = nm.stack_padded([nm.row(vectors, slice(end - n, end))
                            for end, n in zip(ends, sizes)], max(sizes))
    return nm.concat_cols(matching_features(grid, max_len), grid)
