"""Task decoders.

Handoff: a unidirectional LSTM over the fused handoff rows followed by a
per-step softmax classifier, so each prediction depends only on the dialogue
prefix.

Satisfaction: a single causal transformer block refines the fused
satisfaction rows; each row maps to a local satisfaction distribution, and a
learned query scores customer positions to weight those local distributions
into the dialogue-level estimate. Agent positions receive exactly zero
importance. Alternative aggregators (average / voting / last) cover the
ablation variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .corpus import (SATISFACTION_TO_SENTIMENT, SATISFACTION_CLASSES, Role,
                     SentimentLabel)
from .errors import ContractError
from .numerics import LstmParams, Tensor

AGGREGATE_MODES = ("attention", "average", "voting", "last")


@dataclass
class HandoffDecoderParams:
    cell: LstmParams   # input d, hidden k
    out_w: Tensor      # (2, k)
    out_b: Tensor      # (2,)


@dataclass
class TransformerParams:
    wq: Tensor; bq: Tensor
    wk: Tensor  # no key bias: it cancels under the row softmax
    wv: Tensor; bv: Tensor
    wo: Tensor; bo: Tensor
    ff1_w: Tensor; ff1_b: Tensor
    ff2_w: Tensor; ff2_b: Tensor
    ln1_gain: Tensor; ln1_bias: Tensor
    ln2_gain: Tensor; ln2_bias: Tensor


@dataclass
class SatisfactionDecoderParams:
    proj_w: Tensor     # (k, d) input projection into the transformer width
    proj_b: Tensor     # (k,)
    transformer: TransformerParams
    local_w: Tensor    # (3, k) local satisfaction classifier
    local_b: Tensor    # (3,)
    attn_w: Tensor     # (z, k) importance scorer
    attn_b: Tensor     # (z,)
    query: Tensor      # (z,)


def decode_handoff(fused: Tensor, params: HandoffDecoderParams) -> Tensor:
    """Row-stochastic (L, 2) handoff distributions."""
    hidden = nm.lstm_sequence(fused, params.cell)
    logits = nm.linear_rows(hidden, params.out_w, params.out_b)
    return nm.softmax_rows(logits)


def transformer_block(x: Tensor, params: TransformerParams, heads: int) -> Tensor:
    """One post-norm block with causal (past-inclusive) self-attention; all
    heads run at once on a leading head axis."""
    length, width = x.data.shape
    q = nm.split_heads(nm.linear_rows(x, params.wq, params.bq), heads)
    k = nm.split_heads(nm.linear_rows(x, params.wk), heads)
    v = nm.split_heads(nm.linear_rows(x, params.wv, params.bv), heads)
    scores = nm.scale(nm.pairwise_scores(q, k), 1.0 / np.sqrt(width // heads))
    allowed = np.tril(np.ones((heads, length, length), dtype=bool))
    attn = nm.masked_softmax(scores, allowed)
    ctx = nm.merge_heads(nm.attend(attn, v))
    attended = nm.linear_rows(ctx, params.wo, params.bo)
    x1 = nm.layer_norm(nm.add(x, attended), params.ln1_gain, params.ln1_bias)
    ff = nm.linear_rows(nm.relu(nm.linear_rows(x1, params.ff1_w, params.ff1_b)),
                        params.ff2_w, params.ff2_b)
    return nm.layer_norm(nm.add(x1, ff), params.ln2_gain, params.ln2_bias)


def decode_satisfaction(
    fused: Tensor,
    is_customer: np.ndarray,
    params: SatisfactionDecoderParams,
    heads: int,
    allow_no_customer: bool = False,
) -> tuple[Tensor, Tensor, Tensor]:
    """Returns (dialogue distribution (3,), local distributions (L, 3),
    importance weights (L,) with zero mass on agent positions).

    A dialogue without customer utterances has no defined estimate; that is
    an error unless allow_no_customer is set (streaming prefixes), in which
    case the importance row and the dialogue distribution come back all-zero.
    """
    length = fused.data.shape[0]
    is_customer = np.asarray(is_customer, dtype=bool)
    if is_customer.shape != (length,):
        raise ContractError("role vector length mismatch")
    if not is_customer.any() and not allow_no_customer:
        raise ContractError("satisfaction decoding requires >= 1 customer utterance")
    refined = transformer_block(
        nm.linear_rows(fused, params.proj_w, params.proj_b),
        params.transformer, heads)
    local = nm.softmax_rows(nm.linear_rows(refined, params.local_w, params.local_b))
    keys = nm.tanh(nm.linear_rows(refined, params.attn_w, params.attn_b))
    scores = nm.matvec(keys, params.query)
    importance = nm.masked_softmax(scores, is_customer)
    overall = nm.matvec(nm.transpose(local), importance)
    return overall, local, importance


def aggregate_variant(
    local: Tensor,
    is_customer: np.ndarray,
    mode: str,
    importance: Tensor | None = None,
) -> Tensor:
    """Dialogue-level distribution from the local rows.

    attention needs the importance weights; average and last stay on the
    tape; voting (majority argmax, one-hot output) is non-differentiable and
    returns a constant.
    """
    if mode not in AGGREGATE_MODES:
        raise ContractError(f"unknown aggregation mode {mode!r}")
    is_customer = np.asarray(is_customer, dtype=bool)
    positions = np.flatnonzero(is_customer)
    if positions.size == 0:
        raise ContractError("aggregation requires >= 1 customer utterance")
    if mode == "attention":
        if importance is None:
            raise ContractError("attention aggregation requires importance weights")
        return nm.matvec(nm.transpose(local), importance)
    if mode == "average":
        weights = np.zeros(local.data.shape[0])
        weights[positions] = 1.0 / positions.size
        return nm.matvec(nm.transpose(local), nm.constant(weights))
    if mode == "last":
        return nm.row(local, int(positions[-1]))
    # voting
    votes = np.argmax(local.data[positions], axis=1)
    counts = np.bincount(votes, minlength=local.data.shape[1])
    winner = int(np.argmax(counts))  # ties resolve to the lowest class index
    onehot = np.zeros(local.data.shape[1])
    onehot[winner] = 1.0
    return nm.constant(onehot)


def map_sentiment(local: np.ndarray, roles: Sequence[Role]) -> dict[int, SentimentLabel]:
    """Argmax each customer row (ties to the lowest class index) and map the
    satisfaction class to its sentiment polarity. Keys are 0-based positions;
    agent positions are excluded."""
    out: dict[int, SentimentLabel] = {}
    for t, role in enumerate(roles):
        if role is Role.CUSTOMER:
            cls = SATISFACTION_CLASSES[int(np.argmax(local[t]))]
            out[t] = SATISFACTION_TO_SENTIMENT[cls]
    return out
