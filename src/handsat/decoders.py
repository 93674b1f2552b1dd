"""Task decoders.

Handoff: a unidirectional LSTM over the fused handoff rows followed by a
per-step softmax classifier, so each prediction depends only on the dialogue
prefix.

Satisfaction: a single causal transformer block refines the fused
satisfaction rows; each row maps to a local satisfaction distribution, and a
learned query scores customer positions into importance weights. Agent
positions receive exactly zero importance. The decoder ends in
aggregate_variant, which pools the local rows into the dialogue-level
estimate: the attention mode weights them by importance (the paper's pool),
and average / voting / last cover the ablation variants.

Both decoders take a batch's (B, L_max, d) rows. The rows past a
dialogue's end hold finite values that mean nothing (the interaction
computes them from act(projection bias) view rows). Every step is causal or
row-wise, and the importance and the pools give those rows exactly zero
weight, so they never reach a dialogue's own rows or its distribution, and
they get an exactly zero gradient. The satisfaction side treats any leading
axes as batch axes, so it also takes one dialogue's (L, d) rows.

A dialogue without customer utterances gets an all-zero importance row
and dialogue distribution in every aggregation mode. A stream prefix can be
one; corpus.check_dialogues keeps them out of training and evaluation.
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


def decode_handoff(fused: Tensor, params: HandoffDecoderParams,
                   carry: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """Row-stochastic handoff distributions, (B, L_max, 2), and the LSTM's
    final (h, c). Given the (h, c) of the rows before fused's, as carry
    (untaped only), the rows have the bits they get after those rows."""
    hidden, carry = nm.lstm_sequence(fused, params.cell, carry)
    logits = nm.linear_rows(hidden, params.out_w, params.out_b)
    return nm.masked_softmax(logits, None), carry


def transformer_block(x: Tensor, params: TransformerParams, heads: int) -> Tensor:
    """One post-norm block with causal (past-inclusive) self-attention; all
    heads run at once on a head axis after any batch axes."""
    length, width = x.data.shape[-2:]
    q = nm.split_heads(nm.linear_rows(x, params.wq, params.bq), heads)
    k = nm.split_heads(nm.linear_rows(x, params.wk), heads)
    v = nm.split_heads(nm.linear_rows(x, params.wv, params.bv), heads)
    allowed = np.broadcast_to(nm.tril(length), q.data.shape[:-1] + (length,))
    ctx, _ = nm.attention(q, k, v, allowed, reweight=lambda scores:
                          nm.scale(scores, 1.0 / np.sqrt(width // heads)))
    attended = nm.linear_rows(nm.merge_heads(ctx), params.wo, params.bo)
    x1 = nm.layer_norm(nm.add(x, attended), params.ln1_gain, params.ln1_bias)
    ff = nm.linear_rows(nm.relu(nm.linear_rows(x1, params.ff1_w, params.ff1_b)),
                        params.ff2_w, params.ff2_b)
    return nm.layer_norm(nm.add(x1, ff), params.ln2_gain, params.ln2_bias)


def decode_satisfaction(
    fused: Tensor,
    is_customer: np.ndarray,
    params: SatisfactionDecoderParams,
    heads: int,
    mode: str,
) -> tuple[Tensor, Tensor, Tensor]:
    """Returns (dialogue distributions (B, 3), local distributions (B, L_max, 3),
    importance weights (B, L_max), zero on agent positions), the first pooled
    by aggregate_variant in mode; is_customer is (B, L_max), False past each
    dialogue's end. A position's importance score is its key times the
    learned query, a linear_rows with one output row."""
    is_customer = np.asarray(is_customer, dtype=bool)
    if is_customer.shape != fused.data.shape[:-1]:
        raise ContractError("role vector length mismatch")
    refined = transformer_block(
        nm.linear_rows(fused, params.proj_w, params.proj_b),
        params.transformer, heads)
    local = nm.masked_softmax(nm.linear_rows(refined, params.local_w, params.local_b),
                              None)
    keys = nm.tanh(nm.linear_rows(refined, params.attn_w, params.attn_b))
    scores = nm.linear_rows(keys, nm.row(params.query, (None,)))  # (B, L_max, 1)
    importance = nm.masked_softmax(nm.row(scores, (..., 0)), is_customer)
    return aggregate_variant(local, is_customer, mode, importance), local, importance


def pool(weights: Tensor, local: Tensor) -> Tensor:
    """The weighted row sum over t of weights[..., t] * local[..., t, :]:
    attend with weights as a one-row matrix, so exact-zero weights (padding,
    agent positions) are no-ops."""
    return nm.row(nm.attend(nm.row(weights, np.s_[..., None, :]), local),
                  np.s_[..., 0, :])


def aggregate_variant(
    local: Tensor,
    is_customer: np.ndarray,
    mode: str,
    importance: Tensor | None = None,
) -> Tensor:
    """Dialogue-level distribution from the local rows, (L, 3) with
    is_customer (L,), or one per dialogue from (B, L_max, 3) with (B, L_max).

    attention needs the importance weights; average and last pool the local
    rows with constant weights (last: one-hot on the last customer, which
    gives that row exactly); voting (majority argmax, one-hot output) is
    non-differentiable and returns a constant.
    """
    if mode not in AGGREGATE_MODES:
        raise ContractError(f"unknown aggregation mode {mode!r}")
    is_customer = np.asarray(is_customer, dtype=bool)
    counts = is_customer.sum(axis=-1, keepdims=True)
    if mode == "attention":
        if importance is None:
            raise ContractError("attention aggregation requires importance weights")
        return pool(importance, local)
    if mode == "average":
        return pool(nm.constant(is_customer / np.maximum(counts, 1)), local)
    positions = np.arange(is_customer.shape[-1])
    if mode == "last":
        last = np.max(np.where(is_customer, positions, -1), axis=-1, keepdims=True)
        return pool(nm.constant((positions == last).astype(float)), local)
    # voting; ties resolve to the lowest class index
    classes = np.arange(local.data.shape[-1])
    votes = (np.argmax(local.data, axis=-1)[..., None] == classes) & is_customer[..., None]
    winner = np.argmax(votes.sum(axis=-2), axis=-1)[..., None] == classes
    return nm.constant((winner & (counts > 0)).astype(float))


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
