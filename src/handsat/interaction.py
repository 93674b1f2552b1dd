"""Role-selected interaction layer.

Two task-specific dense projections split the shared representation into a
handoff view and a satisfaction view, which then exchange information in
both directions:

  * satisfaction -> handoff: attention over strictly-past *customer*
    positions only (agent satisfaction is treated as noise for handoff),
    then a dense fusion of the context with the handoff view;
  * handoff -> satisfaction: past-inclusive attention whose scores are
    re-weighted by a position matrix that favors later positions, followed
    by a residual add and layer normalization.

Each direction is one numerics.attention call; only its mask and
re-weighting say which. Masked-out attention rows produce zero context
vectors, so position 1 (which has no past) contributes nothing rather than
a uniform leak.

Only the attention compares positions; everything else works row by row.
Model.forward_batch runs task_projections once on a batch's padded
(B, L_max, ·) rows, interact once per dialogue on that dialogue's (L, d)
view slices, and fuse once on the padded views and the stacked contexts.
interact stays per dialogue because the benchmark counts the attention's
L x L pairs per interact call from its role mask; a batched interact waits
for that count to come from each dialogue's own length. Fixed-shape row
blocks keep every row's bits the same whichever rows share its products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .errors import ContractError
from .numerics import Tensor

INTERACTION_MODES = ("full", "no_interact", "no_select", "no_position")

@dataclass
class InteractionParams:
    handoff_w: Tensor        # (d, l_max + 2k)
    handoff_b: Tensor        # (d,)
    satisfaction_w: Tensor   # (d, l_max + 2k)
    satisfaction_b: Tensor   # (d,)
    fusion_w: Tensor         # (d, 2d)
    fusion_b: Tensor         # (d,)
    norm_gain: Tensor        # (d,)
    norm_bias: Tensor        # (d,)


@dataclass
class Attention:
    """One dialogue's L x L work, in both directions."""
    s2h_context: Tensor | None   # (L, d) attended satisfaction view; None in no_interact
    h2s_context: Tensor | None   # (L, d) attended handoff view
    attn_sat_to_handoff: Tensor  # (L, L); zero rows where nothing is allowed
    attn_handoff_to_sat: Tensor  # (L, L)
    position_weights: np.ndarray  # (L, L) constant


@dataclass
class InteractionOutput:
    """A batch's interaction: (B, L_max, d) rows, each dialogue's in its
    first L rows of its slice, and each dialogue's attention."""
    handoff_fused: Tensor        # input to the handoff decoder
    satisfaction_fused: Tensor   # input to the satisfaction decoder
    handoff_view: Tensor         # projection before interaction
    satisfaction_view: Tensor
    attention: list[Attention]


def task_projections(shared: Tensor, params: InteractionParams) -> tuple[Tensor, Tensor]:
    """The handoff and satisfaction views of the shared rows, row by row
    (any leading axes)."""
    handoff = nm.relu(nm.linear_rows(shared, params.handoff_w, params.handoff_b))
    satisfaction = nm.relu(nm.linear_rows(shared, params.satisfaction_w,
                                          params.satisfaction_b))
    return handoff, satisfaction


@nm.per_length
def position_matrix(length: int) -> np.ndarray:
    """(L, L) positional weights: row t - 1 is query position t's softmax of
    (1/L, ..., t/L) over positions 1..t, zero beyond, strictly increasing on
    its support; one row-wise masked softmax (lengths 1-64 hold 0.7 MB)."""
    raw = np.broadcast_to(np.arange(1, length + 1) / length, (length, length))
    return nm.masked_softmax(nm.constant(raw), nm.tril(length)).data


def interact(
    views: tuple[Tensor, Tensor],
    is_customer: np.ndarray,
    mode: str = "full",
) -> Attention:
    """The attention of one dialogue, from its (L, d) handoff and
    satisfaction views and its (L,) role mask: one masked attention per
    direction. no_interact attends nowhere."""
    if mode not in INTERACTION_MODES:
        raise ContractError(f"unknown interaction mode {mode!r}")
    handoff_view, satisfaction_view = views
    length = handoff_view.data.shape[0]
    if len(is_customer) != length:
        raise ContractError("role vector length mismatch")
    if mode == "no_interact":
        zeros = nm.constant(np.zeros((length, length)))
        return Attention(None, None, zeros, zeros, np.zeros((length, length)))
    allowed = nm.tril(length, -1)
    if mode != "no_select":
        allowed = allowed & np.asarray(is_customer, dtype=bool)  # key columns
    s2h, attn_s2h = nm.attention(handoff_view, satisfaction_view,
                                 satisfaction_view, allowed)
    position = np.eye(length) if mode == "no_position" else position_matrix(length)
    h2s, attn_h2s = nm.attention(
        satisfaction_view, handoff_view, handoff_view, nm.tril(length),
        reweight=lambda scores: nm.attend(scores, nm.constant(position)))
    return Attention(s2h, h2s, attn_s2h, attn_h2s, position)


def fuse(
    handoff_view: Tensor,
    satisfaction_view: Tensor,
    attention: Sequence[Attention],
    params: InteractionParams,
    mode: str = "full",
) -> InteractionOutput:
    """The row-wise rest of the interaction, once for a batch, from its
    padded (B, L_max, d) views: each dialogue's contexts stacked to the
    same layout, zero past its end, then the satisfaction -> handoff fusion
    relu(fusion_w [context; view] + fusion_b) and the handoff ->
    satisfaction residual add and layer norm. no_interact passes both views
    through. Rows past a dialogue's end come out as finite values computed
    from the views' padded rows, relu(projection bias), which no row of the
    dialogue reads."""
    if mode == "no_interact":
        fused_h, fused_s = handoff_view, satisfaction_view
    else:
        length = handoff_view.data.shape[1]
        s2h = nm.stack_padded([a.s2h_context for a in attention], length)
        h2s = nm.stack_padded([a.h2s_context for a in attention], length)
        fused_h = nm.relu(nm.linear_rows(
            nm.concat_cols(s2h, handoff_view), params.fusion_w, params.fusion_b))
        fused_s = nm.layer_norm(nm.add(h2s, satisfaction_view),
                                params.norm_gain, params.norm_bias)
    return InteractionOutput(fused_h, fused_s, handoff_view, satisfaction_view,
                             list(attention))
