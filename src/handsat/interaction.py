"""Role-selected interaction layer.

Two task-specific dense projections split the shared representation into a
handoff view and a satisfaction view, which then exchange information in
both directions:

  * satisfaction -> handoff: attention over strictly-past *customer*
    positions only (agent satisfaction is treated as noise for handoff);
  * handoff -> satisfaction: past-inclusive attention whose scores are
    re-weighted by a position matrix that favors later positions, followed
    by a residual add and layer normalization.

Masked-out attention rows produce zero context vectors, so position 1 (which
has no past) contributes nothing rather than a uniform leak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics as nm
from .errors import ContractError
from .numerics import Tensor

INTERACTION_MODES = ("full", "no_interact", "no_select", "no_position")

ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": nm.relu,
    "tanh": nm.tanh,
    "linear": lambda t: t,
}


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
class InteractionOutput:
    handoff_fused: Tensor        # (L, d) input to the handoff decoder
    satisfaction_fused: Tensor   # (L, d) input to the satisfaction decoder
    handoff_view: Tensor         # (L, d) projection before interaction
    satisfaction_view: Tensor    # (L, d)
    attn_sat_to_handoff: Tensor  # (L, L); zero rows where nothing is allowed
    attn_handoff_to_sat: Tensor  # (L, L)
    position_weights: np.ndarray  # (L, L) constant


def task_projections(shared: Tensor, params: InteractionParams,
                     activation: str = "relu") -> tuple[Tensor, Tensor]:
    act = ACTIVATIONS[activation]
    handoff = act(nm.linear_rows(shared, params.handoff_w, params.handoff_b))
    satisfaction = act(nm.linear_rows(shared, params.satisfaction_w,
                                      params.satisfaction_b))
    return handoff, satisfaction


def satisfaction_to_handoff(
    handoff_view: Tensor,
    satisfaction_view: Tensor,
    is_customer: np.ndarray,
    params: InteractionParams,
    activation: str = "relu",
    select_roles: bool = True,
) -> tuple[Tensor, Tensor]:
    """Fuse local satisfaction context into the handoff view. Each position
    may attend to strictly earlier positions; with role selection on, only
    to earlier *customer* positions."""
    length = handoff_view.data.shape[0]
    if len(is_customer) != length:
        raise ContractError("role vector length mismatch")
    allowed = nm.tril(length, -1)
    if select_roles:
        allowed = allowed & np.asarray(is_customer, dtype=bool)  # key columns
    scores = nm.pairwise_scores(handoff_view, satisfaction_view)
    attn = nm.masked_softmax(scores, allowed)
    context = nm.attend(attn, satisfaction_view)
    fused = ACTIVATIONS[activation](nm.linear_rows(
        nm.concat_cols(context, handoff_view), params.fusion_w, params.fusion_b))
    return fused, attn


@nm.per_length
def position_matrix(length: int) -> np.ndarray:
    """(L, L) positional weights: row t - 1 is query position t's softmax of
    (1/L, ..., t/L) over positions 1..t, zero beyond, strictly increasing on
    its support; one row-wise masked softmax (lengths 1-64 hold 0.7 MB)."""
    raw = np.broadcast_to(np.arange(1, length + 1) / length, (length, length))
    return nm.masked_softmax(nm.constant(raw), nm.tril(length)).data


def handoff_to_satisfaction(
    satisfaction_view: Tensor,
    handoff_view: Tensor,
    position: np.ndarray,
    params: InteractionParams,
) -> tuple[Tensor, Tensor]:
    """Fuse handoff context into the satisfaction view with position-weighted
    past-inclusive attention, a residual connection, and layer norm."""
    length = satisfaction_view.data.shape[0]
    if position.shape != (length, length):
        raise ContractError("position matrix shape mismatch")
    scores = nm.attend(nm.pairwise_scores(satisfaction_view, handoff_view),
                       nm.constant(position))
    attn = nm.masked_softmax(scores, nm.tril(length))
    mixed = nm.add(nm.attend(attn, handoff_view), satisfaction_view)
    return nm.layer_norm(mixed, params.norm_gain, params.norm_bias), attn


def interact(
    shared: Tensor,
    is_customer: np.ndarray,
    params: InteractionParams,
    mode: str = "full",
    activation: str = "relu",
) -> InteractionOutput:
    if mode not in INTERACTION_MODES:
        raise ContractError(f"unknown interaction mode {mode!r}")
    handoff_view, satisfaction_view = task_projections(shared, params, activation)
    length = shared.data.shape[0]

    if mode == "no_interact":
        fused_h, fused_s = handoff_view, satisfaction_view
        attn_s2h = attn_h2s = nm.constant(np.zeros((length, length)))
        position = np.zeros((length, length))
    else:
        fused_h, attn_s2h = satisfaction_to_handoff(
            handoff_view, satisfaction_view, is_customer, params, activation,
            select_roles=(mode != "no_select"))
        position = np.eye(length) if mode == "no_position" else position_matrix(length)
        fused_s, attn_h2s = handoff_to_satisfaction(
            satisfaction_view, handoff_view, position, params)
    return InteractionOutput(
        handoff_fused=fused_h,
        satisfaction_fused=fused_s,
        handoff_view=handoff_view,
        satisfaction_view=satisfaction_view,
        attn_sat_to_handoff=attn_s2h,
        attn_handoff_to_sat=attn_h2s,
        position_weights=position,
    )
