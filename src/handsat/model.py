"""Full model: configuration, parameter construction, forward pass, trace.

Parameter blocks are named by their field paths in the parameter
dataclasses the layers read (enc.fwd.w, dec_s.transformer.wq); the flat
name -> tensor mapping is what the optimizer, the checkpoint container, and
the gradient checker all operate on.

The forward pass runs a batch of dialogues (forward_batch). Per batch, the
encoder, the interaction's row-wise maps (task projections, fusion,
residual and layer norm), both decoders and the aggregation each run once;
only the interaction's L x L attention runs once per dialogue (see
interaction.py for why). forward_batch returns the outputs padded to the
longest dialogue, which training's losses read as they are; result[b] cuts
one dialogue's ForwardResult, which one dialogue's forward (a batch of one)
and evaluation use. Training and evaluation forward at most SUB_BATCH
dialogues at a time.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from . import numerics as nm
from .config import decode_config
from .corpus import Dialogue, Role, Vocabulary, init_embeddings
from .decoders import (AGGREGATE_MODES, HandoffDecoderParams,
                       SatisfactionDecoderParams, TransformerParams,
                       aggregate_variant, decode_handoff, decode_satisfaction)
from .encoder import EncoderParams, shared_encode
from .errors import ConfigError, ContractError
from .interaction import (ACTIVATIONS, INTERACTION_MODES, InteractionOutput,
                          InteractionParams, fuse, interact, task_projections)
from .numerics import LstmParams, Tensor

# Most dialogues per forward in training and evaluation; sub_batches splits
# a batch into as few parts as that allows, as evenly as it can, so the
# default 16-dialogue optimizer batch runs as 4 x 4 (not 5+5+5+1) and the
# 25-dialogue acceptance dev set as 5 x 5. A sub-batch's tape holds all of
# its dialogues' activations until its one backward, so memory sets the
# size. perfbench train, seed 7, 2 vCPUs, one BLAS thread, 10 rounds of
# alternating 55 s runs with the per-dialogue interaction and losses,
# median [quartiles] of peak_rss_mb: one dialogue per forward 44.31 [44.12,
# 44.49]; 4 dialogues 46.41 [46.38, 46.46] (+4.7%); 5 dialogues 47.07
# [47.02, 47.09] (+6.2%); 6 dialogues 47.54 [47.50, 47.61] (+7.3%). Of
# dialogues_per_s: 233 [211, 243]; 333 [320, 353]; 317 [285, 330]; 317
# [312, 327]. Sizes 4-6 do not separate in speed beyond that spread. The
# even split keeps the 4 forwards per optimizer batch of 5+5+5+1 with the
# smaller tape of size 4: with the row-wise interaction and the losses per
# sub-batch, 4 x 4 read 46.57 [46.52, 46.61] MB against 46.95 [46.91,
# 46.99] for 5+5+5+1 with them per dialogue (10 pairs).
SUB_BATCH = 5


@dataclass
class ModelConfig:
    """The model's dimensions and modes. No field has a default: TrainConfig
    holds them, and a stored config carries every field."""
    vocab_size: int
    embed_dim: int                # word embedding width
    hidden_size: int              # LSTM hidden units (k)
    dense_size: int               # task projection width (d)
    attention_units: int          # importance scorer width (z)
    max_dialogue_len: int
    heads: int                    # transformer heads
    ff_mult: int                  # transformer feed-forward width = ff_mult * k
    activation: str
    interaction_mode: str
    aggregate_mode: str
    dropout: float

    def validate(self) -> None:
        for f in fields(self):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be a positive integer")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must cover padding and unknown tokens")
        if self.hidden_size % self.heads != 0:
            raise ConfigError("hidden_size must be divisible by heads")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.interaction_mode not in INTERACTION_MODES:
            raise ConfigError(f"unknown interaction mode {self.interaction_mode!r}")
        if self.aggregate_mode not in AGGREGATE_MODES:
            raise ConfigError(f"unknown aggregation mode {self.aggregate_mode!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        return decode_config(cls, obj, "model config")


def sub_batches(items: Sequence) -> Iterator[Sequence]:
    """Consecutive slices of items, as few as hold at most SUB_BATCH each,
    their sizes differing by at most one."""
    parts = -(-len(items) // SUB_BATCH)
    for i in range(parts):
        yield items[len(items) * i // parts:len(items) * (i + 1) // parts]


@dataclass
class ForwardResult:
    """Everything one dialogue's forward pass produced, still on the tape."""
    handoff_probs: Tensor         # (L, 2)
    satisfaction_probs: Tensor    # (3,)
    local_satisfaction: Tensor    # (L, 3)
    importance: Tensor            # (L,)
    handoff_fused: Tensor         # (L, d) input to the handoff decoder
    satisfaction_fused: Tensor    # (L, d) input to the satisfaction decoder
    handoff_view: Tensor          # (L, d) projection before interaction
    satisfaction_view: Tensor     # (L, d)
    attn_sat_to_handoff: Tensor   # (L, L); zero rows where nothing is allowed
    attn_handoff_to_sat: Tensor   # (L, L)
    position_weights: np.ndarray  # (L, L) constant

    def trace(self, roles: Sequence[Role], interaction_mode: str,
              aggregate_mode: str) -> dict:
        """JSON-ready snapshot of the outputs and attention matrices."""
        return {
            "roles": [r.value for r in roles],
            "interaction_mode": interaction_mode,
            "aggregate_mode": aggregate_mode,
            "handoff_probs": self.handoff_probs.data.tolist(),
            "satisfaction_probs": self.satisfaction_probs.data.tolist(),
            "local_satisfaction": self.local_satisfaction.data.tolist(),
            "importance": self.importance.data.tolist(),
            "attn_sat_to_handoff": self.attn_sat_to_handoff.data.tolist(),
            "attn_handoff_to_sat": self.attn_handoff_to_sat.data.tolist(),
            "position_weights": self.position_weights.tolist(),
        }


@dataclass
class BatchResult(InteractionOutput):
    """A batch's outputs on the tape: the interaction's, plus these, padded
    to its longest dialogue (L_max); dialogue b's rows are the first
    lengths[b] of its slice. result[b] is dialogue b's ForwardResult."""
    lengths: list[int]
    handoff_probs: Tensor         # (B, L_max, 2)
    satisfaction_probs: Tensor    # (B, 3)
    local_satisfaction: Tensor    # (B, L_max, 3)
    importance: Tensor            # (B, L_max)

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, b: int) -> ForwardResult:
        """Dialogue b's outputs, cut on the tape. Each padded tensor is cut
        once, so no_interact's fused rows are its view rows."""
        rows = (b, slice(0, self.lengths[b]))
        cuts: dict[int, Tensor] = {}

        def cut(t: Tensor) -> Tensor:
            if id(t) not in cuts:
                cuts[id(t)] = nm.row(t, rows)
            return cuts[id(t)]

        attention = self.attention[b]
        return ForwardResult(
            handoff_probs=cut(self.handoff_probs),
            satisfaction_probs=nm.row(self.satisfaction_probs, b),
            local_satisfaction=cut(self.local_satisfaction),
            importance=cut(self.importance),
            handoff_fused=cut(self.handoff_fused),
            satisfaction_fused=cut(self.satisfaction_fused),
            handoff_view=cut(self.handoff_view),
            satisfaction_view=cut(self.satisfaction_view),
            attn_sat_to_handoff=attention.attn_sat_to_handoff,
            attn_handoff_to_sat=attention.attn_handoff_to_sat,
            position_weights=attention.position_weights)


def _field_tensors(prefix: str, params) -> Iterator[tuple[str, Tensor]]:
    """(dotted field path, tensor) for each tensor in a parameter dataclass,
    in field order, descending into nested parameter dataclasses."""
    for f in fields(params):
        name, value = f"{prefix}.{f.name}", getattr(params, f.name)
        if isinstance(value, Tensor):
            yield name, value
        else:
            yield from _field_tensors(name, value)


class Model:
    """Parameter container plus the forward pass."""

    def __init__(self, config: ModelConfig, encoder: EncoderParams,
                 interaction_params: InteractionParams,
                 handoff_decoder: HandoffDecoderParams,
                 satisfaction_decoder: SatisfactionDecoderParams):
        config.validate()
        self.config = config
        self.encoder = encoder
        self.interaction = interaction_params
        self.handoff_decoder = handoff_decoder
        self.satisfaction_decoder = satisfaction_decoder
        self.blocks: dict[str, Tensor] = {
            name: t for prefix, params in (
                ("enc", encoder), ("inter", interaction_params),
                ("dec_h", handoff_decoder), ("dec_s", satisfaction_decoder))
            for name, t in _field_tensors(prefix, params)}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, config: ModelConfig, rng: np.random.Generator,
              embedding: np.ndarray | None = None) -> "Model":
        """Glorot-uniform weights, zero biases, unit layer-norm gains. An
        explicit embedding table (e.g. externally loaded vectors) overrides
        the random one; its padding row must be zero."""
        config.validate()
        shape = (config.vocab_size, config.embed_dim)
        try:
            if embedding is None:
                table = init_embeddings(*shape, rng)
            else:
                table = np.asarray(embedding, dtype=np.float64)
                if table.shape != shape:
                    raise ConfigError(f"embedding shape {table.shape} != {shape}")
            return cls._assemble(config, table,
                                 lambda shape: nm.glorot_uniform(shape, rng), np.full)
        except (MemoryError, ValueError) as e:  # numpy's "cannot allocate" errors
            raise ConfigError(f"cannot allocate the configured model: {e}") from None

    @classmethod
    def skeleton(cls, config: ModelConfig) -> "Model":
        """The blocks of `build` as read-only zero-stride arrays: every name
        and shape, with no memory allocated for the values."""
        config.validate()

        def zeros(shape, value=0.0):
            return np.broadcast_to(value, shape)

        return cls._assemble(config, zeros((config.vocab_size, config.embed_dim)),
                             zeros, zeros)

    @classmethod
    def _assemble(cls, config: ModelConfig, table: np.ndarray, weight,
                  fill) -> "Model":
        """The one place block shapes are written down. weight(shape) gives
        a weight matrix, fill(shape, value) a bias (0) or a gain (1)."""
        n, k, d, z = (config.embed_dim, config.hidden_size, config.dense_size,
                      config.attention_units)
        shared_width = config.max_dialogue_len + 2 * k
        ff = config.ff_mult * k

        def w(shape):
            return nm.parameter(weight(shape))

        def b(size):
            return nm.parameter(fill(size, 0.0))

        def gain(size):
            return nm.parameter(fill(size, 1.0))

        def lstm(input_size, hidden):
            return LstmParams(w=w((4 * hidden, input_size)),
                              u=w((4 * hidden, hidden)), b=b(4 * hidden))

        encoder = EncoderParams(embedding=nm.parameter(table),
                                fwd=lstm(n, k), bwd=lstm(n, k))
        inter = InteractionParams(
            handoff_w=w((d, shared_width)), handoff_b=b(d),
            satisfaction_w=w((d, shared_width)), satisfaction_b=b(d),
            fusion_w=w((d, 2 * d)), fusion_b=b(d),
            norm_gain=gain(d), norm_bias=b(d),
        )
        handoff_dec = HandoffDecoderParams(cell=lstm(d, k), out_w=w((2, k)),
                                           out_b=b(2))
        trans = TransformerParams(
            wq=w((k, k)), bq=b(k), wk=w((k, k)),
            wv=w((k, k)), bv=b(k), wo=w((k, k)), bo=b(k),
            ff1_w=w((ff, k)), ff1_b=b(ff), ff2_w=w((k, ff)), ff2_b=b(k),
            ln1_gain=gain(k), ln1_bias=b(k),
            ln2_gain=gain(k), ln2_bias=b(k),
        )
        sat_dec = SatisfactionDecoderParams(
            proj_w=w((k, d)), proj_b=b(k), transformer=trans,
            local_w=w((3, k)), local_b=b(3),
            attn_w=w((z, k)), attn_b=b(z), query=w((z,)),
        )
        return cls(config, encoder, inter, handoff_dec, sat_dec)

    def zero_grads(self) -> None:
        for t in self.blocks.values():
            t.grad = None

    @contextlib.contextmanager
    def untaped(self):
        """Within the block no parameter requires a gradient, so a forward
        records no tape and frees each activation once nothing reads it
        (evaluation and prediction)."""
        saved = [t.requires_grad for t in self.blocks.values()]
        for t in self.blocks.values():
            t.requires_grad = False
        try:
            yield
        finally:
            for t, required in zip(self.blocks.values(), saved):
                t.requires_grad = required

    # -- forward -----------------------------------------------------------

    def forward(self, token_ids: list[list[int]], roles: Sequence[Role]) -> ForwardResult:
        """Run one dialogue without dropout, as a batch of one. token_ids
        holds one vocabulary-encoded id list per utterance."""
        return self.forward_batch([token_ids], [roles])[0]

    def forward_batch(self, token_ids: Sequence[list[list[int]]],
                      roles: Sequence[Sequence[Role]],
                      rng: np.random.Generator | None = None) -> BatchResult:
        """Run B dialogues in one pass, token_ids[b] and roles[b] as forward
        takes them, and return their outputs padded to the longest. The
        encoder and the task projections run once on all their utterances,
        the interaction's attention once per dialogue, and the fusion, both
        decoders and the aggregation once on the batch-major (B, L_max, ...)
        rows. result[b] has the bits of dialogue b's forward alone. Dropout
        fires exactly when an rng is passed, and draws once for the batch."""
        cfg = self.config
        if len(token_ids) != len(roles) or not token_ids:
            raise ContractError("forward_batch needs token_ids and roles for "
                                ">= 1 dialogue")
        lengths = [len(ids) for ids in token_ids]
        if any(len(r) != n for r, n in zip(roles, lengths)):
            raise ContractError("token_ids and roles length mismatch")
        longest = max(lengths)
        is_customer = np.zeros((len(lengths), longest), dtype=bool)
        for b, dialogue_roles in enumerate(roles):
            is_customer[b, :lengths[b]] = [r is Role.CUSTOMER for r in dialogue_roles]

        rows = shared_encode([ids for dialogue in token_ids for ids in dialogue],
                             self.encoder, cfg.max_dialogue_len,
                             dropout=cfg.dropout, rng=rng, sizes=lengths)
        handoff, satisfaction = task_projections(rows, self.interaction,
                                                 cfg.activation)
        cuts = [slice(end - n, end) for end, n in zip(np.cumsum(lengths), lengths)]
        views = [(nm.row(handoff, cut), nm.row(satisfaction, cut)) for cut in cuts]
        attention = [interact(v, is_customer[b, :n], mode=cfg.interaction_mode)
                     for b, (v, n) in enumerate(zip(views, lengths))]
        inter = fuse(views, attention, self.interaction, longest,
                     cfg.interaction_mode, cfg.activation)
        handoff_probs = decode_handoff(inter.handoff_fused, self.handoff_decoder)
        local, importance = decode_satisfaction(
            inter.satisfaction_fused, is_customer, self.satisfaction_decoder,
            cfg.heads)
        overall = aggregate_variant(local, is_customer, cfg.aggregate_mode,
                                    importance=importance)
        return BatchResult(**vars(inter), lengths=lengths,
                           handoff_probs=handoff_probs, satisfaction_probs=overall,
                           local_satisfaction=local, importance=importance)

    def forward_dialogues(self, dialogues: Sequence[Dialogue],
                          vocab: Vocabulary) -> Iterator[ForwardResult]:
        """forward() of each corpus dialogue in order, from one forward_batch
        per sub-batch, untaped (the results are constants)."""
        for part in sub_batches(dialogues):
            with self.untaped():
                result = self.forward_batch([vocab.encode_dialogue(d) for d in part],
                                            [d.roles for d in part])
            yield from result
