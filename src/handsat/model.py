"""Full model: configuration, parameter construction, forward pass, trace.

Parameter blocks are named by their field paths in the parameter
dataclasses the layers read (enc.fwd.w, dec_s.transformer.wq). Their memory
is one float64 array, Model.params, each block's data a view of its slice
in Model.blocks order; Model.grads holds their gradients in the same layout.

The forward pass runs a batch of dialogues (forward_batch) padded to the
longest, one layout from the encoder to the decoders: the encoder, the
interaction's row-wise maps and both decoders (the satisfaction decoder
with its pool) each run once per batch; only the L x L attention runs once
per dialogue, on views cut from the padded rows (see interaction.py for
why). Training's losses and evaluation read the padded outputs; result[b]
cuts the ForwardResult that one dialogue's forward (a batch of one) and
predict's trace read.
Training and evaluation forward at most SUB_BATCH dialogues at a time.
Model.session() streams one dialogue for predict with the same code,
carrying the handoff decoder's recurrence between pushes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from . import numerics as nm
from .config import decode_config
from .corpus import Role, init_embeddings
from .decoders import (HandoffDecoderParams, SatisfactionDecoderParams,
                       TransformerParams, decode_handoff, decode_satisfaction)
from .encoder import EncoderParams, shared_encode
from .errors import ConfigError, ContractError
from .interaction import (INTERACTION_MODES, InteractionOutput, InteractionParams,
                          fuse, interact, task_projections)
from .numerics import LstmParams, Tensor

# Most dialogues per forward in training and evaluation; sub_batches splits
# a batch into as few parts as that allows, as evenly as it can, so the
# default 16-dialogue optimizer batch runs as 8 + 8 and the 25-dialogue
# acceptance dev set as 7 + 6 + 6 + 6. A sub-batch's tape holds all of its
# dialogues' activations until its one backward, so memory sets the size:
# test_optimizer_step_traced_peak_is_bounded keeps one optimizer step's
# tracemalloc peak under 3,888,835 bytes. With the tape the 4 x 4 split ran
# with (2,886,958), 8 + 8 read 5,047,373. The LSTM keeps only its gates and
# hidden states now, dropout a boolean mask, and objective_terms drops each
# sub-batch's outputs before the next forward, and the encoder's LSTMs read
# the token table through index grids, so the tape holds no gathered
# (B, T, n) grids: 4 x 4 reads 1,964,829, 8 + 8 3,326,792, and one forward
# of all 16 5,867,916 (out of reach; 2,098,375, 3,578,651 and 6,377,826
# with the gathered grids). perfbench
# train, seed 7, 2 vCPUs, one BLAS thread, 10 alternating 55 s pairs,
# median [quartiles], 4 x 4 at the parent against 8 + 8 with the lean tape
# (BENCH_7da106d_train.json): dialogues_per_s 579.2 [564.7, 604.4] ->
# 704.1 [685.2, 714.7], won 10 of 10; peak_rss_mb 46.45 [46.41, 46.48] ->
# 46.93 [46.89, 46.98] (+1.0%).
SUB_BATCH = 8


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
    interaction_mode: str
    dropout: float

    def validate(self) -> None:
        for f in fields(self):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be a positive integer")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must cover padding and unknown tokens")
        if self.hidden_size % self.heads != 0:
            raise ConfigError("hidden_size must be divisible by heads")
        if self.interaction_mode not in INTERACTION_MODES:
            raise ConfigError(f"unknown interaction mode {self.interaction_mode!r}")
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
    """One dialogue's outputs and attention, as predict's trace reads them."""
    handoff_probs: Tensor         # (L, 2)
    satisfaction_probs: Tensor    # (3,)
    local_satisfaction: Tensor    # (L, 3)
    importance: Tensor            # (L,)
    attn_sat_to_handoff: Tensor   # (L, L); zero rows where nothing is allowed
    attn_handoff_to_sat: Tensor   # (L, L)
    position_weights: np.ndarray  # (L, L) constant

    def trace(self, roles: Sequence[Role], interaction_mode: str) -> dict:
        """JSON-ready snapshot of the outputs and attention matrices."""
        return {
            "roles": [r.value for r in roles],
            "interaction_mode": interaction_mode,
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
    is_customer: np.ndarray       # (B, L_max), False past each dialogue's end
    handoff_probs: Tensor         # (B, L_max, 2)
    satisfaction_probs: Tensor    # (B, 3)
    local_satisfaction: Tensor    # (B, L_max, 3)
    importance: Tensor            # (B, L_max)

    def __getitem__(self, b: int) -> ForwardResult:
        """Dialogue b's outputs, cut on the tape."""
        rows = (b, slice(0, self.lengths[b]))
        attention = self.attention[b]
        return ForwardResult(
            handoff_probs=nm.row(self.handoff_probs, rows),
            satisfaction_probs=nm.row(self.satisfaction_probs, b),
            local_satisfaction=nm.row(self.local_satisfaction, rows),
            importance=nm.row(self.importance, rows),
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
            model = cls._assemble(config, table,
                                  lambda shape: nm.glorot_uniform(shape, rng), np.full)
            values = np.concatenate([t.data.reshape(-1) for t in model.blocks.values()])
            model._bind(nm.mapped_copy(values),
                        nm.mapped_copy(np.broadcast_to(-0.0, values.shape)))
            return model
        except (MemoryError, ValueError) as e:  # numpy's "cannot allocate" errors
            raise ConfigError(f"cannot allocate the configured model: {e}") from None

    @classmethod
    def skeleton(cls, config: ModelConfig) -> "Model":
        """The blocks of `build`, params and grads as read-only zero-stride
        arrays: every name and shape, with no memory allocated for values."""
        config.validate()

        def zeros(shape, value=0.0):
            return np.broadcast_to(value, shape)

        model = cls._assemble(config, zeros((config.vocab_size, config.embed_dim)),
                              zeros, zeros)
        size = sum(t.data.size for t in model.blocks.values())
        model._bind(zeros(size), zeros(size, -0.0))
        return model

    def _bind(self, params: np.ndarray, grads: np.ndarray | None = None) -> None:
        """Make params and grads (by default all -0.0) the model's memory, each
        block's data and grad views of its slice. Only constructors call this."""
        self.params = params
        self.grads = np.full_like(params, -0.0) if grads is None else grads
        end = 0
        for t in self.blocks.values():
            start, end = end, end + t.data.size
            t.data = params[start:end].reshape(t.shape)
            t.grad = self.grads[start:end].reshape(t.shape)

    @classmethod
    def _assemble(cls, config: ModelConfig, table: np.ndarray, weight,
                  fill) -> "Model":
        """The one place block shapes are written down. weight(shape) gives
        a weight matrix, fill(shape, value) a bias (0) or a gain (1)."""
        n, k, d, z = (config.embed_dim, config.hidden_size, config.dense_size,
                      config.attention_units)
        shared_width = config.max_dialogue_len + 2 * k
        ff = 2 * k  # the transformer's feed-forward width

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
        self.grads.fill(-0.0)  # the additive identity: a first gradient keeps its bits

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
        encoder, the task projections, the fusion, both decoders and the
        aggregation run once on the batch-major (B, L_max, ...) rows, the
        interaction's attention once per dialogue. result[b] has the bits
        of dialogue b's forward alone. Dropout fires exactly when an rng is
        passed, and draws once for the batch."""
        inter, is_customer = self._interaction(token_ids, roles, rng)
        handoff_probs, _ = decode_handoff(inter.handoff_fused, self.handoff_decoder)
        overall, local, importance = decode_satisfaction(
            inter.satisfaction_fused, is_customer, self.satisfaction_decoder,
            self.config.heads)
        return BatchResult(**vars(inter), lengths=[len(ids) for ids in token_ids],
                           is_customer=is_customer, handoff_probs=handoff_probs,
                           satisfaction_probs=overall, local_satisfaction=local,
                           importance=importance)

    def _interaction(self, token_ids: Sequence[list[list[int]]],
                     roles: Sequence[Sequence[Role]],
                     rng: np.random.Generator | None = None
                     ) -> tuple[InteractionOutput, np.ndarray]:
        """forward_batch up to the decoders: the encoder, the task
        projections, each dialogue's attention and the fusion. Returns the
        interaction's padded rows and the (B, L_max) customer mask, False
        past each dialogue's end."""
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

        shared = shared_encode([ids for dialogue in token_ids for ids in dialogue],
                               self.encoder, cfg.max_dialogue_len,
                               dropout=cfg.dropout, rng=rng, sizes=lengths)
        handoff, satisfaction = task_projections(shared, self.interaction)
        cuts = [(b, slice(0, n)) for b, n in enumerate(lengths)]
        attention = [interact((nm.row(handoff, cut), nm.row(satisfaction, cut)),
                              is_customer[cut], mode=cfg.interaction_mode)
                     for cut in cuts]
        inter = fuse(handoff, satisfaction, attention, self.interaction,
                     cfg.interaction_mode)
        return inter, is_customer

    def session(self) -> "Session":
        """An empty stream, to push one utterance at a time."""
        return Session(self)


class Session:
    """One dialogue streamed an utterance at a time, as predict reads it.

    Each push runs the encoder, the interaction and the satisfaction side
    on the whole prefix, as forward does: the satisfaction side depends on
    the prefix length through the position weights. The handoff decoder is
    causal, so a push runs its LSTM one step, on the new row only, from the
    (h, c) the session carries from the push before. Every returned row and
    estimate has the bits of forward on the prefix: a resumed step meets the
    same fixed-shape products as in one run over all rows."""

    def __init__(self, model: Model):
        self.model = model
        self.token_ids: list[list[int]] = []
        self.roles: list[Role] = []
        self._carry: tuple[np.ndarray, np.ndarray] | None = None

    def push(self, ids: list[int], role: Role
             ) -> tuple[np.ndarray, np.ndarray | None]:
        """Append one vocabulary-encoded utterance. Returns its handoff
        distribution (2,) and the prefix's satisfaction distribution (3,),
        which is None until a customer has spoken."""
        self.token_ids.append(ids)
        self.roles.append(role)
        model, cfg = self.model, self.model.config
        with model.untaped():
            inter, is_customer = model._interaction([self.token_ids], [self.roles])
            newest = nm.row(inter.handoff_fused, np.s_[:, -1:])
            probs, self._carry = decode_handoff(newest, model.handoff_decoder,
                                                self._carry)
            if not is_customer.any():
                return probs.data[0, 0], None
            overall, _, _ = decode_satisfaction(
                inter.satisfaction_fused, is_customer, model.satisfaction_decoder,
                cfg.heads)
        return probs.data[0, 0], overall.data[0]
