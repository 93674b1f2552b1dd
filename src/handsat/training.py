"""Joint objective, Adam training loop, early stopping, and the checkpoint
container.

The loop is deterministic under a fixed seed: initialization, batch order,
and dropout each draw from their own stream spawned from the seed, and all
per-batch reductions run in a fixed order.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import numerics as nm
from .config import decode_config, parse_json
from .corpus import (Dialogue, HandoffLabel, SatisfactionLabel, Vocabulary,
                     build_vocab, check_dialogues)
from .errors import CheckpointError, ConfigError, CorpusError, path_reason
from .metrics import evaluate_model
from .model import BatchResult, Model, ModelConfig, sub_batches
from .numerics import Tensor


@dataclass
class TrainConfig:
    """Model dimensions plus optimization settings; one flat record so a run
    is fully described by one file. ModelConfig takes its values from here.

    embed_dim defaults to a desk-scale width; corpora with external word
    vectors conventionally use 200 (set embed_dim to the vector file's
    dimension, which the loader validates)."""
    # model
    embed_dim: int = 32
    hidden_size: int = 32
    dense_size: int = 32
    attention_units: int = 32
    max_dialogue_len: int = 64
    heads: int = 4
    ff_mult: int = 2
    activation: str = "relu"
    interaction_mode: str = "full"
    aggregate_mode: str = "attention"
    dropout: float = 0.2
    # optimization
    eta: float = 0.5            # satisfaction loss weight
    delta: float = 1e-4         # L2 penalty weight
    learning_rate: float = 1.5e-3
    batch_size: int = 16
    max_epochs: int = 50
    patience: int = 10
    grad_clip: float = 5.0
    min_freq: int = 1
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError("eta must lie in [0, 1)")
        if self.delta < 0.0:
            raise ConfigError("delta must be >= 0")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        for name in ("batch_size", "max_epochs", "patience", "min_freq"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.grad_clip <= 0.0:
            raise ConfigError("grad_clip must be positive")
        if self.aggregate_mode == "voting":
            raise ConfigError(
                "voting aggregation is not differentiable; train with another "
                "mode and select voting at evaluation time")
        # dimension/mode checks are shared with the model config
        self.model_config(vocab_size=2).validate()

    def model_config(self, vocab_size: int) -> ModelConfig:
        """The ModelConfig with this config's value for every other field."""
        return ModelConfig(vocab_size=vocab_size, **{
            f.name: getattr(self, f.name) for f in fields(ModelConfig)
            if f.name != "vocab_size"})

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, obj: dict) -> "TrainConfig":
        return decode_config(cls, obj, "train config")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def handoff_loss(probs: Tensor, golds: Sequence[Sequence[HandoffLabel]]) -> Tensor:
    """Each dialogue's mean per-utterance cross-entropy, (B,), from a
    batch's (B, L_max, 2) rows and each dialogue's labels, the longest
    filling L_max: the exact sum of its gold log-probabilities (clamped at
    1e-12) over -L. Rows past a dialogue's end get an exactly zero
    gradient."""
    lengths = [len(labels) for labels in golds]
    batch, longest = probs.data.shape[:2]
    if len(golds) != batch or min(lengths, default=0) < 1 or max(lengths) != longest:
        raise ConfigError(f"labels for {lengths} utterances, predictions for "
                          f"{batch} x {longest}")
    index = (np.repeat(np.arange(batch), lengths),
             np.concatenate([np.arange(n) for n in lengths]),
             np.array([lab is HandoffLabel.TRANSFERABLE
                       for labels in golds for lab in labels], dtype=np.intp))
    return nm.log_sums(probs, index, lengths, -np.array(lengths))


def satisfaction_loss(probs: Tensor, golds: Sequence[SatisfactionLabel]) -> Tensor:
    """Each dialogue's cross-entropy, (B,), from a batch's (B, 3)
    distributions and labels; log clamped at 1e-12."""
    if len(golds) != probs.data.shape[0]:
        raise ConfigError(f"{len(golds)} labels for {probs.data.shape[0]} dialogues")
    ones = np.ones(len(golds), dtype=np.intp)
    index = (np.arange(len(golds)), np.array([g.index for g in golds], dtype=np.intp))
    return nm.log_sums(probs, index, ones, -ones)


def regularization(blocks: dict[str, Tensor], delta: float) -> Tensor | None:
    """delta times the squared parameter norm; None when delta is 0."""
    if delta == 0.0:
        return None
    return nm.scale(nm.sum_squares(blocks.values()), delta)


def dialogue_loss(out: BatchResult, dialogues: Sequence[Dialogue],
                  eta: float) -> Tensor:
    """Each dialogue's term of the objective, (B,): L_handoff + eta * L_sat
    on a batch's padded outputs."""
    l1 = handoff_loss(out.handoff_probs,
                      [[u.handoff for u in d.utterances] for d in dialogues])
    l2 = satisfaction_loss(out.satisfaction_probs, [d.satisfaction for d in dialogues])
    return nm.add(l1, nm.scale(l2, eta))


def objective_terms(model: Model, batch: Sequence[tuple[list[list[int]], Dialogue]],
                    eta: float, delta: float,
                    rng: np.random.Generator | None = None) -> Iterator[Tensor]:
    """The objective on one batch of (token ids, dialogue) pairs as the terms
    of its sum, in order: for each sub-batch, one forward_batch and the
    exact sum of its dialogue_loss, over len(batch); then the penalty.
    Dropout fires exactly when an rng is passed.

    Each term is built only when the previous one has been consumed, so
    train() holds one sub-batch's tape at a time (SUB_BATCH says what that
    costs)."""
    for part in sub_batches(batch):
        dialogues = [d for _, d in part]
        out = model.forward_batch([ids for ids, _ in part],
                                  [d.roles for d in dialogues], rng=rng)
        losses = dialogue_loss(out, dialogues, eta)
        yield nm.divide(nm.exact_sum(losses), len(batch))
    penalty = regularization(model.blocks, delta)
    if penalty is not None:
        yield penalty


def objective(model: Model, vocab: Vocabulary, batch: Sequence[Dialogue],
              eta: float, delta: float) -> Tensor:
    """The objective on one batch as one tensor: the batch mean of
    dialogue_loss (dropout off) plus delta times the squared parameter norm."""
    pairs = [(vocab.encode_dialogue(d), d) for d in batch]
    return functools.reduce(nm.add, objective_terms(model, pairs, eta, delta))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Standard settings; missing grads count as zero, so untouched blocks
    stay put."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, blocks: dict[str, Tensor], lr: float):
        self.blocks = blocks
        self.lr = lr
        self.m = {k: np.zeros_like(t.data) for k, t in blocks.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in blocks.items()}
        self.t = 0

    def clip_grads(self, max_norm: float) -> float:
        norm = math.fsum(float((t.grad * t.grad).sum())
                         for t in self.blocks.values() if t.grad is not None) ** 0.5
        if norm > max_norm:
            factor = max_norm / norm
            for t in self.blocks.values():
                if t.grad is not None:
                    t.grad *= factor
        return norm

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, t in self.blocks.items():
            g = t.grad if t.grad is not None else 0.0
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * (g * g)
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            t.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: Model
    vocab: Vocabulary
    history: list[dict] = field(default_factory=list)
    timing: list[dict] = field(default_factory=list)  # wall times, per epoch
    best_epoch: int = -1
    best_selection: float = float("-inf")
    diverged: bool = False
    message: str = ""


def _selection_metric(report) -> float:
    return report.mhch["macro_f1"] + report.ssa["macro_f1"]


def train(
    train_corpus: Sequence[Dialogue],
    dev_corpus: Sequence[Dialogue],
    config: TrainConfig,
    vocab: Vocabulary | None = None,
    embedding: np.ndarray | None = None,
) -> TrainResult:
    """Mini-batch Adam on the joint objective with per-epoch dev evaluation
    and patience-based early stopping on the summed macro F1 of both tasks.

    Each batch backpropagates the terms of objective_terms one at a time,
    and its loss is their sum, the value of objective (with dropout).
    Sentiment labels are stripped before anything else touches the data;
    they are evaluation-only. Each history entry also records the epoch's
    largest gradient norm before clipping and the number of clipped batches.
    Wall times go to result.timing, one record per epoch (its seconds,
    training steps and dev evaluation, and training dialogues per second),
    so same-seed histories stay equal.
    """
    config.validate()
    if not train_corpus or not dev_corpus:
        raise CorpusError("training requires non-empty train and dev corpora")
    train_corpus = [d.strip_sentiment() for d in train_corpus]
    dev_corpus = [d.strip_sentiment() for d in dev_corpus]
    check_dialogues([*train_corpus, *dev_corpus], config.max_dialogue_len)

    if vocab is None:
        vocab = build_vocab(train_corpus, min_freq=config.min_freq)
    init_rng, order_rng, dropout_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(3)]
    model = Model.build(config.model_config(len(vocab)), init_rng,
                        embedding=embedding)
    encoded = [vocab.encode_dialogue(d) for d in train_corpus]

    optimizer = Adam(model.blocks, lr=config.learning_rate)
    result = TrainResult(model=model, vocab=vocab)
    best_snapshot: dict[str, np.ndarray] | None = None
    epochs_since_best = 0

    for epoch in range(config.max_epochs):
        started = time.perf_counter()
        order = order_rng.permutation(len(encoded))
        epoch_losses: list[float] = []
        grad_norm_preclip, clipped = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = [(encoded[i], train_corpus[i])
                     for i in order[start:start + config.batch_size]]
            model.zero_grads()
            batch_loss = 0.0
            for term in objective_terms(model, batch, config.eta, config.delta,
                                        rng=dropout_rng):
                batch_loss += term.item()
                term.backward()
            if not np.isfinite(batch_loss):
                if best_snapshot is not None:
                    _restore(model, best_snapshot)
                result.diverged = True
                result.message = (f"non-finite loss in epoch {epoch}; "
                                  f"restored best checkpoint")
                return result
            epoch_losses.append(batch_loss)
            norm = optimizer.clip_grads(config.grad_clip)
            grad_norm_preclip = max(grad_norm_preclip, norm)
            clipped += int(norm > config.grad_clip)
            optimizer.step()

        report, _ = evaluate_model(model, vocab, dev_corpus, sections=("mhch", "ssa"))
        selection = _selection_metric(report)
        result.history.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "grad_norm_preclip": grad_norm_preclip,
            "clipped": clipped,
            "dev_handoff_macro_f1": report.mhch["macro_f1"],
            "dev_handoff_f1": report.mhch["f1_transferable"],
            "dev_satisfaction_macro_f1": report.ssa["macro_f1"],
            "dev_satisfaction_accuracy": report.ssa["accuracy"],
            "dev_selection": selection,
        })
        seconds = time.perf_counter() - started
        result.timing.append({"epoch": epoch, "epoch_seconds": seconds,
                              "dialogues_per_second": len(encoded) / seconds})
        if selection > result.best_selection:
            result.best_selection = selection
            result.best_epoch = epoch
            best_snapshot = {k: t.data.copy() for k, t in model.blocks.items()}
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    if best_snapshot is not None:
        _restore(model, best_snapshot)
    return result


def _restore(model: Model, snapshot: dict[str, np.ndarray]) -> None:
    for name, data in snapshot.items():
        model.blocks[name].data = data.copy()


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------
#
# Byte layout (little-endian):
#   magic   4 bytes  b"HSAT"
#   version u32      currently 3 (2 had no crc and other block names, 1 also
#                    stored layer_norm_eps in model_config)
#   meta    u64 length + UTF-8 JSON:
#           {"model_config": {...}, "vocab": [...], "extra": {...}}
#   count   u32      number of parameter blocks
#   per block:
#     name  u32 length + UTF-8
#     dtype u32 length + UTF-8 (numpy dtype string, always "<f8")
#     ndim  u32, then ndim * u64 dims
#     data  raw C-order bytes
#   crc     u32      zlib.crc32 of every byte before it
#
# Round-trips are bit-exact: values are written as raw float64. Block names
# are the dotted field paths of Model.blocks.

MAGIC = b"HSAT"
FORMAT_VERSION = 3


def save_checkpoint(model: Model, vocab: Vocabulary, path: str | Path,
                    extra: dict | None = None) -> None:
    path = Path(path)
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    meta = json.dumps({
        "model_config": model.config.to_json(),
        "vocab": vocab.to_json(),
        "extra": extra or {},
    }, sort_keys=True).encode("utf-8")
    buf.write(struct.pack("<Q", len(meta)))
    buf.write(meta)
    buf.write(struct.pack("<I", len(model.blocks)))
    for name, tensor in model.blocks.items():
        raw = name.encode("utf-8")
        buf.write(struct.pack("<I", len(raw)))
        buf.write(raw)
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        dt = arr.dtype.str.encode("ascii")
        buf.write(struct.pack("<I", len(dt)))
        buf.write(dt)
        buf.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(arr.tobytes())
    buf.write(struct.pack("<I", zlib.crc32(buf.getvalue())))
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(buf.getvalue())
    os.replace(tmp, path)


class _Reader:
    """Sequential reads from a checkpoint's bytes up to `end`. Every length
    is checked against the bytes left before anything is read or
    allocated."""

    def __init__(self, data: bytes, end: int):
        self.data, self.pos, self.end = data, 0, end

    def take(self, n: int) -> bytes:
        if n > self.end - self.pos:
            raise CheckpointError("checkpoint truncated")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_checkpoint(path: str | Path) -> tuple[Model, Vocabulary, dict]:
    """Rebuild the model from a container. The stored config must name
    every ModelConfig field, and the vocabulary must hold vocab_size
    distinct tokens. The stored block names and shapes are checked against
    those the stored config implies before the model takes the stored
    arrays, so no config can make loading allocate more than the file
    holds. The CRC32 is checked before the metadata is read, and bytes
    between the last block and the CRC are refused."""
    path = Path(path)
    try:
        content = path.read_bytes()
    except (OSError, ValueError) as e:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {path_reason(e)}") from None
    reader = _Reader(content, end=len(content) - 4)  # the CRC is not read
    if reader.take(4) != MAGIC:
        raise CheckpointError(f"{path} is not a handsat checkpoint "
                              "(bad magic bytes)")
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if zlib.crc32(memoryview(content)[:-4]) != struct.unpack("<I", content[-4:])[0]:
        raise CheckpointError(f"checkpoint {path} is truncated or corrupt "
                              "(CRC32 mismatch)")
    meta_bytes = reader.take(reader.u64())
    try:
        meta = parse_json(meta_bytes.decode("utf-8"), CheckpointError,
                          "checkpoint metadata")
        if not isinstance(meta, dict):
            raise ValueError("metadata is not a JSON object")
        config = ModelConfig.from_json(meta["model_config"])
        vocab = Vocabulary.from_json(meta["vocab"])
        if len(vocab) != config.vocab_size:
            raise ValueError(f"{len(vocab)} vocabulary tokens for "
                             f"vocab_size {config.vocab_size}")
        extra = meta.get("extra", {})
        model = Model.skeleton(config)
    except (KeyError, ValueError, ConfigError) as e:
        raise CheckpointError(f"invalid checkpoint metadata: {e}") from None
    stored: dict[str, tuple[int, ...]] = {}  # name -> shape
    for _ in range(reader.u32()):
        name = reader.take(reader.u32()).decode("utf-8", "replace")
        dtype = reader.take(reader.u32())
        if dtype != b"<f8":
            raise CheckpointError(f"block {name!r}: unsupported dtype {dtype!r}")
        shape = tuple(reader.u64() for _ in range(reader.u32()))
        data = reader.take(math.prod(shape) * 8)
        stored[name] = shape
        # only configured shapes are built (a stored one may have 65 axes)
        if name in model.blocks and shape == model.blocks[name].data.shape:
            model.blocks[name].data = np.frombuffer(data, "<f8").reshape(shape).copy()

    if reader.pos != reader.end:
        raise CheckpointError("trailing bytes after the last block")
    missing = set(model.blocks) - set(stored)
    surplus = set(stored) - set(model.blocks)
    if missing or surplus:
        raise CheckpointError(
            f"block mismatch: missing {sorted(missing)}, surplus {sorted(surplus)}")
    for name, tensor in model.blocks.items():
        if stored[name] != tensor.data.shape:
            raise CheckpointError(
                f"block {name!r}: stored shape {stored[name]} != "
                f"configured {tensor.data.shape}")
    return model, vocab, extra
