"""Joint objective, Adam training loop, early stopping, and the checkpoint
container.

The loop is deterministic under a fixed seed: initialization, batch order,
and dropout each draw from their own stream spawned from the seed, and all
per-batch reductions run in a fixed order.
"""

from __future__ import annotations

import functools
import json
import math
import os
import reprlib
import struct
import time
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

try:
    import resource
except ImportError:  # Unix only
    resource = None

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

    Each term is built only when the previous one has been consumed, and a
    sub-batch's outputs are dropped before its term is yielded, so train()
    holds one sub-batch's tape at a time: nothing of the sub-batch before
    it lives through a forward (SUB_BATCH says what that costs)."""
    for part in sub_batches(batch):
        dialogues = [d for _, d in part]
        out = model.forward_batch([ids for ids, _ in part],
                                  [d.roles for d in dialogues], rng=rng)
        term = nm.divide(nm.exact_sum(dialogue_loss(out, dialogues, eta)),
                         len(batch))
        del out
        yield term
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


def _minor_page_faults() -> int | None:
    """The process's minor page faults so far; None without resource."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


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
    training steps and dev evaluation, training dialogues per second, and
    the process's minor page faults over the epoch, None where the resource
    module is missing), so same-seed histories stay equal.
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
        started, faults_before = time.perf_counter(), _minor_page_faults()
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
        seconds, faults = time.perf_counter() - started, _minor_page_faults()
        result.timing.append({
            "epoch": epoch, "epoch_seconds": seconds,
            "dialogues_per_second": len(encoded) / seconds,
            "minor_page_faults": None if faults is None else faults - faults_before,
        })
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
#   version u32      currently 4 (README "Checkpoints" says what 1-3 held)
#   meta    u64 length + UTF-8 JSON: {"model_config": {...}, "vocab": {...},
#           "extra": {...}, "blocks": [[name, shape], ...]}
#   body    each block's raw C-order float64 values, in "blocks" order
#   crc     u32      zlib.crc32 of every byte before it
#
# The stored config fixes every block's name (its dotted field path in
# Model.blocks), order and shape, so the list in "blocks" only restates them
# once and the body needs no per-block headers. Round-trips are bit-exact.

MAGIC = b"HSAT"
FORMAT_VERSION = 4


def save_checkpoint(model: Model, vocab: Vocabulary, path: str | Path,
                    extra: dict | None = None) -> None:
    meta = json.dumps({
        "model_config": model.config.to_json(),
        "vocab": vocab.to_json(),
        "extra": extra or {},
        "blocks": [[name, list(t.data.shape)] for name, t in model.blocks.items()],
    }, sort_keys=True).encode("utf-8")
    content = b"".join([MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(meta)), meta,
                        *(np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                          for t in model.blocks.values())])
    tmp = Path(f"{path}.tmp")
    tmp.write_bytes(content + struct.pack("<I", zlib.crc32(content)))
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _block_mismatch(stored, blocks: dict[str, Tensor]) -> str:
    """Why the stored block list (untrusted JSON) is not blocks' own."""
    if not (isinstance(stored, list) and all(
            isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)
            for b in stored)):
        return "invalid checkpoint metadata: blocks is not a list of [name, shape]"
    shapes = dict(stored)
    missing, surplus = blocks.keys() - shapes, shapes.keys() - blocks.keys()
    if missing or surplus:
        return (f"block mismatch: missing {sorted(missing)}, "
                f"surplus {reprlib.repr(sorted(surplus))}")
    for name, tensor in blocks.items():
        if shapes[name] != list(tensor.data.shape):
            return (f"block {name!r}: stored shape {reprlib.repr(shapes[name])} "
                    f"!= configured {list(tensor.data.shape)}")
    return "blocks stored out of order or repeated"


def load_checkpoint(path: str | Path) -> tuple[Model, Vocabulary, dict]:
    """Rebuild the model from a container, refusing it at the first of: the
    magic, the version, the CRC32, the metadata (a config naming every
    ModelConfig field, vocab_size distinct tokens, the config's block list)
    and the body's length, so that no config can make loading allocate more
    than the file holds."""
    try:
        content = Path(path).read_bytes()
    except (OSError, ValueError) as e:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {path_reason(e)}") from None
    if content[:4] != MAGIC:
        raise CheckpointError(f"{path} is not a handsat checkpoint "
                              "(bad magic bytes)")
    if len(content) < 20:
        raise CheckpointError("checkpoint truncated")
    version, meta_len = struct.unpack_from("<IQ", content, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if zlib.crc32(memoryview(content)[:-4]) != struct.unpack("<I", content[-4:])[0]:
        raise CheckpointError(f"checkpoint {path} is truncated or corrupt "
                              "(CRC32 mismatch)")
    offset = 16 + meta_len
    if offset > len(content) - 4:
        raise CheckpointError("checkpoint truncated")
    try:
        meta = parse_json(content[16:offset].decode("utf-8"), CheckpointError,
                          "checkpoint metadata")
        if not isinstance(meta, dict):
            raise ValueError("metadata is not a JSON object")
        config = ModelConfig.from_json(meta["model_config"])
        vocab = Vocabulary.from_json(meta["vocab"])
        if len(vocab) != config.vocab_size:
            raise ValueError(f"{len(vocab)} vocabulary tokens for "
                             f"vocab_size {config.vocab_size}")
        extra = meta.get("extra", {})
        stored = meta["blocks"]
        model = Model.skeleton(config)
    except (KeyError, ValueError, ConfigError) as e:
        raise CheckpointError(f"invalid checkpoint metadata: {e}") from None
    if stored != [[name, list(t.data.shape)] for name, t in model.blocks.items()]:
        raise CheckpointError(_block_mismatch(stored, model.blocks))
    size = sum(t.data.size for t in model.blocks.values())
    surplus = len(content) - 4 - offset - 8 * size
    if surplus:
        raise CheckpointError("trailing bytes after the last block" if surplus > 0
                              else "checkpoint truncated")
    for tensor in model.blocks.values():
        count, shape = tensor.data.size, tensor.data.shape
        tensor.data = np.frombuffer(content, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
    return model, vocab, extra
