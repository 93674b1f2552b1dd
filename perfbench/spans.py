"""Per-layer spans recorded from outside the program.

A `Tracer` replaces public functions and methods of handsat's modules with
wrappers that time each call. Spans nest through a stack, so a layer's self
time is its span's duration minus the time its child spans cover. Only
aggregates are kept: self seconds, call count and per-call durations per
span name, plus work counts derived from call arguments.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable

import handsat.cli
import handsat.corpus
import handsat.model
import handsat.numerics
import handsat.training


def _count_encoder(counts: Counter, token_ids, *args, **kwargs) -> None:
    counts["encoder.utterances"] += len(token_ids)
    counts["encoder.tokens"] += sum(len(ids) for ids in token_ids)


def _count_interaction(counts: Counter, shared, is_customer, *args, **kwargs) -> None:
    counts["interaction.pairs"] += len(is_customer) ** 2


def _count_adam_step(counts: Counter, *args, **kwargs) -> None:
    counts["training.adam.steps"] += 1


# (owner, attribute, span name, argument counter). Names are patched where
# they are looked up: `handsat.model` imports the layer functions by name,
# `handsat.training` imports `evaluate_model`, `handsat.cli` imports
# `load_checkpoint`.
LAYER_PATCHES: list[tuple[object, str, str, Callable | None]] = [
    (handsat.model, "shared_encode", "encoder", _count_encoder),
    (handsat.model, "interact", "interaction", _count_interaction),
    (handsat.model, "decode_handoff", "decoders.handoff", None),
    (handsat.model, "decode_satisfaction", "decoders.satisfaction", None),
    (handsat.model.Model, "forward", "model.forward", None),
    (handsat.numerics.Tensor, "backward", "numerics.backward", None),
    (handsat.training, "handoff_loss", "training.loss", None),
    (handsat.training, "satisfaction_loss", "training.loss", None),
    (handsat.training, "regularization", "training.loss", None),
    (handsat.training.Adam, "step", "training.adam", _count_adam_step),
    (handsat.training.Adam, "clip_grads", "training.adam", None),
    (handsat.training, "evaluate_model", "training.dev_eval", None),
    (handsat.cli, "cmd_predict", "cli.predict", None),
    (handsat.cli, "load_checkpoint", "training.load_checkpoint", None),
    (handsat.training, "load_checkpoint", "training.load_checkpoint", None),
    (handsat.corpus, "load_corpus", "corpus.load_corpus", None),
]


class Tracer:
    """Installs the layer wrappers for the duration of a `with` block."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self._child_s: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, original: Callable, span: str, count: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            if count is not None:
                count(self.counts, *args, **kwargs)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[span] += duration - self._child_s.pop()
                self.calls[span] += 1
                self.durations[span].append(duration)
                if self._child_s:
                    self._child_s[-1] += duration
        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, span, count in LAYER_PATCHES:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
