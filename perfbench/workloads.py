"""The two benchmark workloads: train and stream.

Each workload makes its inputs from the seed and writes them as the files a
user would hand to `handsat` (corpora, a checkpoint). Set-up loads them
again; the timed phase then repeats rounds of work through handsat's public
entry points, one `round(i)` at a time:

  train   one `training.train` call of EPOCHS epochs per round
  stream  one 64-utterance dialogue through `handsat predict` per round

A round's outputs are kept, so that the checks can compare rounds, and a
traced run of a round can be compared with its untraced run. A round's
time is cut into pieces that are the same work in every round; the
reported time of a round is the sum of each piece's fastest repeat.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import handsat.cli
import handsat.corpus
import handsat.training
from handsat import (GeneratorSpec, Model, TrainConfig, build_vocab,
                     save_checkpoint, save_corpus, split_corpus,
                     synthesize_corpus)

MIN_ROUNDS = 2          # the determinism checks compare at least two rounds


@dataclass
class Phase:
    """Rounds run back to back; index i of each list belongs to round i.

    A round's `pieces` are the seconds between consecutive boundaries the
    round recorded (see `marks` and the stream's hand-over and emission
    times); they add up to its wall time. Piece j is the same work in
    every round, so its fastest repeat is the time it takes when the
    shared host is not slowing it down."""
    walls: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    pieces: list[list[float]] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.walls)

    def add(self, wall: float, output, pieces: list[float]) -> None:
        self.walls.append(wall)
        self.outputs.append(output)
        self.pieces.append(pieces)

    def fastest_pieces(self) -> np.ndarray:
        """Each piece's fastest repeat, over the rounds cut into as many
        pieces as round 0 (a round that failed may be cut differently)."""
        same = [p for p in self.pieces if len(p) == len(self.pieces[0])]
        return np.min(np.array(same), axis=0)


def run_rounds(one_round, seconds: float) -> Phase:
    """Run `one_round(i)` until `seconds` have passed and at least
    MIN_ROUNDS are done. `one_round` returns (wall seconds, output,
    pieces in seconds).

    Round i runs on the i-th of the CPUs the process may use, in turn. On
    a shared VM one vCPU can run 1.5x slower than another for tens of
    seconds; taking turns lets each piece's fastest repeat come from
    whichever is fast, rather than from the one the scheduler picked."""
    phase = Phase()
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while phase.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            os.sched_setaffinity(0, {cpus[phase.rounds % len(cpus)]})
            phase.add(*one_round(phase.rounds))
    finally:
        os.sched_setaffinity(0, cpus)
    return phase


@contextlib.contextmanager
def marks(owner, attribute: str):
    """Record the time at which each call of `owner.attribute` returns.

    Yields the list the times go to. The wrapper only reads the clock; the
    traced run wraps the same names again for its spans."""
    times: list[float] = []
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def marked(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            times.append(time.perf_counter())
    setattr(owner, attribute, marked)
    try:
        yield times
    finally:
        setattr(owner, attribute, original)


def timed(call) -> tuple[float, object, list[float]]:
    """Run `call()` with the returns of `Model.forward` marked: its wall
    time, its result and its pieces, one per forward (the forward and the
    work since the previous one) plus the work after the last."""
    with marks(Model, "forward") as times:
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
    return end - start, result, np.diff([start, *times, end]).tolist()


def input_counts(dialogues) -> dict[str, int]:
    """Encoder and interaction work of one forward of each dialogue."""
    return {
        "encoder.utterances": sum(len(d) for d in dialogues),
        "encoder.tokens": sum(len(u.tokens) for d in dialogues for u in d.utterances),
        "interaction.pairs": sum(len(d) ** 2 for d in dialogues),
    }


class Workload:
    """Defaults shared by the workloads."""
    units_per_round = 1         # units of work (epoch, dialogue) per round
    streamed_per_round = 0      # utterances handed to `predict` per round

    def round_s(self, phase: Phase) -> float:
        """A round's time: the sum of its pieces' fastest repeats."""
        return float(phase.fastest_pieces().sum())

    def utterance_ms(self, phase: Phase) -> float:
        """Round time per utterance processed."""
        return self.round_s(phase) / self.utterances_per_round() * 1e3


class TrainWorkload(Workload):
    """`training.train` with the default TrainConfig on the acceptance corpus."""
    name = "train"
    unit = "epoch"
    EPOCHS = 1          # fixed and below `patience`, so early stopping never fires
    units_per_round = EPOCHS

    def __init__(self, seed: int, workdir: Path):
        self.spec = GeneratorSpec(num_dialogues=250, complaint_rate=0.2)
        self.config = TrainConfig(max_epochs=self.EPOCHS)
        corpus, _ = synthesize_corpus(self.spec, seed)
        train_set, dev_set, _ = split_corpus(corpus, seed=seed)
        self.paths = (workdir / "train.jsonl", workdir / "dev.jsonl")
        save_corpus(train_set, self.paths[0])
        save_corpus(dev_set, self.paths[1])
        self.workdir = workdir

    def describe(self) -> dict:
        return {"generator_spec": self.spec.to_json(), "split": [200, 25, 25],
                "train_config": self.config.to_json()}

    def setup(self) -> None:
        max_len = self.config.max_dialogue_len
        self.train_set = handsat.corpus.load_corpus(self.paths[0], max_len)
        self.dev_set = handsat.corpus.load_corpus(self.paths[1], max_len)

    def ops_per_round(self) -> int:
        """Optimizer steps."""
        return self.EPOCHS * math.ceil(len(self.train_set) / self.config.batch_size)

    def dialogues_per_round(self) -> int:
        return self.EPOCHS * len(self.train_set)

    def utterances_per_round(self) -> int:
        return self.EPOCHS * sum(len(d) for d in self.train_set)

    def round(self, i: int):
        wall, result, pieces = timed(
            lambda: handsat.training.train(self.train_set, self.dev_set, self.config))
        digest = hashlib.sha256()
        for name, t in result.model.blocks.items():
            digest.update(name.encode())
            digest.update(t.data.tobytes())
        self.last_result = result
        return wall, (json.dumps(result.history), digest.hexdigest(),
                      result.diverged), pieces

    def check(self, phase: Phase) -> int:
        """Failed optimizer steps: every step of a round whose history has a
        non-finite loss or the wrong length, or differs from round 0's
        (history and parameters); plus one if the last model does not
        survive a checkpoint round trip bit for bit."""
        failed = 0
        for history, digest, diverged in phase.outputs:
            losses = [h["train_loss"] for h in json.loads(history)]
            if (diverged or len(losses) != self.EPOCHS
                    or not all(math.isfinite(x) for x in losses)
                    or (history, digest) != phase.outputs[0][:2]):
                failed += self.ops_per_round()
        path = self.workdir / "roundtrip.ckpt"
        model, vocab = self.last_result.model, self.last_result.vocab
        save_checkpoint(model, vocab, path)
        loaded, loaded_vocab, _ = handsat.training.load_checkpoint(path)
        if loaded_vocab != vocab or any(
                not np.array_equal(t.data, loaded.blocks[name].data)
                for name, t in model.blocks.items()):
            failed += 1
        return failed

    def expected_counts(self, rounds: int) -> dict[str, int]:
        per_epoch = input_counts(self.train_set + self.dev_set)
        return {k: v * self.EPOCHS * rounds for k, v in per_epoch.items()}

    def info(self, phase: Phase) -> dict:
        return {"train_epoch_s": {"value": self.round_s(phase) / self.EPOCHS,
                                  "unit": "s"},
                "train_loss": json.loads(phase.outputs[0][0])[-1]["train_loss"]}


class _Feed:
    """Stand-in for stdin: hands over the next line only when `predict`
    asks for it, and records when it did."""

    def __init__(self, lines: list[str]):
        self.lines = lines
        self.handed: list[float] = []

    def __iter__(self):
        for line in self.lines:
            self.handed.append(time.perf_counter())
            yield line


class _Sink:
    """Stand-in for stdout: records when each emitted line was flushed."""

    def __init__(self):
        self._pending: list[str] = []
        self.lines: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        self._pending.append(text)
        return len(text)

    def flush(self) -> None:
        now = time.perf_counter()
        for line in "".join(self._pending).splitlines():
            self.lines.append(line)
            self.times.append(now)
        self._pending.clear()

def tail_percentile(samples: list[float]) -> dict:
    """The highest of a few fixed percentiles with at least ten samples
    beyond it; a run streams at least 128 utterances, so p90 always has."""
    for p in (99.9, 99.0, 95.0, 90.0):
        value = float(np.percentile(samples, p))
        beyond = sum(s > value for s in samples)
        if beyond >= 10 or p == 90.0:
            return {"value": value, "unit": "ms", "percentile": p,
                    "samples_beyond": beyond, "samples": len(samples)}


class StreamWorkload(Workload):
    """`handsat predict` in-process, one 64-utterance dialogue per round:
    a closed loop with one stream in flight."""
    name = "stream"
    unit = "dialogue"
    LENGTH = 64
    TOKENS = 5          # per utterance, so every dialogue costs the same
    POOL = 8            # distinct dialogues, streamed in turn
    streamed_per_round = LENGTH

    def __init__(self, seed: int, workdir: Path):
        self.spec = GeneratorSpec(num_dialogues=self.POOL, min_len=self.LENGTH,
                                  max_len=self.LENGTH, min_tokens=self.TOKENS,
                                  max_tokens=self.TOKENS)
        dialogues, _ = synthesize_corpus(self.spec, seed)
        self.ckpt = workdir / "model.ckpt"
        self.corpus_path = workdir / "stream.jsonl"
        save_corpus(dialogues, self.corpus_path)
        # A freshly initialised model with the default TrainConfig
        # dimensions; forward cost does not depend on the weights' values.
        vocab = build_vocab(dialogues)
        model = Model.build(TrainConfig().model_config(len(vocab)),
                            np.random.default_rng(seed))
        save_checkpoint(model, vocab, self.ckpt)
        self._reference: dict[int, tuple[list, list]] = {}

    def setup(self) -> None:
        self.model, self.vocab, _ = handsat.training.load_checkpoint(self.ckpt)
        self.corpus = handsat.corpus.load_corpus(
            self.corpus_path, self.model.config.max_dialogue_len)

    def describe(self) -> dict:
        return {"generator_spec": self.spec.to_json(), "streams_in_flight": 1}

    def ops_per_round(self) -> int:
        """Utterances streamed."""
        return self.LENGTH

    utterances_per_round = ops_per_round

    def dialogues_per_round(self) -> int:
        return 1

    def latencies_ms(self, phase: Phase) -> np.ndarray:
        """Each position's fastest hand-over-to-row latency."""
        return phase.fastest_pieces()[1:2 * self.LENGTH:2] * 1e3

    def utterance_ms(self, phase: Phase) -> float:
        """Median over the 64 positions of their fastest latency."""
        return float(np.median(self.latencies_ms(phase)))

    def round(self, i: int):
        d = self.corpus[i % len(self.corpus)]
        feed = _Feed([json.dumps({"role": u.role.value, "tokens": list(u.tokens)}) + "\n"
                      for u in d.utterances])
        sink = _Sink()
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = feed, sink
        try:
            start = time.perf_counter()
            code = handsat.cli.main(["predict", str(self.ckpt)])
            wall = time.perf_counter() - start
        finally:
            sys.stdin, sys.stdout = saved
        # pieces: start to hand-over of line 1, its latency to the flush of
        # row 1, on to hand-over of line 2, ..., row 64 to the end
        marks = [t for pair in zip(feed.handed, sink.times) for t in pair]
        pieces = np.diff([start, *marks, start + wall]).tolist()
        rows, final = sink.lines[:self.LENGTH], sink.lines[self.LENGTH:]
        if len(final) != 1:
            return wall, (code, rows, None, None), pieces
        # the final line carries the attention trace; keep its digest only
        return wall, (code, rows, hashlib.sha256(final[0].encode()).hexdigest(),
                      json.loads(final[0])["satisfaction_probs"]), pieces

    def _forward(self, i: int) -> tuple[list, list]:
        """Rows and dialogue distribution of one full forward of pool item i."""
        if i not in self._reference:
            d = self.corpus[i]
            out = self.model.forward([self.vocab.encode(u.tokens) for u in d.utterances],
                                     d.roles)
            self._reference[i] = (out.handoff_probs.data.tolist(),
                                  out.satisfaction_probs.data.tolist())
        return self._reference[i]

    def check(self, phase: Phase) -> int:
        """Failed utterances: each emitted row that is not bit-identical to
        the same row of one full forward of the dialogue; the last one also
        when the final line's satisfaction distribution differs from that
        forward's; all of a dialogue's when predict failed or a row is
        missing."""
        failed = 0
        for i, (code, rows, digest, overall) in enumerate(phase.outputs):
            ref_rows, ref_overall = self._forward(i % len(self.corpus))
            if code != 0 or len(rows) != self.LENGTH or digest is None:
                failed += self.LENGTH
                continue
            emitted = [json.loads(line) for line in rows]
            bad = {t for t, row in enumerate(emitted)
                   if row["position"] != t + 1 or row["handoff_probs"] != ref_rows[t]}
            if overall != ref_overall:
                bad.add(self.LENGTH - 1)
            failed += len(bad)
        return failed

    def expected_counts(self, rounds: int) -> dict[str, int]:
        """Per dialogue: one forward per prefix, then the final full one."""
        total = dict.fromkeys(("encoder.utterances", "encoder.tokens",
                               "interaction.pairs"), 0)
        for i in range(rounds):
            d = self.corpus[i % len(self.corpus)]
            prefixes = [replace(d, utterances=d.utterances[:k])
                        for k in range(1, self.LENGTH + 1)]
            for k, v in input_counts(prefixes + [d]).items():
                total[k] += v
        return total

    def info(self, phase: Phase) -> dict:
        latencies = [x * 1e3 for r in phase.pieces if len(r) == len(phase.pieces[0])
                     for x in r[1:2 * self.LENGTH:2]]
        return {"stream_utt_ms_tail": tail_percentile(latencies),
                "stream_utt_ms_last": {"value": float(self.latencies_ms(phase)[-1]),
                                       "unit": "ms"}}


WORKLOADS = {w.name: w for w in (TrainWorkload, StreamWorkload)}
