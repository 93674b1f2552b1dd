"""Synthetic dialogue corpus with planted, causally detectable labeling rules.

Dialogues alternate customer/agent turns starting with the customer. The
rules, all re-derivable from surface tokens:

  1. a customer utterance containing the complaint token is transferable and
     carries negative sentiment;
  2. the agent utterance immediately before such a complaint is transferable
     (it is generated containing the unhelpful-answer token, so the label is
     predictable from the utterance itself, not just from what follows);
  3. a dialogue whose last transferable utterance falls in the final third
     (relative position > 2/3) is unsatisfied; one with only earlier
     transfers is met; one with none is well satisfied.

Rule 3 plants the observed correlation that later handoffs co-occur with
lower satisfaction ratings, which the position-weighting branch of the model
is built to exploit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import decode_config, read_json
from .corpus import (Dialogue, HandoffLabel, Role, SatisfactionLabel,
                     SentimentLabel, Utterance)
from .errors import ConfigError

COMPLAINT_TOKEN = "terrible"
UNHELPFUL_TOKEN = "unhelpful"
PRAISE_TOKEN = "thanks"

LATE_THIRD = 2.0 / 3.0


@dataclass
class GeneratorSpec:
    num_dialogues: int = 200
    filler_vocab_size: int = 30
    min_len: int = 8
    max_len: int = 10
    min_tokens: int = 3
    max_tokens: int = 7
    complaint_rate: float = 0.2
    praise_rate: float = 0.1

    def validate(self) -> None:
        if self.num_dialogues < 1:
            raise ConfigError("num_dialogues must be >= 1")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise ConfigError("need 1 <= min_len <= max_len")
        if self.min_tokens < 1 or self.max_tokens < self.min_tokens:
            raise ConfigError("need 1 <= min_tokens <= max_tokens")
        if not 0.0 <= self.complaint_rate <= 1.0:
            raise ConfigError("complaint_rate must be in [0, 1]")
        if not 0.0 <= self.praise_rate <= 1.0:
            raise ConfigError("praise_rate must be in [0, 1]")
        if self.filler_vocab_size < 1:
            raise ConfigError("filler_vocab_size must be >= 1")

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, obj: dict) -> "GeneratorSpec":
        return decode_config(cls, obj, "generator spec")


@dataclass
class GeneratorReport:
    """The generator's own tally, written as it assigns labels."""
    num_dialogues: int = 0
    satisfaction_counts: dict[str, int] = field(
        default_factory=lambda: {s.value: 0 for s in SatisfactionLabel})
    transferable_utterances: int = 0
    normal_utterances: int = 0
    complaint_utterances: int = 0

    def to_json(self) -> dict:
        return asdict(self)


def _filler(rng: np.random.Generator, spec: GeneratorSpec, n: int) -> list[str]:
    return [f"w{int(i)}" for i in rng.integers(0, spec.filler_vocab_size, size=n)]


def synthesize_corpus(spec: GeneratorSpec, seed: int) -> tuple[list[Dialogue], GeneratorReport]:
    """Deterministic under (spec, seed); returns the corpus plus the
    generator's internal ground-truth tally."""
    spec.validate()
    rng = np.random.default_rng(seed)
    report = GeneratorReport()
    dialogues: list[Dialogue] = []

    for n in range(spec.num_dialogues):
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        roles = [Role.CUSTOMER if t % 2 == 0 else Role.AGENT for t in range(length)]
        complaint = [roles[t] is Role.CUSTOMER and rng.random() < spec.complaint_rate
                     for t in range(length)]

        utterances: list[Utterance] = []
        transfer_positions: list[int] = []
        for t in range(length):
            n_tok = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
            tokens = _filler(rng, spec, n_tok)
            sentiment = None
            if complaint[t]:
                tokens[int(rng.integers(0, n_tok))] = COMPLAINT_TOKEN
                handoff = HandoffLabel.TRANSFERABLE
                sentiment = SentimentLabel.NEGATIVE
            elif roles[t] is Role.AGENT and t + 1 < length and complaint[t + 1]:
                tokens[int(rng.integers(0, n_tok))] = UNHELPFUL_TOKEN
                handoff = HandoffLabel.TRANSFERABLE
            else:
                handoff = HandoffLabel.NORMAL
                if roles[t] is Role.CUSTOMER and rng.random() < spec.praise_rate:
                    tokens[int(rng.integers(0, n_tok))] = PRAISE_TOKEN
                    sentiment = SentimentLabel.POSITIVE
                elif roles[t] is Role.CUSTOMER:
                    sentiment = SentimentLabel.NEUTRAL
            if handoff is HandoffLabel.TRANSFERABLE:
                transfer_positions.append(t + 1)
                report.transferable_utterances += 1
            else:
                report.normal_utterances += 1
            if complaint[t]:
                report.complaint_utterances += 1
            utterances.append(Utterance(tokens=tuple(tokens), role=roles[t],
                                        handoff=handoff, sentiment=sentiment))

        if not transfer_positions:
            satisfaction = SatisfactionLabel.WELL_SATISFIED
        elif transfer_positions[-1] / length > LATE_THIRD:
            satisfaction = SatisfactionLabel.UNSATISFIED
        else:
            satisfaction = SatisfactionLabel.MET
        report.satisfaction_counts[satisfaction.value] += 1
        report.num_dialogues += 1
        dialogues.append(Dialogue(id=f"synth-{n:05d}", utterances=tuple(utterances),
                                  satisfaction=satisfaction))
    return dialogues, report


def verify_planted_rules(corpus: list[Dialogue]) -> list[str]:
    """Re-derive every label from the rules; returns a description of each
    mismatch (empty list == corpus is rule-consistent)."""
    problems: list[str] = []
    for d in corpus:
        length = len(d)
        complaint = [u.role is Role.CUSTOMER and COMPLAINT_TOKEN in u.tokens
                     for u in d.utterances]
        last_transfer = 0
        for t, u in enumerate(d.utterances):
            if complaint[t]:
                expected = HandoffLabel.TRANSFERABLE
            elif u.role is Role.AGENT and t + 1 < length and complaint[t + 1]:
                expected = HandoffLabel.TRANSFERABLE
            else:
                expected = HandoffLabel.NORMAL
            if u.handoff is not expected:
                problems.append(f"{d.id}[{t + 1}]: handoff {u.handoff} != {expected}")
            if expected is HandoffLabel.TRANSFERABLE:
                last_transfer = t + 1
            if u.role is Role.CUSTOMER:
                if complaint[t]:
                    expected_sent = SentimentLabel.NEGATIVE
                elif PRAISE_TOKEN in u.tokens:
                    expected_sent = SentimentLabel.POSITIVE
                else:
                    expected_sent = SentimentLabel.NEUTRAL
                if u.sentiment is not expected_sent:
                    problems.append(
                        f"{d.id}[{t + 1}]: sentiment {u.sentiment} != {expected_sent}")
        if last_transfer == 0:
            expected_sat = SatisfactionLabel.WELL_SATISFIED
        elif last_transfer / length > LATE_THIRD:
            expected_sat = SatisfactionLabel.UNSATISFIED
        else:
            expected_sat = SatisfactionLabel.MET
        if d.satisfaction is not expected_sat:
            problems.append(f"{d.id}: satisfaction {d.satisfaction} != {expected_sat}")
    return problems


def load_generator_spec(path: str | Path) -> GeneratorSpec:
    return GeneratorSpec.from_json(read_json(path, "generator spec"))
