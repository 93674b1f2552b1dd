"""Dialogue data model, JSONL ingestion, statistics, splitting, vocabulary,
and external embedding loading.

File schema (one dialogue per line, UTF-8 JSON):

    {"id": "...",
     "satisfaction": "well_satisfied" | "met" | "unsatisfied",
     "utterances": [
        {"role": "customer" | "agent",
         "tokens": ["...", ...],
         "handoff": "normal" | "transferable",
         "sentiment": "positive" | "neutral" | "negative"}]}

"sentiment" is optional, allowed on customer utterances only, and is never
read by any training path. Tokens must arrive pre-segmented; splitting raw
text is out of scope here.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import parse_json
from .errors import ConfigError, ContractError, CorpusError, path_reason
from .numerics import glorot_uniform


class Role(str, Enum):
    CUSTOMER = "customer"
    AGENT = "agent"


class HandoffLabel(str, Enum):
    NORMAL = "normal"
    TRANSFERABLE = "transferable"


class SatisfactionLabel(str, Enum):
    """Dialogue-level rating; index order is fixed everywhere."""
    WELL_SATISFIED = "well_satisfied"
    MET = "met"
    UNSATISFIED = "unsatisfied"

    @property
    def index(self) -> int:
        return SATISFACTION_CLASSES.index(self)


SATISFACTION_CLASSES = (SatisfactionLabel.WELL_SATISFIED, SatisfactionLabel.MET,
                        SatisfactionLabel.UNSATISFIED)


class SentimentLabel(str, Enum):
    """Evaluation-only utterance label; never used in training."""
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


SENTIMENT_CLASSES = (SentimentLabel.POSITIVE, SentimentLabel.NEUTRAL,
                     SentimentLabel.NEGATIVE)

# satisfaction index -> sentiment polarity used by the mapping evaluation
SATISFACTION_TO_SENTIMENT = {
    SatisfactionLabel.WELL_SATISFIED: SentimentLabel.POSITIVE,
    SatisfactionLabel.MET: SentimentLabel.NEUTRAL,
    SatisfactionLabel.UNSATISFIED: SentimentLabel.NEGATIVE,
}


@dataclass(frozen=True)
class Utterance:
    tokens: tuple[str, ...]
    role: Role
    handoff: HandoffLabel | None = None
    sentiment: SentimentLabel | None = None

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise CorpusError("utterance with empty token sequence")
        if self.sentiment is not None and self.role is not Role.CUSTOMER:
            raise CorpusError("sentiment label on a non-customer utterance")


@dataclass(frozen=True)
class Dialogue:
    id: str
    utterances: tuple[Utterance, ...]
    satisfaction: SatisfactionLabel

    def __post_init__(self):
        if len(self.utterances) == 0:
            raise CorpusError(f"dialogue {self.id!r} has no utterances")

    def __len__(self) -> int:
        return len(self.utterances)

    @property
    def roles(self) -> list[Role]:
        return [u.role for u in self.utterances]

    def strip_sentiment(self) -> "Dialogue":
        """The dialogue without sentiment labels; it is returned as it is
        when it has none, and unlabelled utterances are not copied."""
        if all(u.sentiment is None for u in self.utterances):
            return self
        return Dialogue(self.id, tuple(
            u if u.sentiment is None else Utterance(u.tokens, u.role, u.handoff)
            for u in self.utterances), self.satisfaction)


# value -> member; a label must equal a value exactly, in type and in case
_ROLES = {m.value: m for m in Role}
_HANDOFFS = {m.value: m for m in HandoffLabel}
_SATISFACTIONS = {m.value: m for m in SatisfactionLabel}
_SENTIMENTS = {m.value: m for m in SentimentLabel}


def _parse_label(members: dict, raw, what: str, line_no: int | None):
    try:
        return members[raw]
    except (KeyError, TypeError):  # TypeError: unhashable, a list or an object
        where = f" (line {line_no})" if line_no is not None else ""
        raise CorpusError(f"unknown {what} {reprlib.repr(raw)}{where}; "
                          f"expected one of: {', '.join(members)}") from None


def parse_utterance(obj: dict, line_no: int | None = None,
                    require_handoff: bool = True) -> Utterance:
    if not isinstance(obj, dict):
        raise CorpusError(f"utterance record is not an object (line {line_no})")
    role = _parse_label(_ROLES, obj.get("role"), "role", line_no)
    tokens = obj.get("tokens")
    try:
        if not isinstance(tokens, list) or not tokens:
            raise TypeError
        "".join(tokens)  # one C loop that refuses any token but a str
    except TypeError:
        raise CorpusError(f"utterance tokens must be a non-empty list of strings"
                          f" (line {line_no})") from None
    handoff = obj.get("handoff")
    if handoff is not None:
        handoff = _parse_label(_HANDOFFS, handoff, "handoff label", line_no)
    elif require_handoff:
        raise CorpusError(f"missing handoff label (line {line_no})")
    sentiment = obj.get("sentiment")
    if sentiment is not None:
        sentiment = _parse_label(_SENTIMENTS, sentiment, "sentiment label", line_no)
    try:
        return Utterance(tuple(tokens), role, handoff, sentiment)
    except CorpusError as e:
        raise CorpusError(f"{e} (line {line_no})") from None


def parse_dialogue(obj: dict, line_no: int | None = None) -> Dialogue:
    if not isinstance(obj, dict):
        raise CorpusError(f"dialogue record is not an object (line {line_no})")
    did = obj.get("id")
    if not isinstance(did, str) or not did:
        raise CorpusError(f"missing or invalid dialogue id (line {line_no})")
    satisfaction = obj.get("satisfaction")
    if satisfaction is None:
        raise CorpusError(f"dialogue {did!r} missing satisfaction (line {line_no})")
    satisfaction = _parse_label(_SATISFACTIONS, satisfaction,
                                "satisfaction label", line_no)
    utts = obj.get("utterances")
    if not isinstance(utts, list) or len(utts) == 0:
        raise CorpusError(f"dialogue {did!r} has no utterances (line {line_no})")
    return Dialogue(did, tuple([parse_utterance(u, line_no) for u in utts]),
                    satisfaction)


def dialogue_to_json(d: Dialogue) -> dict:
    return {
        "id": d.id,
        "satisfaction": d.satisfaction.value,
        "utterances": [
            {k: v for k, v in (
                ("role", u.role.value),
                ("tokens", list(u.tokens)),
                ("handoff", u.handoff.value if u.handoff else None),
                ("sentiment", u.sentiment.value if u.sentiment else None),
            ) if v is not None}
            for u in d.utterances
        ],
    }


def _utf8_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, text) for each line of a file; a file that cannot be
    opened and a line that is not valid UTF-8 raise CorpusError."""
    try:
        fh = path.open("rb")
    except (OSError, ValueError) as e:
        raise CorpusError(f"cannot open {path}: {path_reason(e)}") from None
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                yield line_no, raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CorpusError(
                    f"{path}: line {line_no} is not valid UTF-8") from None


def check_dialogues(dialogues: Sequence[Dialogue], max_dialogue_len: int) -> None:
    """Refuse dialogues a model cannot be trained or scored on: those
    longer than max_dialogue_len (truncating them would corrupt the
    dialogue-level supervision) and those without a customer utterance
    (their satisfaction estimate is undefined)."""
    too_long = [d.id for d in dialogues if len(d) > max_dialogue_len]
    if too_long:
        raise CorpusError(
            f"{len(too_long)} dialogue(s) exceed max length {max_dialogue_len}: "
            + ", ".join(too_long[:20]))
    no_customer = [d.id for d in dialogues if Role.CUSTOMER not in d.roles]
    if no_customer:
        raise CorpusError(
            f"{len(no_customer)} dialogue(s) have no customer utterance (the "
            f"satisfaction estimate is undefined for them): "
            + ", ".join(no_customer[:20]))


def load_corpus(path: str | Path, max_dialogue_len: int) -> list[Dialogue]:
    """Parse a JSONL corpus and check_dialogues it."""
    path = Path(path)
    dialogues: list[Dialogue] = []
    seen_ids: set[str] = set()
    for line_no, line in _utf8_lines(path):
        line = line.strip()
        if not line:
            continue
        d = parse_dialogue(parse_json(line, CorpusError, f"corpus line {line_no}"),
                           line_no)
        if d.id in seen_ids:
            raise CorpusError(f"duplicate dialogue id {d.id!r} (line {line_no})")
        seen_ids.add(d.id)
        dialogues.append(d)
    check_dialogues(dialogues, max_dialogue_len)
    return dialogues


def save_corpus(dialogues: Iterable[Dialogue], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for d in dialogues:
            fh.write(json.dumps(dialogue_to_json(d), ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@dataclass
class CorpusStats:
    num_dialogues: int
    satisfaction_counts: dict[str, int]
    handoff_counts: dict[str, int]
    mean_utterances_per_dialogue: float
    mean_tokens_per_utterance: float

    def to_json(self) -> dict:
        return asdict(self)


def corpus_stats(corpus: Sequence[Dialogue]) -> CorpusStats:
    if len(corpus) == 0:
        raise CorpusError("cannot compute statistics of an empty corpus")
    sat = {label.value: 0 for label in SatisfactionLabel}
    hand = {label.value: 0 for label in HandoffLabel}
    n_utts = 0
    n_tokens = 0
    for d in corpus:
        sat[d.satisfaction.value] += 1
        n_utts += len(d)
        for u in d.utterances:
            n_tokens += len(u.tokens)
            if u.handoff is not None:
                hand[u.handoff.value] += 1
    return CorpusStats(
        num_dialogues=len(corpus),
        satisfaction_counts=sat,
        handoff_counts=hand,
        mean_utterances_per_dialogue=round(n_utts / len(corpus), 2),
        mean_tokens_per_utterance=round(n_tokens / n_utts, 2),
    )


def handoff_position_hist(corpus: Sequence[Dialogue], bins: int) -> dict[str, list[float]]:
    """Per-rating normalized histogram of relative positions t/L of
    transferable utterances. Ratings with no transfers get all-zero bins."""
    if bins < 1:
        raise ContractError("bins must be >= 1")
    try:
        counts = {label.value: np.zeros(bins) for label in SatisfactionLabel}
    except (MemoryError, ValueError) as e:  # numpy's "cannot allocate" errors
        raise ConfigError(f"cannot allocate {bins} histogram bins: {e}") from None
    for d in corpus:
        length = len(d)
        for t, u in enumerate(d.utterances, start=1):
            if u.handoff is HandoffLabel.TRANSFERABLE:
                rel = t / length
                b = min(int(rel * bins), bins - 1)
                counts[d.satisfaction.value][b] += 1
    out = {}
    for key, arr in counts.items():
        total = arr.sum()
        out[key] = (arr / total if total > 0 else arr).tolist()
    return out


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def split_corpus(
    corpus: Sequence[Dialogue],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[list[Dialogue], list[Dialogue], list[Dialogue]]:
    """Deterministic shuffled partition; floor-sized dev/test, remainder to
    train."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ContractError(f"split ratios {ratios} do not sum to 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))
    n = len(corpus)
    n_dev = math.floor(ratios[1] * n)
    n_test = math.floor(ratios[2] * n)
    n_train = n - n_dev - n_test
    shuffled = [corpus[i] for i in order]
    return (shuffled[:n_train],
            shuffled[n_train:n_train + n_dev],
            shuffled[n_train + n_dev:])


# ---------------------------------------------------------------------------
# vocabulary and embeddings
# ---------------------------------------------------------------------------

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1


@dataclass
class Vocabulary:
    token_to_index: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.token_to_index)

    def lookup(self, token: str) -> int:
        return self.token_to_index.get(token, UNK_INDEX)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.lookup(t) for t in tokens]

    def encode_dialogue(self, dialogue: Dialogue) -> list[list[int]]:
        """One id list per utterance, the input Model.forward takes."""
        return [self.encode(u.tokens) for u in dialogue.utterances]

    def to_json(self) -> dict:
        return {"tokens": sorted(self.token_to_index, key=self.token_to_index.get)}

    @classmethod
    def from_json(cls, obj: dict) -> "Vocabulary":
        tokens = obj.get("tokens") if isinstance(obj, dict) else None
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError("vocabulary must be an object with a list of tokens")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be unique")
        return cls({tok: i for i, tok in enumerate(tokens)})


def build_vocab(train: Sequence[Dialogue], min_freq: int = 1) -> Vocabulary:
    """Index tokens seen >= min_freq times in the training split only."""
    if len(train) == 0:
        raise CorpusError("cannot build a vocabulary from an empty training set")
    freq: dict[str, int] = {}
    for d in train:
        for u in d.utterances:
            for tok in u.tokens:
                freq[tok] = freq.get(tok, 0) + 1
    mapping = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for tok in sorted(freq):
        if freq[tok] >= min_freq and tok not in mapping:
            mapping[tok] = len(mapping)
    return Vocabulary(mapping)


@dataclass
class EmbeddingLoad:
    table: np.ndarray  # (|V|, n); padding row zero
    coverage: float    # share of vocabulary tokens other than <pad>/<unk>
                       # found in the file, each counted once


def init_embeddings(rows: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Glorot-uniform (rows, dim) table with a zero padding row."""
    table = glorot_uniform((rows, dim), rng)
    table[PAD_INDEX] = 0.0
    return table


def load_embeddings(path: str | Path, vocab: Vocabulary, dim: int,
                    rng: np.random.Generator | None = None) -> EmbeddingLoad:
    """Read word2vec text format ("count dim" header then "token v1 .. vn"
    lines, which may end in whitespace, as word2vec.c writes them);
    vocabulary tokens not in the file are random-initialized. The values of
    vocabulary tokens must be finite numbers."""
    rng = rng or np.random.default_rng(0)
    path = Path(path)
    lines = _utf8_lines(path)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 2 or not all(p.isdecimal() for p in header):
        raise CorpusError("embedding file missing 'count dim' header")
    file_dim = int(header[1])
    if file_dim != dim:
        raise CorpusError(
            f"embedding dimension {file_dim} does not match configured {dim}")
    table = init_embeddings(len(vocab), dim, rng)
    covered: set[int] = set()  # vocabulary rows other than <pad>/<unk> read
    for line_no, line in lines:
        parts = line.rstrip().split(" ")
        if len(parts) != dim + 1:
            raise CorpusError(f"malformed embedding line {line_no}")
        tok = parts[0]
        idx = vocab.token_to_index.get(tok)
        if idx is not None and idx not in (PAD_INDEX,):
            try:
                values = [float(v) for v in parts[1:]]
            except ValueError:
                raise CorpusError(
                    f"non-numeric embedding value on line {line_no}") from None
            if not all(math.isfinite(v) for v in values):
                raise CorpusError(f"non-finite embedding value on line {line_no}")
            table[idx] = values  # a repeated token's last line wins
            if idx != UNK_INDEX:
                covered.add(idx)
    denom = max(len(vocab) - 2, 1)  # pad/unk are not expected in files
    return EmbeddingLoad(table=table, coverage=len(covered) / denom)
