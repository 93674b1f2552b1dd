"""Evaluation suite: utterance-level handoff scores, tolerance-window
transfer credit, dialogue-level satisfaction scores, and the
satisfaction-to-sentiment mapping evaluation.

Per-class conventions are pinned so independent implementations can match
bit-for-bit: precision (recall) is 0 whenever its denominator is 0, and F1
is 0 whenever precision + recall is 0. Macro F1 averages over all requested
classes, present or not.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import (SENTIMENT_CLASSES, SATISFACTION_CLASSES, Dialogue,
                     HandoffLabel, Role)
from .decoders import aggregate_variant, map_sentiment
from .errors import ContractError, CorpusError

GT_TOLERANCES = (1, 2, 3)
SECTIONS = ("mhch", "ssa", "sentiment")


@dataclass
class ClassScores:
    precision: float
    recall: float
    f1: float


def classification_scores(
    preds: Sequence[Hashable],
    golds: Sequence[Hashable],
    classes: Sequence[Hashable],
) -> tuple[dict[Hashable, ClassScores], float, float]:
    """Per-class precision/recall/F1 plus macro F1 and accuracy."""
    if len(preds) != len(golds):
        raise ContractError(f"{len(preds)} predictions vs {len(golds)} golds")
    per_class: dict[Hashable, ClassScores] = {}
    for cls in classes:
        tp = sum(1 for p, g in zip(preds, golds) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(preds, golds) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(preds, golds) if p != cls and g == cls)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        per_class[cls] = ClassScores(precision, recall, f1)
    macro_f1 = sum(s.f1 for s in per_class.values()) / len(classes)
    accuracy = (sum(1 for p, g in zip(preds, golds) if p == g) / len(preds)
                if preds else 0.0)
    return per_class, macro_f1, accuracy


def gtt(pred_positions: Iterable[int], gold_positions: Iterable[int],
        tolerance: int) -> float:
    """Per-dialogue transfer credit: 1 if some predicted transfer position
    lies within `tolerance` utterances of some gold one (1-based indices).

    Both sets empty scores 1; exactly one empty scores 0. This is the
    variant without an early/late bias penalty.
    """
    if tolerance < 0:
        raise ContractError("tolerance must be >= 0")
    pred = set(int(p) for p in pred_positions)
    gold = set(int(g) for g in gold_positions)
    if any(p < 1 for p in pred | gold):
        raise ContractError("positions are 1-based")
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    return 1.0 if any(abs(p - g) <= tolerance for p in pred for g in gold) else 0.0


def gtt_corpus(cases: Sequence[tuple[Iterable[int], Iterable[int]]],
               tolerance: int) -> float:
    if not cases:
        raise ContractError("gtt_corpus needs at least one dialogue")
    return sum(gtt(p, g, tolerance) for p, g in cases) / len(cases)


@dataclass
class MetricsReport:
    mhch: dict | None = None
    ssa: dict | None = None
    sentiment: dict | None = None

    def to_json(self) -> dict:
        """The requested sections; those not computed are left out."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def evaluate_model(
    model,
    vocab,
    corpus: Sequence[Dialogue],
    sections: Sequence[str] = ("mhch", "ssa"),
    aggregate: str | None = None,
) -> tuple[MetricsReport, list[dict]]:
    """Forward every dialogue (dropout off) and score the requested
    sections. Pure in (model, corpus): repeated calls agree exactly.

    aggregate overrides the checkpoint's aggregation mode for the
    satisfaction section only.
    """
    for s in sections:
        if s not in SECTIONS:
            raise ContractError(f"unknown metrics section {s!r}")
    if not corpus:
        raise CorpusError("cannot evaluate on an empty corpus")
    if any(u.handoff is None for d in corpus for u in d.utterances):
        raise CorpusError("corpus is missing handoff labels")
    if "sentiment" in sections:
        has_sent = any(u.sentiment is not None
                       for d in corpus for u in d.utterances)
        if not has_sent:
            raise CorpusError("sentiment section requested but the corpus "
                              "carries no sentiment labels")

    handoff_preds: list[HandoffLabel] = []
    handoff_golds: list[HandoffLabel] = []
    gt_cases: list[tuple[list[int], list[int]]] = []
    sat_preds, sat_golds = [], []
    sent_preds, sent_golds = [], []
    per_dialogue: list[dict] = []

    for d in sorted(corpus, key=lambda d: d.id):
        result = model.forward_dialogue(d, vocab)
        probs = result.handoff_probs.data
        pred_labels = [HandoffLabel.TRANSFERABLE if int(np.argmax(row)) == 1
                       else HandoffLabel.NORMAL for row in probs]
        gold_labels = [u.handoff for u in d.utterances]
        handoff_preds.extend(pred_labels)
        handoff_golds.extend(gold_labels)
        pred_pos = [t + 1 for t, lab in enumerate(pred_labels)
                    if lab is HandoffLabel.TRANSFERABLE]
        gold_pos = [t + 1 for t, lab in enumerate(gold_labels)
                    if lab is HandoffLabel.TRANSFERABLE]
        gt_cases.append((pred_pos, gold_pos))

        sat_probs = result.satisfaction_probs
        if aggregate is not None and aggregate != model.config.aggregate_mode:
            is_customer = np.array([r is Role.CUSTOMER for r in d.roles])
            sat_probs = aggregate_variant(result.local_satisfaction, is_customer,
                                          aggregate, importance=result.importance)
        sat_pred = SATISFACTION_CLASSES[int(np.argmax(sat_probs.data))]
        sat_preds.append(sat_pred)
        sat_golds.append(d.satisfaction)

        if "sentiment" in sections:
            mapped = map_sentiment(result.local_satisfaction.data, d.roles)
            for t, u in enumerate(d.utterances):
                if u.sentiment is not None:
                    sent_preds.append(mapped[t])
                    sent_golds.append(u.sentiment)

        per_dialogue.append({
            "id": d.id,
            "gold_satisfaction": d.satisfaction.value,
            "pred_satisfaction": sat_pred.value,
            "gold_handoff_positions": gold_pos,
            "pred_handoff_positions": pred_pos,
            "gt": {str(tol): gtt(pred_pos, gold_pos, tol)
                   for tol in GT_TOLERANCES},
        })

    report = MetricsReport()
    if "mhch" in sections:
        per_class, macro_f1, _ = classification_scores(
            handoff_preds, handoff_golds,
            (HandoffLabel.NORMAL, HandoffLabel.TRANSFERABLE))
        report.mhch = {
            "f1_transferable": per_class[HandoffLabel.TRANSFERABLE].f1,
            "macro_f1": macro_f1,
            "gt": {str(tol): gtt_corpus(gt_cases, tol) for tol in GT_TOLERANCES},
        }
    if "ssa" in sections:
        per_class, macro_f1, accuracy = classification_scores(
            sat_preds, sat_golds, SATISFACTION_CLASSES)
        report.ssa = {
            "f1": {cls.value: per_class[cls].f1 for cls in SATISFACTION_CLASSES},
            "macro_f1": macro_f1,
            "accuracy": accuracy,
        }
    if "sentiment" in sections:
        per_class, macro_f1, accuracy = classification_scores(
            sent_preds, sent_golds, SENTIMENT_CLASSES)
        report.sentiment = {
            "f1": {cls.value: per_class[cls].f1 for cls in SENTIMENT_CLASSES},
            "macro_f1": macro_f1,
            "accuracy": accuracy,
        }
    return report, per_dialogue
