import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handsat import metrics as mt
from handsat.corpus import (SATISFACTION_CLASSES, HandoffLabel, Role,
                            SatisfactionLabel, SentimentLabel)
from handsat.errors import ContractError, CorpusError
from handsat.model import ForwardResult
from handsat.synth import GeneratorSpec, synthesize_corpus

T, N = HandoffLabel.TRANSFERABLE, HandoffLabel.NORMAL


def test_scores_perfect():
    per_class, macro, acc = mt.classification_scores([T, N, T], [T, N, T], (N, T))
    assert per_class[T].f1 == 1.0 and per_class[N].f1 == 1.0
    assert macro == 1.0 and acc == 1.0


def test_scores_all_normal_half_transferable():
    preds = [N, N, N, N]
    golds = [T, N, T, N]
    per_class, macro, acc = mt.classification_scores(preds, golds, (N, T))
    assert per_class[T].f1 == 0.0
    assert acc == 0.5


def test_scores_hand_confusion():
    preds = [T, N, T]
    golds = [T, T, N]
    per_class, _, _ = mt.classification_scores(preds, golds, (N, T))
    assert per_class[T].precision == 0.5
    assert per_class[T].recall == 0.5
    assert per_class[T].f1 == 0.5


def test_scores_length_mismatch():
    with pytest.raises(ContractError):
        mt.classification_scores([T], [T, N], (N, T))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=60),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_scores_match_bruteforce_confusion(golds, seed):
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 3, size=len(golds)).tolist()
    classes = (0, 1, 2)
    per_class, macro, acc = mt.classification_scores(preds, golds, classes)
    # independent oracle: explicit confusion matrix
    conf = np.zeros((3, 3), dtype=int)
    for p, g in zip(preds, golds):
        conf[g][p] += 1
    f1s = []
    for c in classes:
        tp = conf[c][c]
        fp = conf[:, c].sum() - tp
        fn = conf[c, :].sum() - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        f1s.append(f1)
        assert per_class[c].f1 == pytest.approx(f1, abs=1e-12)
    assert macro == pytest.approx(np.mean(f1s), abs=1e-12)
    assert acc == pytest.approx(np.trace(conf) / len(golds), abs=1e-12)


def test_gtt_basic_cases():
    assert mt.gtt({4}, {5}, 1) == 1.0
    assert mt.gtt({2}, {5}, 2) == 0.0
    assert mt.gtt(set(), set(), 1) == 1.0
    assert mt.gtt({3}, set(), 1) == 0.0
    assert mt.gtt(set(), {3}, 1) == 0.0


def test_gtt_positions_one_based():
    with pytest.raises(ContractError):
        mt.gtt({0}, {1}, 1)


def gtt_bruteforce(pred, gold, tol):
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    for p in pred:
        for g in gold:
            if abs(p - g) <= tol:
                return 1.0
    return 0.0


@given(st.sets(st.integers(1, 30), max_size=6),
       st.sets(st.integers(1, 30), max_size=6),
       st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_gtt_matches_bruteforce(pred, gold, tol):
    assert mt.gtt(pred, gold, tol) == gtt_bruteforce(pred, gold, tol)


@given(st.sets(st.integers(1, 30), max_size=6),
       st.sets(st.integers(1, 30), max_size=6))
@settings(max_examples=100, deadline=None)
def test_gtt_tolerance_monotone(pred, gold):
    scores = [mt.gtt(pred, gold, t) for t in (1, 2, 3)]
    assert scores[0] <= scores[1] <= scores[2]


# ---------------------------------------------------------------------------
# evaluate_model with stub predictors
# ---------------------------------------------------------------------------

SENTIMENT_TO_CLASS = {SentimentLabel.POSITIVE: 0, SentimentLabel.NEUTRAL: 1,
                      SentimentLabel.NEGATIVE: 2}


class _StubConfig:
    aggregate_mode = "attention"


class _StubModel:
    """Emits predictions computed from the gold dialogue by `predict`."""

    config = _StubConfig()

    def __init__(self, predict):
        self._predict = predict

    def forward_dialogue(self, dialogue, vocab):
        import handsat.numerics as nm
        handoff, satisfaction, local = self._predict(dialogue)
        length = len(dialogue)
        zeros = nm.constant(np.zeros((length, length)))
        return ForwardResult(
            handoff_probs=nm.constant(handoff),
            satisfaction_probs=nm.constant(satisfaction),
            local_satisfaction=nm.constant(local),
            importance=nm.constant(np.zeros(length)),
            attn_sat_to_handoff=zeros,
            attn_handoff_to_sat=zeros,
            position_weights=np.zeros((length, length)),
            handoff_view=zeros, satisfaction_view=zeros,
            handoff_fused=zeros, satisfaction_fused=zeros, shared=zeros)


def oracle_predict(dialogue):
    length = len(dialogue)
    handoff = np.zeros((length, 2))
    local = np.zeros((length, 3))
    for t, u in enumerate(dialogue.utterances):
        handoff[t, 1 if u.handoff is HandoffLabel.TRANSFERABLE else 0] = 1.0
        if u.sentiment is not None:
            local[t, SENTIMENT_TO_CLASS[u.sentiment]] = 1.0
        else:
            local[t, 1] = 1.0
    satisfaction = np.zeros(3)
    satisfaction[dialogue.satisfaction.index] = 1.0
    return handoff, satisfaction, local


def all_normal_predict(dialogue):
    length = len(dialogue)
    handoff = np.tile([1.0, 0.0], (length, 1))
    satisfaction = np.array([1.0, 0.0, 0.0])
    return handoff, satisfaction, np.tile([1.0, 0.0, 0.0], (length, 1))


@pytest.fixture(scope="module")
def corpus():
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=40), seed=13)
    return dialogues


def test_perfect_oracle_scores_one(corpus):
    report, per_dlg = mt.evaluate_model(
        _StubModel(oracle_predict), None, corpus,
        sections=("mhch", "ssa", "sentiment"))
    assert report.mhch["f1_transferable"] == 1.0
    assert report.mhch["macro_f1"] == 1.0
    assert all(v == 1.0 for v in report.mhch["gt"].values())
    assert report.ssa["accuracy"] == 1.0
    assert report.ssa["macro_f1"] == 1.0
    assert report.sentiment["accuracy"] == 1.0
    assert len(per_dlg) == len(corpus)


def test_all_normal_gt1_equals_transfer_free_fraction(corpus):
    report, _ = mt.evaluate_model(_StubModel(all_normal_predict), None, corpus,
                                  sections=("mhch",))
    free = sum(1 for d in corpus
               if all(u.handoff is HandoffLabel.NORMAL for u in d.utterances))
    assert report.mhch["gt"]["1"] == pytest.approx(free / len(corpus))


def test_macro_is_mean_of_per_class(corpus):
    rng = np.random.default_rng(0)

    def random_predict(dialogue):
        length = len(dialogue)
        handoff = rng.random((length, 2))
        handoff /= handoff.sum(axis=1, keepdims=True)
        satisfaction = rng.random(3)
        satisfaction /= satisfaction.sum()
        local = rng.random((length, 3))
        local /= local.sum(axis=1, keepdims=True)
        return handoff, satisfaction, local

    report, _ = mt.evaluate_model(_StubModel(random_predict), None, corpus,
                                  sections=("mhch", "ssa", "sentiment"))
    assert report.ssa["macro_f1"] == pytest.approx(
        np.mean(list(report.ssa["f1"].values())), abs=1e-12)
    assert report.sentiment["macro_f1"] == pytest.approx(
        np.mean(list(report.sentiment["f1"].values())), abs=1e-12)


def test_gt_monotone_on_corpus(corpus):
    rng = np.random.default_rng(1)

    def noisy_predict(dialogue):
        handoff, satisfaction, local = oracle_predict(dialogue)
        flip = rng.random(len(dialogue)) < 0.3
        handoff[flip] = handoff[flip][:, ::-1]
        return handoff, satisfaction, local

    report, _ = mt.evaluate_model(_StubModel(noisy_predict), None, corpus,
                                  sections=("mhch",))
    gt = report.mhch["gt"]
    assert gt["1"] <= gt["2"] <= gt["3"]


def test_sentiment_section_requires_labels(corpus):
    stripped = [d.strip_sentiment() for d in corpus]
    with pytest.raises(CorpusError, match="sentiment"):
        mt.evaluate_model(_StubModel(oracle_predict), None, stripped,
                          sections=("sentiment",))


def test_evaluate_idempotent(corpus):
    a, _ = mt.evaluate_model(_StubModel(oracle_predict), None, corpus)
    b, _ = mt.evaluate_model(_StubModel(oracle_predict), None, corpus)
    assert a.to_json() == b.to_json()
