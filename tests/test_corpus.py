import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handsat import corpus as cp
from handsat.errors import ContractError, CorpusError

GOOD_LINE = {
    "id": "d1",
    "satisfaction": "unsatisfied",
    "utterances": [
        {"role": "customer", "tokens": ["where", "is", "it"],
         "handoff": "transferable", "sentiment": "negative"},
        {"role": "agent", "tokens": ["checking"], "handoff": "normal"},
    ],
}


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def test_load_corpus_roundtrip(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, [GOOD_LINE])
    corpus = cp.load_corpus(p, max_dialogue_len=10)
    assert len(corpus) == 1
    d = corpus[0]
    assert len(d) == 2
    assert d.satisfaction is cp.SatisfactionLabel.UNSATISFIED
    assert d.utterances[0].role is cp.Role.CUSTOMER
    assert d.utterances[0].handoff is cp.HandoffLabel.TRANSFERABLE
    # serialize -> parse is identity
    assert cp.parse_dialogue(cp.dialogue_to_json(d)) == d


def test_load_corpus_unknown_role(tmp_path):
    p = tmp_path / "c.jsonl"
    bad = json.loads(json.dumps(GOOD_LINE))
    bad["utterances"][0]["role"] = "bot"
    write_jsonl(p, [bad])
    with pytest.raises(CorpusError, match="role"):
        cp.load_corpus(p, max_dialogue_len=10)


def test_load_corpus_missing_satisfaction(tmp_path):
    p = tmp_path / "c.jsonl"
    bad = json.loads(json.dumps(GOOD_LINE))
    del bad["satisfaction"]
    write_jsonl(p, [bad])
    with pytest.raises(CorpusError, match="satisfaction"):
        cp.load_corpus(p, max_dialogue_len=10)


def test_load_corpus_malformed_line_reports_number(tmp_path):
    p = tmp_path / "c.jsonl"
    with open(p, "w") as fh:
        fh.write(json.dumps(GOOD_LINE) + "\n")
        fh.write("{not json\n")
    with pytest.raises(CorpusError, match="line 2"):
        cp.load_corpus(p, max_dialogue_len=10)


def test_load_corpus_rejects_overlong_with_ids(tmp_path):
    p = tmp_path / "c.jsonl"
    write_jsonl(p, [GOOD_LINE])
    with pytest.raises(CorpusError, match="d1"):
        cp.load_corpus(p, max_dialogue_len=1)


def test_sentiment_on_agent_rejected():
    with pytest.raises(CorpusError):
        cp.Utterance(tokens=("hi",), role=cp.Role.AGENT,
                     handoff=cp.HandoffLabel.NORMAL,
                     sentiment=cp.SentimentLabel.NEUTRAL)


def test_strip_sentiment_drops_the_labels_and_nothing_else():
    """Every sentiment label is gone and every other field is equal; an
    unlabelled utterance is the same object, and a dialogue without labels
    comes back as it is."""
    from handsat.synth import GeneratorSpec, synthesize_corpus
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=20), seed=5)
    labelled = 0
    for d in dialogues:
        stripped = d.strip_sentiment()
        assert (stripped.id, stripped.satisfaction) == (d.id, d.satisfaction)
        assert len(stripped.utterances) == len(d.utterances)
        for u, s in zip(d.utterances, stripped.utterances):
            assert s.sentiment is None
            assert (s.tokens, s.role, s.handoff) == (u.tokens, u.role, u.handoff)
            if u.sentiment is None:
                assert s is u
            labelled += u.sentiment is not None
        assert stripped.strip_sentiment() is stripped
    assert labelled > 0


def test_load_corpus_rejects_customer_free_dialogues(tmp_path):
    p = tmp_path / "c.jsonl"
    agent_only = {
        "id": "a1", "satisfaction": "met",
        "utterances": [{"role": "agent", "tokens": ["hi"], "handoff": "normal"}],
    }
    write_jsonl(p, [agent_only])
    with pytest.raises(CorpusError, match="a1"):
        cp.load_corpus(p, max_dialogue_len=10)


def test_serialize_parse_roundtrip_property():
    from handsat.synth import GeneratorSpec, synthesize_corpus
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=30), seed=17)
    for d in dialogues:
        assert cp.parse_dialogue(cp.dialogue_to_json(d)) == d


CLOTHES = os.environ.get("HANDSAT_CLOTHES_CORPUS")
MAKEUP = os.environ.get("HANDSAT_MAKEUP_CORPUS")


@pytest.mark.skipif(not CLOTHES, reason="set HANDSAT_CLOTHES_CORPUS to run")
def test_clothes_reference_statistics():
    corpus = cp.load_corpus(CLOTHES, max_dialogue_len=512)
    stats = cp.corpus_stats(corpus)
    assert stats.num_dialogues == 10_000
    assert stats.mean_utterances_per_dialogue == pytest.approx(25.48, abs=0.01)
    assert stats.handoff_counts["transferable"] == 16_921
    assert stats.handoff_counts["normal"] == 237_891
    train, dev, test = cp.split_corpus(corpus, seed=0)
    assert (len(train), len(dev), len(test)) == (8000, 1000, 1000)


@pytest.mark.skipif(not MAKEUP, reason="set HANDSAT_MAKEUP_CORPUS to run")
def test_makeup_reference_statistics():
    corpus = cp.load_corpus(MAKEUP, max_dialogue_len=512)
    stats = cp.corpus_stats(corpus)
    assert stats.num_dialogues == 3_540
    assert stats.satisfaction_counts == {"well_satisfied": 1_180, "met": 1_180,
                                         "unsatisfied": 1_180}


def test_corpus_stats_counts():
    from handsat.synth import GeneratorSpec, synthesize_corpus
    dialogues, report = synthesize_corpus(GeneratorSpec(num_dialogues=10), seed=1)
    stats = cp.corpus_stats(dialogues)
    assert stats.num_dialogues == 10
    assert stats.satisfaction_counts == report.satisfaction_counts
    assert stats.handoff_counts["transferable"] == report.transferable_utterances
    assert stats.handoff_counts["normal"] == report.normal_utterances


def test_corpus_stats_empty():
    with pytest.raises(CorpusError):
        cp.corpus_stats([])


def make_dialogue(i, length, transfer_at=(), satisfaction=cp.SatisfactionLabel.MET):
    utts = []
    for t in range(1, length + 1):
        role = cp.Role.CUSTOMER if t % 2 == 1 else cp.Role.AGENT
        handoff = (cp.HandoffLabel.TRANSFERABLE if t in transfer_at
                   else cp.HandoffLabel.NORMAL)
        utts.append(cp.Utterance(tokens=(f"t{t}",), role=role, handoff=handoff))
    return cp.Dialogue(id=f"d{i}", utterances=tuple(utts), satisfaction=satisfaction)


def test_handoff_hist_single_transfer_last_bin():
    d = make_dialogue(0, 4, transfer_at=(4,), satisfaction=cp.SatisfactionLabel.MET)
    hist = cp.handoff_position_hist([d], bins=5)
    assert hist["met"][-1] == 1.0
    assert sum(hist["met"]) == pytest.approx(1.0)
    assert sum(hist["unsatisfied"]) == 0.0


def test_handoff_hist_no_transfers_all_zero():
    d = make_dialogue(0, 4)
    hist = cp.handoff_position_hist([d], bins=3)
    assert all(sum(v) == 0.0 for v in hist.values())


def test_handoff_hist_planted_late_vs_early():
    from handsat.synth import GeneratorSpec, synthesize_corpus
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=300), seed=3)
    hist = cp.handoff_position_hist(dialogues, bins=10)
    centers = np.arange(10) / 10 + 0.05
    mean_unsat = float(np.dot(hist["unsatisfied"], centers))
    mean_met = float(np.dot(hist["met"], centers))
    assert mean_unsat > mean_met


def test_split_sizes_80_10_10():
    corpus = [make_dialogue(i, 2) for i in range(10_000)]
    train, dev, test = cp.split_corpus(corpus, seed=0)
    assert (len(train), len(dev), len(test)) == (8000, 1000, 1000)


def test_split_deterministic_and_partition():
    corpus = [make_dialogue(i, 2) for i in range(10)]
    a = cp.split_corpus(corpus, seed=42)
    b = cp.split_corpus(corpus, seed=42)
    assert [[d.id for d in part] for part in a] == [[d.id for d in part] for part in b]


@given(st.integers(1, 200), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_split_partition_property(n, seed):
    corpus = [make_dialogue(i, 2) for i in range(n)]
    train, dev, test = cp.split_corpus(corpus, seed=seed)
    ids = [d.id for d in train] + [d.id for d in dev] + [d.id for d in test]
    assert sorted(ids) == sorted(d.id for d in corpus)
    assert len(set(ids)) == len(ids)


def test_split_bad_ratios():
    with pytest.raises(ContractError):
        cp.split_corpus([make_dialogue(0, 2)], ratios=(0.5, 0.2, 0.2))


def test_build_vocab_min_freq():
    d = cp.Dialogue(
        id="v", satisfaction=cp.SatisfactionLabel.MET,
        utterances=(cp.Utterance(tokens=("a", "b", "a"), role=cp.Role.CUSTOMER,
                                 handoff=cp.HandoffLabel.NORMAL),))
    v1 = cp.build_vocab([d], min_freq=1)
    assert v1.token_to_index == {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3}
    v2 = cp.build_vocab([d], min_freq=2)
    assert v2.lookup("b") == cp.UNK_INDEX
    assert v2.lookup("zzz") == cp.UNK_INDEX


def test_build_vocab_empty():
    with pytest.raises(CorpusError):
        cp.build_vocab([])


def test_vocab_roundtrip():
    d = make_dialogue(0, 4)
    v = cp.build_vocab([d])
    assert cp.Vocabulary.from_json(v.to_json()).token_to_index == v.token_to_index


def write_embeddings(path, rows, dim):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {dim}\n")
        for tok, vec in rows:
            fh.write(tok + " " + " ".join(str(v) for v in vec) + "\n")


def test_load_embeddings_full_coverage(tmp_path):
    d = cp.Dialogue(
        id="e", satisfaction=cp.SatisfactionLabel.MET,
        utterances=(cp.Utterance(tokens=("a", "b"), role=cp.Role.CUSTOMER,
                                 handoff=cp.HandoffLabel.NORMAL),))
    vocab = cp.build_vocab([d])
    p = tmp_path / "emb.txt"
    write_embeddings(p, [("a", [1.0, 2.0]), ("b", [3.0, 4.0])], dim=2)
    loaded = cp.load_embeddings(p, vocab, dim=2)
    assert loaded.coverage == 1.0
    np.testing.assert_array_equal(loaded.table[vocab.lookup("a")], [1.0, 2.0])
    np.testing.assert_array_equal(loaded.table[cp.PAD_INDEX], [0.0, 0.0])


def test_load_embeddings_coverage_counts_distinct_tokens(tmp_path):
    """A token listed three times counts once, and <unk> not at all; the
    last line of a repeated token gives its vector."""
    d = cp.Dialogue(
        id="e", satisfaction=cp.SatisfactionLabel.MET,
        utterances=(cp.Utterance(tokens=("a", "b"), role=cp.Role.CUSTOMER,
                                 handoff=cp.HandoffLabel.NORMAL),))
    vocab = cp.build_vocab([d])
    assert len(vocab) == 4  # <pad>, <unk>, a, b
    p = tmp_path / "emb.txt"
    write_embeddings(p, [("a", [1.0, 1.0]), ("a", [2.0, 2.0]), ("<unk>", [5.0, 5.0]),
                         ("a", [3.0, 3.0])], dim=2)
    loaded = cp.load_embeddings(p, vocab, dim=2)
    assert loaded.coverage == 0.5
    np.testing.assert_array_equal(loaded.table[vocab.lookup("a")], [3.0, 3.0])
    np.testing.assert_array_equal(loaded.table[cp.UNK_INDEX], [5.0, 5.0])


def test_load_embeddings_empty_file(tmp_path):
    d = cp.Dialogue(
        id="e", satisfaction=cp.SatisfactionLabel.MET,
        utterances=(cp.Utterance(tokens=("a",), role=cp.Role.CUSTOMER,
                                 handoff=cp.HandoffLabel.NORMAL),))
    vocab = cp.build_vocab([d])
    p = tmp_path / "emb.txt"
    write_embeddings(p, [], dim=4)
    loaded = cp.load_embeddings(p, vocab, dim=4)
    assert loaded.coverage == 0.0
    assert np.all(loaded.table[cp.PAD_INDEX] == 0.0)
    assert np.any(loaded.table[vocab.lookup("a")] != 0.0)


@pytest.mark.parametrize("value, message", [
    ("abc", "non-numeric"), ("nan", "non-finite"), ("inf", "non-finite")])
def test_load_embeddings_rejects_bad_values(tmp_path, value, message):
    vocab = cp.Vocabulary({cp.PAD_TOKEN: 0, cp.UNK_TOKEN: 1, "a": 2})
    p = tmp_path / "emb.txt"
    write_embeddings(p, [("a", [1.0, value])], dim=2)
    with pytest.raises(CorpusError, match=f"{message} embedding value on line 2"):
        cp.load_embeddings(p, vocab, dim=2)


@pytest.mark.parametrize("header", ["1 ²", "1 2.0", "-1 2", "1", ""])
def test_load_embeddings_rejects_bad_header(tmp_path, header):
    vocab = cp.Vocabulary({cp.PAD_TOKEN: 0, cp.UNK_TOKEN: 1, "a": 2})
    p = tmp_path / "emb.txt"
    p.write_text(header + "\na 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="'count dim' header"):
        cp.load_embeddings(p, vocab, dim=2)


def test_load_embeddings_accepts_trailing_space(tmp_path):
    """word2vec.c's text output ends each vector line in a space."""
    vocab = cp.Vocabulary({cp.PAD_TOKEN: 0, cp.UNK_TOKEN: 1, "a": 2})
    p = tmp_path / "emb.txt"
    p.write_text("1 2\na 1.000000 -2.500000 \n", encoding="utf-8")
    loaded = cp.load_embeddings(p, vocab, dim=2)
    assert loaded.coverage == 1.0
    np.testing.assert_array_equal(loaded.table[2], [1.0, -2.5])


def test_load_embeddings_non_utf8(tmp_path):
    vocab = cp.Vocabulary({cp.PAD_TOKEN: 0, cp.UNK_TOKEN: 1, "a": 2})
    p = tmp_path / "emb.txt"
    p.write_bytes(b"1 2\ncaf\xe9 1.0 2.0\n")
    with pytest.raises(CorpusError, match="line 2 is not valid UTF-8"):
        cp.load_embeddings(p, vocab, dim=2)


def test_load_embeddings_dim_mismatch(tmp_path):
    d = cp.Dialogue(
        id="e", satisfaction=cp.SatisfactionLabel.MET,
        utterances=(cp.Utterance(tokens=("a",), role=cp.Role.CUSTOMER,
                                 handoff=cp.HandoffLabel.NORMAL),))
    vocab = cp.build_vocab([d])
    p = tmp_path / "emb.txt"
    write_embeddings(p, [("a", [1.0] * 50)], dim=50)
    with pytest.raises(CorpusError, match="dimension"):
        cp.load_embeddings(p, vocab, dim=200)
