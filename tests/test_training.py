import dataclasses
import json
import math
import platform
import struct
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handsat import numerics as nm
from handsat import training as tr
from handsat.corpus import (Dialogue, HandoffLabel, Role, SatisfactionLabel,
                            Utterance, Vocabulary, build_vocab, split_corpus)
from handsat.errors import CheckpointError, ConfigError, CorpusError
from handsat.metrics import evaluate_model
from handsat.model import Model, ModelConfig, sub_batches
from handsat.synth import GeneratorSpec, synthesize_corpus

T, N = HandoffLabel.TRANSFERABLE, HandoffLabel.NORMAL


def small_config(**overrides):
    base = dict(embed_dim=8, hidden_size=8, dense_size=8, attention_units=8,
                max_dialogue_len=12, heads=2, dropout=0.1, batch_size=8,
                max_epochs=3, patience=5, seed=0)
    base.update(overrides)
    return tr.TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_corpus():
    dialogues, _ = synthesize_corpus(
        GeneratorSpec(num_dialogues=30, min_len=4, max_len=8), seed=21)
    return split_corpus(dialogues, (0.8, 0.1, 0.1), seed=0)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_handoff_loss_perfect_is_zero():
    probs = nm.constant(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    loss = tr.handoff_loss(probs, [[N, T]])
    assert loss.item() == pytest.approx(0.0, abs=1e-10)


def test_handoff_loss_uniform_is_ln2():
    probs = nm.constant(np.full((1, 4, 2), 0.5))
    loss = tr.handoff_loss(probs, [[N, T, T, N]])
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-9)


def test_handoff_loss_permutation_invariant():
    rng = np.random.default_rng(0)
    probs = rng.random((5, 2))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = [N, T, N, N, T]
    a = tr.handoff_loss(nm.constant(probs[None]), [labels]).item()
    perm = [3, 0, 4, 1, 2]
    b = tr.handoff_loss(nm.constant(probs[None, perm]),
                        [[labels[i] for i in perm]]).item()
    assert a == pytest.approx(b, rel=1e-12)


def test_handoff_loss_length_mismatch():
    with pytest.raises(ConfigError):
        tr.handoff_loss(nm.constant(np.full((1, 2, 2), 0.5)), [[N]])


def test_satisfaction_loss_perfect_and_uniform():
    perfect = np.zeros((1, 3))
    perfect[0, SatisfactionLabel.MET.index] = 1.0
    assert tr.satisfaction_loss(nm.constant(perfect),
                                [SatisfactionLabel.MET]).item() == pytest.approx(
        0.0, abs=1e-10)
    uniform = nm.constant(np.full((1, 3), 1 / 3))
    assert tr.satisfaction_loss(uniform, [SatisfactionLabel.UNSATISFIED]).item() == \
        pytest.approx(math.log(3.0), abs=1e-9)


def test_satisfaction_loss_clamped_no_nan():
    probs = nm.constant(np.array([[0.0, 0.5, 0.5]]))
    loss = tr.satisfaction_loss(probs, [SatisfactionLabel.WELL_SATISFIED])
    assert math.isfinite(loss.item())
    assert loss.item() > 20  # -ln(1e-12)


def test_dialogue_loss_identity():
    d = Dialogue("d", tuple(Utterance(("w",), Role.CUSTOMER, handoff=h)
                            for h in (N, T)), SatisfactionLabel.MET)
    out = SimpleNamespace(handoff_probs=nm.constant(np.full((1, 2, 2), 0.5)),
                          satisfaction_probs=nm.constant(np.array([[0.25, 0.5, 0.25]])))
    assert tr.dialogue_loss(out, [d], eta=0.0).item() == pytest.approx(math.log(2.0))
    # bit-exact decomposition against the identically ordered expression
    l1 = tr.handoff_loss(out.handoff_probs, [[N, T]]).item()
    l2 = tr.satisfaction_loss(out.satisfaction_probs, [d.satisfaction]).item()
    assert tr.dialogue_loss(out, [d], eta=0.31).item() == l1 + 0.31 * l2


def test_batched_losses_match_per_dialogue_fsum_with_zero_padding_gradient():
    """handoff_loss and satisfaction_loss on one padded sub-batch of
    lengths 3, 16 and 17 (across the 16-row block edge), a clamped gold
    probability included, equal each dialogue's math.fsum of its gold
    log-probabilities over -L (and minus the gold log-probability) bit for
    bit; the rows past each dialogue's end, and the entries no label
    names, get an exactly zero gradient."""
    rng = np.random.default_rng(31)
    lengths = [3, 16, 17]
    probs = rng.random((3, 17, 2))
    probs /= probs.sum(axis=-1, keepdims=True)
    golds = [[T if c else N for c in rng.random(n) < 0.3] for n in lengths]
    probs[1, 4] = [1.0, 0.0] if golds[1][4] is T else [0.0, 1.0]  # clamped
    overall = rng.random((3, 3))
    overall /= overall.sum(axis=-1, keepdims=True)
    labels = [SatisfactionLabel.MET, SatisfactionLabel.UNSATISFIED,
              SatisfactionLabel.WELL_SATISFIED]
    handoff, satisfaction = nm.parameter(probs), nm.parameter(overall)
    l1 = tr.handoff_loss(handoff, golds)
    l2 = tr.satisfaction_loss(satisfaction, labels)
    for b, (n, gold) in enumerate(zip(lengths, golds)):
        logs = np.log(np.maximum(probs[b, :n], 1e-12))
        picked = [logs[t, int(lab is T)] for t, lab in enumerate(gold)]
        assert l1.data[b].tobytes() == np.float64(math.fsum(picked) / -n).tobytes()
        expect = -np.log(max(overall[b, labels[b].index], 1e-12))
        assert l2.data[b].tobytes() == np.float64(expect).tobytes()
    nm.exact_sum(nm.add(l1, nm.scale(l2, 0.5))).backward()
    named = np.zeros(probs.shape, dtype=bool)
    for b, gold in enumerate(golds):
        named[b, np.arange(len(gold)), [int(lab is T) for lab in gold]] = True
    named[1, 4] = False
    assert np.all(handoff.grad[~named] == 0.0) and np.all(handoff.grad[named] != 0.0)
    for b, n in enumerate(lengths):
        assert not handoff.grad[b, n:].any()
    assert np.count_nonzero(satisfaction.grad) == 3


def test_train_epoch_tape_nodes_are_bounded():
    """One default train() epoch on the acceptance corpus (seed 7, 200/25
    split), dev evaluation included, makes at most 6,500 tape nodes. Node
    counts do not depend on timing, so the bound is tight: in a fresh
    process (position matrices not yet cached) the epoch made 6,184 with
    the interaction's row-wise maps and the losses once per sub-batch, and
    9,879 with both once per dialogue."""
    corpus, _ = synthesize_corpus(
        GeneratorSpec(num_dialogues=250, complaint_rate=0.2), seed=7)
    train_set, dev_set, _ = split_corpus(corpus, seed=7)
    with nm.profile() as ops:
        tr.train(train_set, dev_set, tr.TrainConfig(max_epochs=1))
    nodes = sum(s.nodes for s in ops.values())
    assert nodes <= 6_500, nodes


def test_regularization_delta_scaling():
    theta = {"w": nm.parameter(np.array([1.0, 2.0]))}
    assert tr.regularization(theta, 0.0) is None
    d1 = tr.regularization(theta, 0.1).item()
    d2 = tr.regularization(theta, 0.2).item()
    assert d1 == pytest.approx(0.1 * 5.0, rel=1e-12)
    assert d2 == pytest.approx(2 * d1, rel=1e-12)


def test_regularization_zero_params_ignores_delta():
    theta = {"w": nm.parameter(np.zeros(4))}
    assert tr.regularization(theta, 3.0).item() == 0.0


def test_objective_adds_regularization(tiny_corpus):
    train_set = tiny_corpus[0][:3]
    vocab = build_vocab(train_set)
    model = Model.build(small_config().model_config(len(vocab)),
                        np.random.default_rng(4))
    base = tr.objective(model, vocab, train_set, eta=0.25, delta=0.0).item()
    with_reg = tr.objective(model, vocab, train_set, eta=0.25, delta=0.1).item()
    assert with_reg == base + tr.regularization(model.blocks, 0.1).item()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_eta():
    with pytest.raises(ConfigError):
        small_config(eta=1.0).validate()


def test_config_rejects_voting_training():
    """Training always pools by attention; voting and the other ablation
    pools are evaluate_model's aggregate, so the run config has no key for
    them."""
    with pytest.raises(ConfigError,
                       match=r"unknown train config keys: \['aggregate_mode'\]"):
        tr.TrainConfig.from_json({"aggregate_mode": "voting"})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        tr.TrainConfig.from_json({"bogus": 1})


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_model_config_takes_every_model_field():
    """Each field TrainConfig shares with ModelConfig reaches the model
    config, and the default's stored form is the one checkpoints hold."""
    assert json.dumps(tr.TrainConfig().model_config(50).to_json(), sort_keys=True) == (
        '{"attention_units": 32, "dense_size": 32, "dropout": 0.2, "embed_dim": 32, '
        '"heads": 4, "hidden_size": 32, "interaction_mode": "full", '
        '"max_dialogue_len": 64, "vocab_size": 50}')
    changed = dict(embed_dim=5, hidden_size=6, dense_size=7, attention_units=8,
                   max_dialogue_len=9, heads=3,
                   interaction_mode="no_select", dropout=0.3)
    assert tr.TrainConfig(**changed).model_config(11) == \
        ModelConfig(vocab_size=11, **changed)


def test_train_decreasing_loss_and_determinism(tiny_corpus):
    train, dev, _ = tiny_corpus
    cfg = small_config(max_epochs=4)
    r1 = tr.train(train, dev, cfg)
    r2 = tr.train(train, dev, cfg)
    assert r1.history == r2.history
    losses = [h["train_loss"] for h in r1.history]
    assert losses[-1] < losses[0]
    assert not r1.diverged


def test_train_gradient_is_the_objective_gradient(tiny_corpus, monkeypatch):
    """train()'s first-batch gradient, taken before clipping, is the
    gradient of objective on the same batch (dropout 0)."""
    train, dev, _ = tiny_corpus
    seen = {}
    objective_terms = tr.objective_terms

    def recording_terms(model, batch, *args, **kwargs):
        seen.setdefault("model", model)
        seen.setdefault("batch", [d for _, d in batch])
        return objective_terms(model, batch, *args, **kwargs)

    class FirstClip(Exception):
        pass

    def first_clip(self, max_norm):
        seen["grads"] = {k: t.grad.copy() for k, t in self.model.blocks.items()}
        raise FirstClip

    monkeypatch.setattr(tr, "objective_terms", recording_terms)
    monkeypatch.setattr(tr.Adam, "clip_grads", first_clip)
    cfg = small_config(dropout=0.0)
    with pytest.raises(FirstClip):
        tr.train(train, dev, cfg)
    model = seen["model"]
    model.zero_grads()
    tr.objective(model, build_vocab(train), seen["batch"], cfg.eta,
                 cfg.delta).backward()
    for name, tensor in model.blocks.items():
        difference = np.linalg.norm(seen["grads"][name] - tensor.grad)
        assert difference <= 1e-12 * np.linalg.norm(tensor.grad), name


def test_sub_batch_gradient_matches_per_dialogue_backward(tiny_corpus):
    """One forward_batch and one backward of the exact sum of its dialogues'
    terms give the gradients of one forward and backward per dialogue,
    summed."""
    train = tiny_corpus[0][:6]
    vocab = build_vocab(train)
    model = Model.build(small_config(dropout=0.0).model_config(len(vocab)),
                        np.random.default_rng(6))
    out = model.forward_batch([vocab.encode_dialogue(d) for d in train],
                              [d.roles for d in train])
    nm.exact_sum(tr.dialogue_loss(out, train, eta=0.5)).backward()
    batched = {name: t.grad.copy() for name, t in model.blocks.items()}
    model.zero_grads()
    for d in train:
        out = model.forward_batch([vocab.encode_dialogue(d)], [d.roles])
        tr.dialogue_loss(out, [d], eta=0.5).backward()
    for name, tensor in model.blocks.items():
        difference = np.linalg.norm(batched[name] - tensor.grad)
        assert difference <= 1e-10 * np.linalg.norm(tensor.grad), name


def test_flat_adam_steps_have_the_bits_of_the_per_block_update():
    """Three clipped Adam steps on the model's flat arrays give the bytes of
    the per-block update written out below, step by step, with one block's
    gradient all -0.0 (as for a block that no term reaches)."""
    model = Model.build(small_config().model_config(20), np.random.default_rng(5))
    optimizer = tr.Adam(model, lr=3e-3)
    b1, b2, eps, lr, max_norm = 0.9, 0.999, 1e-8, 3e-3, 10.0
    data = {name: t.data.copy() for name, t in model.blocks.items()}
    m = {name: np.zeros_like(d) for name, d in data.items()}
    v = {name: np.zeros_like(d) for name, d in data.items()}
    rng = np.random.default_rng(6)
    for step in (1, 2, 3):
        grads = {name: rng.standard_normal(d.shape) * 10.0 ** rng.integers(-6, 2)
                 for name, d in data.items()}
        grads["dec_s.query"] = np.full(data["dec_s.query"].shape, -0.0)
        for name, t in model.blocks.items():
            t.grad[...] = grads[name]
        norm = optimizer.clip_grads(max_norm)
        optimizer.step()

        expected_norm = math.fsum(float((g * g).sum()) for g in grads.values()) ** 0.5
        assert norm == expected_norm > max_norm
        b1c, b2c = 1.0 - b1 ** step, 1.0 - b2 ** step
        for name, g in grads.items():
            g = g * (max_norm / expected_norm)
            m[name] = b1 * m[name] + (1 - b1) * g
            v[name] = b2 * v[name] + (1 - b2) * (g * g)
            data[name] = data[name] - lr * (m[name] / b1c) / (np.sqrt(v[name] / b2c) + eps)
            assert model.blocks[name].data.tobytes() == data[name].tobytes(), (step, name)


# measured 3,240,696 bytes with SUB_BATCH = 5 (numpy 2.4.6, Python 3.11),
# and 3,241,351 with each dialogue's loss on its own rows; the bound is
# the first plus 20%. With 4 x 4 sub-batches, the interaction's row-wise
# maps and the losses once per sub-batch: 2,886,958 (the 5+5+5+1 split
# with per-dialogue interaction and losses read 3,369,970 on the same
# machine). 8 + 8 read 5,047,373 with that tape; with the LSTM tape cut
# to the gates and hidden states, dropout's mask kept as booleans and each
# sub-batch's outputs released before the next forward: 3,580,036, in
# the second term; with the encoder's LSTMs reading the token table through
# index grids, no gathered grid taped: 3,326,792
PEAK_BOUND_BYTES = 3_888_835


def test_optimizer_step_traced_peak_is_bounded():
    """The tracemalloc peak of one optimizer step on a 16-dialogue batch of
    the acceptance corpus (default TrainConfig, dropout on) stays within
    the bound. It grows with SUB_BATCH, since a sub-batch's tape lives until
    its backward. A failure names the split and each term's peak."""
    dialogues, _ = synthesize_corpus(
        GeneratorSpec(num_dialogues=250, complaint_rate=0.2), seed=7)
    batch = dialogues[:16]
    cfg = tr.TrainConfig()
    vocab = build_vocab(dialogues[:200])
    model = Model.build(cfg.model_config(len(vocab)), np.random.default_rng(0))
    optimizer = tr.Adam(model, lr=cfg.learning_rate)
    pairs = [(vocab.encode_dialogue(d), d) for d in batch]
    rng = np.random.default_rng(1)
    peaks = []
    tracemalloc.start()
    try:
        model.zero_grads()
        for term in tr.objective_terms(model, pairs, cfg.eta, cfg.delta, rng=rng):
            term.backward()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        optimizer.clip_grads(cfg.grad_clip)
        optimizer.step()
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    split = [len(part) for part in sub_batches(pairs)]
    assert max(peaks) <= PEAK_BOUND_BYTES, (
        f"peak {max(peaks):,} bytes with sub-batches {split}; per term, "
        f"forward and backward (the last term is the penalty), then the "
        f"optimizer step: {', '.join(f'{p:,}' for p in peaks)}")


def test_train_history_records_clipping(tiny_corpus, monkeypatch):
    """grad_norm_preclip is the epoch's largest norm from clip_grads and
    clipped counts the batches whose norm exceeded grad_clip."""
    train, dev, _ = tiny_corpus
    norms = []
    clip_grads = tr.Adam.clip_grads
    monkeypatch.setattr(tr.Adam, "clip_grads", lambda self, max_norm: norms.append(
        clip_grads(self, max_norm)) or norms[-1])
    batches = math.ceil(len(train) / 8)
    for clip in (1e-6, 6.0, 1e6):
        norms.clear()
        history = tr.train(train, dev, small_config(max_epochs=2,
                                                    grad_clip=clip)).history
        per_epoch = [norms[:batches], norms[batches:]]
        assert len(norms) == 2 * batches
        assert [h["grad_norm_preclip"] for h in history] == \
            [max(e) for e in per_epoch]
        assert [h["clipped"] for h in history] == \
            [sum(n > clip for n in e) for e in per_epoch]


def test_train_times_each_epoch_run_outside_the_history(tiny_corpus):
    train, dev, _ = tiny_corpus
    r = tr.train(train, dev, small_config(max_epochs=4, patience=1))
    assert [t["epoch"] for t in r.timing] == [h["epoch"] for h in r.history]
    for t in r.timing:
        assert set(t) == {"epoch", "epoch_seconds", "dialogues_per_second",
                          "minor_page_faults"}
        assert t["epoch_seconds"] > 0.0
        assert t["dialogues_per_second"] == len(train) / t["epoch_seconds"]
        assert tr.resource is None or t["minor_page_faults"] >= 0
    assert not any("seconds" in key for h in r.history for key in h)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the trim threshold is glibc's mallopt setting")
def test_train_epoch_reuses_the_memory_freed_by_the_last_one():
    """With freed memory kept mapped, an epoch of the default model reuses
    the heap of the epochs before it instead of faulting it back in (about
    5,000-6,500 faults per epoch when glibc trims the heap top)."""
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=100), seed=7)
    train, dev, _ = split_corpus(dialogues, seed=7)
    r = tr.train(train, dev, tr.TrainConfig(max_epochs=4))
    assert len(r.timing) == 4
    assert r.timing[-1]["minor_page_faults"] < 500


def test_train_restores_best_epoch(tiny_corpus):
    train, dev, _ = tiny_corpus
    r = tr.train(train, dev, small_config(max_epochs=4))
    best = max(h["dev_selection"] for h in r.history)
    assert r.best_selection == best
    assert r.history[r.best_epoch]["dev_selection"] == best


def test_train_ignores_sentiment_labels(tiny_corpus):
    train, dev, _ = tiny_corpus
    stripped_train = [d.strip_sentiment() for d in train]
    stripped_dev = [d.strip_sentiment() for d in dev]
    cfg = small_config(max_epochs=2)
    with_labels = tr.train(train, dev, cfg)
    without = tr.train(stripped_train, stripped_dev, cfg)
    assert with_labels.history == without.history


def _customer_free(d):
    return dataclasses.replace(d, id="agents only", utterances=tuple(
        dataclasses.replace(u, role=Role.AGENT, sentiment=None)
        for u in d.utterances))


def _over_length(d):
    return dataclasses.replace(d, id="too long", utterances=d.utterances * 3)


@pytest.mark.parametrize("make_bad", [_customer_free, _over_length],
                         ids=["customer_free", "over_length"])
def test_train_and_evaluate_refuse_unusable_dialogues(tiny_corpus, make_bad):
    """An in-memory corpus that load_corpus would refuse is refused by
    train() (in either split) and evaluate_model too, before any forward."""
    train_set, dev_set, _ = tiny_corpus
    config = small_config(max_dialogue_len=8)
    bad = make_bad(train_set[0])
    for corpora in ([*train_set, bad], dev_set), (train_set, [*dev_set, bad]):
        with pytest.raises(CorpusError, match=bad.id):
            tr.train(*corpora, config)
    vocab = build_vocab(train_set)
    model = Model.build(config.model_config(len(vocab)), np.random.default_rng(0))
    with pytest.raises(CorpusError, match=bad.id):
        evaluate_model(model, vocab, [*dev_set, bad])


def test_train_eta_zero_leaves_satisfaction_head_at_init(tiny_corpus):
    train, dev, _ = tiny_corpus
    cfg = small_config(max_epochs=2, eta=0.0, delta=0.0)
    r = tr.train(train, dev, cfg)
    fresh = tr.train(train, dev, small_config(max_epochs=1, eta=0.0, delta=0.0))
    # the local classifier sits strictly downstream of the satisfaction loss
    init_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
    from handsat.model import Model
    init_model = Model.build(cfg.model_config(len(r.vocab)), init_rng)
    for block in ("dec_s.local_w", "dec_s.local_b", "dec_s.attn_w",
                  "dec_s.attn_b", "dec_s.query"):
        np.testing.assert_array_equal(r.model.blocks[block].data,
                                      init_model.blocks[block].data)
    del fresh


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tiny_corpus, tmp_path):
    train, dev, _ = tiny_corpus
    r = tr.train(train, dev, small_config(max_epochs=1))
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(r.model, r.vocab, path, extra={"note": "test"})
    loaded, vocab, extra = tr.load_checkpoint(path)
    assert extra == {"note": "test"}
    assert vocab.token_to_index == r.vocab.token_to_index
    for name, tensor in r.model.blocks.items():
        np.testing.assert_array_equal(tensor.data, loaded.blocks[name].data)
    # save -> load -> save is byte-identical
    path2 = tmp_path / "model2.ckpt"
    tr.save_checkpoint(loaded, vocab, path2, extra={"note": "test"})
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        tr.load_checkpoint(path)


def test_checkpoint_config_mismatch_names_block(tmp_path):
    """Blocks stored for hidden_size 8 under a config that says 16."""
    model = Model.build(small_config().model_config(2), np.random.default_rng(0))
    model.config = dataclasses.replace(model.config, hidden_size=16)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(model, Vocabulary.from_json({"tokens": ["<pad>", "<unk>"]}),
                       path)
    with pytest.raises(CheckpointError, match="block 'enc.fwd.w': stored shape"):
        tr.load_checkpoint(path)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    """A small saved checkpoint: its path and its bytes."""
    model = Model.build(small_config(embed_dim=4, hidden_size=4, dense_size=4,
                                     attention_units=4).model_config(3),
                        np.random.default_rng(0))
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    tr.save_checkpoint(model, Vocabulary({"<pad>": 0, "<unk>": 1, "a": 2}), path,
                       extra={"best_epoch": 1})
    return path, path.read_bytes()


def header_end(data: bytes) -> int:
    """The end of the container's header with its metadata, which holds the
    block list; the body of float64 values follows."""
    return 16 + struct.unpack_from("<Q", data, 8)[0]


@st.composite
def mutation(draw, data: bytes) -> bytes:
    """One truncation, a few byte flips, or a spliced copy of one span over
    another. Half the positions fall in the header and metadata, under a
    fifth of the bytes."""
    position = st.one_of(st.integers(0, header_end(data) - 1),
                         st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return data[:draw(position)]
    if kind == "flip":
        out = bytearray(data)
        for pos, mask in draw(st.lists(st.tuples(position, st.integers(1, 255)),
                                       min_size=1, max_size=4)):
            out[pos] ^= mask
        return bytes(out)
    a, b = sorted((draw(position), draw(position)))
    c, d = sorted((draw(position), draw(position)))
    return data[:c] + data[a:b] + data[d:]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_checkpoint_fuzz_loads_or_raises_checkpoint_error(checkpoint_file, data):
    """A mutated file loads only if it is the original; half the examples
    mutate the bytes before the CRC and re-seal them, so that the parser
    behind the CRC check meets them."""
    path, original = checkpoint_file
    resealed = data.draw(st.booleans())
    if resealed:
        body = data.draw(mutation(original[:-4]))
        mutated = body + struct.pack("<I", zlib.crc32(body))
    else:
        mutated = data.draw(mutation(original))
    path.write_bytes(mutated)
    try:
        tr.load_checkpoint(path)
    except CheckpointError:
        return
    assert resealed or mutated == original


def test_checkpoint_with_a_non_finite_value_is_refused(tmp_path):
    """A sealed checkpoint whose body holds a NaN or an infinity is refused
    at load, naming the first block that holds one."""
    model = Model.build(small_config().model_config(2), np.random.default_rng(0))
    model.blocks["dec_h.out_b"].data[1] = math.nan
    model.blocks["dec_s.query"].data[0] = math.inf
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(model, Vocabulary.from_json({"tokens": ["<pad>", "<unk>"]}),
                       path)
    with pytest.raises(CheckpointError,
                       match="^block 'dec_h.out_b' holds a non-finite value$"):
        tr.load_checkpoint(path)


def test_checkpoint_truncated(tiny_corpus, tmp_path):
    train, dev, _ = tiny_corpus
    r = tr.train(train, dev, small_config(max_epochs=1))
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(r.model, r.vocab, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        tr.load_checkpoint(path)
