"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion. The learning check (criterion 7) trains on CPU and dominates the
runtime; the whole module stays within its stated budgets.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from handsat import interaction as ia
from handsat import numerics as nm
from handsat import training as tr
from handsat.corpus import Role, SatisfactionLabel, build_vocab, split_corpus
from handsat.decoders import aggregate_variant
from handsat.interaction import fuse, interact
from handsat.metrics import evaluate_model, gtt
from handsat.model import Model
from handsat.synth import GeneratorSpec, synthesize_corpus


def announce(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)


def random_dialogue(rng, vocab_size, min_len=2, max_len=10, max_tokens=6):
    length = int(rng.integers(min_len, max_len + 1))
    roles = [Role.CUSTOMER if rng.random() < 0.5 else Role.AGENT
             for _ in range(length)]
    roles[int(rng.integers(0, length))] = Role.CUSTOMER  # SSA needs a customer
    ids = [[int(i) for i in rng.integers(2, vocab_size,
                                         size=rng.integers(1, max_tokens + 1))]
           for _ in range(length)]
    return ids, roles


@pytest.fixture(scope="module")
def probe_model():
    cfg = tr.TrainConfig(embed_dim=12, hidden_size=16, dense_size=16,
                         attention_units=16, max_dialogue_len=10, heads=4,
                         batch_size=2, seed=0)
    return Model.build(cfg.model_config(vocab_size=40), np.random.default_rng(1))


@pytest.fixture(scope="module")
def synthetic_splits():
    # 200 train / 25 dev / 25 test at complaint rate 20%
    dialogues, _ = synthesize_corpus(
        GeneratorSpec(num_dialogues=250, complaint_rate=0.2), seed=7)
    return dialogues[:200], dialogues[200:225], dialogues[225:250]


@pytest.fixture(scope="module")
def trained(synthetic_splits):
    train_set, dev_set, _ = synthetic_splits
    t0 = time.time()
    result = tr.train(train_set, dev_set, tr.TrainConfig())
    return result, time.time() - t0


# -- criterion 1 -------------------------------------------------------------

def test_c01_gradient_fidelity():
    """Full-model finite-difference check: k=d=z=8, L<=6, batch of 2,
    float64, dropout off; max relative error < 1e-4 in under 60 s."""
    t0 = time.time()
    spec = GeneratorSpec(num_dialogues=2, min_len=4, max_len=6,
                         complaint_rate=0.4)
    dialogues, _ = synthesize_corpus(spec, seed=3)
    vocab = build_vocab(dialogues)
    cfg = tr.TrainConfig(embed_dim=8, hidden_size=8, dense_size=8,
                         attention_units=8, max_dialogue_len=6, heads=2,
                         batch_size=2, seed=0)
    model = Model.build(cfg.model_config(len(vocab)), np.random.default_rng(0))

    def loss():
        return tr.objective(model, vocab, dialogues, eta=0.5, delta=1e-5)

    report = nm.grad_check(loss, model.blocks, eps=1e-5, tol=1e-4,
                           samples_per_block=8, rng=np.random.default_rng(9))
    elapsed = time.time() - t0
    ok = report.passed and elapsed < 60
    announce("1 gradient fidelity", ok,
             f"max rel err {report.max_rel_error:.2e}, {elapsed:.1f}s")
    assert report.passed, report.to_json()
    assert elapsed < 60


# -- criterion 2 -------------------------------------------------------------

def test_c02_causality_suite(probe_model):
    """Handoff predictions for every prefix are bit-identical computed on the
    prefix or on the full dialogue (100 random dialogues, all t); the
    satisfaction-side masks have exactly causal support."""
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(100):
        ids, roles = random_dialogue(rng, 40)
        full = probe_model.forward(ids, roles)
        # satisfaction-side causal structure on the full dialogue
        assert np.all(np.triu(full.attn_handoff_to_sat.data, k=1) == 0.0)
        assert np.all(np.triu(full.attn_sat_to_handoff.data, k=0) == 0.0)
        assert np.all(np.triu(full.position_weights, k=1) == 0.0)
        for t in range(1, len(ids) + 1):
            prefix = probe_model.forward(ids[:t], roles[:t])
            assert np.array_equal(full.handoff_probs.data[:t],
                                  prefix.handoff_probs.data)
            checked += 1
    announce("2 causality suite", True, f"{checked} prefixes bit-identical")


# -- criterion 3 -------------------------------------------------------------

def test_c03_role_selection_suite(probe_model):
    rng = np.random.default_rng(13)
    for _ in range(100):
        ids, roles = random_dialogue(rng, 40)
        is_customer = np.array([r is Role.CUSTOMER for r in roles])
        batch = probe_model.forward_batch([ids], [roles])  # padded, B = 1
        out = batch[0]
        # (a) cross-attention mass on agent columns is exactly zero
        assert np.all(out.attn_sat_to_handoff.data[:, ~is_customer].sum() == 0.0)
        # (b) importance mass on agent positions is exactly zero
        assert out.importance.data[~is_customer].sum() == 0.0
        # (c1) perturbing the satisfaction view at agent rows leaves the
        #      fused handoff representation unchanged
        perturbed = batch.satisfaction_view.data[0].copy()
        perturbed[~is_customer] += rng.standard_normal(
            ((~is_customer).sum(), perturbed.shape[1])) * 5
        views_ref, views_alt = (
            (nm.constant(batch.handoff_view.data[0]), nm.constant(s))
            for s in (batch.satisfaction_view.data[0], perturbed))
        context_ref, context_alt = (interact(views, is_customer).s2h_context
                                    for views in (views_ref, views_alt))
        assert np.array_equal(context_ref.data, context_alt.data)
        fused_ref, fused_alt = (
            fuse(*(nm.row(v, (None,)) for v in views), [interact(views, is_customer)],
                 probe_model.interaction).handoff_fused
            for views in (views_ref, views_alt))
        assert np.array_equal(fused_ref.data, fused_alt.data)
        # (c2) perturbing local satisfaction rows at agent positions leaves
        #      the dialogue distribution unchanged
        z_alt = out.local_satisfaction.data.copy()
        z_alt[~is_customer] = rng.random(((~is_customer).sum(), 3))
        y_ref = aggregate_variant(nm.constant(out.local_satisfaction.data),
                                  is_customer, "attention",
                                  nm.constant(out.importance.data))
        y_alt = aggregate_variant(nm.constant(z_alt), is_customer, "attention",
                                  nm.constant(out.importance.data))
        assert np.array_equal(y_ref.data, y_alt.data)
        np.testing.assert_array_equal(y_ref.data, out.satisfaction_probs.data)
    announce("3 role selection suite", True, "100 dialogues, exact zeros")


# -- criterion 4 -------------------------------------------------------------

def test_c04_distribution_suite(probe_model):
    rng = np.random.default_rng(17)
    tol = 1e-6
    for _ in range(100):
        ids, roles = random_dialogue(rng, 40)
        is_customer = np.array([r is Role.CUSTOMER for r in roles])
        out = probe_model.forward(ids, roles)
        L = len(ids)
        assert np.allclose(out.handoff_probs.data.sum(axis=1), 1.0, atol=tol)
        assert np.allclose(out.local_satisfaction.data.sum(axis=1), 1.0, atol=tol)
        assert abs(out.satisfaction_probs.data.sum() - 1.0) < tol
        assert abs(out.importance.data.sum() - 1.0) < tol
        for row in out.attn_sat_to_handoff.data:
            if row.any():
                assert abs(row.sum() - 1.0) < tol
        for matrix in (out.attn_handoff_to_sat.data, out.position_weights):
            sums = matrix.sum(axis=1)
            assert np.allclose(sums, 1.0, atol=tol)
        rows = out.local_satisfaction.data[is_customer]
        assert np.all(out.satisfaction_probs.data >= rows.min(axis=0) - tol)
        assert np.all(out.satisfaction_probs.data <= rows.max(axis=0) + tol)
    announce("4 distribution suite", True)


# -- criterion 5 -------------------------------------------------------------

def test_c05_positional_weight_law():
    for L in range(1, 51):
        for t in range(1, L + 1):
            beta = ia.position_matrix(L)[t - 1]
            assert np.all(beta[t:] == 0.0)
            assert abs(beta.sum() - 1.0) < 1e-9
            if t > 1:
                assert np.all(np.diff(beta[:t]) > 0.0)
    hand = ia.position_matrix(3)[1]
    assert np.allclose(hand[:2], [0.4174, 0.5826], atol=5e-5)
    announce("5 positional weight law", True, "all L <= 50; hand value matches")


# -- criterion 6 -------------------------------------------------------------

def test_c06_gtt_oracle_equivalence(trained, synthetic_splits):
    rng = np.random.default_rng(19)
    for _ in range(1000):
        pred = set(int(i) for i in rng.integers(1, 30, size=rng.integers(0, 6)))
        gold = set(int(i) for i in rng.integers(1, 30, size=rng.integers(0, 6)))
        tol = int(rng.integers(0, 5))
        brute = 0.0
        if not pred and not gold:
            brute = 1.0
        elif pred and gold:
            for p in pred:
                for g in gold:
                    if abs(p - g) <= tol:
                        brute = 1.0
        assert gtt(pred, gold, tol) == brute
    # corpus-level monotonicity on a real evaluation
    result, _ = trained
    _, _, test_set = synthetic_splits
    report, _ = evaluate_model(result.model, result.vocab, test_set)
    gt = report.mhch["gt"]
    assert gt["1"] <= gt["2"] <= gt["3"]
    announce("6 gtt oracle equivalence", True,
             f"1000 fuzz cases; GT-I..III {gt['1']:.3f}<={gt['2']:.3f}<={gt['3']:.3f}")


# -- criterion 7 -------------------------------------------------------------

def test_c07_synthetic_learning_check(trained, synthetic_splits):
    train_set, _, test_set = synthetic_splits
    result, elapsed = trained
    assert not result.diverged
    assert len(result.history) <= 50
    rep_train, _ = evaluate_model(result.model, result.vocab, train_set)
    rep_test, _ = evaluate_model(result.model, result.vocab, test_set)
    train_f1 = rep_train.mhch["f1_transferable"]
    train_acc = rep_train.ssa["accuracy"]
    test_f1 = rep_test.mhch["f1_transferable"]
    test_acc = rep_test.ssa["accuracy"]
    losses = [h["train_loss"] for h in result.history[:5]]
    decreasing = all(b < a for a, b in zip(losses, losses[1:]))
    ok = (train_f1 >= 0.95 and train_acc >= 0.90 and test_f1 >= 0.85
          and test_acc >= 0.80 and elapsed < 900)
    announce("7 synthetic learning check", ok,
             f"train F1 {train_f1:.3f}/acc {train_acc:.3f}, "
             f"test F1 {test_f1:.3f}/acc {test_acc:.3f}, "
             f"{len(result.history)} epochs, {elapsed:.0f}s")
    assert decreasing, losses
    assert train_f1 >= 0.95 and train_acc >= 0.90
    assert test_f1 >= 0.85 and test_acc >= 0.80
    assert elapsed < 900


# -- criterion 8 -------------------------------------------------------------

def test_c08_ablation_consistency(trained, synthetic_splits, probe_model):
    rng = np.random.default_rng(23)
    # exactness 1: no_interact passes both views through untouched
    cfg = tr.TrainConfig(embed_dim=12, hidden_size=16, dense_size=16,
                         attention_units=16, max_dialogue_len=10, heads=4,
                         interaction_mode="no_interact", batch_size=2, seed=0)
    ni_model = Model.build(cfg.model_config(vocab_size=40),
                           np.random.default_rng(1))
    ids, roles = random_dialogue(rng, 40)
    out = ni_model.forward_batch([ids], [roles])
    assert out.handoff_fused is out.handoff_view
    assert out.satisfaction_fused is out.satisfaction_view

    # exactness 2: "last" aggregation equals the final customer's local row
    out = probe_model.forward(ids, roles)
    is_customer = np.array([r is Role.CUSTOMER for r in roles])
    last_pos = int(np.flatnonzero(is_customer)[-1])
    y_last = aggregate_variant(out.local_satisfaction, is_customer, "last")
    assert np.array_equal(y_last.data, out.local_satisfaction.data[last_pos])

    # soft dominance: full-mode satisfaction accuracy vs each ablation
    result, _ = trained
    train_set, dev_set, test_set = synthetic_splits
    full_report, _ = evaluate_model(result.model, result.vocab, test_set)
    full_acc = full_report.ssa["accuracy"]
    accuracies = {"full": full_acc}
    for mode in ("no_interact", "no_select", "no_position"):
        cfg = tr.TrainConfig(interaction_mode=mode, max_epochs=25)
        ablated = tr.train(train_set, dev_set, cfg)
        rep, _ = evaluate_model(ablated.model, ablated.vocab, test_set)
        accuracies[mode] = rep.ssa["accuracy"]
    for agg in ("average", "voting", "last"):
        rep, _ = evaluate_model(result.model, result.vocab, test_set,
                                aggregate=agg)
        accuracies[f"aggregate_{agg}"] = rep.ssa["accuracy"]
    weaker = {k: v for k, v in accuracies.items()
              if k != "full" and v > full_acc}
    if weaker:
        print(f"WARNING: ablations beat full mode on this corpus: {weaker} "
              f"(full {full_acc:.3f})", file=sys.stderr)
    announce("8 ablation consistency", True,
             "exactness holds; accuracies " +
             json.dumps({k: round(v, 3) for k, v in accuracies.items()}))


# -- criterion 9 -------------------------------------------------------------

def test_c09_loss_identities():
    probs = nm.constant(np.full((1, 6, 2), 0.5))
    labels = [tr.HandoffLabel.NORMAL, tr.HandoffLabel.TRANSFERABLE] * 3
    assert abs(tr.handoff_loss(probs, [labels]).item() - math.log(2.0)) < 1e-9
    uniform = nm.constant(np.full((1, 3), 1 / 3))
    assert abs(tr.satisfaction_loss(uniform, [SatisfactionLabel.MET]).item()
               - math.log(3.0)) < 1e-9
    # exact decomposition: bit-equal to the identically ordered expression
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=1, min_len=4,
                                                   max_len=6), seed=5)
    d = dialogues[0]
    vocab = build_vocab(dialogues)
    cfg = tr.TrainConfig(embed_dim=4, hidden_size=4, dense_size=4,
                         attention_units=4, max_dialogue_len=6, heads=2)
    model = Model.build(cfg.model_config(len(vocab)), np.random.default_rng(2))
    out = model.forward_batch([vocab.encode_dialogue(d)], [d.roles])
    eta, delta = 0.37, 7.0
    l1 = tr.handoff_loss(out.handoff_probs, [[u.handoff for u in d.utterances]])
    l2 = tr.satisfaction_loss(out.satisfaction_probs, [d.satisfaction])
    term = tr.dialogue_loss(out, [d], eta).item()
    assert term == l1.item() + eta * l2.item()
    assert tr.objective(model, vocab, [d], eta, delta=0.0).item() == term
    assert tr.objective(model, vocab, [d], eta, delta).item() == \
        term + tr.regularization(model.blocks, delta).item()
    # the L2 term of all-zero parameters is exactly zero
    assert tr.regularization({"w": nm.parameter(np.zeros(3))}, delta).item() == 0.0
    announce("9 loss identities", True)


# -- criterion 10 ------------------------------------------------------------

def test_c10_determinism_and_persistence(tmp_path):
    dialogues, _ = synthesize_corpus(
        GeneratorSpec(num_dialogues=30, min_len=4, max_len=8), seed=31)
    train_set, dev_set, _ = split_corpus(dialogues, seed=0)
    cfg = tr.TrainConfig(embed_dim=8, hidden_size=8, dense_size=8,
                         attention_units=8, max_dialogue_len=10, heads=2,
                         batch_size=8, max_epochs=3, patience=5, seed=12)
    a = tr.train(train_set, dev_set, cfg)
    b = tr.train(train_set, dev_set, cfg)
    assert a.history == b.history

    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(a.model, a.vocab, path)
    loaded, vocab, _ = tr.load_checkpoint(path)
    for name, tensor in a.model.blocks.items():
        assert np.array_equal(tensor.data, loaded.blocks[name].data)
    path2 = tmp_path / "model2.ckpt"
    tr.save_checkpoint(loaded, vocab, path2)
    assert path.read_bytes() == path2.read_bytes()

    r1, _ = evaluate_model(a.model, a.vocab, dev_set)
    r2, _ = evaluate_model(a.model, a.vocab, dev_set)
    assert r1.to_json() == r2.to_json()
    announce("10 determinism & persistence", True)
