import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handsat import metrics
from handsat import model as model_module
from handsat import numerics as nm
from handsat import training as tr
from handsat.corpus import PAD_INDEX, Role, build_vocab
from handsat.encoder import shared_encode
from handsat.errors import ConfigError, ContractError
from handsat.decoders import AGGREGATE_MODES, aggregate_variant, decode_satisfaction
from handsat.interaction import INTERACTION_MODES, task_projections
from handsat.metrics import SECTIONS, evaluate_model
from handsat.model import Model, ModelConfig
from handsat.synth import GeneratorSpec, synthesize_corpus


# the padded rows a BatchResult carries and a ForwardResult does not
PADDED_ROWS = ("handoff_view", "satisfaction_view", "handoff_fused",
               "satisfaction_fused")


def tiny_config(vocab_size, **overrides):
    base = dict(embed_dim=6, hidden_size=4, dense_size=4, attention_units=4,
                max_dialogue_len=8, heads=2, dropout=0.0)
    base.update(overrides)
    return tr.TrainConfig(**base).model_config(vocab_size)


@pytest.fixture(scope="module")
def setup():
    dialogues, _ = synthesize_corpus(
        GeneratorSpec(num_dialogues=12, min_len=4, max_len=7), seed=3)
    vocab = build_vocab(dialogues)
    model = Model.build(tiny_config(len(vocab)), np.random.default_rng(0))
    return model, vocab, dialogues


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(10, hidden_size=5).validate()  # not divisible by heads
    with pytest.raises(ConfigError):
        tiny_config(10, interaction_mode="bogus").validate()
    with pytest.raises(ConfigError):
        ModelConfig.from_json({"vocab_size": 10, "bad_key": 1})
    stored = tiny_config(10).to_json()
    del stored["interaction_mode"]
    with pytest.raises(ConfigError,
                       match=r"missing model config keys: \['interaction_mode'\]"):
        ModelConfig.from_json(stored)


def test_every_block_registered_once(setup):
    model, _, _ = setup
    names = list(model.blocks)
    assert len(names) == len(set(names))
    ids = [id(t) for t in model.blocks.values()]
    assert len(ids) == len(set(ids))
    assert np.all(model.blocks["enc.embedding"].data[0] == 0.0)  # padding row
    # names are field paths in the parameter dataclasses
    assert model.blocks["enc.embedding"] is model.encoder.embedding
    assert model.blocks["dec_s.transformer.wq"] is model.satisfaction_decoder.transformer.wq
    assert model.blocks["dec_h.cell.u"] is model.handoff_decoder.cell.u


def test_skeleton_has_the_built_blocks_without_their_memory():
    config = tiny_config(11)
    built = Model.build(config, np.random.default_rng(0))
    skeleton = Model.skeleton(config)
    assert ({n: t.shape for n, t in skeleton.blocks.items()}
            == {n: t.shape for n, t in built.blocks.items()})
    assert all(t.data.strides == (0,) * t.data.ndim for t in skeleton.blocks.values())
    assert skeleton.params.strides == skeleton.grads.strides == (0,)


def assert_buffers_back_every_block(model):
    """Each block's data and grad are views of model.params and model.grads
    at the block's offset in blocks order, and the blocks fill both."""
    offset = 0
    for name, t in model.blocks.items():
        for view, buffer in ((t.data, model.params), (t.grad, model.grads)):
            assert view.shape == t.shape, name
            assert (view.__array_interface__["data"][0]
                    == buffer.__array_interface__["data"][0] + 8 * offset), name
        offset += t.data.size
    assert model.params.shape == model.grads.shape == (offset,)


def test_loaded_model_trains_in_its_buffers(setup, tmp_path):
    """A loaded model's blocks are views of its params and grads: a backward
    fills grads, and an Adam step moves exactly the blocks whose gradient
    is not zero."""
    model, vocab, dialogues = setup
    tr.save_checkpoint(model, vocab, tmp_path / "model.ckpt")
    loaded, _, _ = tr.load_checkpoint(tmp_path / "model.ckpt")
    assert_buffers_back_every_block(loaded)
    before = loaded.params.copy()
    tr.objective(loaded, vocab, dialogues[:2], eta=0.5, delta=1e-4).backward()
    tr.Adam(loaded, lr=1e-3).step()
    assert_buffers_back_every_block(loaded)
    moved = [n for n, t in loaded.blocks.items()
             if not np.array_equal(t.data, model.blocks[n].data)]
    touched = [n for n, t in loaded.blocks.items() if np.any(t.grad != 0.0)]
    assert moved == touched and len(moved) > len(loaded.blocks) // 2
    assert not np.array_equal(loaded.params, before)


def test_forward_distributions(setup):
    model, vocab, dialogues = setup
    for d in dialogues[:6]:
        out = model.forward(vocab.encode_dialogue(d), d.roles)
        L = len(d)
        np.testing.assert_allclose(out.handoff_probs.data.sum(axis=1),
                                   np.ones(L), atol=1e-9)
        assert out.satisfaction_probs.data.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(out.local_satisfaction.data.sum(axis=1),
                                   np.ones(L), atol=1e-9)
        assert out.importance.data.sum() == pytest.approx(1.0, abs=1e-9)
        is_customer = np.array([r is Role.CUSTOMER for r in d.roles])
        assert np.all(out.importance.data[~is_customer] == 0.0)
        assert np.all(out.attn_sat_to_handoff.data[:, ~is_customer] == 0.0)


def test_prefix_causality_bit_exact(setup):
    model, vocab, dialogues = setup
    for d in dialogues[:6]:
        full = model.forward(vocab.encode_dialogue(d), d.roles).handoff_probs.data
        for t in range(1, len(d) + 1):
            ids = [vocab.encode(u.tokens) for u in d.utterances[:t]]
            prefix = model.forward(ids, d.roles[:t]).handoff_probs.data
            assert np.array_equal(full[:t], prefix), (d.id, t)


@pytest.mark.parametrize("width", [4, 16])
def test_prefix_causality_past_one_block(width):
    """Every prefix of a 70-utterance dialogue, on either side of the
    ROW_BLOCK edge, gives the bytes of the full dialogue's handoff rows."""
    length = 70
    assert length > nm.ROW_BLOCK
    rng = np.random.default_rng(5)
    widths = dict(embed_dim=width, hidden_size=width, dense_size=width,
                  attention_units=width)
    model = Model.build(tiny_config(12, max_dialogue_len=length, **widths), rng)
    ids = [[int(i) for i in rng.integers(2, 12, size=rng.integers(1, 6))]
           for _ in range(length)]
    roles = [Role.CUSTOMER if c else Role.AGENT for c in rng.random(length) < 0.5]
    full = model.forward(ids, roles).handoff_probs.data
    for t in range(1, length + 1):
        prefix = model.forward(ids[:t], roles[:t])
        assert prefix.handoff_probs.data.tobytes() == full[:t].tobytes(), t


@given(mode=st.sampled_from(INTERACTION_MODES),
       customers=st.lists(st.booleans(), min_size=49, max_size=56),
       agents_first=st.integers(0, 5), seed=st.integers(0, 2 ** 16))
@settings(max_examples=20, deadline=None)
def test_session_pushes_have_the_bits_of_each_prefix_forward(
        mode, customers, agents_first, seed):
    """Streaming a dialogue of 49-56 utterances (its prefixes cross the 16,
    32 and 48 row-block edges) through a session returns, at every push,
    the bytes of forward(prefix): the last handoff row, and the dialogue
    distribution once a customer has spoken (None before). Roles are random
    after agents_first agent utterances, so a stream can start, or stay,
    customer-free."""
    rng = np.random.default_rng(seed)
    model = Model.build(tiny_config(20, max_dialogue_len=56, interaction_mode=mode),
                        rng)
    roles = [Role.CUSTOMER if c and t >= agents_first else Role.AGENT
             for t, c in enumerate(customers)]
    ids = [[int(i) for i in rng.integers(2, 20, size=rng.integers(1, 5))]
           for _ in roles]
    session = model.session()
    for t in range(1, len(roles) + 1):
        handoff, estimate = session.push(ids[t - 1], roles[t - 1])
        with model.untaped():
            prefix = model.forward(ids[:t], roles[:t])
        assert handoff.tobytes() == prefix.handoff_probs.data[-1].tobytes(), t
        if Role.CUSTOMER in roles[:t]:
            assert estimate.tobytes() == prefix.satisfaction_probs.data.tobytes(), t
        else:
            assert estimate is None, t
    assert session.token_ids == ids and session.roles == roles


def test_untaped_forward_records_no_tape(setup):
    model, vocab, dialogues = setup
    d = dialogues[0]
    taped = model.forward(vocab.encode_dialogue(d), d.roles)
    with model.untaped():
        out = model.forward(vocab.encode_dialogue(d), d.roles)
    assert all(t.requires_grad for t in model.blocks.values())  # restored
    assert not out.handoff_probs.requires_grad
    assert out.handoff_probs._parents == () and out.handoff_probs._backward is None
    assert out.handoff_probs.data.tobytes() == taped.handoff_probs.data.tobytes()


def test_untaped_encoder_projects_each_distinct_token_once(monkeypatch):
    """An untaped forward of a 64-utterance dialogue (320 token positions,
    23 distinct ids) runs each encoder direction's input
    projection on the distinct ids plus the padding row, not on the
    padded (64, T) grid: at most that many rows, rounded up to whole
    16-row blocks, in each of the two projections."""
    dialogues, _ = synthesize_corpus(GeneratorSpec(
        num_dialogues=1, min_len=64, max_len=64, min_tokens=5, max_tokens=5,
        filler_vocab_size=20), seed=7)
    vocab = build_vocab(dialogues)
    config = tiny_config(len(vocab), max_dialogue_len=64)
    model = Model.build(config, np.random.default_rng(4))
    ids = vocab.encode_dialogue(dialogues[0])
    distinct = len({i for u in ids for i in u} | {PAD_INDEX})
    encoder_input = (config.embed_dim, 4 * config.hidden_size)
    projected, fixed_matmul = [], nm.fixed_matmul

    def recorded(a, b, *args, **kwargs):
        if b.shape == encoder_input:
            projected.append(a.shape[0])
        return fixed_matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(nm, "fixed_matmul", recorded)
    with model.untaped():
        model.forward(ids, dialogues[0].roles)
    blocks = -(-distinct // nm.ROW_BLOCK)
    assert len(projected) == 2
    assert all(-(-m // nm.ROW_BLOCK) <= blocks for m in projected), (
        projected, distinct)


def test_forward_deterministic_in_eval_mode(setup):
    model, vocab, dialogues = setup
    d = dialogues[0]
    a = model.forward(vocab.encode_dialogue(d), d.roles)
    b = model.forward(vocab.encode_dialogue(d), d.roles)
    np.testing.assert_array_equal(a.handoff_probs.data, b.handoff_probs.data)
    np.testing.assert_array_equal(a.satisfaction_probs.data,
                                  b.satisfaction_probs.data)


def test_trace_json_roundtrip(setup):
    model, vocab, dialogues = setup
    d = dialogues[0]
    out = model.forward(vocab.encode_dialogue(d), d.roles)
    trace = out.trace(d.roles, model.config.interaction_mode)
    back = json.loads(json.dumps(trace))
    assert back == trace
    np.testing.assert_array_equal(np.asarray(back["handoff_probs"]),
                                  out.handoff_probs.data)
    np.testing.assert_array_equal(np.asarray(back["position_weights"]),
                                  out.position_weights)
    assert back["roles"] == [r.value for r in d.roles]


def test_task_views_project_one_shared_tensor(setup):
    model, vocab, dialogues = setup
    d = dialogues[0]
    out = model.forward_batch([vocab.encode_dialogue(d)], [d.roles])
    shared = shared_encode(vocab.encode_dialogue(d), model.encoder,
                           model.config.max_dialogue_len)
    handoff, satisfaction = task_projections(shared, model.interaction)
    np.testing.assert_array_equal(handoff.data, out.handoff_view.data)
    np.testing.assert_array_equal(satisfaction.data, out.satisfaction_view.data)


def test_ablation_no_interact_exact_passthrough(setup):
    _, vocab, dialogues = setup
    cfg = tiny_config(len(vocab), interaction_mode="no_interact")
    model = Model.build(cfg, np.random.default_rng(1))
    d = dialogues[0]
    out = model.forward_batch([vocab.encode_dialogue(d)], [d.roles])
    assert out.handoff_fused is out.handoff_view
    assert out.satisfaction_fused is out.satisfaction_view


def test_full_model_grad_check(setup):
    model, vocab, dialogues = setup

    def loss():
        return tr.objective(model, vocab, dialogues[:2], eta=0.5, delta=1e-4)

    report = nm.grad_check(loss, model.blocks, samples_per_block=4,
                           rng=np.random.default_rng(5))
    assert report.passed, report.to_json()


def test_grad_check_leaves_the_model_its_buffers(setup):
    """grad_check zeroes the gradients it is given in place, so the model's
    grads still back every block after it and hold the loss's gradient."""
    _, vocab, dialogues = setup
    model = Model.build(tiny_config(len(vocab)), np.random.default_rng(8))
    model.grads.fill(1.0)

    def loss():
        return tr.objective(model, vocab, dialogues[:1], eta=0.5, delta=1e-4)

    nm.grad_check(loss, model.blocks, samples_per_block=1)
    assert_buffers_back_every_block(model)
    expected = Model.build(tiny_config(len(vocab)), np.random.default_rng(8))
    tr.objective(expected, vocab, dialogues[:1], eta=0.5, delta=1e-4).backward()
    assert model.grads.tobytes() == expected.grads.tobytes()


@pytest.mark.parametrize("mode, aggregate", zip(INTERACTION_MODES, AGGREGATE_MODES))
def test_forward_batch_bits_match_solo(mode, aggregate):
    """Every ForwardResult tensor of each dialogue of a batch of B = 1..16,
    with mixed lengths (across ROW_BLOCK) and roles, some without a
    customer, its rows of the padded views and fused rows, and its
    distribution re-pooled by aggregate_variant in the aggregate mode, have
    the bytes of the dialogue's forward alone (its batch of one)."""
    rng = np.random.default_rng(17)
    model = Model.build(tiny_config(30, max_dialogue_len=24, interaction_mode=mode),
                        rng)
    for batch in range(1, 17):
        dialogues = []
        for _ in range(batch):
            length = int(rng.integers(1, 25))
            ids = [[int(i) for i in rng.integers(2, 30, size=rng.integers(1, 7))]
                   for _ in range(length)]
            roles = [Role.CUSTOMER if c else Role.AGENT
                     for c in rng.random(length) < 0.4]
            dialogues.append((ids, roles))
        out = model.forward_batch(*zip(*dialogues))
        pooled = repool(out, aggregate)
        for b, (ids, roles) in enumerate(dialogues):
            alone = model.forward_batch([ids], [roles])
            expect = repool(alone, aggregate).data[0]
            assert pooled.data[b].tobytes() == expect.tobytes(), (batch, b)
            solo = alone[0]
            cut = out[b]
            for f in dataclasses.fields(solo):
                expect, got = (getattr(getattr(r, f.name), "data", getattr(r, f.name))
                               for r in (solo, cut))
                assert got.shape == expect.shape, (batch, b, f.name)
                assert got.tobytes() == expect.tobytes(), (batch, b, f.name)
            for name in PADDED_ROWS:
                expect = getattr(alone, name).data[0]
                got = getattr(out, name).data[b, :len(ids)]
                assert got.shape == expect.shape, (batch, b, name)
                assert got.tobytes() == expect.tobytes(), (batch, b, name)


def repool(batch, aggregate):
    """A BatchResult's (B, 3) distributions pooled in the aggregate mode."""
    return aggregate_variant(batch.local_satisfaction, batch.is_customer,
                             aggregate, importance=batch.importance)


@pytest.mark.parametrize("aggregate", AGGREGATE_MODES)
def test_customer_free_dialogue_gets_zero_satisfaction(aggregate):
    """In a forward_batch, a dialogue without a customer utterance gets an
    exactly zero dialogue distribution and importance row, from the
    model's pool and re-pooled in every aggregation mode, while the
    dialogues beside it get distributions."""
    rng = np.random.default_rng(29)
    model = Model.build(tiny_config(20), rng)
    ids = [[[int(i) for i in rng.integers(2, 20, size=3)] for _ in range(length)]
           for length in (5, 3, 7)]
    roles = [[Role.CUSTOMER, Role.AGENT] * 2 + [Role.CUSTOMER],
             [Role.AGENT] * 3,
             [Role.AGENT, Role.CUSTOMER] * 3 + [Role.AGENT]]
    out = model.forward_batch(ids, roles)
    pooled = repool(out, aggregate)
    free = out[1]
    assert not free.satisfaction_probs.data.any()
    assert not pooled.data[1].any()
    assert not free.importance.data.any()
    for b in (0, 2):
        assert out[b].satisfaction_probs.data.sum() == pytest.approx(1.0)
        assert pooled.data[b].sum() == pytest.approx(1.0)


def test_forward_batch_refuses_an_empty_dialogue(setup):
    model, vocab, dialogues = setup
    d = dialogues[0]
    with pytest.raises(ContractError, match="empty dialogue"):
        model.forward_batch([vocab.encode_dialogue(d), []], [d.roles, []])


@pytest.mark.parametrize("aggregate", AGGREGATE_MODES)
def test_aggregate_override_matches_model_in_that_mode(setup, monkeypatch,
                                                      aggregate):
    """Evaluating the model with a mode as its override scores like
    evaluating it, with no override, with its satisfaction decoder pooling
    in that mode (attention is the decoder's own pool; another mode
    replaces it), and that forward has the bytes of aggregate_variant on
    the attention forward's cut local rows and importance."""
    model, vocab, dialogues = setup
    refs = {d.id: model.forward(vocab.encode_dialogue(d), d.roles) for d in dialogues}
    overridden = evaluate_model(model, vocab, dialogues, SECTIONS,
                                aggregate=aggregate)

    def in_that_mode(fused, is_customer, params, heads):
        _, local, importance = decode_satisfaction(fused, is_customer, params, heads)
        return (aggregate_variant(local, is_customer, aggregate, importance),
                local, importance)

    if aggregate != "attention":
        monkeypatch.setattr(model_module, "decode_satisfaction", in_that_mode)
    own = evaluate_model(model, vocab, dialogues, SECTIONS)
    assert overridden[0].to_json() == own[0].to_json()
    assert overridden[1] == own[1]
    for d in dialogues:
        ref = refs[d.id]
        expect = aggregate_variant(ref.local_satisfaction,
                                   [r is Role.CUSTOMER for r in d.roles],
                                   aggregate, importance=ref.importance)
        got = model.forward(vocab.encode_dialogue(d), d.roles).satisfaction_probs
        assert got.data.tobytes() == expect.data.tobytes(), d.id


@pytest.fixture(scope="module")
def mixed_lengths():
    """20 dialogues of 1-12 utterances and a model whose predictions differ
    between them: trained for 3 epochs, so that it predicts every
    satisfaction class, then its handoff decoder redrawn (the output bias
    kept), so that it predicts both handoff labels."""
    dialogues, _ = synthesize_corpus(
        GeneratorSpec(num_dialogues=20, min_len=1, max_len=12, complaint_rate=0.4),
        seed=11)
    result = tr.train(dialogues, dialogues, tr.TrainConfig(
        embed_dim=6, hidden_size=4, dense_size=4, attention_units=4,
        max_dialogue_len=12, heads=2, max_epochs=3, batch_size=4))
    rng = np.random.default_rng(0)
    for name, tensor in result.model.blocks.items():
        if name.startswith("dec_h.") and name != "dec_h.out_b":
            tensor.data[...] = rng.standard_normal(tensor.data.shape)
    return result.model, result.vocab, dialogues


@pytest.mark.parametrize("aggregate", (None, *AGGREGATE_MODES))
def test_evaluation_reads_each_dialogue_rows_of_the_padded_batch(
        mixed_lengths, monkeypatch, aggregate):
    """Evaluating a corpus of 1-12 utterance dialogues SUB_BATCH at a time,
    from padded batches, gives the per-dialogue rows and the sections of
    evaluating each dialogue alone, with no padding."""
    model, vocab, dialogues = mixed_lengths
    assert {1, 12} <= {len(d) for d in dialogues}
    padded = evaluate_model(model, vocab, dialogues, SECTIONS, aggregate)
    assert len({row["pred_satisfaction"] for row in padded[1]}) == 3
    transfers = sum(len(row["pred_handoff_positions"]) for row in padded[1])
    assert 0 < transfers < sum(map(len, dialogues))
    monkeypatch.setattr(metrics, "sub_batches", lambda items: ([d] for d in items))
    alone = evaluate_model(model, vocab, dialogues, SECTIONS, aggregate)
    assert padded[0].to_json() == alone[0].to_json()
    assert padded[1] == alone[1]


def test_profile_charges_each_node_to_its_op(setup, monkeypatch):
    """A forward and backward under nm.profile(): the masked_softmax count
    is the model's calls (the all-allowed ones included), every op that
    made a node has forward time, the tape's ops have backward time, and
    the profiler is off again after the block."""
    model, vocab, dialogues = setup
    calls = []
    original = nm.masked_softmax

    def counted(scores, allowed):
        calls.append(scores.shape)
        return original(scores, allowed)

    monkeypatch.setattr(nm, "masked_softmax", counted)
    d = dialogues[0]
    with nm.profile() as ops:
        with pytest.raises(ContractError, match="already on"):
            with nm.profile():
                pass
        loss = tr.dialogue_loss(model.forward_batch([vocab.encode_dialogue(d)], [d.roles]),
                                [d], 0.5)
        loss.backward()
    assert ops["masked_softmax"].nodes == len(calls) >= 6
    assert ops["layer_norm"].nodes == 3 and ops["lstm_sequence"].nodes == 3
    assert all(s.nodes > 0 and s.forward_s > 0 for s in ops.values())
    for name in ("masked_softmax", "layer_norm", "lstm_sequence", "linear_rows"):
        assert ops[name].backward_s > 0, name
    nodes = sum(s.nodes for s in ops.values())
    nm.add(loss, loss)
    assert nm._profiler is None and sum(s.nodes for s in ops.values()) == nodes
