#!/usr/bin/env python3
"""Print one SHA-256 per section of what the model computes, so that two
versions of the code can be compared for byte identity.

Sections:
    forward <interaction> attention
        every forward tensor of each prefix of three synthetic dialogues of
        15-50 utterances (prefix lengths cross the 16/32/48 row-block
        edges), and of each dialogue of one forward_batch of all three:
        the ForwardResult fields of result[b], and the views and fused rows
        as dialogue b's rows [b, :L] of the padded result; the forward
        pools by attention (the eval lines cover the other pools)
    gradients
        every block's gradient of one 7-dialogue objective, dropout on
    train clip=<c>
        a 2-epoch train() history and the trained parameters
    eval <aggregate>
        the evaluate_model report and per-dialogue rows of a briefly trained
        model on a small synthetic corpus, at each --aggregate value (None:
        the model's own attention pool); the model is trained first, so
        these lines also move when training does (its sub-batches or its
        gradient sums)
    eval untrained <aggregate>
        the same for a seeded Model.build model with the trained one's
        vocabulary: these lines move only when evaluation does
    predict
        the stdout of `handsat predict` on a stream whose first two lines
        are agent utterances (customer-free prefixes)
    gradcheck
        the stdout of `handsat gradcheck --samples 4 --seed 0`: the
        dropout-free objective's sampled gradients against finite differences
    checkpoint
        the bytes of a seeded model's checkpoint saved, loaded and saved
        again: these lines move when the container's format does

Run it on both versions, at each BLAS thread count, and compare the lines:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/bit_digest.py
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python scripts/bit_digest.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from handsat import cli
from handsat.corpus import Role, build_vocab
from handsat.interaction import INTERACTION_MODES
from handsat.metrics import SECTIONS, evaluate_model
from handsat.model import Model
from handsat.synth import GeneratorSpec, synthesize_corpus
from handsat.training import (TrainConfig, load_checkpoint, objective_terms,
                              save_checkpoint, train)

# the forward tensors, by name; every other result field is derived or gone.
# The views and fused rows are read from the padded forward_batch result.
PADDED = ("handoff_fused", "satisfaction_fused", "handoff_view",
          "satisfaction_view")
FIELDS = ("handoff_probs", "satisfaction_probs", "local_satisfaction",
          "importance", "handoff_fused", "satisfaction_fused", "handoff_view",
          "satisfaction_view", "attn_sat_to_handoff", "attn_handoff_to_sat",
          "position_weights")
SMALL = dict(embed_dim=8, hidden_size=8, dense_size=8, attention_units=8,
             heads=2)


def _add(digest, *arrays) -> None:
    for a in arrays:
        a = np.asarray(getattr(a, "data", a))
        digest.update(repr(a.shape).encode())
        digest.update(np.ascontiguousarray(a).tobytes())


def _add_result(digest, batch, b: int) -> None:
    """Dialogue b's forward tensors of a forward_batch result."""
    out, length = batch[b], batch.lengths[b]
    _add(digest, *(getattr(batch, name).data[b, :length] if name in PADDED
                   else getattr(out, name) for name in FIELDS))


def _add_blocks(digest, model, attribute: str) -> None:
    for name, t in model.blocks.items():
        digest.update(name.encode())
        _add(digest, getattr(t, attribute))


def _cli_digest(argv):
    """The digest of a handsat command's exit code and stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode())


def forward_sections():
    dialogues, _ = synthesize_corpus(
        GeneratorSpec(num_dialogues=3, min_len=15, max_len=50), seed=7)
    vocab = build_vocab(dialogues)
    encoded = [vocab.encode_dialogue(d) for d in dialogues]
    for mode in INTERACTION_MODES:
        config = TrainConfig(**SMALL, interaction_mode=mode, dropout=0.0)
        model = Model.build(config.model_config(len(vocab)),
                            np.random.default_rng(3))
        digest = hashlib.sha256()
        with model.untaped():
            for ids, d in zip(encoded, dialogues):
                for t in range(1, len(ids) + 1):
                    prefix = model.forward_batch([ids[:t]], [d.roles[:t]])
                    _add_result(digest, prefix, 0)
            batch = model.forward_batch(encoded, [d.roles for d in dialogues])
            for b in range(len(encoded)):
                _add_result(digest, batch, b)
        yield f"forward {mode} attention", digest


def gradient_section():
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=7), seed=5)
    vocab = build_vocab(dialogues)
    config = TrainConfig(**SMALL, dropout=0.2)
    model = Model.build(config.model_config(len(vocab)), np.random.default_rng(4))
    pairs = [(vocab.encode_dialogue(d), d) for d in dialogues]
    digest = hashlib.sha256()
    for term in objective_terms(model, pairs, config.eta, config.delta,
                                rng=np.random.default_rng(6)):
        _add(digest, term)
        term.backward()
    _add_blocks(digest, model, "grad")
    yield "gradients", digest


def train_sections():
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=40), seed=11)
    train_set, dev_set = dialogues[:32], dialogues[32:]
    for clip in (5.0, 0.5):
        config = TrainConfig(**SMALL, max_epochs=2, batch_size=8, grad_clip=clip)
        result = train(train_set, dev_set, config)
        digest = hashlib.sha256(json.dumps(result.history, sort_keys=True).encode())
        _add_blocks(digest, result.model, "data")
        yield f"train clip={clip}", digest


def eval_sections():
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=30), seed=17)
    config = TrainConfig(**SMALL, max_epochs=1, batch_size=8)
    result = train(dialogues[:20], dialogues[20:], config)
    untrained = Model.build(config.model_config(len(result.vocab)),
                            np.random.default_rng(9))
    for name, model in (("eval", result.model), ("eval untrained", untrained)):
        for aggregate in (None, "average", "voting", "last"):
            report, rows = evaluate_model(model, result.vocab, dialogues,
                                          SECTIONS, aggregate=aggregate)
            text = json.dumps([report.to_json(), rows], sort_keys=True)
            yield f"{name} {aggregate}", hashlib.sha256(text.encode())


def predict_section():
    dialogues, _ = synthesize_corpus(
        GeneratorSpec(num_dialogues=1, min_len=20, max_len=20), seed=13)
    vocab = build_vocab(dialogues)
    model = Model.build(TrainConfig(**SMALL).model_config(len(vocab)),
                        np.random.default_rng(8))
    agents = [{"role": Role.AGENT.value, "tokens": ["hello", "there"]}] * 2
    lines = agents + [{"role": u.role.value, "tokens": list(u.tokens)}
                      for u in dialogues[0].utterances]
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, stream = Path(tmp) / "model.ckpt", Path(tmp) / "stream.jsonl"
        save_checkpoint(model, vocab, ckpt)
        stream.write_text("".join(json.dumps(line) + "\n" for line in lines))
        yield "predict", _cli_digest(["predict", str(ckpt), "--input", str(stream)])


def gradcheck_section():
    yield "gradcheck", _cli_digest(["gradcheck", "--samples", "4", "--seed", "0"])


def checkpoint_section():
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=3), seed=19)
    vocab = build_vocab(dialogues)
    model = Model.build(TrainConfig(**SMALL).model_config(len(vocab)),
                        np.random.default_rng(10))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.ckpt", Path(tmp) / "second.ckpt"
        save_checkpoint(model, vocab, first, extra={"best_epoch": 0})
        loaded, loaded_vocab, extra = load_checkpoint(first)
        save_checkpoint(loaded, loaded_vocab, second, extra=extra)
        yield "checkpoint", hashlib.sha256(second.read_bytes())


def main() -> int:
    for sections in (forward_sections, gradient_section, train_sections,
                     eval_sections, predict_section, gradcheck_section,
                     checkpoint_section):
        for name, digest in sections():
            print(f"{digest.hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
