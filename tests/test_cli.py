import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handsat import cli
from handsat.corpus import (Vocabulary, build_vocab, dialogue_to_json, load_corpus,
                            save_corpus)
from handsat.model import Model, ModelConfig
from handsat.synth import GeneratorSpec, synthesize_corpus
from handsat.training import FORMAT_VERSION, TrainConfig, save_checkpoint

ROOT = Path(__file__).resolve().parent.parent


def _stderr_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@contextlib.contextmanager
def shown_warnings():
    """Within the block warnings go to stderr, as in a command-line run,
    instead of pytest's record of them."""
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _stderr_warning
        yield


def run_cli(capsys, *argv):
    with shown_warnings():
        code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = GeneratorSpec(num_dialogues=24, min_len=4, max_len=8)
    dialogues, _ = synthesize_corpus(spec, seed=1)
    train_path = root / "train.jsonl"
    dev_path = root / "dev.jsonl"
    save_corpus(dialogues[:18], train_path)
    save_corpus(dialogues[18:], dev_path)
    config = {
        "train": {"embed_dim": 8, "hidden_size": 8, "dense_size": 8,
                  "attention_units": 8, "max_dialogue_len": 12, "heads": 2,
                  "batch_size": 6, "max_epochs": 2, "patience": 5, "seed": 3},
        "paths": {"train_corpus": str(train_path), "dev_corpus": str(dev_path),
                  "checkpoint_dir": str(root / "run")},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    return root, config_path, train_path, dev_path


@pytest.fixture(scope="module")
def trained_run(workspace):
    """A run trained once per module from the workspace config, in a
    directory of its own, so each test that reads it can also run alone."""
    root, config_path, _, _ = workspace
    cfg = json.loads(config_path.read_text())
    cfg["paths"]["checkpoint_dir"] = str(root / "fixture_run")
    fixture_config = root / "fixture_config.json"
    fixture_config.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["train", str(fixture_config)]) == 0
    return root / "fixture_run"


def test_synth_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    code1, report1, _ = run_cli(capsys, "synth", str(out1), "--seed", "9")
    code2, report2, _ = run_cli(capsys, "synth", str(out2), "--seed", "9")
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(report1) == json.loads(report2)


def test_synth_with_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"num_dialogues": 7, "complaint_rate": 0.5}))
    out = tmp_path / "c.jsonl"
    code, report, _ = run_cli(capsys, "synth", str(out), "--spec", str(spec_path))
    assert code == 0
    assert json.loads(report)["num_dialogues"] == 7
    assert len(out.read_text().splitlines()) == 7


def test_synth_into_missing_directory_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "corpus.jsonl"
    code, out, err = run_cli(capsys, "synth", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and str(target) in err


def test_synth_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    code, stdout, err = run_cli(capsys, "synth", str(out), "--seed", "-1")
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("content, named", [
    (None, "not found"),
    ("directory", "cannot be read"),
    (b'{"num_dialogues": 7, "note": "caf\xe9"}', "not valid UTF-8"),
    (b'{"num_dialogues": 7,', "not valid JSON"),
], ids=["missing", "directory", "non_utf8", "malformed"])
def test_synth_bad_spec_file_is_config_error(tmp_path, capsys, content, named):
    spec_path = tmp_path / "spec.json"
    if content == "directory":
        spec_path.mkdir()
    elif content is not None:
        spec_path.write_bytes(content)
    out = tmp_path / "c.jsonl"
    code, _, err = run_cli(capsys, "synth", str(out), "--spec", str(spec_path))
    assert code == 2
    assert err.startswith("config error: generator spec") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


def test_stats_reports_counts(workspace, capsys):
    _, _, train_path, _ = workspace
    code, out, _ = run_cli(capsys, "stats", str(train_path))
    assert code == 0
    obj = json.loads(out)
    assert obj["stats"]["num_dialogues"] == 18
    assert set(obj["handoff_position_hist"]) == {"well_satisfied", "met",
                                                 "unsatisfied"}


def test_gradcheck_passes(capsys):
    code, out, err = run_cli(capsys, "gradcheck", "--samples", "4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_rel_error"] < 1e-4
    assert "PASS" in err


@pytest.mark.parametrize("argv, named", [
    (["--samples", "0"], "--samples"),
    (["--samples", "-1"], "--samples"),
    (["--tol", "nan"], "--tol"),
    (["--tol", "0"], "--tol"),
    (["--seed", "-1"], "--seed"),
    (["--max-len", "2"], "--max-len"),
    (["--size", "3"], "--size"),
    (["--size", "0"], "--size"),
    (["--dialogues", "0"], "--dialogues"),
], ids=["no_samples", "negative_samples", "nan_tol", "zero_tol", "negative_seed",
        "short_dialogues", "odd_size", "zero_size", "no_dialogues"])
def test_gradcheck_rejects_checks_that_check_nothing(capsys, argv, named):
    code, out, err = run_cli(capsys, "gradcheck", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and named in err


def test_train_writes_checkpoint_and_history(workspace, capsys):
    root, config_path, _, _ = workspace
    code, out, err = run_cli(capsys, "train", str(config_path))
    assert code == 0
    assert (root / "run" / "model.ckpt").exists()
    history = (root / "run" / "history.jsonl").read_text().splitlines()
    assert len(history) == 2
    assert out.splitlines() == history  # stdout carries the same JSONL
    assert "resolved config" in err


def test_train_logs_epoch_timing_on_stderr_only(workspace, tmp_path, capsys):
    """Each run logs one timing record per epoch on stderr; stdout, the
    history, is byte-identical across same-seed runs."""
    _, config_path, _, _ = workspace
    outs = []
    for name in ("a", "b"):
        cfg = json.loads(config_path.read_text())
        cfg["paths"]["checkpoint_dir"] = str(tmp_path / name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "train", str(path))
        assert code == 0
        records = [json.loads(line.split("epoch timing: ", 1)[1])
                   for line in err.splitlines() if "epoch timing: " in line]
        epochs = [json.loads(line)["epoch"] for line in out.splitlines()]
        assert [r["epoch"] for r in records] == epochs
        assert all(r["epoch_seconds"] > 0.0 for r in records)
        assert "timing" not in out and "seconds" not in out
        outs.append(out)
    assert outs[0] == outs[1]


def test_train_same_seed_identical_history(workspace, trained_run, tmp_path, capsys):
    _, config_path, _, _ = workspace
    cfg = json.loads(config_path.read_text())
    cfg["paths"]["checkpoint_dir"] = str(tmp_path / "run2")
    second = tmp_path / "config2.json"
    second.write_text(json.dumps(cfg))
    code, _, _ = run_cli(capsys, "train", str(second))
    assert code == 0
    assert ((trained_run / "history.jsonl").read_text()
            == (tmp_path / "run2" / "history.jsonl").read_text())


def test_train_missing_corpus_no_checkpoint(workspace, tmp_path, capsys):
    _, config_path, _, _ = workspace
    cfg = json.loads(config_path.read_text())
    cfg["paths"]["train_corpus"] = str(tmp_path / "nope.jsonl")
    cfg["paths"]["checkpoint_dir"] = str(tmp_path / "run3")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "train", str(bad))
    assert code == 3
    assert not (tmp_path / "run3" / "model.ckpt").exists()


@pytest.mark.parametrize("key", ["train_corpus", "dev_corpus", "embeddings"])
@pytest.mark.parametrize("name", ["a\x00b", "\ud800"], ids=["nul", "lone_surrogate"])
def test_train_unopenable_path_is_data_error(workspace, tmp_path, capsys, key, name):
    """A path the OS cannot be asked about is one 'cannot open' line."""
    _, config_path, _, _ = workspace
    cfg = json.loads(config_path.read_text())
    cfg["paths"][key] = name
    cfg["paths"]["checkpoint_dir"] = str(tmp_path / "run")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "train", str(bad))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("data error: cannot open")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, code, message", [
    (["predict", "{bad}"], 3, "data error: cannot read checkpoint"),
    (["predict", "{ckpt}", "--input", "{bad}"], 3, "data error: cannot open"),
    (["eval", "{bad}", "{corpus}"], 3, "data error: cannot read checkpoint"),
    (["eval", "{ckpt}", "{corpus}", "--per-dialogue", "{bad}"], 2,
     "config error: cannot open"),
    (["train", "{bad}"], 2, "config error: config file"),
    (["synth", "{bad}"], 2, "config error: cannot write"),
    (["synth", "{out}", "--spec", "{bad}"], 2, "config error: generator spec file"),
], ids=["predict", "predict_input", "eval", "eval_per_dialogue", "train", "synth",
        "synth_spec"])
@pytest.mark.parametrize("bad", ["a\x00b", "\ud800"], ids=["nul", "lone_surrogate"])
def test_unopenable_path_argument_is_one_line(workspace, trained_run, tmp_path,
                                              capsys, monkeypatch, argv, code,
                                              message, bad):
    """A path argument the OS cannot be asked about exits with one error
    line and nothing on stdout, with the command's usual exit code, and
    before eval evaluates anything."""
    def evaluation_started(*args, **kwargs):
        raise AssertionError("evaluate_model ran before the path was opened")

    monkeypatch.setattr(cli, "evaluate_model", evaluation_started)
    _, _, _, dev_path = workspace
    names = {"bad": bad, "ckpt": str(trained_run / "model.ckpt"),
             "corpus": str(dev_path), "out": str(tmp_path / "out.jsonl")}
    got, out, err = run_cli(capsys, *(a.format(**names) for a in argv))
    assert got == code and out == ""
    assert err.count("\n") == 1 and err.startswith(message), err


def test_train_checkpoint_dir_that_cannot_be_made_is_config_error(
        workspace, tmp_path, capsys):
    _, config_path, _, _ = workspace
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    cfg = json.loads(config_path.read_text())
    cfg["paths"]["checkpoint_dir"] = str(blocker / "run")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "train", str(bad))
    assert code == 2
    assert out == ""  # rejected before training
    assert err.splitlines()[-1].startswith("config error: cannot create checkpoint_dir")


@pytest.mark.parametrize("name", ["model.ckpt.tmp", "model.ckpt", "history.jsonl"])
def test_train_output_that_cannot_be_written_is_config_error(
        workspace, tmp_path, capsys, name):
    """A directory where train writes the checkpoint, its .tmp file or the
    history ends the run with one 'cannot write' line naming that path."""
    _, config_path, _, _ = workspace
    (tmp_path / "run" / name).mkdir(parents=True)
    cfg = json.loads(config_path.read_text())
    cfg["paths"]["checkpoint_dir"] = str(tmp_path / "run")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "train", str(path))
    assert code == 2
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [err.splitlines()[-1]]
    assert errors[0].startswith("config error: cannot write ")
    assert errors[0].endswith(f"{name}: Is a directory")
    # a failed rename removes the .tmp file it was to move
    assert (tmp_path / "run" / "model.ckpt.tmp").exists() == (name == "model.ckpt.tmp")


def test_diverging_train_exits_numeric_with_its_outputs(tmp_path, capsys):
    """A learning rate of 1e300 drives a score non-finite inside the second
    batch's forward, before any loss is summed. That is divergence: exit 4
    with one 'training diverged' line after the progress lines and no
    numpy warning, and the checkpoint and history are written, as for a
    non-finite loss. No epoch finished, so the checkpoint holds the initial
    parameters, and predict runs on it."""
    dialogues, _ = synthesize_corpus(GeneratorSpec(num_dialogues=200), seed=3)
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(dialogues, corpus)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": {"learning_rate": 1e300, "max_epochs": 2, "embed_dim": 8,
                  "hidden_size": 8, "dense_size": 8, "attention_units": 8},
        "paths": {"train_corpus": str(corpus), "dev_corpus": str(corpus),
                  "checkpoint_dir": str(tmp_path / "run")}}))
    code, _, err = run_cli(capsys, "train", str(config))
    assert code == 4
    diverged = [line for line in err.splitlines() if "diverged" in line]
    assert diverged == ["training diverged: non-finite score at an allowed "
                        "position in epoch 0; restored the initial parameters"]
    assert_clean_exit(code, err)
    assert (tmp_path / "run" / "model.ckpt").exists()
    assert (tmp_path / "run" / "history.jsonl").read_text() == ""

    stream = tmp_path / "stream.jsonl"
    stream.write_text("".join(json.dumps(u) + "\n" for u in
                              dialogue_to_json(dialogues[0])["utterances"][:3]))
    code, out, err = run_cli(capsys, "predict", str(tmp_path / "run" / "model.ckpt"),
                             "--input", str(stream))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4


def test_non_finite_forward_is_numeric_error(workspace, tmp_path, capsys):
    """A checkpoint whose finite parameters (a built model's times 1e300)
    drive a score non-finite passes the load check; predict and eval on it
    exit 4 with one error line and no numpy warning."""
    _, _, train_path, dev_path = workspace
    vocab = build_vocab(load_corpus(train_path, 12))
    config = TrainConfig(embed_dim=8, hidden_size=8, dense_size=8, attention_units=8,
                         max_dialogue_len=12).model_config(len(vocab))
    model = Model.build(config, np.random.default_rng(0))
    model.params *= 1e300
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(model, vocab, ckpt)
    stream = tmp_path / "stream.jsonl"
    stream.write_text("".join(json.dumps(u) + "\n" for u in dialogue_to_json(
        load_corpus(dev_path, 12)[0])["utterances"]))
    for argv in (("predict", str(ckpt), "--input", str(stream)),
                 ("eval", str(ckpt), str(dev_path))):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (4, "error: non-finite score at an allowed position\n")


def test_model_fits_counts_every_array_training_holds(monkeypatch):
    """The memory check counts seven parameter-sized float64 arrays: the
    weights, their gradients, Adam's two moments and two scratch arrays,
    and the best epoch's snapshot."""
    config = TrainConfig().model_config(50)
    need = 8 * sum(t.data.size for t in Model.skeleton(config).blocks.values())
    memory = {"SC_PAGE_SIZE": need, "SC_PHYS_PAGES": 6}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    with pytest.raises(cli.ConfigError, match=f"needs {7 * need} bytes"):
        cli._check_model_fits(config)
    memory["SC_PHYS_PAGES"] = 7
    cli._check_model_fits(config)


def test_train_unknown_config_key(workspace, tmp_path, capsys):
    _, config_path, _, _ = workspace
    cfg = json.loads(config_path.read_text())
    cfg["train"]["mystery"] = 1
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "train", str(bad))
    assert code == 2
    assert "mystery" in err

    cfg = json.loads(config_path.read_text())
    cfg["paths"]["test_corpus"] = str(tmp_path / "test.jsonl")
    bad.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "train", str(bad))
    assert code == 2 and out == ""
    assert err == "config error: unknown path keys: ['test_corpus']\n"


@pytest.mark.parametrize("train, named", [
    (None, "JSON object"),
    ([], "train config"),
    ({"hidden_size": "x"}, "hidden_size"),
    ({"hidden_size": True, "heads": 1}, "hidden_size"),
    ({"learning_rate": float("inf")}, "learning_rate"),
    ({"seed": -1}, "seed"),
])
def test_train_rejects_malformed_config(tmp_path, capsys, train, named):
    paths = {"train_corpus": str(tmp_path / "absent.jsonl"),
             "dev_corpus": str(tmp_path / "absent.jsonl")}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([] if train is None else {"train": train,
                                                          "paths": paths}))
    code, _, err = run_cli(capsys, "train", str(bad))
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert named in err


def test_eval_sections_and_aggregate(workspace, trained_run, capsys):
    _, _, _, dev_path = workspace
    ckpt = trained_run / "model.ckpt"

    code, out, _ = run_cli(capsys, "eval", str(ckpt), str(dev_path),
                           "--sections", "mhch")
    assert code == 0
    only_mhch = json.loads(out)
    assert set(only_mhch) == {"mhch"}

    code, out_att, _ = run_cli(capsys, "eval", str(ckpt), str(dev_path))
    code2, out_last, _ = run_cli(capsys, "eval", str(ckpt), str(dev_path),
                                 "--aggregate", "last")
    assert code == 0 and code2 == 0
    att, last = json.loads(out_att), json.loads(out_last)
    assert att["mhch"] == last["mhch"]  # aggregation touches only ssa


@pytest.mark.parametrize("sections", ["", " , "])
def test_eval_no_sections_is_config_error(workspace, trained_run, capsys, sections):
    _, _, _, dev_path = workspace
    code, out, err = run_cli(capsys, "eval", str(trained_run / "model.ckpt"),
                             str(dev_path), "--sections", sections)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--sections" in err


def test_eval_per_dialogue_in_missing_directory_is_config_error(
        workspace, trained_run, tmp_path, capsys):
    _, _, _, dev_path = workspace
    target = tmp_path / "missing" / "rows.jsonl"
    code, out, err = run_cli(capsys, "eval", str(trained_run / "model.ckpt"),
                             str(dev_path), "--per-dialogue", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and str(target) in err


def test_eval_sentiment_without_labels_errors(workspace, trained_run, tmp_path, capsys):
    _, _, _, dev_path = workspace
    ckpt = trained_run / "model.ckpt"
    from handsat.corpus import load_corpus
    stripped = [d.strip_sentiment() for d in load_corpus(dev_path, 64)]
    bare = tmp_path / "bare.jsonl"
    save_corpus(stripped, bare)
    code, _, err = run_cli(capsys, "eval", str(ckpt), str(bare),
                           "--sections", "sentiment")
    assert code == 3
    assert "sentiment" in err


def test_predict_streaming_matches_prefixes(workspace, trained_run, tmp_path, capsys):
    _, _, train_path, _ = workspace
    ckpt = trained_run / "model.ckpt"
    from handsat.corpus import load_corpus
    dialogue = load_corpus(train_path, 64)[0]
    lines = [json.dumps(u) for u in dialogue_to_json(dialogue)["utterances"]]
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(lines) + "\n")

    code, out, _ = run_cli(capsys, "predict", str(ckpt), "--input", str(stream))
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert len(rows) == len(dialogue) + 1  # per-utterance rows + final
    final = rows[-1]
    assert "trace" in final

    # streaming a strict prefix reproduces the first rows exactly
    prefix_stream = tmp_path / "prefix.jsonl"
    prefix_stream.write_text("\n".join(lines[:3]) + "\n")
    code, out2, _ = run_cli(capsys, "predict", str(ckpt), "--input",
                            str(prefix_stream))
    assert code == 0
    rows2 = [json.loads(l) for l in out2.splitlines()]
    assert rows2[:3] == rows[:3]

    # streamed per-utterance handoff rows equal one batch forward pass
    from handsat.training import load_checkpoint
    model, vocab, _ = load_checkpoint(ckpt)
    batch = model.forward(vocab.encode_dialogue(dialogue), dialogue.roles)
    for t, row in enumerate(rows[:-1]):
        assert row["handoff_probs"] == batch.handoff_probs.data[t].tolist()


@pytest.mark.parametrize("name", ["missing.jsonl", "."], ids=["missing", "directory"])
def test_predict_unopenable_input_is_data_error(trained_run, tmp_path, capsys, name):
    code, out, err = run_cli(capsys, "predict", str(trained_run / "model.ckpt"),
                             "--input", str(tmp_path / name))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("data error: cannot open")


def test_predict_empty_stream(trained_run, tmp_path, capsys):
    ckpt = trained_run / "model.ckpt"
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "predict", str(ckpt), "--input", str(empty))
    assert code == 0
    assert out == ""


def test_predict_agent_only_errors(trained_run, tmp_path, capsys):
    ckpt = trained_run / "model.ckpt"
    stream = tmp_path / "agents.jsonl"
    stream.write_text(json.dumps({"role": "agent", "tokens": ["hello"]}) + "\n")
    code, out, err = run_cli(capsys, "predict", str(ckpt), "--input", str(stream))
    assert code == 3
    assert "customer" in err
    rows = [json.loads(l) for l in out.splitlines()]
    assert rows[0]["satisfaction_estimate"] is None


def test_predict_malformed_line(trained_run, tmp_path, capsys):
    ckpt = trained_run / "model.ckpt"
    stream = tmp_path / "badline.jsonl"
    stream.write_text("{broken\n")
    code, _, err = run_cli(capsys, "predict", str(ckpt), "--input", str(stream))
    assert code == 3
    assert "line 1" in err


def test_predict_non_utf8_stream(tmp_path, capsys):
    vocab = Vocabulary({"<pad>": 0, "<unk>": 1})
    model = Model.build(TrainConfig(embed_dim=4, hidden_size=4, dense_size=4,
                                    attention_units=4, heads=2).model_config(2),
                        np.random.default_rng(0))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(model, vocab, ckpt)
    stream = tmp_path / "latin1.jsonl"
    stream.write_bytes(b'{"role": "customer", "tokens": ["caf\xe9"]}\n')
    code, _, err = run_cli(capsys, "predict", str(ckpt), "--input", str(stream))
    assert code == 3
    assert "UTF-8" in err


def test_stats_non_utf8_corpus(tmp_path, capsys):
    corpus = tmp_path / "latin1.jsonl"
    corpus.write_bytes(b'{"id": "caf\xe9"}\n')
    code, _, err = run_cli(capsys, "stats", str(corpus))
    assert code == 3
    assert "line 1 is not valid UTF-8" in err


def test_stats_directory_corpus_is_data_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "stats", str(tmp_path))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("data error: cannot open")


@pytest.mark.parametrize("bins", [10**11, 10**30], ids=["memory", "dimension"])
def test_stats_unallocatable_bins_is_config_error(workspace, capsys, bins):
    """A bin count whose histogram numpy cannot allocate (MemoryError: 800
    GB per rating) or describe (ValueError) exits 2 with one line."""
    _, _, train_path, _ = workspace
    code, out, err = run_cli(capsys, "stats", str(train_path), "--bins", str(bins))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("config error: cannot allocate")


@pytest.mark.parametrize("max_len", [0, -3])
def test_stats_nonpositive_max_len_is_config_error(workspace, capsys, max_len):
    """A --max-len below 1 is a bad flag, not bad data: exit 2, one line."""
    _, _, train_path, _ = workspace
    code, out, err = run_cli(capsys, "stats", str(train_path),
                             "--max-len", str(max_len))
    assert code == 2 and out == ""
    assert err == "config error: --max-len must be >= 1\n"


# (field, what the message calls it, its values in order)
LABELS = {"role": ("role", "customer, agent"),
          "handoff": ("handoff label", "normal, transferable"),
          "sentiment": ("sentiment label", "positive, neutral, negative"),
          "satisfaction": ("satisfaction label", "well_satisfied, met, unsatisfied")}
WRONG_CASE = {"role": "Customer", "handoff": "Normal", "sentiment": "Positive",
              "satisfaction": "Met"}
# (JSON value, how the message shows it); None stands for the wrong case
NOT_A_LABEL = [(["customer"], "['customer']"), ({"a": 1}, "{'a': 1}"), (1, "1"),
               (True, "True"), (1.5, "1.5"), (None, None)]


def bad_label(field, value):
    """`value` for `field` (a wrong-case string for None), and the message."""
    raw, shown = value
    if raw is None:
        raw, shown = WRONG_CASE[field], repr(WRONG_CASE[field])
    what, valid = LABELS[field]
    return raw, f"unknown {what} {shown} (line 3); expected one of: {valid}"


def customer_first(dialogue: dict) -> dict:
    """The dialogue's utterances from its first customer utterance on."""
    utterances = dialogue["utterances"]
    first = next(i for i, u in enumerate(utterances) if u["role"] == "customer")
    return {**dialogue, "utterances": utterances[first:]}


@pytest.mark.parametrize("value", NOT_A_LABEL,
                         ids=["list", "object", "int", "bool", "float", "wrong_case"])
@pytest.mark.parametrize("field", list(LABELS))
def test_label_that_is_not_a_value_is_one_line(workspace, tmp_path, capsys, field,
                                               value):
    """A label must equal one of its values exactly, in type and in case.
    Anything else on line 3, hashable or not, exits 3 with one line naming
    the value, the line and the values expected."""
    _, _, train_path, _ = workspace
    lines = [customer_first(json.loads(line))
             for line in train_path.read_text().splitlines()[:4]]
    raw, message = bad_label(field, value)
    if field == "satisfaction":
        lines[2]["satisfaction"] = raw
    else:
        lines[2]["utterances"][0][field] = raw
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, out, err = run_cli(capsys, "stats", str(corpus))
    assert (code, out, err) == (3, "", f"data error: {message}\n")


@pytest.mark.parametrize("value", NOT_A_LABEL,
                         ids=["list", "object", "int", "bool", "float", "wrong_case"])
@pytest.mark.parametrize("field", ["role", "handoff", "sentiment"])
def test_predict_label_that_is_not_a_value_is_one_line(workspace, trained_run,
                                                       tmp_path, capsys, field,
                                                       value):
    _, _, train_path, _ = workspace
    utterances = customer_first(json.loads(train_path.read_text().splitlines()[0]))[
        "utterances"]
    lines = [dict(u) for u in (utterances[0], utterances[1], utterances[0])]
    raw, message = bad_label(field, value)
    lines[2][field] = raw
    stream = tmp_path / "stream.jsonl"
    stream.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, out, err = run_cli(capsys, "predict", str(trained_run / "model.ckpt"),
                             "--input", str(stream))
    assert (code, err) == (3, f"data error: {message}\n")
    assert [json.loads(row)["position"] for row in out.splitlines()] == [1, 2]


@pytest.mark.parametrize("command", ["stats", "predict"])
def test_sentiment_on_agent_utterance_is_one_line(workspace, trained_run, tmp_path,
                                                  capsys, command):
    """A sentiment label is allowed on customer utterances only; on an agent
    utterance on line 3 it exits 3 with one line naming the line."""
    _, _, train_path, _ = workspace
    dialogues = [json.loads(line) for line in train_path.read_text().splitlines()[:4]]
    agent = next(u for d in dialogues for u in d["utterances"] if u["role"] == "agent")
    agent = {**agent, "sentiment": "negative"}
    if command == "stats":
        lines = [customer_first(d) for d in dialogues]
        lines[2]["utterances"].append(agent)
        argv = ["stats"]
    else:
        first = customer_first(dialogues[0])["utterances"][0]
        lines = [first, first, agent]
        argv = ["predict", str(trained_run / "model.ckpt"), "--input"]
    path = tmp_path / "input.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, err) == (
        3, "data error: sentiment label on a non-customer utterance (line 3)\n")
    if command == "stats":
        assert out == ""
    else:
        assert [json.loads(row)["position"] for row in out.splitlines()] == [1, 2]


GOOD_DIALOGUE = json.dumps({"id": "d", "satisfaction": "met", "utterances": [
    {"role": "customer", "tokens": ["hi"], "handoff": "normal"}]}).encode()


@pytest.mark.parametrize("lines, error", [
    ([b"{not json", b'{"id": "caf\xe9"}'],
     "data error: corpus line 1 is not valid JSON: "),
    ([b'{"id": "caf\xe9"}', b"{not json"], "line 1 is not valid UTF-8"),
    ([GOOD_DIALOGUE, GOOD_DIALOGUE.replace(b'"met"', b'"MET"'), b"{not json",
      b"\xff"], "data error: unknown satisfaction label 'MET' (line 2)"),
    ([GOOD_DIALOGUE, b"{not json", GOOD_DIALOGUE.replace(b'"met"', b'"MET"')],
     "data error: corpus line 2 is not valid JSON: "),
    ([GOOD_DIALOGUE, GOOD_DIALOGUE, b"\xff"],
     "data error: duplicate dialogue id 'd' (line 2)"),
], ids=["json_then_utf8", "utf8_then_json", "label_then_json", "json_then_label",
        "duplicate_then_utf8"])
def test_corpus_error_is_the_first_failing_line(tmp_path, capsys, lines, error):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"\n".join(lines) + b"\n")
    code, out, err = run_cli(capsys, "stats", str(corpus))
    assert code == 3 and out == "" and err.count("\n") == 1
    assert error in err and err.startswith("data error: "), err


@pytest.mark.parametrize("command", ["train", "eval", "stats"])
def test_loaded_corpus_is_logged_on_stderr_only(workspace, trained_run, tmp_path,
                                                 capsys, command):
    """train, eval and stats log one line per corpus they load, with its
    path, counts and seconds, on stderr; stdout carries none of it."""
    _, config_path, train_path, dev_path = workspace
    cfg = json.loads(config_path.read_text())
    cfg["paths"]["checkpoint_dir"] = str(tmp_path / "run")
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    argv, loaded = {
        "train": (["train", str(tmp_path / "config.json")], [train_path, dev_path]),
        "eval": (["eval", str(trained_run / "model.ckpt"), str(dev_path)], [dev_path]),
        "stats": (["stats", str(train_path)], [train_path]),
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    records = [json.loads(line.split("corpus loaded: ", 1)[1])
               for line in err.splitlines() if line.startswith("corpus loaded: ")]
    assert [r["path"] for r in records] == [str(p) for p in loaded]
    for record, path in zip(records, loaded):
        corpus = load_corpus(path, 64)
        assert record["dialogues"] == len(corpus)
        assert record["utterances"] == sum(len(d) for d in corpus)
        assert record["seconds"] >= 0.0
    assert "corpus loaded" not in out and "seconds" not in out


def stored_config(**changes):
    """A complete stored model config for a two-token vocabulary."""
    return {**TrainConfig().model_config(2).to_json(), **changes}


def seal(body: bytes) -> bytes:
    """Checkpoint bytes: body followed by its CRC32."""
    return body + struct.pack("<I", zlib.crc32(body))


def checkpoint_bytes(meta=None, meta_len=None, blocks=(("w", (2,)),)):
    """A sealed HSAT container with a 16-byte body and the given fields; a
    metadata object without a block list gets `blocks`."""
    if meta is None:
        meta = {"model_config": stored_config(),
                "vocab": {"tokens": ["<pad>", "<unk>"]}, "extra": {}}
    if isinstance(meta, dict):
        meta = {"blocks": blocks, **meta}
    raw = meta.encode() if isinstance(meta, str) else json.dumps(meta).encode()
    out = b"HSAT" + struct.pack("<IQ", FORMAT_VERSION,
                                len(raw) if meta_len is None else meta_len)
    return seal(out + raw + bytes(16))


def first_shape(shape):
    """The default config's block list with the first block's shape replaced."""
    skeleton = Model.skeleton(ModelConfig.from_json(stored_config()))
    blocks = [[name, list(t.shape)] for name, t in skeleton.blocks.items()]
    return [[blocks[0][0], list(shape)], *blocks[1:]]


@pytest.mark.parametrize("data", [
    checkpoint_bytes(meta_len=2 ** 62),
    checkpoint_bytes(meta=[1, 2]),
    checkpoint_bytes(blocks=first_shape((2 ** 32, 2 ** 32))),
    checkpoint_bytes(blocks=first_shape((0,) * 65)),
    checkpoint_bytes(blocks=first_shape((2 ** 40, 2 ** 40, 0))),
    checkpoint_bytes(meta={"model_config": stored_config(hidden_size="x"),
                           "vocab": {"tokens": ["<pad>", "<unk>"]}}),
    checkpoint_bytes(meta={"model_config": stored_config(), "vocab": [1]}),
], ids=["meta_len", "meta_list", "dims_2_32", "dims_65_zeros",
        "dims_huge_with_zero", "config_type", "vocab_list"])
def test_corrupt_checkpoint_is_data_error(tmp_path, capsys, data):
    ckpt = tmp_path / "corrupt.ckpt"
    ckpt.write_bytes(data)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = run_cli(capsys, "predict", str(ckpt), "--input", str(empty))
    assert code == 3
    assert err.startswith("data error:") and err.count("\n") == 1


@pytest.mark.parametrize("damage, named", [
    (lambda data: data + b"garbage", "CRC32"),
    (lambda data: data[:-1] + bytes([data[-1] ^ 1]), "CRC32"),
    (lambda data: data[:-5] + bytes([data[-5] ^ 1]) + data[-4:], "CRC32"),
    (lambda data: seal(data[:-4] + b"garbage"), "trailing bytes"),
    (lambda data: data[:4] + struct.pack("<I", 2) + data[8:-4], "version 2"),
    (lambda data: data[:4] + struct.pack("<I", 3) + data[8:], "version 3"),
    (lambda data: rewrite_meta(data, lambda meta: meta.pop("blocks")), "'blocks'"),
    (lambda data: rewrite_meta(data, widen_second_block),
     "block 'enc.fwd.w': stored shape"),
    (lambda data: rewrite_meta(data, swap_lstm_input_weights), "out of order"),
    (lambda data: seal(data[:-5]), "truncated"),
    (lambda data: seal(data[:-4] + b"\0"), "trailing bytes"),
    (lambda data: seal(data[:-12] + struct.pack("<d", float("nan"))),
     "block 'dec_s.query' holds a non-finite value"),
], ids=["appended", "crc_flipped", "weight_flipped", "sealed_trailing", "format_2",
        "format_3", "blocks_missing", "shape_off_by_one", "blocks_swapped",
        "body_short", "body_long", "body_nan"])
def test_damaged_checkpoint_is_data_error(trained_run, tmp_path, capsys, damage,
                                          named):
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(damage((trained_run / "model.ckpt").read_bytes()))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, err = run_cli(capsys, "predict", str(ckpt), "--input", str(empty))
    assert code == 3 and out == ""
    assert err.startswith("data error:") and err.count("\n") == 1
    assert named in err


def widen_second_block(meta):
    """One more row in the stored shape of the second block."""
    meta["blocks"][1][1][0] += 1


def swap_lstm_input_weights(meta):
    """The two encoder directions' input weights, of one shape, listed in
    each other's place (the body is read in list order)."""
    names = [name for name, _ in meta["blocks"]]
    i, j = names.index("enc.fwd.w"), names.index("enc.bwd.w")
    meta["blocks"][i], meta["blocks"][j] = meta["blocks"][j], meta["blocks"][i]


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("site", ["corpus", "run_config", "generator_spec",
                                  "predict_stream", "checkpoint_metadata"])
def test_deeply_nested_json_is_one_line_error(trained_run, tmp_path, capsys, site):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON + "\n")
    ckpt = tmp_path / "deep.ckpt"
    ckpt.write_bytes(checkpoint_bytes(meta=DEEP_JSON))
    argv, expected = {
        "corpus": (["stats", str(deep)], 3),
        "run_config": (["train", str(deep)], 2),
        "generator_spec": (["synth", str(tmp_path / "out.jsonl"), "--spec",
                            str(deep)], 2),
        "predict_stream": (["predict", str(trained_run / "model.ckpt"),
                            "--input", str(deep)], 3),
        "checkpoint_metadata": (["predict", str(ckpt), "--input", str(deep)], 3),
    }[site]
    code, out, err = run_cli(capsys, *argv)
    assert code == expected and out == ""
    assert err.count("\n") == 1 and "nested too deeply" in err


@pytest.mark.parametrize("site", ["run_config", "corpus"])
def test_nested_rejected_value_is_echoed_short(workspace, tmp_path, site):
    """A rejected value nested 980 deep is echoed shortened, so the error
    stays one short line. The CLI runs in a fresh interpreter, where the
    JSON parser's recursion limit admits that depth."""
    _, config_path, _, dev_path = workspace
    if site == "run_config":
        obj = json.loads(config_path.read_text())
        obj["train"]["hidden_size"] = "@"
        argv, expected = ["train", str(tmp_path / "input.json")], 2
    else:
        obj = json.loads(dev_path.read_text().splitlines()[0])
        obj["utterances"][0]["role"] = "@"
        argv, expected = ["stats", str(tmp_path / "input.json")], 3
    (tmp_path / "input.json").write_text(
        json.dumps(obj).replace('"@"', "[" * 980 + '"x"' + "]" * 980) + "\n")
    proc = subprocess.run([sys.executable, "-m", "handsat.cli", *argv], env=dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(ROOT / "src"), os.environ.get("PYTHONPATH")]))),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == expected and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200, proc.stderr[:300]
    assert "nested too deeply" not in proc.stderr


@pytest.mark.parametrize("directory", [False, True], ids=["missing", "directory"])
def test_unreadable_checkpoint_is_data_error(tmp_path, capsys, directory):
    ckpt = tmp_path / "model.ckpt"
    if directory:
        ckpt.mkdir()
    code, _, err = run_cli(capsys, "predict", str(ckpt))
    assert code == 3
    assert err.startswith("data error: cannot read checkpoint")
    assert err.count("\n") == 1


def rewrite_meta(data: bytes, edit) -> bytes:
    """Checkpoint bytes with edit(meta) applied to the stored metadata,
    sealed with a new CRC."""
    (length,) = struct.unpack("<Q", data[8:16])
    meta = json.loads(data[16:16 + length])
    edit(meta)
    raw = json.dumps(meta).encode()
    return seal(data[:8] + struct.pack("<Q", len(raw)) + raw + data[16 + length:-4])


@pytest.mark.parametrize("edit", [
    lambda meta: meta["model_config"].pop("vocab_size"),
    lambda meta: meta["model_config"].pop("activation"),
    lambda meta: meta["vocab"]["tokens"].append("zz"),
    lambda meta: meta["vocab"]["tokens"].append("a"),
], ids=["no_vocab_size", "no_activation", "vocab_longer", "vocab_duplicate"])
def test_inconsistent_checkpoint_metadata_is_data_error(tmp_path, capsys, edit):
    """Stored configs must name every field, and the stored vocabulary must
    map vocab_size distinct tokens to the embedding's rows."""
    vocab = Vocabulary({"<pad>": 0, "<unk>": 1, "a": 2})
    model = Model.build(TrainConfig(embed_dim=4, hidden_size=4, dense_size=4,
                                    attention_units=4, heads=2).model_config(3),
                        np.random.default_rng(0))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(model, vocab, ckpt)
    ckpt.write_bytes(rewrite_meta(ckpt.read_bytes(), edit))
    stream = tmp_path / "stream.jsonl"
    stream.write_text('{"role": "customer", "tokens": ["a", "zz"]}\n')
    code, _, err = run_cli(capsys, "predict", str(ckpt), "--input", str(stream))
    assert code == 3
    assert err.startswith("data error: invalid checkpoint metadata")
    assert err.count("\n") == 1


def test_huge_checkpoint_config_is_rejected_before_allocation(tmp_path, capsys):
    """A valid but huge model_config (about 7 GB of parameters) is compared
    with the stored blocks before anything of that size is allocated."""
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(checkpoint_bytes(meta={
        "model_config": stored_config(hidden_size=10 ** 6),
        "vocab": {"tokens": ["<pad>", "<unk>"]}}))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "predict", str(ckpt), "--input", str(empty))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert err.startswith("data error: block mismatch") and err.count("\n") == 1
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("hidden_size", [10 ** 30, 2 ** 40, 10 ** 6],
                         ids=["unrepresentable", "iterator_too_large", "beyond_memory"])
def test_unallocatable_model_is_refused_before_any_output(workspace, tmp_path, capsys,
                                                          hidden_size):
    """A model that passes validation but cannot be allocated is refused
    from its block shapes: one error line, and no checkpoint_dir made."""
    _, config_path, _, _ = workspace
    cfg = json.loads(config_path.read_text())
    cfg["train"].update(hidden_size=hidden_size, heads=1)
    cfg["paths"]["checkpoint_dir"] = str(tmp_path / "run")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "train", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("config error: cannot allocate the configured model: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()
    assert peak < 16 * 2 ** 20


def test_unallocatable_gradcheck_model_is_refused_before_any_output(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "gradcheck", "--size", "1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("config error: cannot allocate the configured model: ")
    assert err.count("\n") == 1
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# fuzzing the input boundaries
# ---------------------------------------------------------------------------

# Leaves are boundary values. Mid-size integers are left out on purpose: a
# valid config with a dimension of 10**4 would allocate gigabytes.
JSON_LEAVES = (
    st.none() | st.booleans()
    | st.sampled_from([-1, 0, 1, 2, 10 ** 30, 0.5, -1.5, 1e300])
    | st.sampled_from(["customer", "agent", "transferable", "normal", "met",
                       "unsatisfied", "positive", "tanh", "last", "voting"])
    | st.text(st.sampled_from("ab.-_ \x00é\ud800"), max_size=6))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(st.sampled_from("abrt_"), max_size=4), inner,
                      max_size=3),
    max_leaves=6)
NESTING_DEPTHS = [1, 2, 900, 1000, 100_000]


def _positions(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _positions(value, path + (key,))


_DELETE = object()


def _replace(obj, path, value):
    """A copy of obj with the value at path replaced, or deleted."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


@st.composite
def mutated_json(draw, obj) -> str:
    """obj as JSON text with one mutation: a value replaced or deleted, a
    value wrapped in lists nested up to 100,000 deep, the text truncated, or
    one character overwritten."""
    kind = draw(st.sampled_from(["replace", "delete", "nest", "truncate", "flip"]))
    path = draw(st.sampled_from(list(_positions(obj))))
    if kind == "replace" or (kind == "delete" and not path):
        return json.dumps(_replace(obj, path, draw(JSON_VALUES)))
    if kind == "delete":
        return json.dumps(_replace(obj, path, _DELETE))
    if kind == "nest":
        depth = draw(st.sampled_from(NESTING_DEPTHS))
        value = obj
        for key in path:
            value = value[key]
        return json.dumps(_replace(obj, path, "\u0001")).replace(
            '"\\u0001"', "[" * depth + json.dumps(value) + "]" * depth)
    text = json.dumps(obj)
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    pos = draw(st.integers(0, len(text) - 1))
    return text[:pos] + draw(st.sampled_from('{}[]",:0\\')) + text[pos + 1:]


def run_quietly(*argv):
    """cli.main without pytest's function-scoped capture: exit code, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            shown_warnings():
        code = cli.main(list(argv))
    return code, err.getvalue()


# the lines train logs before it can end in a numeric failure
PROGRESS = ("resolved config: ", "corpus loaded: ", "embedding coverage: ",
            "epoch timing: ", "checkpoint written to ")


def assert_clean_exit(code, err):
    """An expected exit code, no traceback or warning, and a failure as one
    error line. train logs its progress only once its inputs have loaded
    and its model is known to fit, so a run that fails on its inputs prints
    nothing before its error; a numeric failure (exit 4) may follow
    train's progress lines."""
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err and "Warning" not in err, err
    if code in (2, 3):
        assert err.count("\n") == 1, err
        assert err.startswith(("config error: ", "data error: ")), err
    if code == 4:
        *progress, error = err.splitlines()
        assert all(line.startswith(PROGRESS) for line in progress), err
        assert error.startswith(("error: ", "training diverged: ")), err


@pytest.fixture(scope="module")
def fuzz_inputs(trained_run, tmp_path_factory):
    """A directory with a tiny corpus, and valid seeds for the mutations: a
    run config on that corpus, one dialogue, and one utterance."""
    root = tmp_path_factory.mktemp("fuzz")
    dialogues, _ = synthesize_corpus(
        GeneratorSpec(num_dialogues=6, min_len=2, max_len=3, max_tokens=4), seed=5)
    save_corpus(dialogues[:4], root / "train.jsonl")
    save_corpus(dialogues[4:], root / "dev.jsonl")
    config = {
        "train": {"embed_dim": 4, "hidden_size": 4, "dense_size": 4,
                  "attention_units": 4, "max_dialogue_len": 4, "heads": 2,
                  "batch_size": 4, "max_epochs": 1, "patience": 1, "seed": 0},
        "paths": {"train_corpus": "train.jsonl", "dev_corpus": "dev.jsonl",
                  "checkpoint_dir": "run"}}
    dialogue = dialogue_to_json(dialogues[0])
    return root, trained_run / "model.ckpt", config, dialogue


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzzed_run_config_exits_cleanly(fuzz_inputs, data):
    root, _, config, _ = fuzz_inputs
    (root / "config.json").write_text(data.draw(mutated_json(config)))
    cwd = os.getcwd()
    os.chdir(root)  # relative paths in the mutated config stay in root
    try:
        assert_clean_exit(*run_quietly("train", "config.json"))
    finally:
        os.chdir(cwd)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzzed_corpus_exits_cleanly(fuzz_inputs, data):
    root, ckpt, _, dialogue = fuzz_inputs
    corpus = root / "corpus.jsonl"
    corpus.write_text(data.draw(mutated_json(dialogue)) + "\n"
                      + (root / "dev.jsonl").read_text())
    assert_clean_exit(*run_quietly("stats", str(corpus), "--max-len", "4"))
    assert_clean_exit(*run_quietly("eval", str(ckpt), str(corpus)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzzed_predict_stream_exits_cleanly(fuzz_inputs, data):
    root, ckpt, _, dialogue = fuzz_inputs
    lines = [json.dumps(u) for u in dialogue["utterances"]]
    lines[-1] = data.draw(mutated_json(dialogue["utterances"][-1]))
    stream = root / "stream.jsonl"
    stream.write_text("\n".join(lines) + "\n")
    assert_clean_exit(*run_quietly("predict", str(ckpt), "--input", str(stream)))


# Replacement fields for word2vec text: numbers the parser must refuse or
# accept, Unicode digits (str.isdigit accepts "²", int() does not),
# separators, and text.
EMBEDDING_FIELDS = (
    st.sampled_from(["", "²", "٣", "-1", "0", "4", "3", "1e400", "nan", "-inf",
                     "1_0", "0x1", "+2", "a", "<pad>", " ", "\t", "\n", "\x00"])
    | st.text(st.sampled_from("0123456789.-e+ é\n"), max_size=6))


@st.composite
def mutated_text(draw, text: str) -> bytes:
    """text as UTF-8 with one mutation: a space-separated field replaced, a
    line deleted, the text truncated, or one byte overwritten (possibly
    with one that is not UTF-8)."""
    kind = draw(st.sampled_from(["field", "line", "truncate", "byte"]))
    lines = text.splitlines(keepends=True)
    n = draw(st.integers(0, len(lines) - 1))
    if kind == "field":
        fields = lines[n].rstrip("\n").split(" ")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(EMBEDDING_FIELDS)
        lines[n] = " ".join(fields) + "\n"
        return "".join(lines).encode()
    if kind == "line":
        del lines[n]
        return "".join(lines).encode()
    data = text.encode()
    pos = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:pos]
    return data[:pos] + draw(st.sampled_from([b"\xff", b"\xc3", b" ", b"\n",
                                              b"0", b"-", b"\x00"])) + data[pos + 1:]


@pytest.fixture(scope="module")
def embeddings_text(fuzz_inputs):
    """A valid word2vec text file for the fuzz corpus's vocabulary, each
    vector line ending in a space as word2vec.c writes it."""
    root, _, config, _ = fuzz_inputs
    dim = config["train"]["embed_dim"]
    vocab = build_vocab(load_corpus(root / "train.jsonl", 4))
    tokens = sorted(vocab.token_to_index)[:6]
    lines = [f"{len(tokens)} {dim}\n"]
    for i, token in enumerate(tokens):
        lines.append(token + " " + "".join(f"{0.01 * (i + j):.6f} "
                                           for j in range(dim)) + "\n")
    return "".join(lines)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzzed_embeddings_exits_cleanly(fuzz_inputs, embeddings_text, data):
    root, _, config, _ = fuzz_inputs
    (root / "emb.txt").write_bytes(data.draw(mutated_text(embeddings_text)))
    config = {**config, "paths": {**config["paths"], "embeddings": "emb.txt"}}
    (root / "emb_config.json").write_text(json.dumps(config))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert_clean_exit(*run_quietly("train", "emb_config.json"))
    finally:
        os.chdir(cwd)
