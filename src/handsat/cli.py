"""Command-line surface.

Machine-readable results go to stdout as JSON / JSON lines; human-readable
progress goes to stderr, so pipelines can consume the output directly.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure (divergence, a non-finite forward or a failed gradient check).
numpy's floating-point warnings are off while a command runs (main), so
a numeric failure, too, ends in one error line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import numerics as nm
from .config import parse_json, read_json
from .corpus import (Dialogue, Role, build_vocab, corpus_stats,
                     handoff_position_hist, load_corpus, load_embeddings,
                     parse_utterance, save_corpus)
from .decoders import AGGREGATE_MODES
from .errors import (CheckpointError, ConfigError, ContractError, CorpusError,
                     HandsatError, path_reason)
from .metrics import SECTIONS, evaluate_model
from .model import Model, ModelConfig
from .synth import GeneratorSpec, load_generator_spec, synthesize_corpus
from .training import (Adam, TrainConfig, load_checkpoint, objective,
                       save_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _one_line(error: Exception) -> str:
    """The message with line breaks and other unprintable characters (from
    paths or values in the input) escaped, so it stays one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(error))


def _emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def _load_corpus(path: str, max_dialogue_len: int) -> tuple[list[Dialogue], str]:
    """load_corpus(path), and a stderr line giving the path, the counts and
    the seconds taken, for the caller to log once its run cannot fail on
    its inputs any more."""
    start = time.perf_counter()
    corpus = load_corpus(path, max_dialogue_len)
    record = {"path": str(path), "dialogues": len(corpus),
              "utterances": sum(map(len, corpus)),
              "seconds": round(time.perf_counter() - start, 6)}
    return corpus, "corpus loaded: " + json.dumps(record)


def _open(path: str | Path, mode: str, error: type[HandsatError]):
    """open() a file named on the command line; a path that cannot be
    opened raises `error` with one line."""
    try:
        return open(path, mode, encoding="utf-8")
    except (OSError, ValueError) as e:
        raise error(f"cannot open {path}: {path_reason(e)}") from None


@dataclass
class RunConfig:
    train: TrainConfig
    train_corpus: str
    dev_corpus: str
    embeddings: str | None = None
    checkpoint_dir: str = "runs"

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        obj = read_json(path, "config")
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(obj) - {"train", "paths"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        train_cfg = TrainConfig.from_json(obj.get("train", {}))
        paths = obj.get("paths", {})
        if not isinstance(paths, dict) or \
                not all(isinstance(v, str) for v in paths.values()):
            raise ConfigError("paths must be a JSON object of path strings")
        unknown = set(paths) - {f.name for f in fields(cls) if f.name != "train"}
        if unknown:
            raise ConfigError(f"unknown path keys: {sorted(unknown)}")
        for need in ("train_corpus", "dev_corpus"):
            if need not in paths:
                raise ConfigError(f"paths.{need} is required")
        return cls(train=train_cfg, **paths)

    def to_json(self) -> dict:
        return {"train": self.train.to_json(),
                "paths": {f.name: getattr(self, f.name) for f in fields(self)
                          if f.name != "train" and getattr(self, f.name) is not None}}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    run = RunConfig.load(args.config)
    cfg = run.train
    train_set, train_line = _load_corpus(run.train_corpus, cfg.max_dialogue_len)
    dev_set, dev_line = _load_corpus(run.dev_corpus, cfg.max_dialogue_len)

    vocab = build_vocab(train_set, min_freq=cfg.min_freq)
    _check_model_fits(cfg.model_config(len(vocab)))
    embedding = None
    if run.embeddings:
        loaded = load_embeddings(run.embeddings, vocab, cfg.embed_dim,
                                 rng=np.random.default_rng(cfg.seed))
        embedding = loaded.table

    ckpt_dir = Path(run.checkpoint_dir)
    try:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot create checkpoint_dir {ckpt_dir}: "
                          f"{path_reason(e)}") from None

    # progress lines only once every input has loaded, so a run that fails
    # on its inputs prints its one error line and nothing else
    _log("resolved config: " + json.dumps(run.to_json(), sort_keys=True))
    _log(train_line)
    _log(dev_line)
    if run.embeddings:
        _log(f"embedding coverage: {loaded.coverage:.3f}")
    result = train(train_set, dev_set, cfg, vocab=vocab, embedding=embedding)
    for line in result.history:
        _emit(line)
    for record in result.timing:
        _log("epoch timing: " + json.dumps(record))

    ckpt_path = ckpt_dir / "model.ckpt"
    try:
        save_checkpoint(result.model, result.vocab, ckpt_path,
                        extra={"train_config": cfg.to_json(),
                               "best_epoch": result.best_epoch})
        (ckpt_dir / "history.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in result.history), "utf-8")
    except OSError as e:  # a rename's filename2 is its destination
        raise ConfigError(f"cannot write {e.filename2 or e.filename or ckpt_dir}: "
                          f"{path_reason(e)}") from None
    _log(f"checkpoint written to {ckpt_path}")
    if result.diverged:
        _log(f"training diverged: {result.message}")
        return EXIT_NUMERIC
    _log(f"best epoch {result.best_epoch} "
         f"(selection {result.best_selection:.4f})")
    return EXIT_OK


def _check_model_fits(config: ModelConfig) -> None:
    """Refuse a model whose training state cannot fit in physical memory,
    from its block shapes alone: training holds parameter-sized float64
    arrays for the weights and their gradients (Model.params and
    Model.grads), Adam's state (Adam.ARRAYS: two moments and step's two
    scratch arrays) and the best epoch's snapshot. gradcheck uses the same
    bound, so a width it accepts can also be trained."""
    try:
        need = (2 + Adam.ARRAYS + 1) * Model.skeleton(config).params.nbytes
    except ValueError as e:  # a dimension numpy cannot represent
        raise ConfigError(f"cannot allocate the configured model: {e}") from None
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"cannot allocate the configured model: its training "
                          f"state needs {need} bytes, more than the {have} bytes "
                          "of physical memory")


def cmd_eval(args) -> int:
    sections = tuple(s.strip() for s in args.sections.split(",") if s.strip())
    if not sections:
        raise ConfigError(f"--sections names no section; choose from {SECTIONS}")
    for s in sections:
        if s not in SECTIONS:
            raise ConfigError(f"unknown section {s!r}; choose from {SECTIONS}")
    model, vocab, _ = load_checkpoint(args.checkpoint)
    corpus, corpus_line = _load_corpus(args.corpus, model.config.max_dialogue_len)
    # Opened before evaluating, so a path that cannot be written fails first.
    with (_open(args.per_dialogue, "w", ConfigError) if args.per_dialogue
          else contextlib.nullcontext()) as fh:
        report, per_dialogue = evaluate_model(model, vocab, corpus,
                                              sections=sections,
                                              aggregate=args.aggregate)
        if fh is not None:
            for row in per_dialogue:
                fh.write(json.dumps(row) + "\n")
    _log(corpus_line)
    if fh is not None:
        _log(f"per-dialogue breakdown written to {args.per_dialogue}")
    _emit(report.to_json())
    return EXIT_OK


def cmd_predict(args) -> int:
    model, vocab, _ = load_checkpoint(args.checkpoint)
    stream = _open(args.input, "r", CorpusError) if args.input else sys.stdin
    session = model.session()
    try:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            obj = parse_json(line, CorpusError, f"predict stream line {line_no}")
            utterance = parse_utterance(obj, line_no, require_handoff=False)
            if len(session.roles) == model.config.max_dialogue_len:
                raise CorpusError(
                    f"stream exceeds max dialogue length "
                    f"{model.config.max_dialogue_len}")
            handoff, estimate = session.push(vocab.encode(utterance.tokens),
                                             utterance.role)
            _emit({
                "position": len(session.roles),
                "handoff_probs": handoff.tolist(),
                "satisfaction_estimate": (None if estimate is None
                                          else estimate.tolist()),
            })
    except UnicodeDecodeError:
        raise CorpusError("predict stream is not valid UTF-8") from None
    finally:
        if args.input:
            stream.close()
    if not session.roles:
        return EXIT_OK
    if Role.CUSTOMER not in session.roles:
        raise CorpusError("stream contained no customer utterance; "
                          "satisfaction is undefined")
    with model.untaped():
        out = model.forward(session.token_ids, session.roles)
    _emit({"satisfaction_probs": out.satisfaction_probs.data.tolist(),
           "trace": out.trace(session.roles, model.config.interaction_mode,
                              model.config.aggregate_mode)})
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    spec = load_generator_spec(args.spec) if args.spec else GeneratorSpec()
    dialogues, report = synthesize_corpus(spec, seed=args.seed)
    try:
        save_corpus(dialogues, args.out)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot write {args.out}: {path_reason(e)}") from None
    _log(f"wrote {len(dialogues)} dialogues to {args.out}")
    _emit(report.to_json())
    return EXIT_OK


def cmd_stats(args) -> int:
    if args.max_len < 1:
        raise ConfigError("--max-len must be >= 1")
    corpus, corpus_line = _load_corpus(args.corpus, args.max_len)
    stats = corpus_stats(corpus)
    hist = handoff_position_hist(corpus, bins=args.bins)
    _log(corpus_line)
    _emit({"stats": stats.to_json(), "handoff_position_hist": hist})
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    """Full-model gradient fidelity check on a tiny synthetic batch
    (double precision, dropout off)."""
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    if not (np.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError("--tol must be a positive finite number")
    if args.max_len < 3:
        raise ConfigError("--max-len must be >= 3")
    if args.size < 2 or args.size % 2:
        raise ConfigError("--size must be a positive even number")
    if args.dialogues < 1:
        raise ConfigError("--dialogues must be >= 1")
    spec = GeneratorSpec(num_dialogues=args.dialogues, min_len=3,
                         max_len=args.max_len, complaint_rate=0.4)
    dialogues, _ = synthesize_corpus(spec, seed=args.seed)
    vocab = build_vocab(dialogues)
    cfg = TrainConfig(embed_dim=args.size, hidden_size=args.size,
                      dense_size=args.size, attention_units=args.size,
                      max_dialogue_len=args.max_len, heads=2)
    config = cfg.model_config(len(vocab))
    _check_model_fits(config)
    model = Model.build(config, np.random.default_rng(args.seed))

    def loss():
        return objective(model, vocab, dialogues, cfg.eta, cfg.delta)

    report = nm.grad_check(loss, model.blocks, eps=1e-5, tol=args.tol,
                           samples_per_block=args.samples,
                           rng=np.random.default_rng(args.seed))
    _emit(report.to_json())
    if report.aborted:
        _log(f"gradient check aborted: {report.message}")
        return EXIT_NUMERIC
    _log(f"max relative error {report.max_rel_error:.3e} "
         f"({'PASS' if report.passed else 'FAIL'} at tol {args.tol:g})")
    return EXIT_OK if report.passed else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handsat",
        description="Joint chatbot-to-human handoff prediction and dialogue "
                    "satisfaction estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a run config file")
    p.add_argument("config", help="JSON run config (train settings + paths)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a labeled corpus")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("--sections", default="mhch,ssa",
                   help="comma list from: mhch,ssa,sentiment")
    p.add_argument("--aggregate", default=None,
                   choices=AGGREGATE_MODES,
                   help="override the satisfaction aggregation mode")
    p.add_argument("--per-dialogue", default=None,
                   help="optional path for the per-dialogue JSONL breakdown")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict",
                       help="stream utterances (JSON per line) through a model")
    p.add_argument("checkpoint")
    p.add_argument("--input", default=None,
                   help="utterance JSONL file (default: stdin)")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("synth", help="generate a planted-rule synthetic corpus")
    p.add_argument("out", help="output corpus path (JSONL)")
    p.add_argument("--spec", default=None, help="generator spec JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("stats", help="corpus statistics and handoff position "
                                     "histograms per rating")
    p.add_argument("corpus")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--max-len", type=int, default=512)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("gradcheck",
                       help="verify model gradients against finite differences")
    p.add_argument("--size", type=int, default=8,
                   help="hidden/dense/attention width")
    p.add_argument("--dialogues", type=int, default=2)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--samples", type=int, default=8,
                   help="sampled entries per parameter block")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ConfigError, ContractError) as e:
        _log(f"config error: {_one_line(e)}")
        return EXIT_CONFIG
    except (CorpusError, CheckpointError) as e:
        _log(f"data error: {_one_line(e)}")
        return EXIT_DATA
    except HandsatError as e:
        _log(f"error: {_one_line(e)}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
