#!/usr/bin/env python3
"""End-to-end experiment on the planted-rule synthetic corpus.

Generates a corpus, trains the full model plus every interaction ablation,
evaluates the full model again in each ablation pool (average / voting /
last: evaluate_model's aggregate re-pools its satisfaction rows), and
prints a comparison table (handoff F1 / macro F1 / GT scores, satisfaction
macro F1 / accuracy) on the held-out test split.

Usage:
    python scripts/run_synthetic_experiment.py [--dialogues 250] [--seed 7]
        [--epochs 50] [--out results.json]
"""

import argparse
import json
import sys
import time

import numpy as np

from handsat.metrics import evaluate_model
from handsat.synth import GeneratorSpec, synthesize_corpus
from handsat.training import TrainConfig, train

VARIANTS = [
    ("full", dict()),
    ("no_interact", dict(interaction_mode="no_interact")),
    ("no_select", dict(interaction_mode="no_select")),
    ("no_position", dict(interaction_mode="no_position")),
]
AGGREGATORS = ["average", "voting", "last"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dialogues", type=int, default=250)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--out", default=None, help="optional JSON results path")
    args = ap.parse_args()

    spec = GeneratorSpec(num_dialogues=args.dialogues, complaint_rate=0.2)
    dialogues, gen_report = synthesize_corpus(spec, seed=args.seed)
    n = len(dialogues)
    n_test = n_dev = max(n // 10, 1)
    train_set = dialogues[: n - n_dev - n_test]
    dev_set = dialogues[n - n_dev - n_test: n - n_test]
    test_set = dialogues[n - n_test:]
    print(f"corpus: {n} dialogues "
          f"({gen_report.satisfaction_counts})", file=sys.stderr)

    results = {}
    full_model = None
    for name, overrides in VARIANTS:
        cfg = TrainConfig(max_epochs=args.epochs, seed=args.seed, **overrides)
        t0 = time.time()
        r = train(train_set, dev_set, cfg)
        report, _ = evaluate_model(r.model, r.vocab, test_set,
                                   sections=("mhch", "ssa", "sentiment"))
        results[name] = report.to_json()
        if name == "full":
            full_model = r
        print(f"{name:12s} {time.time() - t0:6.0f}s "
              f"F1={report.mhch['f1_transferable']:.3f} "
              f"GT-I={report.mhch['gt']['1']:.3f} "
              f"satAcc={report.ssa['accuracy']:.3f}", file=sys.stderr)

    for agg in AGGREGATORS:
        report, _ = evaluate_model(full_model.model, full_model.vocab, test_set,
                                   sections=("mhch", "ssa"), aggregate=agg)
        results[f"aggregate_{agg}"] = report.to_json()
        print(f"{'agg/' + agg:12s}         "
              f"satAcc={report.ssa['accuracy']:.3f}", file=sys.stderr)

    print(json.dumps(results, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
