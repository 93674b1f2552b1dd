"""Benchmark for handsat: train and stream workloads.

    python3 perfbench/run.py --workload {train,stream} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; handsat is imported from `src/`.
The workload's inputs are made from the seed. Rounds of work then run for
at least `--seconds` (and at least two rounds), each after a set-up of its
own, and their outputs are checked. The median set-up is reported, so its
samples span the run as the rounds do. A round's time is the sum of its
pieces' fastest repeats (see workloads.py).

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` each round runs twice, untraced and with every layer wrapped
(see spans.py), in alternating order; the traced outputs must equal the
untraced ones, and the work counts seen by the wrappers must equal those
derived from the inputs. The last line then carries the per-layer metrics,
per unit of work (train: epoch, stream: dialogue). The line before it is
an `info` record: the environment, the inputs and the workload's own named
metrics.

BLAS runs on one thread and the benchmark starts no thread or process.
"""

from __future__ import annotations

import os
import time

START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SELF_TIMED = ("encoder", "interaction", "decoders.handoff", "decoders.satisfaction",
              "model.forward", "numerics.backward", "training.loss", "training.adam",
              "training.dev_eval", "cli.predict")
CALLS = ("encoder", "model.forward", "numerics.backward")
COUNTS = ("encoder.utterances", "encoder.tokens", "interaction.pairs",
          "training.adam.steps")


def import_handsat():
    sys.path.insert(1, str(SRC))
    try:
        import handsat
    except ImportError as e:
        sys.exit(f"perfbench: cannot import handsat from {SRC}: {e}")
    if Path(handsat.__file__).resolve().parent != SRC / "handsat":
        sys.exit(f"perfbench: imported handsat from {handsat.__file__}, not {SRC}")


def blas_threads() -> int | None:
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        cdll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}


def end_to_end(wl, phase, setup_s: list[float]) -> dict:
    return {
        "dialogues_per_s": {"value": wl.dialogues_per_round() / wl.round_s(phase),
                            "unit": "1/s"},
        "utt_ms": {"value": wl.utterance_ms(phase), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def per_layer(wl, untraced, traced, tracer, setup_tracer) -> dict:
    units = traced.rounds * wl.units_per_round
    out = {f"{span}.self_s": (tracer.self_s[span] / units, "s") for span in SELF_TIMED}
    out.update({f"{span}.calls": (tracer.calls[span] / units, "count") for span in CALLS})
    out.update({name: (tracer.counts[name] / units, "count") for name in COUNTS})
    streamed = traced.rounds * wl.streamed_per_round
    out["encoder.utterances_per_streamed_utterance"] = (
        tracer.counts["encoder.utterances"] / streamed if streamed else 0.0, "ratio")
    for span, name in (("training.load_checkpoint", "training.load_checkpoint_s"),
                       ("corpus.load_corpus", "corpus.load_corpus_s")):
        durations = setup_tracer.durations[span]
        out[name] = (statistics.median(durations) if durations else 0.0, "s")
    out["trace_overhead"] = (statistics.median(
        t / u for t, u in zip(traced.walls, untraced.walls)), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def measure(args, workdir: Path) -> tuple[dict, dict]:
    from spans import Tracer
    from workloads import WORKLOADS, Phase, run_rounds

    wl = WORKLOADS[args.workload](args.seed, workdir)
    setup_tracer = Tracer()
    setup_s = []
    ready_s = time.perf_counter() - START

    def set_up_first(one_round):
        """`one_round`, after a timed set-up."""
        def run(i):
            with setup_tracer if args.trace else contextlib.nullcontext():
                start = time.perf_counter()
                wl.setup()
                setup_s.append(time.perf_counter() - start)
            return one_round(i)
        return run

    if args.trace:
        tracer, traced = Tracer(), Phase()

        def traced_round(i):
            with tracer:
                traced.add(*wl.round(i))

        def paired_round(i):
            """Round i untraced and traced; which goes first alternates."""
            if i % 2:
                traced_round(i)
            untraced_round = wl.round(i)
            if not i % 2:
                traced_round(i)
            return untraced_round
        untraced = run_rounds(set_up_first(paired_round), args.seconds)
    else:
        untraced = run_rounds(set_up_first(wl.round), args.seconds)
    failed = wl.check(untraced)
    ops = wl.ops_per_round()
    attempted = untraced.rounds * ops
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "inputs": wl.describe(), "ready_s": ready_s, "setup_s_samples": setup_s,
            "rounds": untraced.rounds, "round_walls_s": untraced.walls,
            "round_s": wl.round_s(untraced),
            "unit": wl.unit, "units": untraced.rounds * wl.units_per_round}
    info.update(wl.info(untraced))

    if not args.trace:
        metrics = end_to_end(wl, untraced, setup_s)
    else:
        attempted += traced.rounds * ops
        mismatched = sum(a != b for a, b in zip(traced.outputs, untraced.outputs))
        failed += mismatched * ops
        expected = wl.expected_counts(traced.rounds)
        observed = {name: tracer.counts[name] for name in expected}
        if observed != expected:
            failed += (traced.rounds - mismatched) * ops
        info.update(traced_round_walls_s=traced.walls,
                    traced_rounds_differing=mismatched,
                    counts_expected=expected, counts_observed=observed)
        metrics = per_layer(wl, untraced, traced, tracer, setup_tracer)

    info["error_rate"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "stream"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_handsat()

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"handsat-{args.workload}-", dir=build))
    try:
        result, info = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
