"""Smoke runs of the benchmark harness in perfbench/.

Its tracer wraps handsat's module-level names from outside; a renamed or
deleted name fails these tests instead of failing the benchmark later. Each
run also does the workload's correctness checks: stream rows equal to one
full forward, and for train same-seed determinism and a checkpoint round
trip.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    return result


def test_traced_stream_benchmark_is_correct():
    result = run_traced("stream")
    # one forward per prefix of a 64-utterance stream, then one full forward
    ratio = result["metrics"]["encoder.utterances_per_streamed_utterance"]
    assert ratio["value"] == 33.5


def test_traced_train_benchmark_is_correct():
    result = run_traced("train")
    assert result["metrics"]["training.adam.steps"]["value"] > 0
