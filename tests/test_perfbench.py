"""Smoke run of the benchmark harness in perfbench/.

Its tracer wraps handsat's module-level names from outside; a renamed or
deleted name fails this test instead of failing the benchmark later.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_stream_benchmark_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "stream",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    # one forward per prefix of a 64-utterance stream, then one full forward
    ratio = result["metrics"]["encoder.utterances_per_streamed_utterance"]
    assert ratio["value"] == 33.5
