"""scripts/bit_digest.py prints one SHA-256 per section of what the model
computes (forward, gradients, training, evaluation, predict, gradcheck).
OpenBLAS reads its thread count once, at import, so the digest runs in two
fresh interpreters, at 1 and at 2 BLAS threads, side by side."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bit_digest_is_the_same_at_one_and_two_blas_threads():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    procs = {}
    try:
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            procs[threads] = subprocess.Popen(
                [sys.executable, str(ROOT / "scripts" / "bit_digest.py")], cwd=ROOT,
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = {}
        for threads, proc in procs.items():
            out, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err[-3000:]
            lines[threads] = out.splitlines()
    finally:
        for proc in procs.values():
            proc.kill()
    one, two = lines["1"], lines["2"]
    sections = [line.split("  ", 1)[1] for line in one]
    assert sections and sections == [line.split("  ", 1)[1] for line in two]
    assert one == two, [name for name, a, b in zip(sections, one, two) if a != b]
