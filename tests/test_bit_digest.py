"""scripts/bit_digest.py prints one SHA-256 per section of what the model
computes (forward, gradients, training, evaluation, predict, gradcheck)
and of the checkpoint container's bytes.
OpenBLAS reads its thread count once, at import, so the digest runs in two
fresh interpreters, at 1 and at 2 BLAS threads, side by side. Both must
print the lines of tests/bit_digest_golden.json that were recorded for this
environment (numpy version, BLAS name and version, OpenBLAS core).

An intended change of bits updates the golden file in the same commit: run
the digest at one BLAS thread and replace this environment's lines, or
add an entry for a new environment with its fingerprint as this test
prints it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/bit_digest.py
"""

import ctypes
import glob
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "bit_digest_golden.json"


def openblas_core() -> str | None:
    """The core OpenBLAS picked its kernels for, from numpy's own copy; None
    where that copy cannot be found or loaded."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            cdll = ctypes.CDLL(lib)
        except OSError:
            return None
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def fingerprint() -> dict:
    """numpy's version and BLAS as perfbench's info line records them, and
    the OpenBLAS core."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "openblas_core": openblas_core()}


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

    env = fingerprint()
    golden = [entry["lines"] for entry in json.loads(GOLDEN.read_text())
              if entry["fingerprint"] == env]
    if not golden:
        warnings.warn(f"no golden bit digest for {json.dumps(env)}; compared the "
                      f"two BLAS thread counts only. This environment's "
                      f"lines:\n" + "\n".join(one))
        return
    expected = dict(line.split("  ", 1)[::-1] for line in golden[0])
    got = dict(line.split("  ", 1)[::-1] for line in one)
    assert got == expected, sorted(name for name in expected.keys() | got.keys()
                                   if got.get(name) != expected.get(name))
