"""Byte identity as a tier-1 gate.

Four classes of ``scripts/fingerprint.py`` (criterion-8, train,
evaluate-generate, beam-pools) at seed 7 must reproduce the lines committed
in ``golden_fingerprints.json``. The bytes depend on which OpenBLAS kernel
runs, so the classes run in a subprocess pinned to the Haswell kernel (any
AVX2 host has it) on one thread, and the file records the numpy and BLAS
builds they were taken with. A change that means to move bytes re-records
the file and says so in CHANGES.md:

    python3 tests/test_golden.py > tests/golden_fingerprints.json
"""

import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_fingerprints.json")
ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}
SEED = 7


def record() -> dict:
    """The build versions and the four classes' lines at ``SEED``."""
    sys.path.insert(0, str(ROOT / "scripts"))
    import fingerprint  # sets the thread count before numpy loads
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with tempfile.TemporaryDirectory(prefix="reviewnet-golden-") as tmp:
        # the generator is lazy: run-experiment, the fifth class, never runs
        lines = dict(itertools.islice(fingerprint.fingerprints(SEED, Path(tmp)), 4))
    return {"seed": SEED, "env": ENV, "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_configuration": blas["openblas configuration"], "lines": lines}


def test_fingerprints_match_the_golden_lines():
    golden = json.loads(GOLDEN.read_text())
    proc = subprocess.run([sys.executable, __file__], env=dict(os.environ, **ENV),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    for key in ("numpy", "blas"):
        if got[key] != golden[key]:
            pytest.fail(f"the golden lines were recorded with {key} {golden[key]}, but this "
                        f"environment has {key} {got[key]}; its bytes may differ, so re-record "
                        f"them at a commit known to be good")
    assert got["lines"] == golden["lines"]


if __name__ == "__main__":
    os.environ.update(ENV)
    print(json.dumps(record(), indent=2))
