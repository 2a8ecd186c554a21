"""Byte identity as a tier-1 gate.

Four classes of ``scripts/fingerprint.py`` (criterion-8, train,
evaluate-generate, beam-pools) at seed 7 must reproduce the lines committed
in ``golden_fingerprints.json``. The bytes depend on which OpenBLAS kernel
runs, so the file holds one set of lines per kernel in ``KERNELS``, and each
kernel runs in its own subprocess pinned to it, on one thread. A kernel whose
CPU flag ``/proc/cpuinfo`` does not list is skipped, and the skip names the
kernel and the flag. The file also records the numpy and BLAS builds the
lines were taken with. A change that means to move bytes re-records every
kernel's lines, on a CPU with all the flags, and says so in CHANGES.md:

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
KERNELS = {"Haswell": "avx2", "SkylakeX": "avx512f"}  # OpenBLAS kernel: the CPU flag it needs
SEED = 7


def record() -> dict:
    """The build versions and the four classes' lines at ``SEED``, on the
    kernel this process's environment pins."""
    sys.path.insert(0, str(ROOT / "scripts"))
    import fingerprint  # sets the thread count before numpy loads
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with tempfile.TemporaryDirectory(prefix="reviewnet-golden-") as tmp:
        # the generator is lazy: run-experiment, the fifth class, never runs
        lines = dict(itertools.islice(fingerprint.fingerprints(SEED, Path(tmp)), 4))
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_configuration": blas["openblas configuration"], "lines": lines}


def run_on(kernel: str) -> dict:
    """``record()`` in a subprocess pinned to ``kernel``."""
    proc = subprocess.run([sys.executable, __file__, kernel],
                          env=dict(os.environ, OPENBLAS_CORETYPE=kernel),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def cpu_flags() -> set:
    """The CPU flags that ``/proc/cpuinfo`` lists; none where it cannot be read."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


@pytest.mark.parametrize("kernel", KERNELS)
def test_fingerprints_match_the_golden_lines(kernel):
    flag = KERNELS[kernel]
    if flag not in cpu_flags():
        pytest.skip(f"the OpenBLAS {kernel} kernel needs the CPU flag {flag}, "
                    f"which /proc/cpuinfo does not list")
    golden = json.loads(GOLDEN.read_text())
    got = run_on(kernel)
    for key in ("numpy", "blas"):
        if got[key] != golden[key]:
            pytest.fail(f"the golden lines were recorded with {key} {golden[key]}, but this "
                        f"environment has {key} {got[key]}; its bytes may differ, so re-record "
                        f"them at a commit known to be good")
    assert got["lines"] == golden["lines"][kernel]


if __name__ == "__main__":
    if len(sys.argv) > 1:  # one kernel's record, as run_on asks for it
        print(json.dumps(record()))
    else:
        missing = sorted(set(KERNELS.values()) - cpu_flags())
        if missing:  # OpenBLAS would fall back to another kernel and record its lines
            sys.exit(f"recording every kernel needs the CPU flags {', '.join(missing)}")
        runs = {kernel: run_on(kernel) for kernel in KERNELS}
        builds = {key: value for key, value in runs["Haswell"].items() if key != "lines"}
        print(json.dumps({"seed": SEED, "threads": 1, **builds,
                          "lines": {kernel: run["lines"] for kernel, run in runs.items()}},
                         indent=2))
