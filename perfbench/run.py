#!/usr/bin/env python3
"""reviewnet benchmark: set-up, training and beam-20 evaluation of one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
records spans around the package's public functions and reports per-layer
metrics instead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("desk", "paper-width", "large-vocab")
# One BLAS thread: a second one decodes faster at width 512, but in paired runs
# on a 2-core machine it doubled the run-to-run spread of paper-width training.
BLAS_THREADS = 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measured time of the run, split between train and evaluate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pin_blas_threads() -> int:
    """Fix the BLAS/OpenMP pool before numpy loads; it would otherwise follow the machine."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    src = ROOT / "src"
    if not (src / "reviewnet" / "__init__.py").is_file():
        print(f"reviewnet sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import bench

    return bench.run(args, threads, STARTED, ROOT)


if __name__ == "__main__":
    sys.exit(main())
