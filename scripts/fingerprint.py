#!/usr/bin/env python3
"""SHA-256 fingerprints of the outputs that a speed-up must keep byte for byte.

Prints one line, ``<sha256>  <class>``, for each byte-identity class:

  criterion-8        the CLI pipeline of acceptance criterion 8: dataset,
                     vocabulary, checkpoint, metrics CSV, report, generations
  train              checkpoints and metrics CSVs of ``train`` (dropout on)
                     for all five variants, two LSTM layers each
  evaluate-generate  ``evaluate`` report, generations and stdout of those
                     checkpoints at beams 1, 5 and 20, and ``generate``
                     output of the feature captioners at beams 1 and 20
  beam-pools         every beam pool (tokens, order, ``finished``, log-probs
                     as float hex) of the images perfbench/ evaluates, with
                     its untrained seeded models, at beams 1, 5 and 20
  run-experiment     scripts/run_experiment.py, run in this process: its data
                     files, results table, every trained parameter array and
                     the repr of every epoch's losses

Run it from the root of two checkouts with the same seed and compare the
lines; any difference names the class that moved:

    python3 scripts/fingerprint.py --seed 7

The package is imported from this checkout's src/. BLAS runs on one thread.
Everything is written to a temporary directory that is removed afterwards.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import run_experiment as experiment  # noqa: E402
from reviewnet.cli import main as cli_main  # noqa: E402
from reviewnet.inference import beam_search  # noqa: E402

VARIANTS = ("iac", "v2l", "model1", "model2", "mt-baseline")  # the last trains on images
CAPTIONERS = ("v2l", "model1", "model2")
WIDTH_FLAGS = ("--embed-dim", "16", "--hidden-dim", "16", "--shared-dim", "8",
               "--specific-dim", "8", "--batch-size", "8")


def digest(items) -> str:
    """One hash over (name, bytes) pairs, each framed by its lengths."""
    h = hashlib.sha256()
    for name, data in items:
        for part in (name.encode("utf-8"), data):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def files_under(root: Path, base: Path):
    return [(str(p.relative_to(base)), p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()]


def cli(*argv, work: Path) -> bytes:
    """``reviewnet`` in this process; its stdout, with ``work`` blanked out."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"reviewnet {' '.join(map(str, argv))} exited {code}")
    return out.getvalue().replace(str(work), "<work>").encode("utf-8")


def run_experiment(seed: int, work: Path) -> str:
    out = work / "experiment"
    runs = experiment.run(experiment.parse_args(["--out", str(out), "--seed", str(seed)]))
    items = [("table", experiment.results_table(runs).encode("utf-8"))]
    for r in runs:
        items.append((f"{r.variant.value} losses", repr(r.result.log).encode("utf-8")))
        items += [(f"{r.variant.value} {name}", p.data.tobytes())
                  for name, p in sorted(r.model.params.items())]
    return digest(items + files_under(out, work))


def criterion_8(seed: int, work: Path) -> str:
    root = work / "criterion-8"
    data, ckpt = root / "data", root / "model.ckpt"
    report, generations = root / "report.json", root / "generations.txt"
    cli("synth-data", "--seed", seed, "--n-images", 16, "--out", data, work=work)
    cli("build-vocab", "--data", data, work=work)
    cli("train", "--data", data, "--variant", "model2", "--epochs", 2, "--seed", seed,
        "--out", ckpt, *WIDTH_FLAGS, work=work)
    cli("evaluate", "--data", data, "--ckpt", ckpt, "--beam", 3, "--split", "test",
        "--report", report, "--generations", generations, work=work)
    return digest(files_under(root, work))


def train_all(seed: int, root: Path, work: Path) -> list:
    """Data sets and a checkpoint of every variant under ``root``."""
    features, images = root / "features", root / "images"
    items = []
    for data, modality in ((features, "features"), (images, "images")):
        items.append((f"synth {modality}", cli("synth-data", "--seed", seed, "--n-images", 16,
                                               "--modality", modality, "--out", data, work=work)))
        cli("build-vocab", "--data", data, work=work)
    for variant in VARIANTS:
        data = images if variant == "mt-baseline" else features
        epochs = 4 if variant == "mt-baseline" else 12
        items.append((f"train {variant}", cli(
            "train", "--data", data, "--variant", variant, "--epochs", epochs, "--seed", seed,
            "--out", root / f"{variant}.ckpt", *WIDTH_FLAGS, "--lstm-layers", 2, work=work)))
    return items + files_under(root, work)


def evaluate_generate(root: Path, work: Path) -> str:
    features = root / "features"
    items = []
    for variant in VARIANTS:
        data = root / "images" if variant == "mt-baseline" else features
        for beam in (1, 5, 20):
            report, generations = root / "report.json", root / "generations.txt"
            stdout = cli("evaluate", "--data", data, "--ckpt", root / f"{variant}.ckpt",
                         "--beam", beam, "--split", "all", "--report", report,
                         "--generations", generations, work=work)
            items += [(f"evaluate {variant} {beam} stdout", stdout),
                      (f"evaluate {variant} {beam} report", report.read_bytes()),
                      (f"evaluate {variant} {beam} generations", generations.read_bytes())]
    for variant in CAPTIONERS:
        for beam in (1, 20):
            items.append((f"generate {variant} {beam}", cli(
                "generate", "--ckpt", root / f"{variant}.ckpt", "--features",
                features / "features.bin", "--vocab", features / "vocab.txt", "--beam", beam,
                work=work)))
    return digest(items)


class _Untraced:
    @staticmethod
    def call(_name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def beam_pools(seed: int, work: Path) -> str:
    sys.dont_write_bytecode = True  # only read the benchmark's sources
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import MAX_LEN, WORKLOADS, set_up

    items = []
    for name, workload in WORKLOADS.items():
        for job in set_up(workload, seed, work / f"pools-{name}", _Untraced()):
            if not job.variant.has_generator:
                continue
            for example in job.evaluated:
                for beam in (1, 5, 20):
                    pool = beam_search(job.model, example.inputs, beam, MAX_LEN)
                    text = "\n".join(f"{h.tokens} {h.finished} {h.log_prob.hex()}" for h in pool)
                    items.append((f"{name} {job.variant.value} {example.example_id} {beam}",
                                  text.encode("utf-8")))
    return digest(items)


def fingerprints(seed: int, work: Path):
    """Yield (class, sha256) for every class, in the order above, computed
    under ``work`` one class at a time."""
    yield "criterion-8", criterion_8(seed, work)
    yield "train", digest(train_all(seed, work / "variants", work))
    yield "evaluate-generate", evaluate_generate(work / "variants", work)
    yield "beam-pools", beam_pools(seed, work)
    yield "run-experiment", run_experiment(seed, work)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    with tempfile.TemporaryDirectory(prefix="reviewnet-fingerprint-") as tmp:
        for name, sha in fingerprints(args.seed, Path(tmp)):
            print(f"{sha}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
