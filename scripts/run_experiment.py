#!/usr/bin/env python3
"""Desk-scale comparison of all five variants on synthetic data.

Generates a feature dataset (and an image dataset for the trainable-encoder
baseline), trains every variant with shared hyperparameters, evaluates the
test split with beam search, and prints one combined results table.

Example:
    python3 scripts/run_experiment.py --out /tmp/reviewnet-exp --seed 7
"""

import argparse
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from reviewnet.cli import evaluate_examples
from reviewnet.dataset import build_vocab, load_dataset, save_dataset, synth_dataset, tokenize
from reviewnet.metrics import MetricReport, report_table
from reviewnet.model import ModelConfig, ReviewerModel, Variant
from reviewnet.inference import BEAM_SIZE
from reviewnet.trainer import TUNE_EPOCHS, TrainConfig, TrainResult, train, tune_alpha_beta


@dataclass
class VariantRun:
    """One variant as trained and evaluated: its training config (tuned
    weights included), wall seconds, trained model, training result and
    test-split report."""

    variant: Variant
    config: TrainConfig
    seconds: float
    model: ReviewerModel
    result: TrainResult
    report: MetricReport


def prepare_data(out_dir: Path, seed: int, n_images: int, modality: str):
    data_dir = out_dir / f"data-{modality}"
    ds = synth_dataset(seed, n_images, modality=modality)
    save_dataset(ds, data_dir)
    corpus = [tokenize(c) for ex in ds.split("train") for c in ex.comments]
    build_vocab(corpus).save(data_dir / "vocab.txt")
    return load_dataset(data_dir)


def model_for(variant: Variant, dataset, args) -> ReviewerModel:
    config = ModelConfig(
        vocab_size=len(dataset.vocab),
        feature_dim=args.encoder_dim if dataset.modality == "images" else dataset.feature_dim,
        embed_dim=args.width,
        hidden_dim=args.width,
        shared_dim=args.width if variant is Variant.MODEL_I else args.width // 2,
        specific_dim=args.width // 2,
    )
    return ReviewerModel(variant, config, seed=args.seed)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="working directory for data and checkpoints")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-images", type=int, default=40)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--encoder-epochs", type=int, default=12,
                        help="epochs for the slower trainable-encoder baseline")
    parser.add_argument("--width", type=int, default=32, help="embedding and hidden width")
    parser.add_argument("--encoder-dim", type=int, default=16)
    parser.add_argument("--beam", type=int, default=BEAM_SIZE)
    parser.add_argument("--tune", action="store_true",
                        help="grid-search alpha/beta on validation for the multi-task variants")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> list[VariantRun]:
    """Every variant trained and evaluated as ``args`` say, with the data
    sets written under ``args.out``."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    features_ds = prepare_data(out_dir, args.seed, args.n_images, "features")
    images_ds = prepare_data(out_dir, args.seed + 1, args.n_images, "images")

    runs = []
    for variant in Variant:
        on_images = variant.modality == "images"
        dataset = images_ds if on_images else features_ds
        epochs = args.encoder_epochs if on_images else args.epochs
        config = TrainConfig(epochs=epochs, batch_size=8, seed=args.seed)
        if args.tune and variant.multi_task:
            grid = [(a, b) for a in (0.25, 0.5, 1.0, 2.0) for b in (0.25, 0.5, 1.0, 2.0)]
            alpha, beta = tune_alpha_beta(lambda: model_for(variant, dataset, args),
                                          dataset, grid, replace(config, epochs=TUNE_EPOCHS))
            config = replace(config, alpha=alpha, beta=beta)

        model = model_for(variant, dataset, args)
        started = time.time()
        result = train(model, dataset, config)
        outcome = evaluate_examples(model, dataset.split("test"), dataset.vocab,
                                    beam_size=args.beam)
        runs.append(VariantRun(variant, config, time.time() - started, model, result,
                               outcome.report))
    return runs


def results_table(runs: list[VariantRun]) -> str:
    return report_table([(r.variant.value, r.report) for r in runs])


def main() -> int:
    args = parse_args()
    runs = run(args)
    for r in runs:
        if args.tune and r.variant.multi_task:
            print(f"[{r.variant.value}] tuned alpha={r.config.alpha} beta={r.config.beta}")
        print(f"[{r.variant.value}] {r.config.epochs} epochs in {r.seconds:.1f}s, "
              f"best valid loss {r.result.best_valid_loss:.4f}")
    print()
    print(results_table(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
