"""Benchmark workloads and their set-up step.

Set-up follows ``scripts/run_experiment.py`` and the ``synth-data`` /
``build-vocab`` / ``train`` CLI path: synthesise a dataset, round-trip it
through ``save_dataset`` / ``load_dataset``, build the vocabulary from the
train split, then build the training instances and one seeded model per
variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reviewnet import dataset as rn_dataset
from reviewnet import trainer as rn_trainer
from reviewnet.model import ModelConfig, ReviewerModel, Variant

BEAM_SIZE = 20
MAX_LEN = 30
ENCODER_DIM = 16  # run_experiment.py's default tiny-encoder width


@dataclass(frozen=True)
class DataSpec:
    modality: str
    n_images: int
    feature_dim: int
    seed_offset: int = 0
    generated_templates: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    datasets: tuple[DataSpec, ...]
    variants: tuple[tuple[Variant, int], ...]  # (variant, index into datasets)
    width: int
    batch_size: int
    eval_images: int  # images per evaluate_examples call, so a sample stays short
    eval_split: str  # the split the evaluate phase decodes
    reference_ms: float  # nominal time of the reference kernel at this width (reference.py)


# The one-sentence reasons are repeated in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk",
        why="All five variants at width 32, as run_experiment.py runs them: tape bookkeeping "
            "and the Python beam loop dominate; the only workload with the conv encoder and iac.",
        datasets=(DataSpec("features", 40, 16), DataSpec("images", 40, 16, seed_offset=1)),
        variants=tuple((v, 1 if v is Variant.MT_BASELINE else 0) for v in Variant),
        width=32,
        batch_size=8,
        eval_images=4,
        eval_split="test",
        reference_ms=25.0,
    ),
    Workload(
        name="paper-width",
        why="model2 at the paper's widths (512/256, 2048-d features, batch 32): GEMM-bound "
            "training and 2048x512 decoder matvecs, where a batched or fused LSTM shows.",
        datasets=(DataSpec("features", 10, 2048),),
        variants=((Variant.MODEL_II, 0),),
        width=512,
        batch_size=32,
        eval_images=2,
        # Its test split holds two images, and how early their hypotheses finish
        # changes decode work by 20% between seeds. The decoded model is the
        # untrained seeded one, so every image is as unseen as a test image.
        eval_split="all",
        reference_ms=40.0,
    ),
    Workload(
        name="large-vocab",
        why="model1 at width 32 with ~1k generated tokens and ~20-token captions: beam search "
            "builds beam*V Python tuples per round, so the inference layer dominates decoding.",
        datasets=(DataSpec("features", 64, 16, generated_templates=True),),
        variants=((Variant.MODEL_I, 0),),
        width=32,
        batch_size=8,
        eval_images=2,
        eval_split="test",
        reference_ms=25.0,
    ),
)}


@dataclass
class Job:
    """One variant of a workload: its data, model and the state to reset to."""

    variant: Variant
    data: rn_dataset.ReviewDataset
    eval_split: str
    model: ReviewerModel
    init_state: dict[str, np.ndarray]
    config: rn_trainer.TrainConfig
    instances: list[rn_trainer.Instance]

    @property
    def steps_per_epoch(self) -> int:
        return math.ceil(len(self.instances) / self.config.batch_size)

    @property
    def evaluated(self) -> list[rn_dataset.ReviewExample]:
        return self.data.split(self.eval_split)


_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


def generated_templates(seed: int, per_class: int, pool_size: int = 4000,
                        words: tuple[int, int] = (18, 23)
                        ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Seeded (low, high) template lists over a pool of pseudo-words.

    Each of the ``per_class`` templates per class draws 18-22 distinct words
    from the pool, so a 64-image dataset has a vocabulary of about 1k tokens
    and captions of about 20 tokens.
    """
    rng = np.random.default_rng([seed, 0x7E3])
    pool: set[str] = set()
    while len(pool) < pool_size:
        syllables = int(rng.integers(2, 4))
        pool.add("".join(_CONSONANTS[rng.integers(len(_CONSONANTS))]
                         + _VOWELS[rng.integers(len(_VOWELS))] for _ in range(syllables)))
    ordered = sorted(pool)

    def template() -> str:
        chosen = rng.choice(len(ordered), size=int(rng.integers(*words)), replace=False)
        return " ".join(ordered[i] for i in chosen) + " ."

    return tuple(template() for _ in range(per_class)), tuple(template() for _ in range(per_class))


def model_config(variant: Variant, width: int, vocab_size: int, feature_dim: int) -> ModelConfig:
    """Widths as run_experiment.py derives them from one embedding/hidden width."""
    return ModelConfig(
        vocab_size=vocab_size,
        feature_dim=feature_dim,
        embed_dim=width,
        hidden_dim=width,
        shared_dim=width if variant is Variant.MODEL_I else width // 2,
        specific_dim=width // 2,
    )


def _round_trip(ds: rn_dataset.ReviewDataset, data_dir: Path) -> rn_dataset.ReviewDataset:
    rn_dataset.save_dataset(ds, data_dir)
    return rn_dataset.load_dataset(data_dir)


def _build_vocab(ds: rn_dataset.ReviewDataset, data_dir: Path) -> rn_dataset.Vocabulary:
    corpus = [rn_dataset.tokenize(c) for ex in ds.split("train") for c in ex.comments]
    vocab = rn_dataset.build_vocab(corpus, min_count=4)
    vocab.save(data_dir / "vocab.txt")
    return vocab


def _dataset(spec: DataSpec, seed: int, data_dir: Path, tracer) -> rn_dataset.ReviewDataset:
    seed = seed + spec.seed_offset
    templates = (generated_templates(seed, spec.n_images // 2)
                 if spec.generated_templates else None)
    ds = tracer.call("dataset.synth", rn_dataset.synth_dataset, seed, spec.n_images,
                     feature_dim=spec.feature_dim, modality=spec.modality, templates=templates)
    ds = tracer.call("dataset.io", _round_trip, ds, data_dir)
    ds.vocab = tracer.call("dataset.build_vocab", _build_vocab, ds, data_dir)
    return ds


def set_up(workload: Workload, seed: int, work_dir: Path, tracer) -> list[Job]:
    """Data, vocabularies, instances and seeded models for every variant."""
    datasets = [_dataset(spec, seed, work_dir / f"data{k}", tracer)
                for k, spec in enumerate(workload.datasets)]
    jobs = []
    for variant, k in workload.variants:
        ds = datasets[k]
        vocab = ds.vocab if variant.has_generator else None
        instances = rn_trainer.make_instances(ds.split("train"), vocab, MAX_LEN)
        feature_dim = ENCODER_DIM if ds.modality == "images" else ds.feature_dim
        model = ReviewerModel(variant, model_config(variant, workload.width, len(ds.vocab),
                                                    feature_dim), seed=seed)
        # the reference configuration (lr 0.1, dropout keep 0.7), one epoch per train() call
        config = rn_trainer.TrainConfig(epochs=1, batch_size=workload.batch_size, seed=seed,
                                        max_caption_len=MAX_LEN)
        jobs.append(Job(variant, ds, workload.eval_split, model, model.param_state(), config,
                        instances))
    return jobs
