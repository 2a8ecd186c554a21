"""SGD training loop: plain parameter updates at a fixed learning rate.

A training instance is one (image, label, comment) triple, so an epoch walks
six instances per image. Validation loss doubles as the checkpoint selection
metric: the joint loss for multi-task variants, the task loss otherwise.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import (MAX_CAPTION_LEN, ReviewDataset, ReviewExample, Vocabulary, tokenize,
                      write_atomic)
from .errors import ConfigError, ContractError, NumericError
from .inference import greedy_decode, predict_class, strip_end
from .metrics import EvalPair, bleu, overall_accuracy
from .model import ReviewerModel
from .tensor import Tensor, backward

TUNE_EPOCHS = 2  # each grid point's short training run when tuning alpha and beta


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 32
    dropout_keep: float = 0.7
    epochs: int = 30
    seed: int = 0
    alpha: float = 1.0
    beta: float = 1.0
    max_caption_len: int = MAX_CAPTION_LEN
    clip_norm: float | None = None  # off by default; long unrolls can spike

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (0.0 <= self.alpha < np.inf and 0.0 <= self.beta < np.inf):
            raise ConfigError(f"alpha and beta must be finite and non-negative, "
                              f"got {self.alpha} and {self.beta}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.clip_norm is not None and not 0.0 < self.clip_norm < np.inf:
            raise ConfigError(f"clip_norm must be None or finite and positive, got {self.clip_norm}")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ConfigError(f"dropout_keep must be in (0, 1], got {self.dropout_keep}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 1 <= self.max_caption_len <= MAX_CAPTION_LEN:
            raise ConfigError(f"max_caption_len must be in [1, {MAX_CAPTION_LEN}], "
                              f"got {self.max_caption_len}")


@dataclass(frozen=True)
class Instance:
    example_id: str
    inputs: np.ndarray
    label: int
    caption: tuple[int, ...]


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_loss: float
    valid_accuracy: float | None


@dataclass
class TrainResult:
    log: list[EpochStats]
    best_epoch: int
    best_valid_loss: float
    best_state: dict[str, np.ndarray]


def make_instances(examples: list[ReviewExample], vocab: Vocabulary | None,
                   max_caption_len: int) -> list[Instance]:
    """One instance per (image, comment); captions are encoded and length-capped.

    With a vocabulary present, comments that tokenize to nothing are dropped
    (an empty caption has no next-token targets).
    """
    instances = []
    for ex in examples:
        for comment in ex.comments:
            caption: tuple[int, ...] = ()
            if vocab is not None:
                caption = tuple(vocab.encode(tokenize(comment))[:max_caption_len])
                if not caption:
                    continue
            instances.append(Instance(ex.example_id, ex.inputs, int(ex.label), caption))
    return instances


def batch_loss(model: ReviewerModel, batch: list[Instance], config: TrainConfig,
               rng: np.random.Generator | None) -> Tensor:
    """The training objective of a batch, its mean per-instance loss; dropout
    is on only when an ``rng`` is given."""
    keep = config.dropout_keep if rng is not None else 1.0
    return model.forward([inst.inputs for inst in batch], [inst.label for inst in batch],
                         [inst.caption for inst in batch], alpha=config.alpha, beta=config.beta,
                         dropout_keep=keep, rng=rng)


def instance_loss(model: ReviewerModel, inst: Instance, config: TrainConfig,
                  rng: np.random.Generator | None) -> Tensor:
    return batch_loss(model, [inst], config, rng)


def sgd_step(model: ReviewerModel, batch: list[Instance], config: TrainConfig,
             rng: np.random.Generator | None = None) -> float:
    """One update: p <- p - lr * grad of the mean batch loss.

    Raises ``NumericError`` before any parameter changes when the loss, a
    gradient or the clipping norm is not finite.
    """
    if not batch:
        raise ContractError("sgd_step needs a non-empty batch")
    model.zero_grad()
    total = batch_loss(model, batch, config, rng)
    value = float(total.data)

    def fail(what: str) -> NumericError:
        ids = sorted({inst.example_id for inst in batch})
        return NumericError(f"{what} on batch of examples {ids}")

    if not np.isfinite(value):
        raise fail(f"non-finite loss {value}")
    backward(total)
    params = model.params
    for name, p in params.items():
        if not np.all(np.isfinite(p.grad)):
            raise fail(f"non-finite gradient of {name}")
    if config.clip_norm is not None:
        with np.errstate(over="ignore"):  # an overflowing norm is raised just below
            norm = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params.values())))
        if not np.isfinite(norm):
            raise fail(f"non-finite gradient norm {norm}")
        if norm > config.clip_norm:
            factor = config.clip_norm / norm
            for p in params.values():
                p.grad *= factor
    for p in params.values():
        p.data -= config.learning_rate * p.grad
    return value


def _mean_valid_loss(model: ReviewerModel, instances: list[Instance],
                     config: TrainConfig) -> float:
    """Mean per-instance loss, evaluated in batches of ``config.batch_size``."""
    total = 0.0
    for start in range(0, len(instances), config.batch_size):
        chunk = instances[start:start + config.batch_size]
        total += float(batch_loss(model, chunk, config, None).data) * len(chunk)
    return total / len(instances)


def _valid_accuracy(model: ReviewerModel, examples: list[ReviewExample]) -> float | None:
    if not model.variant.has_classifier:
        return None
    return overall_accuracy([predict_class(model, ex.inputs)[0] for ex in examples],
                            [ex.label for ex in examples])


def train(model: ReviewerModel, dataset: ReviewDataset, config: TrainConfig) -> TrainResult:
    """Seeded epochs over shuffled instances; restores the best-validation state.

    With ``epochs == 0`` the model is returned untouched and the log is empty.
    """
    vocab = dataset.vocab if model.variant.has_generator else None
    if model.variant.has_generator and vocab is None:
        raise ConfigError("training a captioning variant needs a vocabulary (run build-vocab)")
    train_examples = dataset.split("train")
    valid_examples = dataset.split("valid")
    if not train_examples:
        raise ConfigError("the train split is empty")
    if not valid_examples:
        raise ConfigError("the valid split is empty")
    train_instances = make_instances(train_examples, vocab, config.max_caption_len)
    valid_instances = make_instances(valid_examples, vocab, config.max_caption_len)
    if not train_instances or not valid_instances:
        raise ConfigError("no usable training instances (are all comments empty?)")

    rng = np.random.default_rng(config.seed)
    log: list[EpochStats] = []
    best_state = model.param_state()
    best_valid = float("inf")
    best_epoch = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_instances))
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_instances[i] for i in order[start:start + config.batch_size]]
            batch_losses.append(sgd_step(model, batch, config, rng))
        valid_loss = _mean_valid_loss(model, valid_instances, config)
        stats = EpochStats(epoch, float(np.mean(batch_losses)), valid_loss,
                           _valid_accuracy(model, valid_examples))
        log.append(stats)
        if valid_loss < best_valid:
            best_valid = valid_loss
            best_epoch = epoch
            best_state = model.param_state()
    if config.epochs == 0:
        best_valid = float("nan")
    model.load_param_state(best_state)
    return TrainResult(log, best_epoch, best_valid, best_state)


def write_metrics_csv(log: list[EpochStats], path: str | Path) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["epoch", "train_loss", "valid_loss", "valid_accuracy"])
    for row in log:
        acc = "" if row.valid_accuracy is None else repr(row.valid_accuracy)
        writer.writerow([row.epoch, repr(row.train_loss), repr(row.valid_loss), acc])
    write_atomic(path, text.getvalue().encode("utf-8"))


def _valid_bleu1(model: ReviewerModel, examples: list[ReviewExample], vocab: Vocabulary,
                 max_len: int) -> float:
    if not model.variant.has_generator:
        return 0.0
    pairs = []
    for ex in examples:
        decoded = vocab.decode(strip_end(greedy_decode(model, ex.inputs, max_len)))
        pairs.append(EvalPair(decoded, [tokenize(c) for c in ex.comments]))
    return bleu(pairs, 1)


def tune_alpha_beta(model_factory, dataset: ReviewDataset,
                    grid: list[tuple[float, float]], config: TrainConfig
                    ) -> tuple[float, float]:
    """Short training run per grid point; picks the pair with the best
    validation accuracy, ties broken by validation BLEU-1, then grid order."""
    if not grid:
        raise ConfigError("the alpha/beta grid is empty")
    valid_examples = dataset.split("valid")
    # built up front, so a bad weight anywhere in the grid fails before any training
    points = [replace(config, alpha=alpha, beta=beta) for alpha, beta in grid]

    def score(point: TrainConfig) -> tuple[float, float]:
        model = model_factory()
        train(model, dataset, point)
        accuracy = _valid_accuracy(model, valid_examples)
        bleu1 = (_valid_bleu1(model, valid_examples, dataset.vocab, config.max_caption_len)
                 if dataset.vocab is not None else 0.0)
        return (accuracy if accuracy is not None else 0.0, bleu1)

    # max keeps the first of equal scores, so grid order breaks ties
    best = max(points, key=score)
    return best.alpha, best.beta
