"""Multi-task aesthetic image classification and review-comment generation."""

from .dataset import (Label, ReviewDataset, ReviewExample, Vocabulary, build_vocab,
                      label_from_score, load_dataset, save_dataset, synth_dataset, tokenize)
from .inference import Hypothesis, beam_search, greedy_decode, predict_class, score_caption
from .metrics import EvalPair, MetricReport, bleu, cider, meteor_lite, overall_accuracy, rouge_l
from .model import (ModelConfig, ReviewerModel, Variant, load_checkpoint, save_checkpoint)
from .tensor import Tensor, backward
from .trainer import TrainConfig, sgd_step, train, tune_alpha_beta

__version__ = "0.1.0"

__all__ = [
    "EvalPair", "Hypothesis", "Label", "MetricReport", "ModelConfig",
    "ReviewDataset", "ReviewExample", "ReviewerModel", "Tensor", "TrainConfig",
    "Variant", "Vocabulary", "backward", "beam_search", "bleu", "build_vocab",
    "cider", "greedy_decode", "label_from_score", "load_checkpoint", "load_dataset",
    "meteor_lite", "overall_accuracy", "predict_class", "rouge_l", "save_checkpoint",
    "save_dataset", "score_caption", "sgd_step", "synth_dataset", "tokenize",
    "train", "tune_alpha_beta",
]
