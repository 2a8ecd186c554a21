"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_decoder, toy_generator
from reviewnet import oracles
from reviewnet.cli import gradient_error, main as cli_main, variant_cases
from reviewnet.dataset import (END_ID, START_ID, Label, build_vocab, label_from_score,
                               synth_dataset, tokenize)
from reviewnet.inference import beam_search, greedy_decode, predict_class, strip_end
from reviewnet.metrics import EvalPair, bleu, cider, meteor_lite, overall_accuracy, rouge_l
from reviewnet.model import ModelConfig, ReviewerModel
from reviewnet.trainer import TrainConfig, make_instances, sgd_step


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. gradient correctness on all five variants


def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(41)
    worst = 0.0
    # tensors above 256 entries (the encoder's conv2 kernels and dense head)
    # are too large to difference exhaustively inside the runtime budget
    for _, model, build in variant_cases(rng, 17):
        worst = max(worst, gradient_error(list(model.params.values()), build,
                                          sample=256, rng=rng))
    elapsed = time.time() - started
    assert worst <= 1e-4, f"max relative error {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(1, f"five-variant gradients match finite differences "
               f"(max rel error {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. overfit memorization on the 8-image synthetic set


def _memorize(variant: str, shared, specific):
    ds = synth_dataset(101, 8, feature_dim=16)
    corpus = [tokenize(c) for ex in ds.examples for c in ex.comments]
    vocab = build_vocab(corpus, min_count=4)
    config = ModelConfig(vocab_size=len(vocab), feature_dim=16, embed_dim=24,
                         hidden_dim=24, shared_dim=shared, specific_dim=specific)
    model = ReviewerModel(variant, config, seed=2)
    train_config = TrainConfig(learning_rate=0.1, batch_size=8, dropout_keep=1.0, epochs=1)
    instances = make_instances(ds.examples, vocab, 30)
    batches = [instances[i:i + 8] for i in range(0, len(instances), 8)]
    targets = {ex.example_id: tuple(vocab.encode(tokenize(ex.comments[0])))
               for ex in ds.examples}

    def memorized() -> bool:
        for ex in ds.examples:
            if predict_class(model, ex.inputs)[0] is not ex.label:
                return False
            decoded = tuple(strip_end(greedy_decode(model, ex.inputs, 30)))
            if decoded != targets[ex.example_id]:
                return False
        return True

    for step in range(1, 2001):
        sgd_step(model, batches[(step - 1) % len(batches)], train_config, rng=None)
        if step % 50 == 0 and memorized():
            return step
    return None


def test_criterion_2_overfit_memorization():
    started = time.time()
    steps_1 = _memorize("model1", 24, None)
    steps_2 = _memorize("model2", 12, 12)
    elapsed = time.time() - started
    assert steps_1 is not None, "shared-layer model failed to memorize in 2000 steps"
    assert steps_2 is not None, "task-specific model failed to memorize in 2000 steps"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(2, f"both multi-task models reach 100% train accuracy and reproduce "
               f"every caption (steps: {steps_1} and {steps_2}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. beam-search optimality


def test_criterion_3_beam_search_optimality():
    for case in range(20):
        vocab_size = 5 + case % 2  # 5 or 6
        max_len = 2 + case % 2     # 2 or 3
        model = toy_generator(case, vocab_size)
        features = np.random.default_rng(900 + case).normal(size=4)
        top = beam_search(model, features, beam_size=vocab_size ** max_len, max_len=max_len)[0]
        dec, x_img = oracle_decoder(model, features)
        seqs = oracles.enumerate_sequences(dec, x_img, START_ID, END_ID, vocab_size, max_len)
        best = sorted(seqs, key=lambda s: (-s[1], len(s[0]), s[0]))[0]
        assert top.tokens == tuple(best[0])
        assert abs(top.log_prob - best[1]) <= 1e-10

    for case in range(50):
        model = toy_generator(100 + case, vocab_size=5)
        features = np.random.default_rng(5000 + case).normal(size=4)
        greedy = greedy_decode(model, features, max_len=4)
        assert tuple(greedy) == beam_search(model, features, 1, max_len=4)[0].tokens
    _report(3, "beam >= V^max_len equals exhaustive enumeration on 20 models; "
               "beam=1 equals greedy on 50 models")


# ---------------------------------------------------------------------------
# 4. metric oracle equivalence


def test_criterion_4_metric_oracle_equivalence():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(int(rng.integers(3, 11)))]
        pairs = []
        for _ in range(int(rng.integers(2, 7))):
            cand = [vocab[i] for i in rng.integers(0, len(vocab), size=int(rng.integers(0, 9)))]
            refs = [[vocab[i] for i in rng.integers(0, len(vocab), size=int(rng.integers(1, 9)))]
                    for _ in range(int(rng.integers(1, 7)))]
            pairs.append(EvalPair(cand, refs))
        for n in range(1, 5):
            assert abs(bleu(pairs, n) - oracles.bleu_oracle(pairs, n)) <= 1e-10
        assert abs(rouge_l(pairs) - oracles.rouge_l_oracle(pairs)) <= 1e-10
        assert abs(cider(pairs) - oracles.cider_oracle(pairs)) <= 1e-10
        assert abs(meteor_lite(pairs) - oracles.meteor_oracle(pairs)) <= 1e-10

    counting_rng = np.random.default_rng(777)
    for _ in range(100):
        n = int(counting_rng.integers(1, 40))
        predictions = counting_rng.integers(0, 2, size=n).tolist()
        labels = counting_rng.integers(0, 2, size=n).tolist()
        assert overall_accuracy(predictions, labels) == oracles.accuracy_oracle(predictions, labels)
    _report(4, "BLEU-1..4, ROUGE-L, CIDEr and METEOR-lite match their oracles on "
               "50 corpora; accuracy matches exact counting on 100 arrays")


# ---------------------------------------------------------------------------
# 5. labeling-rule fidelity


def test_criterion_5_labeling_rule_fidelity():
    for score in (3.4, 3.7, 4.2):
        assert label_from_score(score) is Label.LOW
    for score in (5.5, 5.6, 5.9, 6.08, 6.1):
        assert label_from_score(score) is Label.HIGH
    for score in np.linspace(4.5, 5.5, 41)[:-1]:
        assert label_from_score(float(score)) is None
    _report(5, "delta=0.5 thresholding reproduces every ground-truth example and "
               "discards the whole [4.5, 5.5) band")


# ---------------------------------------------------------------------------
# 6. frozen-weight contract


def test_criterion_6_frozen_weight_contract():
    ds = synth_dataset(55, 8, feature_dim=16)
    corpus = [tokenize(c) for ex in ds.examples for c in ex.comments]
    vocab = build_vocab(corpus, min_count=4)
    instances = make_instances(ds.examples, vocab, 30)
    config = TrainConfig(learning_rate=0.1, batch_size=8, dropout_keep=1.0, epochs=1)

    for variant, shared, specific in (("model1", 16, None), ("model2", 8, 8)):
        model = ReviewerModel(variant, ModelConfig(vocab_size=len(vocab), feature_dim=16,
                                                   embed_dim=16, hidden_dim=16,
                                                   shared_dim=shared, specific_dim=specific),
                              seed=1)
        assert not any(name.startswith("encoder.") for name in model.params)
        feature_bytes = [ex.inputs.tobytes() for ex in ds.examples]
        for step in range(30):
            sgd_step(model, instances[(step * 8) % len(instances):][:8] or instances[:8],
                     config, rng=None)
        for before, ex in zip(feature_bytes, ds.examples):
            assert before == ex.inputs.tobytes()

    image_ds = synth_dataset(56, 8, modality="images")
    image_corpus = [tokenize(c) for ex in image_ds.examples for c in ex.comments]
    image_vocab = build_vocab(image_corpus, min_count=4)
    mtb = ReviewerModel("mt-baseline", ModelConfig(vocab_size=len(image_vocab), feature_dim=8,
                                                   embed_dim=12, hidden_dim=12), seed=1)
    kernels_before = {name: p.data.copy() for name, p in mtb.params.items()
                      if "conv" in name and name.endswith("kernels")}
    image_instances = make_instances(image_ds.examples, image_vocab, 30)
    for step in range(3):
        sgd_step(mtb, image_instances[step * 8:(step + 1) * 8], config, rng=None)
    changed = any(not np.array_equal(kernels_before[name], mtb.params[name].data)
                  for name in kernels_before)
    assert changed, "no conv kernel moved while training the trainable-encoder baseline"
    _report(6, "feature inputs stay bit-identical under the frozen variants; "
               "the trainable encoder's conv kernels move")


# ---------------------------------------------------------------------------
# 7. architecture-width contract


def test_criterion_7_architecture_widths():
    m1 = ReviewerModel("model1", ModelConfig(vocab_size=10, feature_dim=64), seed=0)
    v = np.random.default_rng(0).normal(size=64)
    rep_cls, rep_gen = m1.representation(m1.image_representation(v))
    assert rep_cls.data.shape == (512,) and rep_gen.data.shape == (512,)

    m2 = ReviewerModel("model2", ModelConfig(vocab_size=10, feature_dim=64), seed=0)
    rep_cls, rep_gen = m2.representation(m2.image_representation(v))
    assert rep_cls.data.shape == (512,) and rep_gen.data.shape == (512,)
    shared = np.maximum(m2.shared.weight.data @ v, 0.0)
    assert np.array_equal(rep_cls.data[256:], shared)
    assert np.array_equal(rep_gen.data[256:], shared)
    assert np.array_equal(rep_cls.data[:256],
                          np.maximum(m2.cls_specific.weight.data @ v, 0.0))
    _report(7, "shared representation is 512 wide; the task-specific variant stacks "
               "256 specific with 256 shared on both heads")


# ---------------------------------------------------------------------------
# 8. end-to-end determinism


def test_criterion_8_pipeline_determinism(tmp_path):
    artifacts = []
    for sub in ("a", "b"):
        root = tmp_path / sub
        root.mkdir()
        data = root / "data"
        ckpt = root / "model.ckpt"
        report = root / "report.json"
        generations = root / "generations.txt"
        assert cli_main(["synth-data", "--seed", "21", "--n-images", "16",
                         "--out", str(data)]) == 0
        assert cli_main(["build-vocab", "--data", str(data)]) == 0
        assert cli_main(["train", "--data", str(data), "--variant", "model2",
                         "--epochs", "2", "--seed", "9", "--out", str(ckpt),
                         "--embed-dim", "16", "--hidden-dim", "16",
                         "--shared-dim", "8", "--specific-dim", "8",
                         "--batch-size", "8"]) == 0
        assert cli_main(["evaluate", "--data", str(data), "--ckpt", str(ckpt),
                         "--beam", "3", "--split", "test", "--report", str(report),
                         "--generations", str(generations)]) == 0
        artifacts.append({
            "dataset": (data / "manifest.jsonl").read_bytes() + (data / "features.bin").read_bytes(),
            "vocab": (data / "vocab.txt").read_bytes(),
            "checkpoint": ckpt.read_bytes(),
            "csv": Path(str(ckpt) + ".metrics.csv").read_bytes(),
            "report": report.read_bytes(),
            "generations": generations.read_bytes(),
        })
    assert artifacts[0] == artifacts[1]
    _report(8, "synth-data + train + evaluate with fixed seeds produce byte-identical "
               "checkpoints, logs and reports")
