"""Command-line entry point.

Subcommands: synth-data, build-vocab, train, evaluate, generate, grad-check.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import oracles
from .dataset import (MAX_CAPTION_LEN, ReviewExample, Vocabulary, build_vocab, load_dataset,
                      read_payload, save_dataset, synth_dataset, tokenize, write_atomic)
from .errors import (ConfigError, ContractError, DataError, NumericError, ShapeError)
from .inference import BEAM_SIZE, beam_search, check_beam, predict_class, strip_end
from .metrics import EvalPair, MetricReport, overall_accuracy, report_table, score_corpus
from .model import ModelConfig, ReviewerModel, Variant, load_checkpoint, save_checkpoint
from .tensor import (Tensor, add, backward, concat, conv2d, dropout, embedding_lookup, linear,
                     linear_cross_entropy, lstm_sequence, matmul, max_pool2, mul, relu,
                     reshape, scale, sum_all)
from .trainer import (TUNE_EPOCHS, Instance, TrainConfig, batch_loss, instance_loss, train,
                      tune_alpha_beta, write_metrics_csv)

GRAD_CHECK_SAMPLE = 25


@dataclass
class EvalOutcome:
    report: MetricReport
    generations: list[tuple[str, list[str]]]
    predictions: list[tuple[str, int, float]]


def evaluate_examples(model: ReviewerModel, examples: list[ReviewExample],
                      vocab: Vocabulary | None, *, beam_size: int = BEAM_SIZE,
                      max_len: int = MAX_CAPTION_LEN) -> EvalOutcome:
    """Decode and classify a split, returning the metric report and raw outputs."""
    report = MetricReport()
    generations: list[tuple[str, list[str]]] = []
    predictions: list[tuple[str, int, float]] = []
    pairs: list[EvalPair] = []
    if model.variant.has_generator:
        if vocab is None:
            raise DataError("evaluating a captioning variant needs vocab.txt in the data directory")
        _check_vocab_size(model, vocab)
    for ex in examples:
        if model.variant.has_generator:
            top = beam_search(model, ex.inputs, beam_size, max_len)[0]
            words = vocab.decode(strip_end(list(top.tokens)))
            generations.append((ex.example_id, words))
            pairs.append(EvalPair(words, [tokenize(c) for c in ex.comments]))
        if model.variant.has_classifier:
            label, prob = predict_class(model, ex.inputs)
            predictions.append((ex.example_id, int(label), prob))
    if predictions:
        report.overall_accuracy = overall_accuracy(
            [p for _, p, _ in predictions], [int(ex.label) for ex in examples])
    if pairs:
        for key, value in score_corpus(pairs).items():
            setattr(report, key, value)
    return EvalOutcome(report, generations, predictions)


def _check_vocab_size(model: ReviewerModel, vocab: Vocabulary) -> None:
    if len(vocab) != model.config.vocab_size:
        raise DataError(f"the vocabulary has {len(vocab)} tokens but the checkpoint's "
                        f"decoder has {model.config.vocab_size}")


# ---------------------------------------------------------------------------
# finite-difference self check


def gradient_error(params: list[Tensor], build, *, sample: int,
                   rng: np.random.Generator) -> float:
    """Worst relative error of analytic gradients vs difference quotients.

    Tensors of at most ``sample`` entries are differenced exhaustively, larger
    ones at ``sample`` coordinates drawn from ``rng``. Every coordinate must
    match the central quotient or one of the one-sided quotients; the latter
    covers kinks (relu corners, pooling argmax flips) sitting inside the probe
    interval, where the analytic subgradient equals exactly one side.
    """
    for p in params:
        p.zero_grad()
    loss = build()
    backward(loss)
    value0 = float(loss.data)
    grads = [p.grad.copy() for p in params]

    def value() -> float:
        return float(build().data)

    worst = 0.0
    for p, grad in zip(params, grads):
        size = p.data.size
        for flat in (range(size) if size <= sample
                     else rng.choice(size, size=sample, replace=False)):
            idx = np.unravel_index(int(flat), p.data.shape)
            slopes = oracles.finite_diff_slopes_at(value, p.data, idx, value0)
            worst = max(worst, oracles.subgradient_rel_error(grad[idx], *slopes))
    return worst


def _primitive_cases(rng: np.random.Generator):
    """(name, params, loss builder) triples covering every primitive; each
    name starts with the name of the primitive it checks."""

    def param(*shape):
        return Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)

    def reduce(t: Tensor, seed_vec: np.ndarray) -> Tensor:
        return sum_all(mul(t, Tensor(seed_vec)))

    a, b = param(3, 4), param(4, 2)
    r_mm, r5, r5b, r10, r64 = (rng.normal(size=s) for s in [(3, 2), 5, 5, 10, 64])
    x_img, kern, kern_b = param(2, 2, 6, 6), param(3, 2, 3, 3), param(3)
    # keep relu inputs away from the kink so finite differences stay clean
    u = Tensor(rng.normal(size=7) + np.where(rng.normal(size=7) > 0, 0.5, -0.5),
               requires_grad=True)
    v, w = param(5), param(5)
    tab = param(6, 4)
    pool_in = param(2, 2, 4, 4)
    mask = rng.random(5) < 0.7
    q, rows, lin_w, lin_b = param(4), param(2, 3, 4), param(5, 4), param(5)
    r_lin = rng.normal(size=(2, 3, 5))
    rows_ce = param(3, 4, 4)
    ce_targets, ce_mask = rng.integers(0, 5, size=(3, 4)), rng.random((3, 4)) < 0.6
    ce_mask[1] = False  # a row with no scored step
    rows_b, r_cat = param(2, 2, 4), rng.normal(size=(2, 5, 4))
    # a batch of three rows of four steps from a tracked state
    seq_x, seq_h0, seq_c0 = param(3, 4, 2), param(3, 3), param(3, 3)
    seq_wi, seq_wh, seq_b = param(12, 2), param(12, 3), param(12)
    r_h, r_c = rng.normal(size=(3, 4, 3)), rng.normal(size=(3, 4, 3))

    def sequence_loss():
        h, c = lstm_sequence(seq_x, seq_h0, seq_c0, seq_wi, seq_wh, seq_b)
        return add(reduce(h, r_h), reduce(c, r_c))

    cases = [
        ("matmul", [a, b], lambda: reduce(matmul(a, b), r_mm)),
        ("linear", [q, lin_w, lin_b], lambda: reduce(linear(q, lin_w, lin_b), r5)),
        ("linear rows", [rows, lin_w, lin_b],
         lambda: reduce(linear(rows, lin_w, lin_b), r_lin)),
        ("conv2d", [x_img, kern, kern_b], lambda: sum_all(conv2d(x_img, kern, kern_b))),
        ("relu", [u], lambda: sum_all(relu(u))),
        ("linear_cross_entropy", [rows_ce, lin_w, lin_b],
         lambda: linear_cross_entropy(rows_ce, lin_w, lin_b, ce_targets, ce_mask)),
        ("add", [v, w], lambda: reduce(add(v, w), r5b)),
        ("mul", [v, w], lambda: sum_all(mul(v, w))),
        ("scale", [v], lambda: reduce(scale(v, -1.5), r5b)),
        ("sum_all", [v], lambda: sum_all(v)),
        ("concat", [v, w], lambda: reduce(concat([v, w]), r10)),
        ("concat axis 1", [rows, rows_b],
         lambda: reduce(concat([rows, rows_b], axis=1), r_cat)),
        ("embedding_lookup", [tab], lambda: sum_all(add(embedding_lookup(tab, 2),
                                                        embedding_lookup(tab, 2)))),
        ("embedding_lookup ids", [tab],
         lambda: reduce(embedding_lookup(tab, np.array([[2, 0], [2, 5]])), r_cat[:, :2])),
        ("dropout", [v], lambda: sum_all(dropout(v, 0.7, mask=mask))),
        ("max_pool2", [pool_in], lambda: sum_all(max_pool2(pool_in))),
        ("reshape", [pool_in], lambda: reduce(reshape(pool_in, (-1,)), r64)),
        ("lstm_sequence", [seq_x, seq_h0, seq_c0, seq_wi, seq_wh, seq_b], sequence_loss),
    ]
    return cases


def variant_cases(rng: np.random.Generator, model_seed: int):
    """(name, model, loss builder) pairs, two per variant on a tiny model seeded
    with ``model_seed``: its training loss on one instance, and on a batch of
    three instances with ragged captions. Inputs are drawn from ``rng``."""
    cases = []
    for variant in Variant:
        if variant.modality == "images":
            config = ModelConfig(vocab_size=10, feature_dim=8, embed_dim=8, hidden_dim=8)
            inputs = [rng.random((3, 32, 32)) for _ in range(3)]
        else:
            config = ModelConfig(vocab_size=10, feature_dim=8, embed_dim=8, hidden_dim=8,
                                 shared_dim=8 if variant is Variant.MODEL_I else 4,
                                 specific_dim=4)
            inputs = [rng.normal(size=8) for _ in range(3)]
        model = ReviewerModel(variant, config, seed=model_seed)
        captions = [(4, 5, 6), (7,), (8, 4, 9, 5, 6)]
        batch = [Instance(variant.value, x, label, caption)
                 for x, label, caption in zip(inputs, (1, 0, 1), captions)]
        cases.append((variant.value, model,
                      lambda m=model, i=batch[0]: instance_loss(m, i, TrainConfig(), None)))
        cases.append((f"{variant.value} batch", model,
                      lambda m=model, b=batch: batch_loss(m, b, TrainConfig(), None)))
    return cases


def gradient_check_suite(seed: int) -> float:
    """Finite-difference check of every primitive and every variant's loss.

    Tensors above ``GRAD_CHECK_SAMPLE`` entries are spot-checked at seeded
    coordinates; smaller ones are differenced exhaustively. Returns the worst
    relative error seen, printing one line per group.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, params, build in _primitive_cases(rng):
        err = gradient_error(params, build, sample=GRAD_CHECK_SAMPLE, rng=rng)
        worst = max(worst, err)
        print(f"primitive {name:<20} max rel error {err:.3e}")
    for name, model, build in variant_cases(np.random.default_rng(seed), seed + 1):
        err = gradient_error(list(model.params.values()), build, sample=GRAD_CHECK_SAMPLE, rng=rng)
        worst = max(worst, err)
        print(f"variant   {name:<20} max rel error {err:.3e}")
    return worst


# ---------------------------------------------------------------------------
# commands


def _check_outputs(*paths) -> None:
    """Fail before any work if an output path (None: not asked for) is a
    directory or lies in a directory that does not exist."""
    for given in paths:
        if given is None:
            continue
        path = Path(given)
        if path.is_dir():
            raise DataError(f"cannot write {given}: it is a directory")
        if not path.parent.is_dir():
            raise DataError(f"cannot write {given}: {path.parent} is not a directory")


def _cmd_synth_data(args) -> int:
    ds = synth_dataset(args.seed, args.n_images, **_given(args, "feature_dim", "modality"))
    save_dataset(ds, args.out)
    print(f"wrote {args.n_images} {ds.modality} examples to {args.out}")
    return 0


def _cmd_build_vocab(args) -> int:
    ds = load_dataset(args.data)
    corpus = [tokenize(c) for ex in ds.split("train") for c in ex.comments]
    if not corpus:
        raise DataError("the train split has no comments to build a vocabulary from")
    vocab = build_vocab(corpus, **_given(args, "min_count"))
    vocab.save(Path(args.data) / "vocab.txt")
    print(f"vocabulary of {len(vocab)} tokens (including 4 reserved specials)")
    return 0


def _given(args, *names) -> dict:
    """The flags among ``names`` that were given; the rest keep their defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _given_fields(cls, args, **fixed):
    """``cls`` from ``fixed`` and the flags given for its fields; the rest keep their defaults."""
    return cls(**_given(args, *(f.name for f in fields(cls))), **fixed)


def _cmd_train(args) -> int:
    log_path = args.log or f"{args.out}.metrics.csv"
    _check_outputs(args.out, log_path)
    ds = load_dataset(args.data)
    variant = Variant(args.variant)
    if ds.modality != variant.modality:
        raise DataError(f"variant {variant.value} trains on {variant.modality}, "
                        f"got a dataset of {ds.modality}")
    if variant.has_generator and ds.vocab is None:
        raise DataError("no vocab.txt in the data directory; run build-vocab first")

    feature_dim = args.encoder_dim if ds.modality == "images" else ds.feature_dim
    vocab_size = len(ds.vocab) if variant.has_generator else 4
    config = _given_fields(ModelConfig, args, vocab_size=vocab_size, feature_dim=feature_dim)
    tcfg = _given_fields(TrainConfig, args)
    if args.tune_grid is not None:
        if not variant.multi_task:
            raise ConfigError("--tune-grid only applies to multi-task variants")
        try:
            values = [float(v) for v in args.tune_grid.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"--tune-grid needs comma-separated numbers, "
                              f"got {args.tune_grid!r}") from None
        grid = [(a, b) for a in values for b in values]
        alpha, beta = tune_alpha_beta(
            lambda: ReviewerModel(variant, config, seed=tcfg.seed), ds, grid,
            replace(tcfg, epochs=args.tune_epochs))
        print(f"selected alpha={alpha} beta={beta} from the {len(grid)}-point grid")
        tcfg = replace(tcfg, alpha=alpha, beta=beta)

    model = ReviewerModel(variant, config, seed=tcfg.seed)
    result = train(model, ds, tcfg)
    save_checkpoint(model, args.out)
    write_metrics_csv(result.log, log_path)
    if result.log:
        print(f"saved {args.out} (best epoch {result.best_epoch}, "
              f"valid loss {result.best_valid_loss:.6f}); log at {log_path}")
    else:
        print(f"saved untrained model to {args.out} (epochs=0)")
    return 0


def _cmd_evaluate(args) -> int:
    check_beam(args.beam, args.max_len)
    _check_outputs(args.report, args.generations)
    ds = load_dataset(args.data)
    model = load_checkpoint(args.ckpt)
    examples = ds.split(args.split)
    if not examples:
        raise DataError(f"split {args.split!r} is empty")
    outcome = evaluate_examples(model, examples, ds.vocab,
                                beam_size=args.beam, max_len=args.max_len)
    report = outcome.report.to_json_dict()
    report["variant"] = model.variant.value
    report["split"] = args.split
    report["predictions"] = [
        {"id": ex_id, "label": "high" if label else "low", "probability": prob}
        for ex_id, label, prob in outcome.predictions
    ]
    report["generations"] = [
        {"id": ex_id, "caption": " ".join(words)} for ex_id, words in outcome.generations
    ]
    write_atomic(args.report, (json.dumps(report, indent=2) + "\n").encode("utf-8"))
    if args.generations:
        lines = "\n".join(" ".join(words) for _, words in outcome.generations)
        write_atomic(args.generations, (lines + "\n").encode("utf-8"))
    print(report_table([(model.variant.value, outcome.report)]))
    return 0


def _cmd_generate(args) -> int:
    check_beam(args.beam, args.max_len)
    _check_outputs(args.out)
    _, rows = read_payload(args.features)
    vocab = Vocabulary.load(args.vocab)
    model = load_checkpoint(args.ckpt)
    if not model.variant.has_generator:
        raise ConfigError(f"variant {model.variant.value} has no language head")
    _check_vocab_size(model, vocab)
    lines = []
    for row in rows:
        top = beam_search(model, row, args.beam, args.max_len)[0]
        lines.append(" ".join(vocab.decode(strip_end(list(top.tokens)))))
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_grad_check(args) -> int:
    worst = gradient_check_suite(args.seed)
    print(f"max relative error: {worst:.3e}")
    if worst >= 1e-4:
        raise NumericError(f"gradient check failed with max relative error {worst:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewnet",
        description="Train and evaluate joint aesthetic classifiers and review generators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="write a deterministic synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-images", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--feature-dim", type=int, help="default: synth_dataset's")
    p.add_argument("--modality", choices=["features", "images"], help="default: synth_dataset's")
    p.set_defaults(func=_cmd_synth_data)

    p = sub.add_parser("build-vocab", help="build vocab.txt from the train split comments")
    p.add_argument("--data", required=True)
    p.add_argument("--min-count", type=int, help="default: build_vocab's")
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("train", help="train one variant and save the best checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    # a flag that sets a config field keeps the config's default when left out
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--tune-grid", default=None,
                   help="comma-separated weight values; trains every (alpha, beta) pair briefly")
    p.add_argument("--tune-epochs", type=int, default=TUNE_EPOCHS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="metrics CSV path (default: <out>.metrics.csv)")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--dropout-keep", type=float)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--shared-dim", type=int)
    p.add_argument("--specific-dim", type=int)
    p.add_argument("--lstm-layers", type=int)
    p.add_argument("--encoder-dim", type=int, default=64,
                   help="tiny encoder output width (image datasets only)")
    p.add_argument("--max-caption-len", type=int)
    p.add_argument("--clip-norm", type=float)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="decode a split and write the metric report")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--beam", type=int, default=BEAM_SIZE)
    p.add_argument("--split", default="test", choices=["train", "valid", "test", "all"])
    p.add_argument("--max-len", type=int, default=MAX_CAPTION_LEN)
    p.add_argument("--report", required=True)
    p.add_argument("--generations", default=None,
                   help="also write decoded captions, one per line")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("generate", help="decode captions for a features.bin or images.bin file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--beam", type=int, default=BEAM_SIZE)
    p.add_argument("--max-len", type=int, default=MAX_CAPTION_LEN)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("grad-check", help="finite-difference check of gradients")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ContractError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
