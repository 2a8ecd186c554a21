"""Span recording from outside the package, and per-layer metrics derived from it.

A span is (name, start, end, parent span, run id). Spans are kept in memory
and written out once the run ends. The recorders wrap public functions where
their callers look them up (``reviewnet.trainer.backward`` is the name
``sgd_step`` calls), so the package itself is not changed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class NullTracer:
    """Calls straight through; used by the untraced run."""

    run = None

    def wrap(self, name, fn):
        return fn

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, run id); tuples of plain values
        # are not tracked by the garbage collector, so a long list stays cheap
        self.spans: list[tuple | None] = []
        self.run = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


@contextmanager
def patched(replacements):
    """Temporarily set ``owner.attr = make(original)`` for each (owner, attr, make).

    A name the package no longer has stops the run: its metrics would
    otherwise read zero samples, which looks like a gain. A change that
    renames a traced function updates ``span_targets`` with it.
    """
    saved = []
    try:
        for owner, attr, make in replacements:
            original = owner.__dict__.get(attr)
            if original is None:
                raise AttributeError(f"{owner.__name__} has no {attr} to wrap")
            setattr(owner, attr, make(original))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_targets(tracer: Tracer):
    """(owner, attribute, maker) for every public function the traced run times."""
    from reviewnet import cli, metrics, model, trainer

    targets = [
        (trainer, "sgd_step", "trainer.sgd_step"),
        (trainer, "instance_loss", "trainer.instance_loss"),
        (trainer, "backward", "tensor.backward"),
        (trainer, "predict_class", "inference.predict_class"),
        (model.ReviewerModel, "forward", "model.forward"),
        (model.ReviewerModel, "decoder", "model.decoder"),
        (model.Decoder, "advance", "model.Decoder.advance"),
        (model.Decoder, "log_probs", "model.Decoder.log_probs"),
        (cli, "beam_search", "inference.beam_search"),
        (cli, "predict_class", "inference.predict_class"),
        (cli, "score_corpus", "metrics.score_corpus"),
        (metrics, "bleu", "metrics.bleu"),
        (metrics, "rouge_l", "metrics.rouge_l"),
        (metrics, "cider", "metrics.cider"),
        (metrics, "meteor_lite", "metrics.meteor_lite"),
    ]
    return [(owner, attr, lambda fn, name=name: tracer.wrap(name, fn))
            for owner, attr, name in targets]


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit, better); timings are reported as <name>.p50, <name>.tail and <name>.n
TIMINGS = [
    ("tensor.backward_ms_per_step", "ms"),
    ("tensor.matmul_fwd_us", "us"),
    ("tensor.matmul_bwd_us", "us"),
    ("layers.lstm_step_fwd_us", "us"),
    ("layers.lstm_step_bwd_us", "us"),
    ("layers.conv_encoder_fwd_ms", "ms"),
    ("layers.conv_encoder_bwd_ms", "ms"),
    ("model.forward_ms_per_instance", "ms"),
    ("trainer.sgd_step_ms", "ms"),
    ("trainer.forward_ms_per_step", "ms"),
    ("trainer.update_ms_per_step", "ms"),
    ("trainer.valid_ms_per_epoch", "ms"),
    ("model.decoder_init_ms", "ms"),
    ("model.decoder_step_us", "us"),
    ("inference.beam_search_ms", "ms"),
    ("inference.beam_self_ms", "ms"),
    ("inference.predict_class_us", "us"),
    ("cli.evaluate_examples_self_ms", "ms"),
    ("metrics.bleu_ms", "ms"),
    ("metrics.rouge_l_ms", "ms"),
    ("metrics.cider_ms", "ms"),
    ("metrics.meteor_lite_ms", "ms"),
    ("dataset.synth_ms", "ms"),
    ("dataset.io_ms", "ms"),
    ("dataset.build_vocab_ms", "ms"),
]

SCALARS = [
    ("tensor.nodes_per_instance", "count", "lower"),
    ("tensor.grad_mb_per_instance", "MB", "lower"),
    ("trainer.final_train_loss", "loss", "lower"),
    ("inference.rounds_per_image", "count", "lower"),
    ("inference.candidates_per_image", "count", "lower"),
    ("inference.kept_per_candidate", "ratio", "lower"),
    ("inference.length_cap_share", "ratio", "lower"),
    ("metrics.meteor_oracle_pairs", "count", "higher"),
    ("dataset.vocab_size", "count", "lower"),
    ("dataset.tokens_per_instance", "count", "lower"),
    ("trace.train_overhead_pct", "%", "lower"),
    ("trace.eval_overhead_pct", "%", "lower"),
]


def per_layer_spec() -> list[dict]:
    """The per_layer section of BENCHMARK.json, in emission order."""
    out = []
    for name, unit in TIMINGS:
        out.append({"name": f"{name}.p50", "unit": unit, "better": "lower"})
        out.append({"name": f"{name}.tail", "unit": unit, "better": "lower"})
        out.append({"name": f"{name}.n", "unit": "count", "better": "higher"})
    out.extend({"name": n, "unit": u, "better": b} for n, u, b in SCALARS)
    return out


def summarize(samples: list[float]) -> tuple[float, float, int]:
    """(median, tail, n): the tail is the highest percentile with at least ten
    samples beyond it, i.e. the 11th-largest sample; with fewer than 21
    samples that would fall below the median, and the median stands in."""
    if not samples:
        return 0.0, 0.0, 0
    ordered = sorted(samples, reverse=True)
    median = statistics.median(ordered)
    return median, (ordered[10] if len(ordered) >= 21 else median), len(ordered)


class SpanIndex:
    """Parent/child lookups over a recorded span list."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, (name, _, _, parent, _) in enumerate(spans):
            self.children[parent].append(i)
            self.by_name[name].append(i)

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def child_time(self, i: int, names: set[str] | None = None) -> float:
        return sum(self.duration(c) for c in self.children[i]
                   if names is None or self.spans[c][0] in names)

    def child_count(self, i: int, name: str) -> int:
        return sum(1 for c in self.children[i] if self.spans[c][0] == name)

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child_time(i)

    def under(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def span_timings(spans: list[tuple]) -> dict[str, list[float]]:
    """Samples for every timing metric that comes from spans."""
    ix = SpanIndex(spans)
    ms, us = 1e3, 1e6
    steps = ix.by_name["trainer.sgd_step"]
    beams = ix.by_name["inference.beam_search"]
    corpora = ix.by_name["metrics.score_corpus"]
    decoder_calls = {"model.Decoder.advance", "model.Decoder.log_probs"}
    out = {
        "trainer.sgd_step_ms": [ix.duration(i) * ms for i in steps],
        "trainer.forward_ms_per_step":
            [ix.child_time(i, {"trainer.instance_loss"}) * ms for i in steps],
        "tensor.backward_ms_per_step": [ix.child_time(i, {"tensor.backward"}) * ms for i in steps],
        "trainer.update_ms_per_step": [ix.self_time(i) * ms for i in steps],
        "model.forward_ms_per_instance": [ix.duration(i) * ms for i in ix.by_name["model.forward"]
                                          if ix.under(i, "trainer.sgd_step")],
        # one epoch per train() call: everything outside the SGD steps, mostly validation
        "trainer.valid_ms_per_epoch": [
            (ix.duration(i) - ix.child_time(i, {"trainer.sgd_step"})) * ms
            for i in ix.by_name["trainer.train"]],
        "model.decoder_init_ms": [ix.duration(i) * ms for i in ix.by_name["model.decoder"]
                                  if ix.under(i, "inference.beam_search")],
        "model.decoder_step_us": [ix.child_time(i, decoder_calls) * us
                                  / max(1, ix.child_count(i, "model.Decoder.log_probs"))
                                  for i in beams],
        "inference.beam_search_ms": [ix.duration(i) * ms for i in beams],
        "inference.beam_self_ms": [ix.self_time(i) * ms for i in beams],
        "inference.predict_class_us": [ix.duration(i) * us
                                       for i in ix.by_name["inference.predict_class"]
                                       if ix.under(i, "cli.evaluate_examples")],
        "cli.evaluate_examples_self_ms": [ix.self_time(i) * ms
                                          for i in ix.by_name["cli.evaluate_examples"]],
        "dataset.synth_ms": [ix.duration(i) * ms for i in ix.by_name["dataset.synth"]],
        "dataset.io_ms": [ix.duration(i) * ms for i in ix.by_name["dataset.io"]],
        "dataset.build_vocab_ms": [ix.duration(i) * ms for i in ix.by_name["dataset.build_vocab"]],
    }
    for metric in ("bleu", "rouge_l", "cider", "meteor_lite"):
        out[f"metrics.{metric}_ms"] = [ix.child_time(i, {f"metrics.{metric}"}) * ms
                                       for i in corpora]
    return out


def decode_calls(spans: list[tuple]) -> dict[str, list[tuple[int, int]]]:
    """Per run id, (log_probs calls, advance calls) of each beam search in order."""
    ix = SpanIndex(spans)
    out: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for i in ix.by_name["inference.beam_search"]:
        out[spans[i][4]].append((ix.child_count(i, "model.Decoder.log_probs"),
                                 ix.child_count(i, "model.Decoder.advance")))
    return out
