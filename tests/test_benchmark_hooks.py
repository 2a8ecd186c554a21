"""The benchmark in perfbench/ wraps and imports package functions by name; a
rename that leaves it behind fails here instead of in a traced benchmark run.
The perfbench sources are only read: no bytecode is written next to them."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import tiny_model
from reviewnet import cli
from reviewnet.dataset import END_ID, build_vocab, synth_dataset, tokenize
from reviewnet.inference import score_caption
from reviewnet.layers import TinyConvEncoder
from reviewnet.model import Variant
from reviewnet.tensor import Tensor
from reviewnet.trainer import Instance, TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def load_perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    had_workloads = "workloads" in sys.modules

    def load(name):
        # under a private name: perfbench's trace.py would shadow the stdlib trace module
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield load
    if not had_workloads:
        sys.modules.pop("workloads", None)


def test_span_targets_resolve_to_callables(load_perfbench):
    trace = load_perfbench("trace")
    targets = trace.span_targets(trace.Tracer())
    assert targets
    for owner, attr, _ in targets:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"


def test_probes_import(load_perfbench):
    probes = load_perfbench("probes")
    assert callable(probes.layer_timings) and callable(probes.tape_counts)


@pytest.mark.parametrize("variant", [v.value for v in Variant if v.has_generator])
def test_rescore_of_one_example_matches_score_caption(load_perfbench, variant, rng):
    # perfbench's decode check rescores one example at a time: its feature
    # vector or image goes to image_representation unbatched
    checks = load_perfbench("checks")
    model = tiny_model(variant, seed=2)
    inputs = (rng.random(TinyConvEncoder.IMAGE_SHAPE) if model.encoder is not None
              else rng.normal(size=8))
    tokens = [4, 7, 5, END_ID]
    assert checks.rescore(model, inputs, tokens) == pytest.approx(
        score_caption(model, inputs, tokens), abs=1e-9)


@pytest.mark.parametrize("variants", [(Variant.V2L, Variant.MT_BASELINE), (Variant.V2L,)],
                         ids=["model-encoder", "own-encoder"])
def test_layer_probes_run_on_one_example(load_perfbench, monkeypatch, rng, variants):
    # the probes call the encoder on one unbatched image, LSTMCell.step on one
    # state, and count the tape of instance_loss on one instance; without an
    # image variant they build their own encoder, as the paper-width and
    # large-vocab runs do
    probes = load_perfbench("probes")
    monkeypatch.setattr(probes, "PROBE_MAX_CALLS", 2)
    jobs = []
    for variant in variants:
        inputs = (rng.random(TinyConvEncoder.IMAGE_SHAPE) if variant.modality == "images"
                  else rng.normal(size=8))
        jobs.append(SimpleNamespace(variant=variant, model=tiny_model(variant, seed=2),
                                    config=TrainConfig(),
                                    instances=[Instance("img", inputs, 1, (4, 5))]))
    for job in jobs:
        if job.model.encoder is not None:
            assert job.model.encoder(Tensor(job.instances[0].inputs)).data.shape == (8,)
    timings = probes.layer_timings(jobs, seed=0)
    assert timings and all(len(samples) == 2 for samples in timings.values())
    nodes, megabytes = probes.tape_counts(jobs)
    assert nodes > 0 and megabytes > 0


def test_evaluate_reaches_every_decoder_and_metric_span(load_perfbench, monkeypatch):
    # perfbench reads its decoder and metrics.*_ms timings from these spans:
    # one Decoder.log_probs per beam round, and score_corpus calling each
    # metric through the module; a span never reached would read n = 0
    trace = load_perfbench("trace")
    ds = synth_dataset(7, 8, feature_dim=8)
    vocab = build_vocab([tokenize(c) for ex in ds.examples for c in ex.comments], min_count=1)
    model = tiny_model("model1", seed=3, vocab_size=len(vocab))
    rounds = []
    search = cli.beam_search

    def counted(*args, **kwargs):
        pool = search(*args, **kwargs)
        rounds.append(max(len(h.tokens) for h in pool))  # each round adds one token
        return pool

    monkeypatch.setattr(cli, "beam_search", counted)
    tracer = trace.Tracer()
    with trace.patched(trace.span_targets(tracer)):
        cli.evaluate_examples(model, ds.examples[:3], vocab, beam_size=20, max_len=8)
    spans = tracer.spans

    def children(parent: str, child: str) -> list[int]:
        return [sum(1 for s in spans if s[3] == i and s[0] == child)
                for i, span in enumerate(spans) if span[0] == parent]

    assert len(rounds) == 3 and sum(rounds) > 3
    assert children("inference.beam_search", "model.Decoder.log_probs") == rounds
    assert children("metrics.score_corpus", "metrics.bleu") == [4]
    for metric in ("rouge_l", "cider", "meteor_lite"):
        assert children("metrics.score_corpus", f"metrics.{metric}") == [1]
