import numpy as np
import pytest

from conftest import oracle_decoder, tiny_model, toy_generator
from reviewnet import oracles
from reviewnet.dataset import END_ID, START_ID, Label
from reviewnet.errors import ConfigError, ContractError
from reviewnet.inference import (beam_search, greedy_decode, predict_class,
                                 score_caption, strip_end)


# ---------------------------------------------------------------------------
# class prediction


def test_predict_class_reads_softmax(rng):
    model = tiny_model("iac", seed=1)
    model.classifier.weight.data[...] = 0.0
    model.classifier.bias.data[...] = [0.3, 0.9]
    label, prob = predict_class(model, rng.normal(size=8))
    assert label is Label.HIGH
    assert prob == pytest.approx(np.exp(0.9) / (np.exp(0.3) + np.exp(0.9)), abs=1e-12)


def test_predict_class_tie_resolves_to_low(rng):
    model = tiny_model("iac", seed=1)
    model.classifier.weight.data[...] = 0.0
    model.classifier.bias.data[...] = 0.0
    label, prob = predict_class(model, rng.normal(size=8))
    assert label is Label.LOW and prob == pytest.approx(0.5)


def test_predict_class_batch_equals_single_calls(rng):
    model = tiny_model("model2", seed=2)
    batch = [rng.normal(size=8) for _ in range(5)]
    singles = [predict_class(model, f) for f in batch]
    again = [predict_class(model, f) for f in batch]
    assert singles == again


def test_predict_class_rejected_without_classifier(rng):
    with pytest.raises(ContractError):
        predict_class(tiny_model("v2l"), rng.normal(size=8))


# ---------------------------------------------------------------------------
# beam search


def test_beam_size_one_equals_greedy_on_many_models():
    for seed in range(50):
        model = toy_generator(seed)
        features = np.random.default_rng(1000 + seed).normal(size=4)
        greedy = greedy_decode(model, features, max_len=5)
        top = beam_search(model, features, beam_size=1, max_len=5)[0]
        assert tuple(greedy) == top.tokens


def test_beam_matches_exhaustive_enumeration():
    vocab_size, max_len = 6, 3
    for seed in range(20):
        model = toy_generator(seed, vocab_size=vocab_size)
        features = np.random.default_rng(2000 + seed).normal(size=4)
        top = beam_search(model, features, beam_size=vocab_size ** max_len, max_len=max_len)[0]
        dec, x_img = oracle_decoder(model, features)
        seqs = oracles.enumerate_sequences(dec, x_img, START_ID, END_ID, vocab_size, max_len)
        best = sorted(seqs, key=lambda s: (-s[1], len(s[0]), s[0]))[0]
        assert top.tokens == tuple(best[0])
        assert abs(top.log_prob - best[1]) <= 1e-10


def test_enumeration_probability_mass_is_complete():
    model = toy_generator(3, vocab_size=5)
    features = np.random.default_rng(77).normal(size=4)
    dec, x_img = oracle_decoder(model, features)
    seqs = oracles.enumerate_sequences(dec, x_img, START_ID, END_ID, 5, 3)
    mass = sum(np.exp(lp) for _, lp in seqs)
    assert abs(mass - 1.0) <= 1e-9


def test_enumeration_bounds_are_hard():
    model = toy_generator(0, vocab_size=6)
    dec, x_img = oracle_decoder(model, np.zeros(4))
    with pytest.raises(ContractError):
        oracles.enumerate_sequences(dec, x_img, START_ID, END_ID, 9, 3)
    with pytest.raises(ContractError):
        oracles.enumerate_sequences(dec, x_img, START_ID, END_ID, 6, 5)


def test_wider_beam_never_hurts_top_log_prob():
    for seed in range(10):
        model = toy_generator(seed, vocab_size=6)
        features = np.random.default_rng(3000 + seed).normal(size=4)
        best = -np.inf
        for beam in (1, 2, 4, 8, 16):
            top = beam_search(model, features, beam_size=beam, max_len=4)[0]
            assert top.log_prob >= best - 1e-12
            best = max(best, top.log_prob)


def test_beam_finds_strictly_better_caption_than_greedy():
    found = False
    for seed in range(200):
        model = toy_generator(seed, vocab_size=6)
        features = np.random.default_rng(4000 + seed).normal(size=4)
        greedy = greedy_decode(model, features, max_len=3)
        top = beam_search(model, features, beam_size=2, max_len=3)[0]
        if top.log_prob > score_caption(model, features, greedy) + 1e-9:
            found = True
            break
    assert found, "no toy model separated beam-2 from greedy"


def test_every_hypothesis_ends_with_end_or_max_len():
    model = toy_generator(8)
    features = np.random.default_rng(5).normal(size=4)
    for hyp in beam_search(model, features, beam_size=6, max_len=4):
        assert hyp.finished
        assert hyp.tokens[-1] == END_ID or len(hyp.tokens) == 4


def test_beam_is_deterministic():
    model = toy_generator(12)
    features = np.random.default_rng(6).normal(size=4)
    a = beam_search(model, features, beam_size=5, max_len=4)
    b = beam_search(model, features, beam_size=5, max_len=4)
    assert [(h.tokens, h.log_prob) for h in a] == [(h.tokens, h.log_prob) for h in b]


def test_beam_rejects_bad_sizes(rng):
    model = toy_generator(1)
    with pytest.raises(ConfigError):
        beam_search(model, np.zeros(4), beam_size=0)
    with pytest.raises(ConfigError):
        beam_search(model, np.zeros(4), max_len=0)


# ---------------------------------------------------------------------------
# rescoring


def test_rescoring_reproduces_stored_log_probs():
    for seed in range(10):
        model = toy_generator(seed)
        features = np.random.default_rng(6000 + seed).normal(size=4)
        for hyp in beam_search(model, features, beam_size=4, max_len=4)[:3]:
            assert abs(score_caption(model, features, list(hyp.tokens)) - hyp.log_prob) <= 1e-10


def test_rescoring_agrees_with_graph_language_loss():
    # two independent routes: the numpy decode path and the recorded graph
    for seed in range(5):
        model = toy_generator(seed)
        features = np.random.default_rng(7000 + seed).normal(size=4)
        top = beam_search(model, features, beam_size=3, max_len=4)[0]
        if top.tokens[-1] != END_ID:
            continue
        caption = strip_end(list(top.tokens))
        if not caption:
            continue
        loss = model.forward([features], captions=[caption]).language.item()
        assert abs(-loss - top.log_prob) <= 1e-10


def test_strip_end():
    assert strip_end([4, 5, END_ID]) == [4, 5]
    assert strip_end([4, 5]) == [4, 5]
    assert strip_end([]) == []
