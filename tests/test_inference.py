import dataclasses
from collections import Counter

import numpy as np
import pytest

from conftest import oracle_decoder, tiny_model, toy_generator
from reviewnet import oracles
from reviewnet.dataset import END_ID, START_ID, Label
from reviewnet.errors import ConfigError, ContractError, ShapeError
from reviewnet.inference import (Hypothesis, beam_search, greedy_decode, predict_class,
                                 score_caption, strip_end)
from reviewnet.model import Decoder
from reviewnet.tensor import lstm_cell
from reviewnet.trainer import Instance, TrainConfig, sgd_step


# ---------------------------------------------------------------------------
# class prediction


def test_predict_class_reads_softmax(rng):
    model = tiny_model("iac", seed=1)
    model.params["classifier.weight"].data[...] = 0.0
    model.params["classifier.bias"].data[...] = [0.3, 0.9]
    label, prob = predict_class(model, rng.normal(size=8))
    assert label is Label.HIGH
    assert prob == pytest.approx(np.exp(0.9) / (np.exp(0.3) + np.exp(0.9)), abs=1e-12)


def test_predict_class_tie_resolves_to_low(rng):
    model = tiny_model("iac", seed=1)
    model.params["classifier.weight"].data[...] = 0.0
    model.params["classifier.bias"].data[...] = 0.0
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


# ---------------------------------------------------------------------------
# the per-hypothesis reference: the decoder and search the stacked ones replaced


class _ReferenceDecoder:
    """One matvec per layer and hypothesis; a state is a tuple of per-layer
    (h, c) vectors."""

    def __init__(self, model, image_input):
        self._layers = [(c.w_input.data, c.w_hidden.data, c.bias.data, c.hidden_dim)
                        for c in model.cells]
        self._embedding = model.params["embedding.table"].data
        self._out_w = model.params["out_proj.weight"].data
        self._out_b = model.params["out_proj.bias"].data
        self.vocab_size = self._out_w.shape[0]
        state = tuple((np.zeros(hd), np.zeros(hd)) for *_, hd in self._layers)
        state = self._step(state, image_input)
        self.initial_state = self._step(state, self._embedding[START_ID])

    def _step(self, state, x):
        new = []
        for (wi, wh, b, _), (h, c) in zip(self._layers, state):
            h, c, _ = lstm_cell(wi @ x + wh @ h + b, c)
            new.append((h, c))
            x = h
        return tuple(new)

    def advance(self, state, token_id):
        return self._step(state, self._embedding[int(token_id)])

    def log_probs(self, state):
        logits = self._out_w @ state[-1][0] + self._out_b
        z = logits - logits.max()
        return z - np.log(np.exp(z).sum())


def _reference_beam_search(model, features, beam_size, max_len):
    """Every live hypothesis times every token as a (log_prob, tokens, state)
    tuple, sorted by (-log_prob, tokens). Returns the pool as (tokens,
    log_prob, finished) and counts of what the search met:
    ``ties``, kept candidates that tied in log probability with the next one
    in that order; and, over the rounds with at least ``beam_size`` live
    hypotheses, ``below_floor``, candidates scoring below the
    ``beam_size``-th best of the hypotheses' best continuations, and
    ``row_best_ties``, best continuations that tie with another."""
    decoder = _ReferenceDecoder(model, oracle_decoder(model, features)[1])
    live = [((), 0.0, decoder.initial_state)]
    pool, stats = [], Counter()
    for _ in range(max_len):
        if not live:
            break
        candidates, row_bests = [], []
        for tokens, log_prob, state in live:
            step = decoder.log_probs(state)
            row = [(log_prob + float(step[tok]), tokens + (tok,), state)
                   for tok in range(decoder.vocab_size)]
            candidates.extend(row)
            row_bests.append(max(score for score, _, _ in row))
        if len(live) >= beam_size:
            floor = sorted(row_bests, reverse=True)[beam_size - 1]
            stats["below_floor"] += sum(score < floor for score, _, _ in candidates)
            stats["row_best_ties"] += len(row_bests) - len(set(row_bests))
        candidates.sort(key=lambda item: (-item[0], item[1]))
        stats["ties"] += sum(a[0] == b[0] for a, b in zip(candidates[:beam_size], candidates[1:]))
        live = []
        for log_prob, tokens, state in candidates[:beam_size]:
            if tokens[-1] == END_ID or len(tokens) == max_len:
                pool.append((tokens, log_prob, True))
            else:
                live.append((tokens, log_prob, decoder.advance(state, tokens[-1])))
    pool.sort(key=lambda h: (-h[1], len(h[0]), h[0]))
    return pool, stats


def _tie_heavy(model, out_proj):
    """``zeroed``: every token equally likely from every state.
    ``zero-weight``: every state has the same distribution, so two orders of
    the same tokens tie exactly while their parents' scores differ.
    ``rounded``: output weights scaled by 0.1 and biases by 0.05, both rounded
    to 0.1, so that many output rows repeat and their tokens tie exactly.
    ``rounded-bias``: ``zero-weight`` with the biases of ``rounded``, so that
    whole groups of hypotheses tie, and so do their best continuations."""
    weight, bias = model.params["out_proj.weight"].data, model.params["out_proj.bias"].data
    if out_proj in ("zeroed", "zero-weight", "rounded-bias"):
        weight[...] = 0.0
    if out_proj == "zeroed":
        bias[...] = 0.0
    elif out_proj == "rounded":
        weight[...] = np.round(0.1 * weight, 1)
    if out_proj in ("rounded", "rounded-bias"):
        bias[...] = np.round(0.05 * bias, 1)
    return model


@pytest.mark.parametrize("lstm_layers", [1, 2])
@pytest.mark.parametrize("out_proj",
                         ["gaussian", "zeroed", "zero-weight", "rounded", "rounded-bias"])
def test_beam_search_matches_tuple_sorting_reference(out_proj, lstm_layers):
    # 6 tokens: exhaustive beams and tie-heavy boundaries; 240 tokens: 20 and
    # more live hypotheses per round, where a round partitions only the
    # candidates at or above the floor of the hypotheses' best continuations
    small, large = 6, 240
    cases = [(small, seed, beam, max_len) for seed in range(16)
             for beam, max_len in ((1, 5), (3, 5), (20, 5), (small ** 3 + 1, 3))]
    cases += [(large, seed, beam, max_len) for seed in range(3)
              for beam, max_len in ((20, 4), (23, 3))]
    stats = {small: Counter(), large: Counter()}
    for vocab_size, seed, beam, max_len in cases:
        model = _tie_heavy(toy_generator(seed, vocab_size, lstm_layers), out_proj)
        features = np.random.default_rng(8000 + seed).normal(size=4)
        got = beam_search(model, features, beam_size=beam, max_len=max_len)
        want, met = _reference_beam_search(model, features, beam, max_len)
        stats[vocab_size] += met
        assert [(h.tokens, h.finished) for h in got] == [(t, f) for t, _, f in want]
        assert max(abs(h.log_prob - lp) for h, (_, lp, _) in zip(got, want)) <= 1e-12
    if out_proj != "gaussian":
        assert stats[small]["ties"] >= 50, f"only {stats[small]['ties']} ties in the kept candidates"
    if out_proj != "zeroed":  # zeroed: every candidate scores the same
        assert stats[large]["below_floor"] > 0
    if out_proj in ("zero-weight", "rounded-bias"):
        assert stats[large]["row_best_ties"] > 0


def _count_decoder_calls(monkeypatch):
    """Counts of ``Decoder.log_probs`` and ``Decoder.advance`` calls, and the
    rows of every state they were given."""
    calls, rows = Counter(), []

    def counted(name):
        original = getattr(Decoder, name)

        def wrapper(self, state, *args):
            calls[name] += 1
            rows.append(len(state[-1][0]))
            return original(self, state, *args)
        return wrapper

    for name in ("log_probs", "advance"):
        monkeypatch.setattr(Decoder, name, counted(name))
    return calls, rows


def _end_biased(seed, vocab_size):
    """A generator that never ends right after START and almost surely ends
    after any word: with no recurrent weights and a shut forget gate, a step's
    state follows its input token alone, and the END logit reads one hidden
    unit that START drives negative and every word positive. START itself is
    never emitted."""
    model = toy_generator(seed, vocab_size)
    cell = model.cells[0]
    hd = cell.hidden_dim
    cell.w_hidden.data[...] = 0.0
    cell.w_input.data[...] = 0.0
    cell.w_input.data[2 * hd:3 * hd, :4] = np.eye(hd, 4)  # candidate = the embedding
    cell.bias.data[...] = 0.0
    cell.bias.data[:hd] = cell.bias.data[3 * hd:] = 30.0  # input and output gates open
    cell.bias.data[hd:2 * hd] = -30.0  # forget gate shut
    table = model.params["embedding.table"].data
    table[:, 0] = 3.0
    table[START_ID, 0] = -3.0
    model.params["out_proj.weight"].data[...] *= 0.3
    model.params["out_proj.weight"].data[END_ID] = 0.0
    model.params["out_proj.weight"].data[END_ID, 0] = 12.0
    model.params["out_proj.weight"].data[START_ID] = 0.0
    model.params["out_proj.bias"].data[START_ID] = -1e3
    return model


def _end_never_wins(seed, vocab_size):
    """A generator whose END scores far below every other token."""
    model = toy_generator(seed, vocab_size)
    model.params["out_proj.weight"].data[END_ID] = 0.0
    model.params["out_proj.bias"].data[END_ID] = -1e3
    return model


@pytest.mark.parametrize("generator", [_end_biased, _end_never_wins])
def test_beam_search_edge_paths_match_reference_and_call_counts(monkeypatch, generator):
    # _end_biased: every hypothesis ends in round 2, all kept continuations
    # END, so the search stops before the cap; _end_never_wins: every
    # hypothesis runs to the cap, where the last round retires them all.
    # Either way a round makes one log_probs call and every round but the
    # last one advance call.
    calls, _ = _count_decoder_calls(monkeypatch)
    vocab_size, max_len = 8, 5
    for seed in range(6):
        model = generator(seed, vocab_size)
        features = np.random.default_rng(9000 + seed).normal(size=4)
        for beam in (1, 2, 3, vocab_size - 2):  # fewer than the words
            calls.clear()
            got = beam_search(model, features, beam_size=beam, max_len=max_len)
            rounds = 2 if generator is _end_biased else max_len
            assert calls == {"log_probs": rounds, "advance": rounds - 1}
            want, _ = _reference_beam_search(model, features, beam, max_len)
            assert len(got) == beam
            assert all(len(h.tokens) == rounds for h in got)
            assert all((h.tokens[-1] == END_ID) == (generator is _end_biased) for h in got)
            assert [(h.tokens, h.finished) for h in got] == [(t, f) for t, _, f in want]
            assert max(abs(h.log_prob - lp) for h, (_, lp, _) in zip(got, want)) <= 1e-12


def test_beam_search_steps_every_live_hypothesis_at_once(monkeypatch):
    calls, rows = _count_decoder_calls(monkeypatch)
    model = toy_generator(5, vocab_size=30)
    max_len = 8
    for seed in range(3):
        calls.clear()
        pool = beam_search(model, np.random.default_rng(seed).normal(size=4), beam_size=20,
                           max_len=max_len)
        # the last round retires every kept continuation, so it made the longest
        rounds = max(len(h.tokens) for h in pool)
        assert calls == {"log_probs": rounds, "advance": rounds - 1}
    assert max(rows) == 20


def test_beam_rejects_bad_sizes(rng):
    model = toy_generator(1)
    with pytest.raises(ConfigError):
        beam_search(model, np.zeros(4), beam_size=0)
    with pytest.raises(ConfigError):
        beam_search(model, np.zeros(4), max_len=0)


def test_a_hypothesis_is_its_tokens_and_log_prob():
    assert [f.name for f in dataclasses.fields(Hypothesis)] == ["tokens", "log_prob"]
    assert Hypothesis((4, END_ID), -1.5).finished is True


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
        loss = model.forward([features], [0], [caption]).item()
        assert abs(-loss - top.log_prob) <= 1e-10


def _oracle_score(model, features, tokens):
    dec, x_img = oracle_decoder(model, features)
    state = dec.advance(dec.advance(dec.initial_state(), x_img), dec.embedding[START_ID])
    total = 0.0
    for tok in tokens:
        total += float(dec.log_probs(state)[tok])
        state = dec.advance(state, dec.embedding[tok])
    return total


def test_decoding_after_an_in_place_update_reads_the_new_parameters():
    model = toy_generator(4, vocab_size=8, lstm_layers=2)
    features = np.random.default_rng(9).normal(size=4)
    before = beam_search(model, features, beam_size=4, max_len=4)
    sgd_step(model, [Instance("img", features, 0, (4, 5, 6))],
             TrainConfig(learning_rate=0.5, dropout_keep=1.0, epochs=1))
    # the update moved the scores by far more than the tolerance below
    assert abs(_oracle_score(model, features, before[0].tokens) - before[0].log_prob) > 1e-3
    after = beam_search(model, features, beam_size=4, max_len=4)
    for hyp in after:
        assert abs(_oracle_score(model, features, hyp.tokens) - hyp.log_prob) <= 1e-9


def test_score_caption_validates_token_ids():
    model = toy_generator(2, vocab_size=6)
    features = np.zeros(4)
    for tokens in ([-1], [4, 6]):
        with pytest.raises(IndexError, match=r"token id -?\d+ out of range \[0, 6\)"):
            score_caption(model, features, tokens)
    with pytest.raises(ContractError, match="integers"):
        score_caption(model, features, [2.7])
    with pytest.raises(ShapeError):
        score_caption(model, features, [[4, 5]])
    assert score_caption(model, features, np.array([4, END_ID])) == pytest.approx(
        _oracle_score(model, features, [4, END_ID]), abs=1e-12)


def test_strip_end():
    assert strip_end([4, 5, END_ID]) == [4, 5]
    assert strip_end([4, 5]) == [4, 5]
    assert strip_end([]) == []
