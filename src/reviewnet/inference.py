"""Decoding: beam search, greedy generation, class prediction, caption scoring.

Everything here is a pure function of the trained parameters and the input,
with no sampling anywhere, so runs are deterministic and safe to parallelize
across images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import END_ID, MAX_CAPTION_LEN, Label
from .errors import ConfigError, ContractError, ShapeError
from .model import ReviewerModel
from .tensor import _int_indices


@dataclass(frozen=True)
class Hypothesis:
    """A caption: emitted token ids, their exact summed log probability, and
    whether the sequence ended with END or hit the length cap."""

    tokens: tuple[int, ...]
    log_prob: float
    finished: bool


def predict_class(model: ReviewerModel, inputs: np.ndarray) -> tuple[Label, float]:
    """Argmax of the 2-way softmax; an exact tie resolves to Low."""
    if not model.variant.has_classifier:
        raise ContractError(f"variant {model.variant.value} has no classifier head")
    rep_cls, _ = model.example_representation(inputs)
    logits = model.classifier(rep_cls).data
    e = np.exp(logits - logits.max())
    probs = e / e.sum()
    pred = int(np.argmax(logits))  # argmax returns the first max, i.e. Low on ties
    return Label(pred), float(probs[pred])


# The most scores one beam-search round may hold: a round keeps its [live, V]
# float64 scores and a few arrays of that size, 64 MiB each at this bound
MAX_ROUND_SCORES = 1 << 23


def largest_round(beam_size: int, max_len: int, vocab_size: int) -> int:
    """Scores in beam search's largest round, the last one: its live
    hypotheses, min(beam_size, vocab_size ** (max_len - 1)), times vocab_size.

    The power is taken one factor at a time, capped at ``beam_size``, so no
    integer grows past beam_size * vocab_size; after beam_size.bit_length()
    factors of at least 2 the cap holds for good.
    """
    rows = 1
    for _ in range(min(max_len - 1, int(beam_size).bit_length())):
        rows = min(beam_size, rows * vocab_size)
    return rows * vocab_size


def check_beam(beam_size: int, max_len: int, vocab_size: int | None = None) -> None:
    """``ConfigError`` unless ``beam_size`` and ``max_len`` are at least 1 and,
    given a vocabulary size, beam search's largest round holds at most
    ``MAX_ROUND_SCORES`` scores."""
    if beam_size < 1:
        raise ConfigError(f"beam size must be >= 1, got {beam_size}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if vocab_size is None:
        return
    scores = largest_round(beam_size, max_len, vocab_size)
    if scores > MAX_ROUND_SCORES:
        raise ConfigError(f"beam size {beam_size} with max_len {max_len} over {vocab_size} "
                          f"tokens scores {scores} candidates in one round; at most "
                          f"{MAX_ROUND_SCORES} fit")


def beam_search(model: ReviewerModel, inputs: np.ndarray, beam_size: int = 20,
                max_len: int = MAX_CAPTION_LEN) -> list[Hypothesis]:
    """Length-synchronous beam search over raw summed log probabilities.

    Each round scores every live hypothesis over the full vocabulary as one
    [live, V] matrix, keeps the ``beam_size`` best continuations, and retires
    finished ones (END emitted, or length cap reached) into the result pool.
    Continuations with equal log probability rank by their token ids,
    lexicographically. The pool comes back sorted by log probability, ties
    broken by shorter length then by lexicographic token ids. Sizes that
    ``check_beam`` rejects raise ``ConfigError`` before any decoding.
    """
    check_beam(beam_size, max_len, model.config.vocab_size)
    decoder = model.decoder(inputs)
    state = decoder.initial_state
    log_prob = np.zeros(1)
    tokens = np.zeros((1, 0), dtype=np.int64)
    # rank of each live hypothesis's tokens among the live set: all live
    # hypotheses have the same length, so a continuation's token tuple orders
    # as (its parent's rank, its token id)
    rank = np.zeros(1, dtype=np.int64)
    pool: list[Hypothesis] = []
    for length in range(1, max_len + 1):
        step = decoder.log_probs(state)
        step += log_prob[:, None]  # in place: the same sums, one [k, V] array fewer
        scores = step.ravel()
        if scores.size <= beam_size:
            kept = np.arange(scores.size)
        else:
            candidates = scores
            if len(step) >= beam_size:
                # each row's best is a distinct candidate, so the beam_size-th
                # best of them is a floor under the bound. Keeping the
                # candidates not below it (NaNs too, which np.partition ranks
                # above every number) leaves the bound as it is over all scores
                row_best = step.max(axis=1)
                floor = np.partition(row_best, len(step) - beam_size)[len(step) - beam_size]
                candidates = scores[~(scores < floor)]
            # every candidate at least as good as the beam_size-th best, ties included
            bound = np.partition(candidates, candidates.size - beam_size)[
                candidates.size - beam_size]
            kept = np.flatnonzero(scores >= bound)
        parents, toks = np.divmod(kept, decoder.vocab_size)
        log_prob = scores[kept]
        best = np.lexsort((toks, rank[parents], -log_prob))[:beam_size]
        parents, toks, log_prob = parents[best], toks[best], log_prob[best]
        tokens = np.concatenate([tokens[parents], toks[:, None]], axis=1)
        if length == max_len:  # the length cap retires every kept continuation
            _retire(pool, tokens, log_prob)
            break
        done = toks == END_ID
        if done.any():
            _retire(pool, tokens[done], log_prob[done])
            live = ~done
            if not live.any():
                break
            parents, toks = parents[live], toks[live]
            log_prob, tokens = log_prob[live], tokens[live]
        # the inverse of the live set's lexicographic order
        rank = np.lexsort((toks, rank[parents])).argsort()
        state = decoder.advance(state, parents, toks)
    pool.sort(key=lambda h: (-h.log_prob, len(h.tokens), h.tokens))
    return pool


def _retire(pool: list[Hypothesis], tokens: np.ndarray, log_prob: np.ndarray) -> None:
    pool.extend(Hypothesis(tuple(row), score, True)
                for row, score in zip(tokens.tolist(), log_prob.tolist()))


def greedy_decode(model: ReviewerModel, inputs: np.ndarray,
                  max_len: int = MAX_CAPTION_LEN) -> list[int]:
    """Argmax decoding, ties to the lowest token id; stops after emitting END
    or at the length cap. It is beam search with a beam of one."""
    return list(beam_search(model, inputs, 1, max_len)[0].tokens)


def score_caption(model: ReviewerModel, inputs: np.ndarray, tokens: list[int]) -> float:
    """Exact summed log probability of emitting ``tokens`` as given.

    Non-integer token ids raise ``ContractError``, ids outside the vocabulary
    ``IndexError``.
    """
    if len(tokens) == 0:
        raise ContractError("cannot score an empty caption")
    decoder = model.decoder(inputs)
    ids = _int_indices(tokens, decoder.vocab_size, "token id")
    if ids.ndim != 1:
        raise ShapeError(f"a caption is one sequence of token ids, got shape {ids.shape}")
    state = decoder.initial_state
    total = 0.0
    for tok in ids.tolist():
        total += float(decoder.log_probs(state)[0, tok])
        state = decoder.advance(state, [0], [tok])
    return total


def strip_end(tokens: list[int]) -> list[int]:
    """Drop a terminating END id, if present."""
    return list(tokens[:-1]) if tokens and tokens[-1] == END_ID else list(tokens)
