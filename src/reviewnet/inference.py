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


def beam_search(model: ReviewerModel, inputs: np.ndarray, beam_size: int = 20,
                max_len: int = MAX_CAPTION_LEN) -> list[Hypothesis]:
    """Length-synchronous beam search over raw summed log probabilities.

    Each round scores every live hypothesis over the full vocabulary as one
    [live, V] matrix, keeps the ``beam_size`` best continuations, and retires
    finished ones (END emitted, or length cap reached) into the result pool.
    Continuations with equal log probability rank by their token ids,
    lexicographically. The pool comes back sorted by log probability, ties
    broken by shorter length then by lexicographic token ids.
    """
    if beam_size < 1:
        raise ConfigError(f"beam size must be >= 1, got {beam_size}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
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
        best = np.lexsort((toks, rank[parents], -scores[kept]))[:beam_size]
        kept, parents, toks = kept[best], parents[best], toks[best]
        tokens = np.concatenate([tokens[parents], toks[:, None]], axis=1)
        done = (toks == END_ID) | (length == max_len)
        pool.extend(Hypothesis(tuple(row), score, True)
                    for row, score in zip(tokens[done].tolist(), scores[kept[done]].tolist()))
        live = ~done
        if not live.any():
            break
        parents, toks = parents[live], toks[live]
        log_prob, tokens = scores[kept[live]], tokens[live]
        order = np.lexsort((toks, rank[parents]))
        rank = np.empty(len(toks), dtype=np.int64)
        rank[order] = np.arange(len(toks))
        state = decoder.advance(state, parents, toks)
    pool.sort(key=lambda h: (-h.log_prob, len(h.tokens), h.tokens))
    return pool


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
