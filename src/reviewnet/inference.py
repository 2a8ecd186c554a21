"""Decoding: beam search, greedy generation, class prediction, caption scoring.

Everything here is a pure function of the trained parameters and the input,
with no sampling anywhere, so runs are deterministic and safe to parallelize
across images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import END_ID, MAX_CAPTION_LEN, Label
from .errors import ConfigError, ContractError
from .model import ReviewerModel


@dataclass(frozen=True)
class Hypothesis:
    """A (partial) caption: emitted token ids, their exact summed log
    probability, the decoder state after the last token, and whether the
    sequence ended with END or hit the length cap."""

    tokens: tuple[int, ...]
    log_prob: float
    state: tuple | None
    finished: bool


def predict_class(model: ReviewerModel, inputs: np.ndarray) -> tuple[Label, float]:
    """Argmax of the 2-way softmax; an exact tie resolves to Low."""
    if not model.variant.has_classifier:
        raise ContractError(f"variant {model.variant.value} has no classifier head")
    v = model.image_representation(inputs)
    rep_cls, _ = model.representation(v)
    logits = model.class_logits(rep_cls).data
    z = logits - logits.max()
    probs = np.exp(z) / np.exp(z).sum()
    pred = int(np.argmax(logits))  # argmax returns the first max, i.e. Low on ties
    return Label(pred), float(probs[pred])


def beam_search(model: ReviewerModel, inputs: np.ndarray, beam_size: int = 20,
                max_len: int = MAX_CAPTION_LEN) -> list[Hypothesis]:
    """Length-synchronous beam search over raw summed log probabilities.

    Each round expands every live hypothesis over the full vocabulary, keeps
    the ``beam_size`` best continuations, and retires finished ones (END
    emitted, or length cap reached) into the result pool. The pool comes back
    sorted by log probability, ties broken by shorter length then by
    lexicographic token ids.
    """
    if beam_size < 1:
        raise ConfigError(f"beam size must be >= 1, got {beam_size}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    decoder = model.decoder(inputs)
    vocab = decoder.vocab_size
    live: list[Hypothesis] = [Hypothesis((), 0.0, decoder.initial_state, False)]
    pool: list[Hypothesis] = []
    for _ in range(max_len):
        if not live:
            break
        candidates: list[tuple[float, tuple[int, ...], tuple]] = []
        for hyp in live:
            step = decoder.log_probs(hyp.state)
            for tok in range(vocab):
                candidates.append((hyp.log_prob + float(step[tok]), hyp.tokens + (tok,), hyp.state))
        candidates.sort(key=lambda item: (-item[0], item[1]))
        live = []
        for log_prob, tokens, state in candidates[:beam_size]:
            if tokens[-1] == END_ID or len(tokens) == max_len:
                pool.append(Hypothesis(tokens, log_prob, None, True))
            else:
                live.append(Hypothesis(tokens, log_prob, decoder.advance(state, tokens[-1]), False))
    pool.sort(key=lambda h: (-h.log_prob, len(h.tokens), h.tokens))
    return pool


def greedy_decode(model: ReviewerModel, inputs: np.ndarray,
                  max_len: int = MAX_CAPTION_LEN) -> list[int]:
    """Argmax decoding; stops after emitting END or at the length cap."""
    decoder = model.decoder(inputs)
    state = decoder.initial_state
    tokens: list[int] = []
    for _ in range(max_len):
        tok = int(np.argmax(decoder.log_probs(state)))
        tokens.append(tok)
        if tok == END_ID:
            break
        state = decoder.advance(state, tok)
    return tokens


def score_caption(model: ReviewerModel, inputs: np.ndarray, tokens: list[int]) -> float:
    """Exact summed log probability of emitting ``tokens`` as given."""
    if not tokens:
        raise ContractError("cannot score an empty caption")
    decoder = model.decoder(inputs)
    state = decoder.initial_state
    total = 0.0
    for tok in tokens:
        total += float(decoder.log_probs(state)[int(tok)])
        state = decoder.advance(state, tok)
    return total


def strip_end(tokens: list[int]) -> list[int]:
    """Drop a terminating END id, if present."""
    return list(tokens[:-1]) if tokens and tokens[-1] == END_ID else list(tokens)
