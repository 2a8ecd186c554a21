"""Per-operation correctness checks, run outside the timed regions.

Operations are training steps, decoded images and scored corpora. Each is
counted as attempted, and as failed when its check does not hold.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from reviewnet import oracles
from reviewnet.dataset import END_ID, START_ID
from reviewnet.inference import strip_end
from reviewnet.metrics import meteor_lite

DECODE_TOL = 1e-9
METRIC_TOL = 1e-10
# meteor_oracle enumerates every maximum alignment; pairs with more than this
# many are skipped (and counted as not checked)
METEOR_ORACLE_MAX_ALIGNMENTS = 5000


class Ledger:
    def __init__(self):
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.messages: list[str] = []
        self.meteor_checked = 0
        self.meteor_pairs = 0

    def record(self, kind: str, failure: str | None, count: int = 1) -> None:
        self.attempted[kind] += count
        if failure is not None:
            self.failed[kind] += 1
            if len(self.messages) < 20:
                self.messages.append(f"{kind}: {failure}")


def check_training(ledger: Ledger, job, result, error: Exception | None) -> None:
    """All steps of one train() call: none may raise, and parameters must move."""
    steps = job.steps_per_epoch * job.config.epochs
    failure = None
    if error is not None:
        failure = f"{job.variant.value}: {type(error).__name__}: {error}"
    elif not all(math.isfinite(row.train_loss) for row in result.log):
        failure = f"{job.variant.value}: non-finite train loss"
    elif all(np.array_equal(p.data, job.init_state[name]) for name, p in job.model.params.items()):
        failure = f"{job.variant.value}: no parameter changed"
    ledger.record("train_step", failure, count=steps)


def _naive_decoder(model) -> oracles.NaiveDecoder:
    """The decoder rebuilt from the checkpoint parameter names, not from Decoder."""
    p = {name: t.data for name, t in model.params.items()}
    layers = []
    while f"lstm{len(layers)}.w_input" in p:
        k = len(layers)
        layers.append((p[f"lstm{k}.w_input"], p[f"lstm{k}.w_hidden"], p[f"lstm{k}.bias"]))
    return oracles.NaiveDecoder(layers, p["embedding.table"], p["out_proj.weight"],
                                p["out_proj.bias"])


def _image_input(model, inputs: np.ndarray) -> np.ndarray:
    _, rep_gen = model.representation(model.image_representation(inputs))
    x = rep_gen.data
    if "gen_adapter.weight" in model.params:
        x = model.params["gen_adapter.weight"].data @ x + model.params["gen_adapter.bias"].data
    return x


def rescore(model, inputs: np.ndarray, tokens) -> float:
    decoder = _naive_decoder(model)
    state = decoder.advance(decoder.initial_state(), _image_input(model, inputs))
    state = decoder.advance(state, decoder.embedding[START_ID])
    total = 0.0
    for k, tok in enumerate(tokens):
        total += float(decoder.log_probs(state)[tok])
        if k + 1 < len(tokens):
            state = decoder.advance(state, decoder.embedding[tok])
    return total


def _pool_failure(pool, max_len: int) -> str | None:
    if not pool:
        return "empty pool"
    keys = [(-h.log_prob, len(h.tokens), tuple(h.tokens)) for h in pool]
    if keys != sorted(keys):
        return "pool not sorted by (log_prob desc, length, tokens)"
    for h in pool:
        tokens = list(h.tokens)
        if not h.finished or not 1 <= len(tokens) <= max_len:
            return f"bad hypothesis {tokens}"
        if END_ID in tokens[:-1] or (tokens[-1] != END_ID and len(tokens) != max_len):
            return f"END misplaced in {tokens}"
    return None


def check_decodes(ledger: Ledger, job, captured, generations, max_len: int) -> None:
    """Each decoded image: pool order, and the top log-prob against an exact rescoring."""
    vocab = job.data.vocab
    if len(captured) != len(generations):
        ledger.record("decoded_image", f"{len(captured)} pools for {len(generations)} captions")
        return
    for (inputs, pool), (ex_id, words) in zip(captured, generations):
        failure = _pool_failure(pool, max_len)
        if failure is None:
            top = pool[0]
            expected = rescore(job.model, inputs, list(top.tokens))
            if abs(expected - top.log_prob) > DECODE_TOL:
                failure = f"{ex_id}: top log_prob {top.log_prob!r} != rescored {expected!r}"
            elif vocab.decode(strip_end(list(top.tokens))) != list(words):
                failure = f"{ex_id}: caption does not match the top hypothesis"
        ledger.record("decoded_image", failure)


def alignment_count(cand, ref) -> int:
    """Number of maximum exact unigram alignments meteor_oracle enumerates."""
    cand_counts, ref_counts = Counter(cand), Counter(ref)
    total = 1
    for word, a in cand_counts.items():
        b = ref_counts.get(word, 0)
        k = min(a, b)
        total *= math.comb(a, k) * math.perm(b, k)
    return total


def check_corpus(ledger: Ledger, corpora, outcome, labels: list[int]) -> None:
    """One evaluate call's scores against the oracles: score_corpus (METEOR-lite
    against the oracle on the pairs where enumeration is tractable) and the
    classification accuracy."""
    failures = []

    def compare(name, got, want):
        if got is None or abs(got - want) > METRIC_TOL:
            failures.append(f"{name} {got!r} != oracle {want!r}")

    for pairs, scores in corpora:
        for n in range(1, 5):
            compare(f"bleu_{n}", scores[f"bleu_{n}"], oracles.bleu_oracle(pairs, n))
        compare("rouge_l", scores["rouge_l"], oracles.rouge_l_oracle(pairs))
        if len(pairs) >= 2:
            compare("cider", scores["cider"], oracles.cider_oracle(pairs))
        # the corpus score is the mean over pairs: the oracle's value where it can
        # enumerate the alignments, meteor_lite's own elsewhere
        per_pair = []
        for pair in pairs:
            ledger.meteor_pairs += 1
            if all(alignment_count(pair.candidate, ref) <= METEOR_ORACLE_MAX_ALIGNMENTS
                   for ref in pair.references):
                ledger.meteor_checked += 1
                per_pair.append(oracles.meteor_oracle([pair]))
            else:
                per_pair.append(meteor_lite([pair]))
        compare("meteor_lite", scores["meteor_lite"], sum(per_pair) / len(per_pair))
    predictions = [label for _, label, _ in outcome.predictions]
    if predictions:
        compare("accuracy", outcome.report.overall_accuracy,
                oracles.accuracy_oracle(predictions, labels))
    ledger.record("corpus", "; ".join(failures) if failures else None)
