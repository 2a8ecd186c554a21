"""Corpus-level evaluation: overall accuracy plus the caption metric suite.

Conventions pinned here (and relied on by the oracle equivalence tests):

- BLEU is corpus-level: clipped n-gram matches and candidate n-gram totals are
  summed over the corpus before taking precisions; the geometric mean runs
  over orders 1..n; the brevity penalty uses the closest reference length per
  pair (ties prefer the shorter reference) and only penalizes short candidates.
- ROUGE-L is the LCS-based F-score with beta = 1.2 against the best reference,
  averaged over pairs.
- CIDEr uses tf-idf weighted cosine similarity per n-gram order 1..4 with raw
  term counts and idf(g) = log(n_images / (1 + doc_freq(g))), averaged over
  orders and references, scaled by 10.
- meteor_lite is an exact-match METEOR variant (no stemming or synonyms):
  unigram alignment maximizing matches then minimizing chunks, F_mean =
  10PR/(R+9P), penalty = 0.5 (chunks/matches)^3, best reference per pair,
  averaged over pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .errors import ConfigError, ContractError

ROUGE_BETA = 1.2
CIDER_MAX_ORDER = 4
_CHUNK_SEARCH_BUDGET = 200_000


@dataclass(frozen=True)
class EvalPair:
    """One decoded caption against its reference comments.

    A pair counts its n-grams of an order, and its clipped BLEU counts, once
    on first use and keeps them, so every metric of one corpus reads the same
    counts.
    """

    candidate: tuple
    references: tuple
    _ngram_counts: dict = field(init=False, repr=False, compare=False)
    _bleu_counts: dict = field(init=False, repr=False, compare=False)

    def __init__(self, candidate: Sequence, references: Sequence[Sequence]):
        refs = tuple(tuple(r) for r in references)
        if not refs:
            raise ContractError("an evaluation pair needs at least one reference")
        object.__setattr__(self, "candidate", tuple(candidate))
        object.__setattr__(self, "references", refs)
        object.__setattr__(self, "_ngram_counts", {})
        object.__setattr__(self, "_bleu_counts", {})

    def ngram_counts(self, order: int) -> tuple[Counter, tuple[Counter, ...]]:
        """The n-gram counts of the candidate and of each reference."""
        counts = self._ngram_counts.get(order)
        if counts is None:
            counts = (_ngrams(self.candidate, order),
                      tuple(_ngrams(ref, order) for ref in self.references))
            self._ngram_counts[order] = counts
        return counts

    def bleu_counts(self, order: int) -> tuple[int, int]:
        """(clipped matches, candidate n-grams) of one order: each candidate
        n-gram counts at most as often as it occurs in any one reference."""
        counts = self._bleu_counts.get(order)
        if counts is None:
            cand, refs = self.ngram_counts(order)
            clipped = sum(min(c, max(ref[g] for ref in refs)) for g, c in cand.items())
            counts = self._bleu_counts[order] = (clipped, sum(cand.values()))
        return counts


def overall_accuracy(predictions: Sequence[int], labels: Sequence[int]) -> float:
    """(TP + TN) / (P + N) over binary predictions."""
    if len(predictions) != len(labels):
        raise ContractError(f"got {len(predictions)} predictions for {len(labels)} labels")
    if not labels:
        raise ContractError("overall accuracy of an empty corpus is undefined")
    return sum(int(p) == int(y) for p, y in zip(predictions, labels)) / len(labels)


def _ngrams(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_len(cand_len: int, references: Sequence[Sequence]) -> int:
    return min((len(r) for r in references),
               key=lambda rl: (abs(rl - cand_len), rl))


def bleu_precisions(pairs: Sequence[EvalPair], n: int) -> tuple[list[float], int, int]:
    """Corpus clipped precisions for orders 1..n plus total candidate/reference lengths."""
    clipped = [0] * n
    totals = [0] * n
    cand_len = 0
    ref_len = 0
    for pair in pairs:
        cand_len += len(pair.candidate)
        ref_len += _closest_ref_len(len(pair.candidate), pair.references)
        for order in range(1, n + 1):
            matched, total = pair.bleu_counts(order)
            clipped[order - 1] += matched
            totals[order - 1] += total
    precisions = [clipped[k] / totals[k] if totals[k] else 0.0 for k in range(n)]
    return precisions, cand_len, ref_len


def bleu(pairs: Sequence[EvalPair], n: int) -> float:
    if not 1 <= n <= 4:
        raise ConfigError(f"bleu order must be in 1..4, got {n}")
    precisions, cand_len, ref_len = bleu_precisions(pairs, n)
    if any(p == 0.0 for p in precisions) or cand_len == 0:
        return 0.0
    geo = math.exp(sum(math.log(p) for p in precisions) / n)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * geo


def _lcs_length(a: Sequence, b: Sequence) -> int:
    """Length of a longest common subsequence, one Python-int row update per
    token of ``b`` (bit-parallel LCS, Allison & Dix 1986, in Hyyrö's form):
    bit i of ``row`` is clear where the LCS table's row steps up at a[i].
    Tokens match when they are equal as dict keys."""
    if not a or not b:
        return 0
    matches: dict = {}
    for i, x in enumerate(a):
        matches[x] = matches.get(x, 0) | (1 << i)
    row = full = (1 << len(a)) - 1
    for y in b:
        u = row & matches.get(y, 0)
        row = (row + u) | (row - u)  # carries past bit len(a) - 1 are masked below
    return len(a) - (row & full).bit_count()


def rouge_l(pairs: Sequence[EvalPair]) -> float:
    """Mean over pairs of the best-reference LCS F-score."""
    if not pairs:
        raise ContractError("rouge_l of an empty corpus is undefined")
    beta2 = ROUGE_BETA * ROUGE_BETA
    total = 0.0
    for pair in pairs:
        best = 0.0
        for ref in pair.references:
            lcs = _lcs_length(pair.candidate, ref)
            if lcs == 0:
                continue
            precision = lcs / len(pair.candidate)
            recall = lcs / len(ref)
            best = max(best, (1 + beta2) * precision * recall / (recall + beta2 * precision))
        total += best
    return total / len(pairs)


def cider(pairs: Sequence[EvalPair]) -> float:
    """tf-idf cosine similarity averaged over orders and references, times 10."""
    if len(pairs) < 2:
        raise ConfigError("cider needs a corpus of at least two images for a meaningful idf")
    n_images = len(pairs)
    idf_default = math.log(float(n_images))  # unseen n-grams have doc_freq 0
    idf: list[dict[tuple, float]] = []
    for order in range(1, CIDER_MAX_ORDER + 1):
        doc_freq: Counter = Counter()
        for pair in pairs:
            grams: set = set()
            for ref_counts in pair.ngram_counts(order)[1]:
                grams.update(ref_counts)
            doc_freq.update(grams)
        idf.append({g: math.log(n_images / (1.0 + df)) for g, df in doc_freq.items()})

    def vector(counts: Counter, order: int) -> dict[tuple, float]:
        weights = idf[order - 1]
        return {g: c * weights.get(g, idf_default) for g, c in counts.items()}

    def cosine(u: dict, v: dict) -> float:
        norm_u = math.sqrt(sum(x * x for x in u.values()))
        norm_v = math.sqrt(sum(x * x for x in v.values()))
        if norm_u == 0.0 or norm_v == 0.0:
            return 0.0
        return sum(x * v.get(g, 0.0) for g, x in u.items()) / (norm_u * norm_v)

    score = 0.0
    for pair in pairs:
        for order in range(1, CIDER_MAX_ORDER + 1):
            cand_counts, ref_counts = pair.ngram_counts(order)
            cand_vec = vector(cand_counts, order)
            sims = [cosine(cand_vec, vector(counts, order)) for counts in ref_counts]
            score += sum(sims) / len(sims) / CIDER_MAX_ORDER
    return 10.0 * score / n_images


def _alignment_stats(cand: Sequence, ref: Sequence) -> tuple[int, int]:
    """(matches, chunks) for a maximum exact unigram alignment with fewest chunks.

    Chunk minimization over all maximum alignments is a combinatorial search
    (it subsumes minimum common string partition), so this runs an exact
    branch-and-bound with memoization; at desk-scale caption lengths the
    search completes, and a node budget keeps adversarial inputs bounded by
    falling back to the best alignment found.
    """
    cand_counts = Counter(cand)
    ref_counts = Counter(ref)
    matches = sum(min(c, ref_counts[w]) for w, c in cand_counts.items())
    if matches == 0:
        return 0, 0
    ref_positions: dict = {}
    for j, w in enumerate(ref):
        ref_positions.setdefault(w, []).append(j)
    # how many occurrences of each word remain at or after each candidate index
    suffix: list[Counter] = [Counter() for _ in range(len(cand) + 1)]
    for i in range(len(cand) - 1, -1, -1):
        suffix[i] = suffix[i + 1].copy()
        suffix[i][cand[i]] += 1
    need = {w: min(c, ref_counts[w]) for w, c in cand_counts.items()}

    best = [matches]  # upper bound: every matched token its own chunk
    nodes = [0]
    seen: dict = {}

    def search(i: int, used: int, prev_j: int, chunks: int, need_left: dict) -> None:
        if chunks >= best[0]:
            return
        nodes[0] += 1
        if nodes[0] > _CHUNK_SEARCH_BUDGET:
            return
        if i == len(cand):
            if all(v == 0 for v in need_left.values()):
                best[0] = chunks
            return
        key = (i, used, prev_j)
        prior = seen.get(key)
        if prior is not None and prior <= chunks:
            return
        seen[key] = chunks
        word = cand[i]
        remaining = need_left.get(word, 0)
        if remaining:
            for j in ref_positions[word]:
                if used & (1 << j):
                    continue
                extends = (prev_j == j - 1)
                need_left[word] -= 1
                search(i + 1, used | (1 << j), j, chunks + (0 if extends else 1), need_left)
                need_left[word] += 1
        # skipping is allowed only when later occurrences can still cover the need
        if suffix[i + 1][word] >= remaining:
            search(i + 1, used, -2, chunks, need_left)

    search(0, 0, -2, 0, dict(need))
    return matches, best[0]


def meteor_lite(pairs: Sequence[EvalPair]) -> float:
    if not pairs:
        raise ContractError("meteor_lite of an empty corpus is undefined")
    total = 0.0
    for pair in pairs:
        best = 0.0
        for ref in pair.references:
            m, chunks = _alignment_stats(pair.candidate, ref)
            if m == 0:
                continue
            precision = m / len(pair.candidate)
            recall = m / len(ref)
            f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
            penalty = 0.5 * (chunks / m) ** 3
            best = max(best, f_mean * (1.0 - penalty))
        total += best
    return total / len(pairs)


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class MetricReport:
    """Scores for one evaluated model; fields are None when a head is absent."""

    overall_accuracy: float | None = None
    bleu_1: float | None = None
    bleu_2: float | None = None
    bleu_3: float | None = None
    bleu_4: float | None = None
    rouge_l: float | None = None
    cider: float | None = None
    meteor_lite: float | None = None

    def to_json_dict(self) -> dict:
        return {"schema": 1, **asdict(self)}


_TABLE_COLUMNS = [
    ("accuracy", "overall_accuracy"),
    ("bleu-1", "bleu_1"),
    ("bleu-2", "bleu_2"),
    ("bleu-3", "bleu_3"),
    ("bleu-4", "bleu_4"),
    ("meteor-lite", "meteor_lite"),
    ("rouge-l", "rouge_l"),
    ("cider", "cider"),
]


def report_table(rows: Sequence[tuple[str, MetricReport]]) -> str:
    """Aligned plain-text table, one row per model."""
    header = ["model"] + [name for name, _ in _TABLE_COLUMNS]
    body = []
    for model_name, report in rows:
        cells = [model_name]
        for _, attr in _TABLE_COLUMNS:
            value = getattr(report, attr)
            cells.append("-" if value is None else f"{value:.4f}")
        body.append(cells)
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(cell.rjust(w) if i else cell.ljust(w)
                               for i, (cell, w) in enumerate(zip(row, widths))))
    return "\n".join(lines)


def score_corpus(pairs: Sequence[EvalPair]) -> dict[str, float]:
    """All caption metrics for a decoded corpus."""
    return {
        "bleu_1": bleu(pairs, 1),
        "bleu_2": bleu(pairs, 2),
        "bleu_3": bleu(pairs, 3),
        "bleu_4": bleu(pairs, 4),
        "rouge_l": rouge_l(pairs),
        "cider": cider(pairs) if len(pairs) >= 2 else None,
        "meteor_lite": meteor_lite(pairs),
    }
