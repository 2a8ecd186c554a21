"""Brute-force reference implementations used only by tests and self-checks.

Everything here is written straight from definitions: nested loops,
exhaustive enumeration, central finite differences, direct formulas. The
point is independence, so nothing in this module imports the package's
numeric path; numpy is used for array storage and elementwise math only.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError

# hard limits keep exhaustive enumeration under a second
ENUM_MAX_VOCAB = 8
ENUM_MAX_LEN = 4


# ---------------------------------------------------------------------------
# linear algebra and gradients


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_conv2d(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    c, h, w = x.shape
    f, _, kh, kw = kernels.shape
    hp = h - kh + 1
    wp = w - kw + 1
    out = np.zeros((f, hp, wp))
    for fi in range(f):
        for i in range(hp):
            for j in range(wp):
                acc = 0.0
                for ci in range(c):
                    for u in range(kh):
                        for v in range(kw):
                            acc += x[ci, i + u, j + v] * kernels[fi, ci, u, v]
                out[fi, i, j] = acc
    return out


def log_sum_exp(values: np.ndarray) -> float:
    m = max(float(v) for v in values)
    return m + math.log(sum(math.exp(float(v) - m) for v in values))


def cross_entropy_direct(logits: np.ndarray, target: int) -> float:
    return log_sum_exp(logits) - float(logits[target])


def finite_diff_slopes_at(f: Callable[[], float], arr: np.ndarray, index: tuple,
                          f0: float, step: float = 1e-5) -> tuple[float, float, float]:
    """(central, backward, forward) difference quotients for one coordinate.

    For piecewise-smooth losses (relu corners, pooling argmax flips), a kink
    inside the probe interval corrupts the central quotient, but the analytic
    derivative at the evaluation point still equals one of the one-sided
    quotients; a checker should accept a match against any of the three.
    """
    old = arr[index]
    arr[index] = old + step
    fp = f()
    arr[index] = old - step
    fm = f()
    arr[index] = old
    if not (math.isfinite(fp) and math.isfinite(fm)):
        raise NumericError(f"non-finite value while differencing at index {index}")
    return (fp - fm) / (2.0 * step), (f0 - fm) / step, (fp - f0) / step


def finite_diff_slopes(f: Callable[[], float], arr: np.ndarray, step: float = 1e-5
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(central, backward, forward) quotient arrays over every coordinate."""
    f0 = f()
    central = np.zeros_like(arr)
    backward_q = np.zeros_like(arr)
    forward_q = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        central[ix], backward_q[ix], forward_q[ix] = finite_diff_slopes_at(f, arr, ix, f0, step)
    return central, backward_q, forward_q


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """max |a - n| / max(|a|, |n|, floor); the floor keeps tiny gradients honest."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def subgradient_rel_error(analytic: np.ndarray, central: np.ndarray,
                          backward_q: np.ndarray, forward_q: np.ndarray,
                          floor: float = 1e-4) -> float:
    """Worst per-coordinate relative error against the nearest difference quotient.

    Matching the central quotient or either one-sided quotient counts: at a
    smooth point the three agree, while at a kink the analytic derivative
    legitimately equals exactly one side.
    """
    a = np.asarray(analytic, dtype=np.float64)
    best = None
    for numeric in (central, backward_q, forward_q):
        n = np.asarray(numeric, dtype=np.float64)
        err = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        best = err if best is None else np.minimum(best, err)
    return float(best.max()) if a.size else 0.0


# ---------------------------------------------------------------------------
# recurrent decode, written from the gate equations


def lstm_step_direct(w_input: np.ndarray, w_hidden: np.ndarray, bias: np.ndarray,
                     h: np.ndarray, c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hd = h.shape[0]
    gates = w_input @ x + w_hidden @ h + bias

    def sig(z):
        return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                        np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))

    i = sig(gates[0:hd])
    f = sig(gates[hd:2 * hd])
    g = np.tanh(gates[2 * hd:3 * hd])
    o = sig(gates[3 * hd:4 * hd])
    c_next = f * c + i * g
    h_next = o * np.tanh(c_next)
    return h_next, c_next


class NaiveDecoder:
    """Step-by-step caption scorer over raw parameter arrays.

    ``layers`` is a list of (w_input, w_hidden, bias) triples, one per stacked
    cell; ``embedding`` maps token ids to input vectors; the output projection
    turns the top hidden state into next-token logits.
    """

    def __init__(self, layers, embedding: np.ndarray, out_weight: np.ndarray,
                 out_bias: np.ndarray):
        self.layers = [(np.asarray(a), np.asarray(b), np.asarray(c)) for a, b, c in layers]
        self.embedding = np.asarray(embedding)
        self.out_weight = np.asarray(out_weight)
        self.out_bias = np.asarray(out_bias)

    def initial_state(self):
        return tuple((np.zeros(b.shape[0] // 4), np.zeros(b.shape[0] // 4))
                     for _, _, b in self.layers)

    def advance(self, state, x: np.ndarray):
        new = []
        for (wi, wh, b), (h, c) in zip(self.layers, state):
            h, c = lstm_step_direct(wi, wh, b, h, c, x)
            new.append((h, c))
            x = h
        return tuple(new)

    def log_probs(self, state) -> np.ndarray:
        logits = self.out_weight @ state[-1][0] + self.out_bias
        return logits - log_sum_exp(logits)


def enumerate_sequences(decoder: NaiveDecoder, image_input: np.ndarray, start_id: int,
                        end_id: int, vocab_size: int, max_len: int):
    """All token sequences up to ``max_len`` with exact log probabilities.

    A sequence is finished by emitting the end token or by reaching
    ``max_len``. Returns (tokens, log_prob) pairs covering the whole event
    space, so the probabilities sum to one.
    """
    if vocab_size > ENUM_MAX_VOCAB or max_len > ENUM_MAX_LEN:
        raise ContractError(
            f"enumeration bounded to vocab <= {ENUM_MAX_VOCAB} and length <= {ENUM_MAX_LEN}")
    state = decoder.advance(decoder.initial_state(), image_input)
    state = decoder.advance(state, decoder.embedding[start_id])
    results: list[tuple[tuple[int, ...], float]] = []

    def walk(state, tokens: tuple[int, ...], log_prob: float) -> None:
        lp = decoder.log_probs(state)
        for tok in range(vocab_size):
            seq = tokens + (tok,)
            total = log_prob + float(lp[tok])
            if tok == end_id or len(seq) == max_len:
                results.append((seq, total))
            else:
                walk(decoder.advance(state, decoder.embedding[tok]), seq, total)

    walk(state, (), 0.0)
    return results


# ---------------------------------------------------------------------------
# caption metrics, each from the published formula


def accuracy_oracle(predictions: Sequence[int], labels: Sequence[int]) -> float:
    correct = 0
    total = 0
    for p, y in zip(predictions, labels):
        total += 1
        if p == y:
            correct += 1
    return correct / total


def _ngram_list(tokens: Sequence, n: int) -> list[tuple]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def bleu_oracle(pairs, n: int) -> float:
    clipped = [0] * n
    total = [0] * n
    cand_len = 0
    ref_len = 0
    for pair in pairs:
        cand = list(pair.candidate)
        refs = [list(r) for r in pair.references]
        cand_len += len(cand)
        best = None
        for r in refs:
            key = (abs(len(r) - len(cand)), len(r))
            if best is None or key < best[0]:
                best = (key, len(r))
        ref_len += best[1]
        for order in range(1, n + 1):
            grams = _ngram_list(cand, order)
            total[order - 1] += len(grams)
            seen: dict[tuple, int] = {}
            for g in grams:
                seen[g] = seen.get(g, 0) + 1
            for g, count in seen.items():
                limit = 0
                for r in refs:
                    limit = max(limit, _ngram_list(r, order).count(g))
                clipped[order - 1] += min(count, limit)
    logs = []
    for k in range(n):
        if total[k] == 0 or clipped[k] == 0:
            return 0.0
        logs.append(math.log(clipped[k] / total[k]))
    geo = math.exp(sum(logs) / n)
    if cand_len == 0:
        return 0.0
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * geo


def _lcs_table(a: Sequence, b: Sequence) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_l_oracle(pairs, beta: float = 1.2) -> float:
    scores = []
    for pair in pairs:
        cand = list(pair.candidate)
        best = 0.0
        for ref in pair.references:
            ref = list(ref)
            lcs = _lcs_table(cand, ref)
            if lcs == 0 or not cand or not ref:
                continue
            p = lcs / len(cand)
            r = lcs / len(ref)
            f = (1 + beta * beta) * p * r / (r + beta * beta * p)
            best = max(best, f)
        scores.append(best)
    return sum(scores) / len(scores)


def cider_oracle(pairs, max_order: int = 4) -> float:
    n_images = len(pairs)
    idf: list[dict[tuple, float]] = []
    for order in range(1, max_order + 1):
        doc_freq: dict[tuple, int] = {}
        for pair in pairs:
            grams = set()
            for ref in pair.references:
                grams.update(_ngram_list(list(ref), order))
            for g in grams:
                doc_freq[g] = doc_freq.get(g, 0) + 1
        idf.append({g: math.log(n_images / (1.0 + df)) for g, df in doc_freq.items()})

    def weighted(tokens, order):
        vec: dict[tuple, float] = {}
        for g in _ngram_list(list(tokens), order):
            vec[g] = vec.get(g, 0.0) + idf[order - 1].get(g, math.log(float(n_images)))
        return vec

    def cosine(u, v):
        dot = sum(val * v.get(g, 0.0) for g, val in u.items())
        nu = math.sqrt(sum(val * val for val in u.values()))
        nv = math.sqrt(sum(val * val for val in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return dot / (nu * nv)

    total = 0.0
    for pair in pairs:
        per_order = []
        for order in range(1, max_order + 1):
            cvec = weighted(pair.candidate, order)
            sims = [cosine(cvec, weighted(ref, order)) for ref in pair.references]
            per_order.append(sum(sims) / len(sims))
        total += sum(per_order) / max_order
    return 10.0 * total / n_images


def _all_alignment_chunks(cand: list, ref: list) -> tuple[int, int]:
    """(matches, minimum chunks) by enumerating every maximum exact alignment."""
    cand_counts = Counter(cand)
    ref_counts = Counter(ref)
    matches = sum(min(cand_counts[w], ref_counts[w]) for w in cand_counts)
    if matches == 0:
        return 0, 0
    positions: dict = {}
    for j, w in enumerate(ref):
        positions.setdefault(w, []).append(j)
    best = [matches]  # worst case: every matched token is its own chunk

    def chunks_of(pairs: list[tuple[int, int]]) -> int:
        count = 1
        for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
            if i1 != i0 + 1 or j1 != j0 + 1:
                count += 1
        return count

    def recurse(i: int, used: set, pairs: list, matched: int) -> None:
        if matched + (len(cand) - i) < matches:
            return
        if i == len(cand):
            if matched == matches:
                best[0] = min(best[0], chunks_of(pairs))
            return
        recurse(i + 1, used, pairs, matched)
        for j in positions.get(cand[i], ()):
            if j not in used:
                used.add(j)
                pairs.append((i, j))
                recurse(i + 1, used, pairs, matched + 1)
                pairs.pop()
                used.remove(j)

    recurse(0, set(), [], 0)
    return matches, best[0]


def meteor_oracle(pairs) -> float:
    scores = []
    for pair in pairs:
        cand = list(pair.candidate)
        best = 0.0
        for ref in pair.references:
            ref = list(ref)
            m, chunks = _all_alignment_chunks(cand, ref)
            if m == 0 or not cand or not ref:
                continue
            p = m / len(cand)
            r = m / len(ref)
            f_mean = 10.0 * p * r / (r + 9.0 * p)
            penalty = 0.5 * (chunks / m) ** 3
            best = max(best, f_mean * (1.0 - penalty))
        scores.append(best)
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# synthetic-data separability


def lda_probe_accuracy(features: np.ndarray, labels: np.ndarray) -> float:
    """Closed-form linear probe: project on the class-mean difference.

    With equal isotropic class covariances (how the synthetic generator draws
    features) this direction is the discriminant direction, so perfect
    separation shows up as 1.0 training accuracy.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    mu0 = features[labels == 0].mean(axis=0)
    mu1 = features[labels == 1].mean(axis=0)
    w = mu1 - mu0
    proj = features @ w
    threshold = 0.5 * (mu0 @ w + mu1 @ w)
    predicted = (proj >= threshold).astype(int)
    return float((predicted == labels).mean())
