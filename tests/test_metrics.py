import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from reviewnet import oracles
from reviewnet.errors import ConfigError, ContractError
from reviewnet.metrics import (EvalPair, MetricReport, _lcs_length, bleu,
                               bleu_precisions, cider, meteor_lite, overall_accuracy,
                               report_table, rouge_l, score_corpus)


def random_corpus(rng, n_pairs=None, vocab_size=None, max_len=8):
    n_pairs = n_pairs or int(rng.integers(2, 7))
    vocab = [f"w{i}" for i in range(vocab_size or int(rng.integers(3, 11)))]
    pairs = []
    for _ in range(n_pairs):
        cand = [vocab[i] for i in rng.integers(0, len(vocab), size=int(rng.integers(0, max_len + 1)))]
        refs = [[vocab[i] for i in rng.integers(0, len(vocab), size=int(rng.integers(1, max_len + 1)))]
                for _ in range(int(rng.integers(1, 7)))]
        pairs.append(EvalPair(cand, refs))
    return pairs


# ---------------------------------------------------------------------------
# overall accuracy


def test_accuracy_counting():
    predictions = [1] * 3 + [0] * 2 + [0] * 2 + [1] * 3
    labels = [1] * 5 + [0] * 5
    assert overall_accuracy(predictions, labels) == 0.5


def test_accuracy_all_correct():
    assert overall_accuracy([0, 1, 1], [0, 1, 1]) == 1.0


def test_accuracy_matches_counting_oracle(rng):
    predictions = rng.integers(0, 2, size=100).tolist()
    labels = rng.integers(0, 2, size=100).tolist()
    assert overall_accuracy(predictions, labels) == oracles.accuracy_oracle(predictions, labels)


def test_accuracy_empty_rejected():
    with pytest.raises(ContractError):
        overall_accuracy([], [])


# ---------------------------------------------------------------------------
# bleu


def test_bleu_perfect_match_scores_one():
    pair = EvalPair("the cat sat".split(), ["the cat sat".split()])
    for n in range(1, 4):
        assert bleu([pair], n) == pytest.approx(1.0, abs=1e-12)


def test_bleu_clipping_hand_count():
    # "the the the" vs "the cat": one clipped unigram out of three
    pair = EvalPair(["the", "the", "the"], [["the", "cat"]])
    precisions, cand_len, ref_len = bleu_precisions([pair], 1)
    assert precisions[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert (cand_len, ref_len) == (3, 2)
    # candidate longer than the reference: no brevity penalty applies
    assert bleu([pair], 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert bleu([pair], 1) == pytest.approx(oracles.bleu_oracle([pair], 1), abs=1e-12)


def test_bleu_long_candidate_has_unit_brevity_penalty():
    pair = EvalPair(["a", "b", "c", "d", "e"], [["a", "b"], ["a"]])
    short = EvalPair(["a"], [["a", "b", "c"]])
    assert bleu([pair], 1) == pytest.approx(2.0 / 5.0, abs=1e-12)
    # the short candidate is penalized by exp(1 - 3/1)
    assert bleu([short], 1) == pytest.approx(math.exp(1 - 3), abs=1e-12)


def test_bleu_brevity_uses_closest_reference_tie_shorter():
    pair = EvalPair(["a", "b"], [["a", "b", "c"], ["a"]])  # lengths 3 and 1 tie at distance 1
    _, _, ref_len = bleu_precisions([pair], 1)
    assert ref_len == 1


def test_bleu_rejects_bad_order(rng):
    with pytest.raises(ConfigError):
        bleu(random_corpus(rng), 5)


def test_bleu_empty_candidate_contributes_zero_counts():
    pairs = [EvalPair([], [["a"]]), EvalPair(["a"], [["a"]])]
    precisions, cand_len, _ = bleu_precisions(pairs, 1)
    assert precisions[0] == 1.0 and cand_len == 1


def test_bleu_duplicating_saturated_token_never_raises_precision(rng):
    # once a token's count reaches the best reference count, the clip binds:
    # further copies add only to the denominator
    for _ in range(25):
        pair = random_corpus(rng, n_pairs=2)[0]
        if not pair.candidate:
            continue
        token = pair.candidate[int(rng.integers(0, len(pair.candidate)))]
        ceiling = max(list(ref).count(token) for ref in pair.references)
        saturated = list(pair.candidate) + [token] * max(0, ceiling - pair.candidate.count(token))
        before = bleu_precisions([EvalPair(saturated, pair.references)], 1)[0][0]
        after = bleu_precisions([EvalPair(saturated + [token], pair.references)], 1)[0][0]
        assert after <= before + 1e-12


# ---------------------------------------------------------------------------
# rouge


def test_rouge_identical_pair_scores_one():
    pair = EvalPair(["x", "y"], [["x", "y"]])
    assert rouge_l([pair]) == pytest.approx(1.0, abs=1e-12)


def test_rouge_formula_hand_case():
    pair = EvalPair(["a", "b", "c", "d"], [["a", "c", "d"]])
    precision, recall, beta2 = 3 / 4, 1.0, 1.2 ** 2
    want = (1 + beta2) * precision * recall / (recall + beta2 * precision)
    assert rouge_l([pair]) == pytest.approx(want, abs=1e-12)
    assert rouge_l([pair]) == pytest.approx(oracles.rouge_l_oracle([pair]), abs=1e-12)


# tokens of several types; equal values of different types (1, 1.0, True)
# are one token, as they are for ==
_MIXED_TOKENS = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b", "1"]),
                          st.sampled_from([0.5, 1.0, True]), st.tuples(st.integers(0, 1)))


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(st.lists(_MIXED_TOKENS, max_size=90), st.lists(_MIXED_TOKENS, max_size=90))
def test_lcs_length_equals_the_lcs_table(a, b):
    assert _lcs_length(a, b) == oracles._lcs_table(a, b)
    assert _lcs_length(b, a) == oracles._lcs_table(a, b)


@pytest.mark.parametrize("lengths", [(0, 0), (0, 5), (5, 0), (64, 64), (65, 3),
                                     (130, 70), (200, 200)], ids=lambda n: "%dx%d" % n)
def test_lcs_length_on_long_and_repetitive_sequences(lengths):
    rng = np.random.default_rng(sum(lengths))
    for vocab_size in (1, 2, 5, 50):
        a, b = (rng.integers(0, vocab_size, size=n).tolist() for n in lengths)
        assert _lcs_length(a, b) == oracles._lcs_table(a, b)


def test_rouge_disjoint_tokens_score_zero():
    assert rouge_l([EvalPair(["a", "b"], [["c", "d"]])]) == 0.0


# ---------------------------------------------------------------------------
# cider


def test_cider_no_overlap_scores_zero(rng):
    pairs = [EvalPair(["q", "q"], [["a", "b"]]), EvalPair(["z"], [["c", "d"]])]
    assert cider(pairs) == 0.0


def test_cider_single_image_rejected():
    with pytest.raises(ConfigError):
        cider([EvalPair(["a"], [["a"]])])


def test_cider_two_image_distinct_vocab_matches_oracle():
    pairs = [
        EvalPair(["a", "b", "a"], [["a", "b", "a"], ["a", "b"]]),
        EvalPair(["c", "d"], [["c", "d"], ["d", "c"]]),
    ]
    assert cider(pairs) == pytest.approx(oracles.cider_oracle(pairs), abs=1e-10)


def test_cider_reference_multiplicity_scale_invariance():
    base = [
        EvalPair(["a", "b"], [["a", "b"]]),
        EvalPair(["c"], [["c", "c"]]),
    ]
    tripled = [
        EvalPair(["a", "b"], [["a", "b"]] * 3),
        EvalPair(["c"], [["c", "c"]] * 3),
    ]
    assert cider(base) == pytest.approx(cider(tripled), abs=1e-12)


# ---------------------------------------------------------------------------
# meteor


def test_meteor_zero_matches():
    assert meteor_lite([EvalPair(["a"], [["b"]])]) == 0.0


def test_meteor_identical_three_tokens():
    pair = EvalPair(["a", "b", "c"], [["a", "b", "c"]])
    want = 1.0 - 0.5 / 27.0  # F=1, one chunk over three matches
    assert meteor_lite([pair]) == pytest.approx(want, abs=1e-12)
    assert meteor_lite([pair]) == pytest.approx(oracles.meteor_oracle([pair]), abs=1e-12)


def test_meteor_reversed_two_tokens_halves_score():
    pair = EvalPair(["b", "a"], [["a", "b"]])
    # two matches in two chunks: penalty = 0.5 * (2/2)^3 = 0.5
    assert meteor_lite([pair]) == pytest.approx(0.5, abs=1e-12)
    assert meteor_lite([pair]) == pytest.approx(oracles.meteor_oracle([pair]), abs=1e-12)


def test_meteor_chunks_are_minimized_not_greedy():
    # aligning "a" first-to-first would split "a b" across chunks
    pair = EvalPair(["a", "b"], [["a", "x", "a", "b"]])
    m, chunks = oracles._all_alignment_chunks(["a", "b"], ["a", "x", "a", "b"])
    assert (m, chunks) == (2, 1)
    assert meteor_lite([pair]) == pytest.approx(oracles.meteor_oracle([pair]), abs=1e-12)


# ---------------------------------------------------------------------------
# oracle equivalence and properties


@pytest.mark.parametrize("seed", range(50))
def test_all_metrics_match_oracles(seed):
    pairs = random_corpus(np.random.default_rng(seed))
    for n in range(1, 5):
        assert bleu(pairs, n) == pytest.approx(oracles.bleu_oracle(pairs, n), abs=1e-10)
    assert rouge_l(pairs) == pytest.approx(oracles.rouge_l_oracle(pairs), abs=1e-10)
    assert cider(pairs) == pytest.approx(oracles.cider_oracle(pairs), abs=1e-10)
    assert meteor_lite(pairs) == pytest.approx(oracles.meteor_oracle(pairs), abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_metrics_are_permutation_invariant(seed, perm_seed):
    pairs = random_corpus(np.random.default_rng(seed))
    shuffled = list(pairs)
    np.random.default_rng(perm_seed).shuffle(shuffled)
    assert bleu(shuffled, 4) == pytest.approx(bleu(pairs, 4), abs=1e-12)
    assert rouge_l(shuffled) == pytest.approx(rouge_l(pairs), abs=1e-12)
    assert cider(shuffled) == pytest.approx(cider(pairs), abs=1e-12)
    assert meteor_lite(shuffled) == pytest.approx(meteor_lite(pairs), abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_bounded_metrics_stay_in_unit_interval(seed):
    pairs = random_corpus(np.random.default_rng(100 + seed))
    assert 0.0 <= rouge_l(pairs) <= 1.0
    assert 0.0 <= meteor_lite(pairs) <= 1.0
    for n in range(1, 5):
        assert 0.0 <= bleu(pairs, n) <= 1.0
    assert 0.0 <= cider(pairs) <= 10.0


# ---------------------------------------------------------------------------
# report


def test_report_json_has_schema_and_fields():
    report = MetricReport(overall_accuracy=0.75, bleu_1=0.5)
    d = report.to_json_dict()
    assert d["schema"] == 1
    for key in ("overall_accuracy", "bleu_1", "bleu_2", "bleu_3", "bleu_4",
                "rouge_l", "cider", "meteor_lite"):
        assert key in d


def test_report_table_renders_missing_as_dash():
    table = report_table([("v2l", MetricReport(bleu_1=0.5))])
    lines = table.splitlines()
    assert lines[0].startswith("model")
    assert "-" in lines[1] and "0.5000" in lines[1]


def test_score_corpus_fills_all_caption_fields(rng):
    scores = score_corpus(random_corpus(rng, n_pairs=3))
    assert set(scores) == {"bleu_1", "bleu_2", "bleu_3", "bleu_4",
                           "rouge_l", "cider", "meteor_lite"}
    assert all(v is not None for v in scores.values())


@pytest.mark.parametrize("corpus_seed", range(20))
def test_score_corpus_equals_each_metric_on_fresh_pairs(corpus_seed):
    # score_corpus shares each pair's n-gram counts among its metrics; every
    # score must be the bits the metric gives on its own, on pairs never scored
    def fresh():
        return random_corpus(np.random.default_rng(300 + corpus_seed), vocab_size=12)

    pairs = fresh()
    scores = score_corpus(pairs)
    want = {f"bleu_{n}": bleu(fresh(), n) for n in range(1, 5)}
    want.update(rouge_l=rouge_l(fresh()), cider=cider(fresh()),
                meteor_lite=meteor_lite(fresh()))
    assert scores == want
    assert score_corpus(pairs) == scores
    assert pairs == fresh() and [hash(p) for p in pairs] == [hash(p) for p in fresh()]


def test_eval_pair_requires_references():
    with pytest.raises(ContractError):
        EvalPair(["a"], [])
