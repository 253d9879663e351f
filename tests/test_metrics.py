import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecomment.metrics import (bleu4, bleu4_prefixes, corpus_bleu4, corpus_eval, lcs_length,
                                 rouge2, rougeL, rougeL_prefixes)

# --- independent oracles (naive counting, no shared code with the library) ---


def oracle_ngram_list(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def oracle_bleu(candidate, reference, smoothing):
    if len(candidate) == 0:
        return 0.0
    precisions = []
    for n in range(1, 5):
        cand = oracle_ngram_list(candidate, n)
        ref = oracle_ngram_list(reference, n)
        matched = 0
        for gram in set(cand):
            matched += min(cand.count(gram), ref.count(gram))
        num, den = matched, len(cand)
        if smoothing and n > 1:
            num, den = num + 1, den + 1
        precisions.append(num / den if den else 0.0)
    if any(p == 0 for p in precisions):
        geo = 0.0
    else:
        geo = math.exp(sum(math.log(p) for p in precisions) / 4)
    bp = 1.0 if len(candidate) >= len(reference) else \
        math.exp(1 - len(reference) / len(candidate))
    return geo * bp


def oracle_lcs_by_enumeration(a, b):
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(tok in it for tok in sub):
                return r
    return best


def oracle_pooled_bleu(pairs):
    matches = [0] * 4
    totals = [0] * 4
    c_len = r_len = 0
    for cand, ref in pairs:
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, 5):
            cl = oracle_ngram_list(cand, n)
            rl = oracle_ngram_list(ref, n)
            matches[n - 1] += sum(min(cl.count(g), rl.count(g)) for g in set(cl))
            totals[n - 1] += len(cl)
    if c_len == 0:
        return 0.0
    ps = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    if any(p == 0 for p in ps):
        return 0.0
    bp = 1.0 if c_len >= r_len else math.exp(1 - r_len / c_len)
    return bp * math.exp(sum(math.log(p) for p in ps) / 4)


def random_pair(rng, vocab=("a", "b", "c", "d", "e")):
    cand = [vocab[int(rng.integers(len(vocab)))]
            for _ in range(int(rng.integers(1, 9)))]
    ref = [vocab[int(rng.integers(len(vocab)))]
           for _ in range(int(rng.integers(1, 9)))]
    return cand, ref


class TestBleu:
    def test_identical_is_one(self):
        tokens = "show me the flights".split()
        assert bleu4(tokens, tokens).value == 1.0
        assert bleu4(tokens, tokens, smoothing="none").value == 1.0

    def test_empty_candidate_is_zero(self):
        assert bleu4([], ["a", "b"]).value == 0.0

    def test_empty_reference_errors(self):
        with pytest.raises(ValueError):
            bleu4(["a"], [])

    def test_cat_mat_case_matches_oracle(self):
        cand = "the cat sat on the mat".split()
        ref = "the cat is on the mat".split()
        for smoothing in ("none", "add-one"):
            got = bleu4(cand, ref, smoothing=smoothing).value
            want = oracle_bleu(cand, ref, smoothing == "add-one")
            assert abs(got - want) < 1e-12

    def test_oracle_agreement_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            cand, ref = random_pair(rng)
            for smoothing in ("none", "add-one"):
                got = bleu4(cand, ref, smoothing=smoothing).value
                want = oracle_bleu(cand, ref, smoothing == "add-one")
                assert abs(got - want) < 1e-12

    def test_add_one_positive_with_one_unigram_match(self):
        score = bleu4(["a", "x", "y"], ["a", "b", "c"]).value
        assert score > 0.0

    def test_unknown_smoothing_rejected(self):
        with pytest.raises(ValueError):
            bleu4(["a"], ["a"], smoothing="laplace")


class TestRouge2:
    def test_identical_is_one(self):
        tokens = "a b c d".split()
        assert rouge2(tokens, tokens).value == 1.0

    def test_disjoint_is_zero(self):
        assert rouge2("a b c".split(), "x y z".split()).value == 0.0

    def test_hand_counted_f1(self):
        # one shared bigram of two each: P = R = 0.5 -> F1 = 0.5
        assert abs(rouge2("a b c".split(), "a b d".split()).value - 0.5) < 1e-12

    def test_short_reference_degenerate(self):
        score = rouge2(["a", "b"], ["a"])
        assert score.value == 0.0 and score.degenerate

    def test_asymmetric(self):
        # the F1 variant is symmetric by construction (2 * match over the
        # summed bigram counts); candidate/reference asymmetry shows up in
        # the recall variant and in BLEU's candidate-side denominators
        a, b = "a a b".split(), "a b b b c".split()
        assert rouge2(a, b, variant="recall").value != \
            rouge2(b, a, variant="recall").value
        assert bleu4(a, b).value != bleu4(b, a).value


class TestRougeL:
    def test_identical_is_one(self):
        tokens = "a b c d e".split()
        assert rougeL(tokens, tokens).value == 1.0

    def test_hand_case_six_sevenths(self):
        score = rougeL("a b c d".split(), "a c d".split())
        assert score.components["lcs"] == 3
        assert abs(score.components["recall"] - 1.0) < 1e-12
        assert abs(score.components["precision"] - 0.75) < 1e-12
        assert abs(score.value - 6.0 / 7.0) < 1e-12

    def test_reversal(self):
        score = rougeL("a b c".split(), "c b a".split())
        assert score.components["lcs"] == 1
        r, p = 1 / 3, 1 / 3
        assert abs(score.value - 2 * p * r / (p + r)) < 1e-12

    def test_lcs_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            cand = [("a", "b", "c")[int(rng.integers(3))]
                    for _ in range(int(rng.integers(1, 7)))]
            ref = [("a", "b", "c")[int(rng.integers(3))]
                   for _ in range(int(rng.integers(1, 7)))]
            assert lcs_length(cand, ref) == oracle_lcs_by_enumeration(cand, ref)

    def test_appending_reference_continuation_never_lowers_recall(self):
        ref = "show me the morning flights to denver".split()
        prev_recall = 0.0
        for cut in range(1, len(ref) + 1):
            recall = rougeL(ref[:cut], ref).components["recall"]
            assert recall >= prev_recall
            prev_recall = recall


class TestCorpus:
    def test_all_identical_pairs_score_one(self):
        pairs = [("a b c d".split(), "a b c d".split())] * 3
        cands = [c for c, _ in pairs]
        refs = [r for _, r in pairs]
        scores = corpus_eval(cands, refs)
        assert scores["bleu4"] == 1.0
        assert scores["rouge2"] == 1.0
        assert scores["rougeL"] == 1.0

    def test_single_pair_equals_sentence_score(self):
        cand = "the cat sat on the mat".split()
        ref = "the cat is on the mat".split()
        corpus = corpus_bleu4([(cand, ref)]).value
        sentence = bleu4(cand, ref, smoothing="none").value
        assert abs(corpus - sentence) < 1e-15

    def test_pooled_counts_match_oracle(self):
        rng = np.random.default_rng(5)
        pairs = [random_pair(rng) for _ in range(5)]
        got = corpus_bleu4(pairs).value
        assert abs(got - oracle_pooled_bleu(pairs)) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            corpus_eval([["a"]], [["a"], ["b"]])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=10),
       st.lists(st.sampled_from("abcde"), min_size=1, max_size=10))
def test_scores_live_in_unit_interval(cand, ref):
    for value in (bleu4(cand, ref).value, rouge2(cand, ref).value,
                  rougeL(cand, ref).value):
        assert 0.0 <= value <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("abcd"), max_size=14),
       st.lists(st.sampled_from("abcd"), min_size=1, max_size=10),
       st.sampled_from(["none", "add-one"]), st.sampled_from(["f1", "recall"]))
def test_prefix_scores_equal_per_prefix_calls_bitwise(cand, ref, smoothing, variant):
    # a small alphabet, so n-grams repeat and clipping matters
    assert bleu4_prefixes(cand, ref, smoothing) == \
        [bleu4(cand[:m], ref, smoothing).value for m in range(1, len(cand) + 1)]
    assert rougeL_prefixes(cand, ref, variant) == \
        [rougeL(cand[:m], ref, variant).value for m in range(1, len(cand) + 1)]
    assert rougeL_prefixes(cand, [], variant) == [0.0] * len(cand)
