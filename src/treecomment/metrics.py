"""Sentence- and corpus-level BLEU-4, ROUGE-2 and ROUGE-L over token lists.

Scores live in [0, 1]; report layers multiply by 100. All metrics are
single-reference and candidate/reference asymmetric.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class MetricScore:
    value: float
    components: dict = field(default_factory=dict)
    mode: str = "sentence"
    degenerate: bool = False


def ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(candidate, reference, n):
    cand = ngrams(candidate, n)
    ref = ngrams(reference, n)
    match = sum(min(c, ref[g]) for g, c in cand.items())
    return match, sum(cand.values())


def _bleu_from_counts(matches, totals, cand_len, ref_len, smoothing):
    precisions = []
    for n in range(1, 5):
        num, den = matches[n - 1], totals[n - 1]
        if smoothing == "add-one" and n > 1:
            num, den = num + 1, den + 1
        precisions.append(num / den if den > 0 else 0.0)
    if any(p == 0.0 for p in precisions):
        geo = 0.0
    else:
        geo = math.exp(sum(math.log(p) for p in precisions) / 4.0)
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return geo * bp, precisions, bp


def bleu4(candidate: Sequence[str], reference: Sequence[str],
          smoothing: str = "add-one") -> MetricScore:
    """Geometric mean of modified 1..4-gram precisions times brevity penalty.

    ``smoothing``: "none", or "add-one" (adds 1 to numerator and denominator
    of the n>1 precisions; the sentence-level default, so a single matching
    unigram already yields a positive score).
    """
    if smoothing not in ("none", "add-one"):
        raise ValueError(f"unknown smoothing {smoothing!r}")
    if len(reference) == 0:
        raise ValueError("bleu4: empty reference")
    if len(candidate) == 0:
        return MetricScore(0.0, {"p": [0.0] * 4, "bp": 0.0})
    matches, totals = [], []
    for n in range(1, 5):
        m, t = _clipped_matches(candidate, reference, n)
        matches.append(m)
        totals.append(t)
    value, precisions, bp = _bleu_from_counts(matches, totals,
                                              len(candidate), len(reference), smoothing)
    return MetricScore(value, {"p": precisions, "bp": bp})


def bleu4_prefixes(candidate: Sequence[str], reference: Sequence[str],
                   smoothing: str = "add-one") -> list[float]:
    """``bleu4(candidate[:m], reference, smoothing).value`` for m = 1 ..
    len(candidate), in one pass: each appended token adds its n-grams to
    running counts, and a match while an n-gram's count stays within the
    reference's."""
    if smoothing not in ("none", "add-one"):
        raise ValueError(f"unknown smoothing {smoothing!r}")
    if candidate and len(reference) == 0:
        raise ValueError("bleu4: empty reference")
    ref = [ngrams(reference, n) for n in range(1, 5)]
    seen: list[Counter] = [Counter() for _ in range(4)]
    matches, totals = [0] * 4, [0] * 4
    scores = []
    for m in range(1, len(candidate) + 1):
        for n in range(1, min(m, 4) + 1):
            gram = tuple(candidate[m - n:m])
            seen[n - 1][gram] += 1
            totals[n - 1] += 1
            if seen[n - 1][gram] <= ref[n - 1][gram]:
                matches[n - 1] += 1
        scores.append(_bleu_from_counts(matches, totals, m, len(reference), smoothing)[0])
    return scores


def rouge2(candidate: Sequence[str], reference: Sequence[str],
           variant: str = "f1") -> MetricScore:
    """Bigram-overlap score (clipped counts); F1 by default, or recall-only."""
    ref_bigrams = ngrams(reference, 2)
    if sum(ref_bigrams.values()) == 0:
        return MetricScore(0.0, {"recall": 0.0, "precision": 0.0}, degenerate=True)
    cand_bigrams = ngrams(candidate, 2)
    match = sum(min(c, ref_bigrams[g]) for g, c in cand_bigrams.items())
    recall = match / sum(ref_bigrams.values())
    total_cand = sum(cand_bigrams.values())
    precision = match / total_cand if total_cand > 0 else 0.0
    if variant == "recall":
        value = recall
    elif precision + recall > 0:
        value = 2.0 * precision * recall / (precision + recall)
    else:
        value = 0.0
    return MetricScore(value, {"recall": recall, "precision": precision})


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _lcs_score(lcs: int, cand_len: int, ref_len: int, variant: str) -> tuple[float, float, float]:
    recall = lcs / ref_len
    precision = lcs / cand_len
    if variant == "recall":
        value = recall
    elif precision + recall > 0:
        value = 2.0 * precision * recall / (precision + recall)
    else:
        value = 0.0
    return value, recall, precision


def rougeL(candidate: Sequence[str], reference: Sequence[str],
           variant: str = "f1") -> MetricScore:
    """Longest-common-subsequence F1 (or recall-only)."""
    if len(candidate) == 0 or len(reference) == 0:
        return MetricScore(0.0, {"recall": 0.0, "precision": 0.0, "lcs": 0})
    lcs = lcs_length(candidate, reference)
    value, recall, precision = _lcs_score(lcs, len(candidate), len(reference), variant)
    return MetricScore(value, {"recall": recall, "precision": precision, "lcs": lcs})


def rougeL_prefixes(candidate: Sequence[str], reference: Sequence[str],
                    variant: str = "f1") -> list[float]:
    """``rougeL(candidate[:m], reference, variant).value`` for m = 1 ..
    len(candidate), in one pass: the LCS table gains one row per appended
    token, and its last entry is the prefix's LCS length."""
    if len(reference) == 0:
        return [0.0] * len(candidate)
    scores = []
    prev = [0] * (len(reference) + 1)
    for m, x in enumerate(candidate, start=1):
        cur = [0]
        for j, y in enumerate(reference, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
        scores.append(_lcs_score(cur[-1], m, len(reference), variant)[0])
    return scores


def corpus_bleu4(pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
                 smoothing: str = "none") -> MetricScore:
    """Corpus BLEU: n-gram counts pooled over pairs before the geometric mean."""
    if not pairs:
        raise ValueError("corpus_bleu4: no pairs")
    matches = [0] * 4
    totals = [0] * 4
    cand_len = ref_len = 0
    for candidate, reference in pairs:
        if len(reference) == 0:
            raise ValueError("corpus_bleu4: empty reference")
        cand_len += len(candidate)
        ref_len += len(reference)
        for n in range(1, 5):
            m, t = _clipped_matches(candidate, reference, n)
            matches[n - 1] += m
            totals[n - 1] += t
    if cand_len == 0:
        return MetricScore(0.0, mode="corpus")
    value, precisions, bp = _bleu_from_counts(matches, totals, cand_len, ref_len, smoothing)
    return MetricScore(value, {"p": precisions, "bp": bp}, mode="corpus")


def corpus_eval(candidates: Sequence[Sequence[str]],
                references: Sequence[Sequence[str]]) -> dict[str, float]:
    """BLEU-4 (pooled counts) plus macro-averaged ROUGE-2 / ROUGE-L."""
    if len(candidates) != len(references):
        raise ValueError(f"corpus_eval: {len(candidates)} candidates vs "
                         f"{len(references)} references")
    pairs = list(zip(candidates, references))
    if not pairs:
        raise ValueError("corpus_eval: no pairs")
    r2 = sum(rouge2(c, r).value for c, r in pairs) / len(pairs)
    rl = sum(rougeL(c, r).value for c, r in pairs) / len(pairs)
    return {
        "bleu4": corpus_bleu4(pairs).value,
        "rouge2": r2,
        "rougeL": rl,
    }
