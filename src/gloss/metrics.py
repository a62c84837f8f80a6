"""Corpus-level BLEU and top-k classification accuracy."""
from __future__ import annotations

from collections import Counter

import numpy as np


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


MAX_N = 4  # BLEU-1 .. BLEU-4


def bleu_counts(candidates, references) -> np.ndarray:
    """The count pass of corpus BLEU, single reference per candidate.

    One integer-valued float64 vector: the clipped n-gram matches of each
    order, the candidate n-grams of each order, then the candidate and
    reference corpus lengths. The counts of disjoint corpora add up to
    those of their union.
    """
    if len(candidates) != len(references):
        raise ValueError("candidate and reference lists differ in length")
    if not candidates:
        raise ValueError("empty corpus")
    matched = np.zeros(MAX_N)
    total = np.zeros(MAX_N)
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand = list(cand)
        ref = list(ref)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, MAX_N + 1):
            cand_counts = _ngram_counts(cand, n)
            if not cand_counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            total[n - 1] += sum(cand_counts.values())
            matched[n - 1] += sum(
                min(count, ref_counts.get(gram, 0))
                for gram, count in cand_counts.items()
            )
    return np.concatenate([matched, total, [cand_len, ref_len]])


def bleu_scores(counts: np.ndarray) -> dict[str, float]:
    """BLEU-1..4 as percentages from a corpus's ``bleu_counts``.

    Modified n-gram precision with clipping, geometric mean of the first n
    precisions, and brevity penalty exp(1 - r/c) when the candidate corpus
    is shorter than the reference corpus. There is no smoothing: a zero
    precision at any order zeroes that order and every higher one.
    """
    matched, total = counts[:MAX_N], counts[MAX_N:2 * MAX_N]
    cand_len, ref_len = counts[2 * MAX_N:]
    bp = 1.0 if cand_len >= ref_len else float(np.exp(1.0 - ref_len / max(cand_len, 1)))
    precisions = [matched[n] / total[n] if total[n] else 0.0 for n in range(MAX_N)]
    report = {}
    for n in range(1, MAX_N + 1):
        ps = precisions[:n]
        if min(ps) <= 0.0:
            score = 0.0
        else:
            score = bp * float(np.exp(np.mean(np.log(ps))))
        report[f"bleu_{n}"] = 100.0 * score
    return report


def corpus_bleu(candidates, references) -> dict[str, float]:
    """Corpus BLEU-1..4 as percentages, single reference per candidate
    (see ``bleu_scores``)."""
    return bleu_scores(bleu_counts(candidates, references))


def topk_accuracy(prob_rows, labels, k: int) -> float:
    """Percentage of rows whose true label is among the k most probable classes.

    Ties are broken toward the lower class index, so results are
    deterministic for degenerate distributions.
    """
    probs = np.asarray(prob_rows, dtype=np.float64)
    labels = np.asarray(labels)
    if k < 1:
        raise ValueError("k must be >= 1")
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ValueError(f"shape mismatch: probs {probs.shape}, labels {labels.shape}")
    if k > probs.shape[1]:
        raise ValueError(f"k={k} exceeds {probs.shape[1]} classes")
    # stable sort on negated probs keeps lower indices first among ties
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    hits = (order == labels[:, None]).any(axis=1)
    return 100.0 * float(hits.mean())

