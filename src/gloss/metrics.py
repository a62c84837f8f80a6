"""Corpus-level BLEU and top-k classification accuracy."""
from __future__ import annotations

from collections import Counter

import numpy as np


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(candidates, references, max_n: int = 4,
                smooth: bool = False) -> dict[str, float]:
    """Corpus BLEU-1..max_n as percentages, single reference per candidate.

    Modified n-gram precision with clipping, geometric mean of the first n
    precisions, and brevity penalty exp(1 - r/c) when the candidate corpus
    is shorter than the reference corpus. Without smoothing, a zero
    precision at any order zeroes that order and every higher one; with
    ``smooth=True`` zero counts are floored at a small epsilon instead.
    """
    if len(candidates) != len(references):
        raise ValueError("candidate and reference lists differ in length")
    if not candidates:
        raise ValueError("empty corpus")
    matched = np.zeros(max_n)
    total = np.zeros(max_n)
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand = list(cand)
        ref = list(ref)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            cand_counts = _ngram_counts(cand, n)
            if not cand_counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            total[n - 1] += sum(cand_counts.values())
            matched[n - 1] += sum(
                min(count, ref_counts.get(gram, 0))
                for gram, count in cand_counts.items()
            )
    bp = 1.0 if cand_len >= ref_len else float(np.exp(1.0 - ref_len / max(cand_len, 1)))
    precisions = []
    for n in range(max_n):
        if total[n] == 0:
            precisions.append(0.0)
        elif matched[n] == 0:
            precisions.append(1e-9 if smooth else 0.0)
        else:
            precisions.append(matched[n] / total[n])
    report = {}
    for n in range(1, max_n + 1):
        ps = precisions[:n]
        if min(ps) <= 0.0:
            score = 0.0
        else:
            score = bp * float(np.exp(np.mean(np.log(ps))))
        report[f"bleu_{n}"] = 100.0 * score
    return report


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

