"""Correctness checks computed apart from the program.

Each function recomputes a figure from raw outputs with its own code and
returns a list of failure messages (empty when the check passes). None of
them compares against a stored copy of earlier output.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

TOL = 1e-9


def _close(got, want) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


def rating_rule(examples) -> list[str]:
    """overall = clamp(round(2 * mean(subscores)), 1, 10) on skytrax examples.

    2 * mean of five integers is 0.4 * sum, which is never a half, so
    rounding is floor(0.4 * sum + 0.5) = (4 * sum + 5) // 10 exactly.
    """
    bad = [i for i, ex in enumerate(examples)
           if ex.overall != min(10, max(1, (4 * sum(ex.subscores) + 5) // 10))]
    return [f"rating rule broken on {len(bad)} of {len(examples)} examples"] if bad else []


def top1(probs: np.ndarray, labels) -> float:
    return 100.0 * float(np.mean(np.argmax(probs, axis=1) == np.asarray(labels)))


def field_accuracy(predicted: np.ndarray, examples, letters) -> dict:
    gold = np.array([ex.subscores for ex in examples])
    return {letter: 100.0 * float(np.mean(predicted[:, f] == gold[:, f]))
            for f, letter in enumerate(letters)}


def bleu1(candidates, references) -> float:
    """Corpus BLEU-1 in percent: clipped unigram precision times the
    brevity penalty exp(1 - r/c) when candidates are shorter."""
    matched = total = ref_len = 0
    for cand, ref in zip(candidates, references):
        ref_counts = Counter(ref)
        matched += sum(min(n, ref_counts[tok]) for tok, n in Counter(cand).items())
        total += len(cand)
        ref_len += len(ref)
    if matched == 0:
        return 0.0
    bp = 1.0 if total >= ref_len else math.exp(1.0 - ref_len / total)
    return 100.0 * bp * matched / total


def compare(name: str, got: dict, want: dict) -> list[str]:
    return [f"{name}[{key}]: recomputed {got[key]!r}, program reported {want[key]!r}"
            for key in got if not _close(got[key], want[key])]


def epoch_records(records) -> list[str]:
    """L = L_p + L_e and L_final = L + L_MRT exactly; EF_mean in [0, 2)."""
    errors = []
    for r in records:
        if r["L"] != r["L_p"] + r["L_e"]:
            errors.append(f"epoch {r['epoch']}: L != L_p + L_e")
        if r["L_final"] != r["L"] + r["L_MRT"]:
            errors.append(f"epoch {r['epoch']}: L_final != L + L_MRT")
        if not 0.0 <= r["EF_mean"] < 2.0:
            errors.append(f"epoch {r['epoch']}: EF_mean {r['EF_mean']} outside [0, 2)")
    return errors


def step_losses(losses) -> list[str]:
    """Every step loss finite; the last quarter's mean below the first's."""
    if not all(math.isfinite(x) for x in losses):
        return ["non-finite step loss"]
    quarter = max(1, len(losses) // 4)
    first, last = np.mean(losses[:quarter]), np.mean(losses[-quarter:])
    if not last < first:
        return [f"loss did not fall: first-quarter mean {first}, last-quarter mean {last}"]
    return []
