"""Synthetic corpora with known ground truth.

Both generators render reviews from small phrase banks so that every
fine-grained signal is recoverable from the text by construction:

* :func:`synth_numeric` draws five sub-field scores uniformly from 0..5,
  derives the overall rating from their mean, and renders one field
  phrase per sub-field. A configurable fraction of phrases is hedged
  (shared between two adjacent scores), so the review text carries
  slightly lossy evidence while the stored scores stay exact.
* :func:`synth_text` draws a latent quality grade 0..8 and emits one
  positive, one negative, and one neutral comment from grade-keyed
  banks; every comment embeds the grade's adjective, which makes the
  bank mapping invertible from the full comment.
"""
from __future__ import annotations

import numpy as np

from .data import PCMagExample, SkytraxExample, SUBSCORE_FIELDS, tokenize

# -- numeric corpus -------------------------------------------------------------

FIELD_MARKERS = {
    "seat": "seat",
    "cabin": "crew",
    "food": "meals",
    "inflight": "entertainment",
    "value": "fare",
}

SCORE_ADJECTIVES = ("dreadful", "bad", "weak", "fair", "good", "superb")
# rarer synonyms per score: same exact meaning, much lower frequency, so an
# undertrained model keeps making fixable mistakes on them
RARE_ADJECTIVES = (
    ("appalling", "horrid"),
    ("lousy", "subpar"),
    ("middling", "lackluster"),
    ("adequate", "reasonable"),
    ("pleasing", "solid"),
    ("stellar", "flawless"),
)
# hedge k is genuinely ambiguous between scores k and k+1
HEDGE_ADJECTIVES = ("abysmal", "shaky", "passable", "pleasant", "excellent")

# cumulative frequency split between the common adjective and the two rare ones
_ADJECTIVE_CDF = (0.7, 0.88)

_FIELD_TEMPLATES = (
    "the {m} was {a} .",
    "{a} {m} on this flight .",
    "i found the {m} truly {a} .",
)
_HEDGE_TEMPLATES = (
    "the {m} seemed {a} .",
    "somewhat {a} {m} overall .",
)
_NUMERIC_OPENERS = (
    "flew with them last month .",
    "quick review of my recent trip .",
    "here is my honest take .",
)


def overall_from_subscores(subscores) -> int:
    """Overall rating rule: clamp(round(2 * mean(subscores)), 1, 10)."""
    doubled_mean = 2.0 * sum(subscores) / len(subscores)
    return int(min(10, max(1, round(doubled_mean))))


def _field_phrase(field: str, score: int, ambiguity: float, rng: np.random.Generator) -> str:
    marker = FIELD_MARKERS[field]
    if rng.random() < ambiguity:
        if score == 0:
            hedge = 0
        elif score == 5:
            hedge = 4
        else:
            hedge = score - 1 if rng.random() < 0.5 else score
        template = _HEDGE_TEMPLATES[int(rng.integers(len(_HEDGE_TEMPLATES)))]
        return template.format(m=marker, a=HEDGE_ADJECTIVES[hedge])
    roll = rng.random()
    if roll < _ADJECTIVE_CDF[0]:
        adjective = SCORE_ADJECTIVES[score]
    elif roll < _ADJECTIVE_CDF[1]:
        adjective = RARE_ADJECTIVES[score][0]
    else:
        adjective = RARE_ADJECTIVES[score][1]
    template = _FIELD_TEMPLATES[int(rng.integers(len(_FIELD_TEMPLATES)))]
    return template.format(m=marker, a=adjective)


def synth_numeric(n: int, seed: int, ambiguity: float = 0.0) -> list[SkytraxExample]:
    """Generate flight-style examples with recoverable sub-field signal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        subscores = tuple(int(s) for s in rng.integers(0, 6, size=5))
        parts = [_NUMERIC_OPENERS[int(rng.integers(len(_NUMERIC_OPENERS)))]]
        for field, score in zip(SUBSCORE_FIELDS, subscores):
            parts.append(_field_phrase(field, score, ambiguity, rng))
        examples.append(SkytraxExample(
            review=tokenize(" ".join(parts)),
            subscores=subscores,
            overall=overall_from_subscores(subscores),
        ))
    return examples


# -- text corpus ----------------------------------------------------------------

N_GRADES = 9
# the chance that a review's middle sentence drifts to an adjacent grade
DRIFT_RATE = 0.3
GRADE_ADJECTIVES = (
    "atrocious", "terrible", "bad", "mediocre", "average",
    "decent", "good", "great", "superb",
)
_PRODUCTS = ("laptop", "phone", "camera", "monitor", "router", "tablet")

# variants inside a bank share their core tokens so corpus BLEU mostly
# reflects whether the grade adjective is right, not template luck
_POS_TEMPLATES = (
    "{a} build quality for the price .",
    "{a} screen quality for the price .",
    "{a} battery life for the price .",
)
_NEG_TEMPLATES = (
    "the {a} case scratches near the port .",
    "the {a} case scratches near the hinge .",
    "the {a} case scratches near the edge .",
)
_NEU_TEMPLATES = (
    "in sum , a {a} pick for most buyers .",
    "in sum , a {a} pick for most users .",
    "in sum , a {a} pick for most homes .",
)
_TEXT_TEMPLATES = {"pos": _POS_TEMPLATES, "neg": _NEG_TEMPLATES, "neu": _NEU_TEMPLATES}

_TEXT_OPENERS = (
    "i tested this {p} for two weeks .",
    "spent ten days with this {p} .",
    "my {p} arrived last friday .",
)
_TEXT_MIDDLES = (
    "performance stayed {a} in daily use .",
    "the battery held up {a} in testing .",
    "day to day it ran {a} .",
)


def text_comment_bank() -> dict[tuple[int, str], list[tuple[str, ...]]]:
    """All golden comments, keyed by (grade, polarity), as token tuples."""
    bank: dict[tuple[int, str], list[tuple[str, ...]]] = {}
    for grade in range(N_GRADES):
        adj = GRADE_ADJECTIVES[grade]
        for polarity, templates in _TEXT_TEMPLATES.items():
            bank[(grade, polarity)] = [
                tuple(tokenize(t.format(a=adj))) for t in templates
            ]
    return bank


def synth_text(n: int, seed: int) -> list[PCMagExample]:
    """Generate product-style examples whose comments encode a 0..8 grade."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    bank = text_comment_bank()
    examples = []
    for _ in range(n):
        grade = int(rng.integers(N_GRADES))
        adj = GRADE_ADJECTIVES[grade]
        product = _PRODUCTS[int(rng.integers(len(_PRODUCTS)))]
        # one mention may drift to an adjacent grade for texture
        drift = grade
        if rng.random() < DRIFT_RATE:
            drift = min(N_GRADES - 1, max(0, grade + (1 if rng.random() < 0.5 else -1)))
        review = " ".join([
            _TEXT_OPENERS[int(rng.integers(len(_TEXT_OPENERS)))].format(p=product),
            f"the {product} feels {adj} overall .",
            _TEXT_MIDDLES[int(rng.integers(len(_TEXT_MIDDLES)))].format(
                a=GRADE_ADJECTIVES[drift]),
            f"verdict : {adj} .",
        ])
        comments = {}
        for polarity in ("pos", "neg", "neu"):
            options = bank[(grade, polarity)]
            comments[polarity] = list(options[int(rng.integers(len(options)))])
        examples.append(PCMagExample(
            review=tokenize(review),
            pos=comments["pos"],
            neg=comments["neg"],
            neu=comments["neu"],
            overall=(grade + 2) / 2.0,  # inverse of class = round(2*overall) - 2
        ))
    return examples
