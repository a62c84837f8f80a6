import itertools
from collections import Counter, defaultdict

import numpy as np
import pytest

from gloss.data import SUBSCORE_FIELDS, passes_filter
from gloss.synth import (FIELD_MARKERS, GRADE_ADJECTIVES, N_GRADES,
                         overall_from_subscores, synth_numeric, synth_text,
                         text_comment_bank)


def reference_overall(subscores) -> int:
    """Independent restatement of the rating rule."""
    value = round(2 * (sum(subscores) / 5.0))
    return int(np.clip(value, 1, 10))


def numeric_label_distribution() -> np.ndarray:
    """Exact class distribution of the rating rule over all 6**5 score tuples."""
    counts = np.zeros(10, dtype=np.float64)
    for tup in itertools.product(range(6), repeat=5):
        counts[overall_from_subscores(tup) - 1] += 1
    return counts / counts.sum()


_COMMENT_TO_GRADE = {tokens: grade for (grade, _), comments in text_comment_bank().items()
                     for tokens in comments}


def comment_grade(tokens) -> int:
    """Invert the comment bank: exact token sequence back to its grade."""
    return _COMMENT_TO_GRADE[tuple(tokens)]


class TestNumericRule:
    def test_all_fives(self):
        assert overall_from_subscores((5, 5, 5, 5, 5)) == 10

    def test_all_zeros_clamped(self):
        assert overall_from_subscores((0, 0, 0, 0, 0)) == 1

    def test_matches_reference_everywhere(self):
        for tup in itertools.product(range(6), repeat=5):
            assert overall_from_subscores(tup) == reference_overall(tup)


class TestSynthNumeric:
    def test_examples_satisfy_schema(self):
        for ex in synth_numeric(500, seed=3):
            assert all(0 <= s <= 5 for s in ex.subscores)
            assert 1 <= ex.overall <= 10
            assert passes_filter(ex, "skytrax")
            assert ex.overall == reference_overall(ex.subscores)

    def test_deterministic(self):
        a = synth_numeric(50, seed=9)
        b = synth_numeric(50, seed=9)
        assert [(x.review, x.subscores, x.overall) for x in a] == \
               [(y.review, y.subscores, y.overall) for y in b]

    def test_review_mentions_every_field_marker(self):
        for ex in synth_numeric(200, seed=4):
            for marker in FIELD_MARKERS.values():
                assert marker in ex.review

    def test_label_distribution_matches_enumeration(self):
        # brute-force enumeration of the rule over all 6**5 subscore tuples
        counts = np.zeros(10)
        for tup in itertools.product(range(6), repeat=5):
            counts[reference_overall(tup) - 1] += 1
        expected = counts / counts.sum()
        np.testing.assert_allclose(numeric_label_distribution(), expected)

        sampled = np.zeros(10)
        for ex in synth_numeric(10_000, seed=11):
            sampled[ex.overall - 1] += 1
        sampled /= sampled.sum()
        assert np.abs(sampled - expected).max() < 0.02

    def test_hedged_variant_still_valid(self):
        for ex in synth_numeric(200, seed=6, ambiguity=0.5):
            assert passes_filter(ex, "skytrax")
            assert ex.overall == reference_overall(ex.subscores)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            synth_numeric(0, seed=1)


class TestSynthText:
    def test_examples_satisfy_schema(self):
        for ex in synth_text(300, seed=5):
            assert 0 <= ex.label <= 8
            assert passes_filter(ex, "pcmag")
            assert all(len(c) <= 12 for c in ex.comments())

    def test_top_grade_pos_comment_from_top_bank(self):
        bank = text_comment_bank()
        top = {tuple(c) for c in bank[(8, "pos")]}
        for ex in synth_text(400, seed=7):
            if ex.label == 8:
                assert tuple(ex.pos) in top

    def test_comment_bank_inverse_recovers_grade(self):
        for ex in synth_text(400, seed=8):
            for comment in ex.comments():
                assert comment_grade(comment) == ex.label

    def test_banks_are_disjoint_across_grades(self):
        seen = {}
        for (grade, _pol), comments in text_comment_bank().items():
            for tokens in comments:
                assert seen.setdefault(tokens, grade) == grade

    def test_vocabulary_is_small(self):
        types = set()
        for ex in synth_text(2000, seed=10):
            types.update(ex.review)
            for c in ex.comments():
                types.update(c)
        assert len(types) <= 300

    def test_deterministic(self):
        a = synth_text(40, seed=2)
        b = synth_text(40, seed=2)
        assert [(x.review, x.pos, x.neg, x.neu, x.overall) for x in a] == \
               [(y.review, y.pos, y.neg, y.neu, y.overall) for y in b]

    def test_unigram_count_oracle_predicts_grade(self):
        """A frequency-count classifier (no neural nets) from half the corpus
        recovers the grade on the other half with >= 95% accuracy."""
        corpus = synth_text(5000, seed=12)
        half = len(corpus) // 2
        counts = defaultdict(Counter)
        grade_totals = Counter()
        for ex in corpus[:half]:
            for comment in ex.comments():
                counts[ex.label].update(comment)
                grade_totals[ex.label] += len(comment)

        def predict(ex):
            scores = {}
            for grade in range(N_GRADES):
                total = grade_totals[grade]
                score = 0.0
                for comment in ex.comments():
                    for token in comment:
                        score += np.log((counts[grade][token] + 1) / (total + 300))
                scores[grade] = score
            return max(scores, key=scores.get)

        hits = sum(predict(ex) == ex.label for ex in corpus[half:])
        assert hits / (len(corpus) - half) >= 0.95

    def test_grade_adjective_appears_in_each_comment(self):
        for ex in synth_text(200, seed=13):
            adjective = GRADE_ADJECTIVES[ex.label]
            for comment in ex.comments():
                assert adjective in comment
