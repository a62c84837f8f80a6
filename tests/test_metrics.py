from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gloss.metrics import MAX_N, bleu_counts, bleu_scores, corpus_bleu, topk_accuracy


def counter_bleu_counts(candidates, references) -> np.ndarray:
    """``bleu_counts`` with one ``Counter`` of n-grams per sequence and
    order, as Papineni et al. (2002) define the clipped counts: the oracle
    of the array version."""
    def ngrams(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    matched, total = np.zeros(MAX_N), np.zeros(MAX_N)
    for cand, ref in zip(candidates, references):
        for n in range(1, MAX_N + 1):
            cand_counts, ref_counts = ngrams(cand, n), ngrams(ref, n)
            total[n - 1] += sum(cand_counts.values())
            matched[n - 1] += sum(min(count, ref_counts[gram])
                                  for gram, count in cand_counts.items())
    lengths = [sum(map(len, candidates)), sum(map(len, references))]
    return np.concatenate([matched, total, lengths])


# few token types, so n-grams repeat; "<unk>" is what decoding an
# out-of-vocabulary id gives, and a reference may hold it literally
sequences = st.lists(st.sampled_from(["a", "b", "c", "<unk>"]), max_size=9)


class TestBleu:
    def test_identity_pair_is_100(self):
        report = corpus_bleu([["the", "cat", "sat", "down", "now"]],
                             [["the", "cat", "sat", "down", "now"]])
        for n in range(1, 5):
            assert report[f"bleu_{n}"] == pytest.approx(100.0)

    def test_disjoint_pair_is_0(self):
        report = corpus_bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]])
        for n in range(1, 5):
            assert report[f"bleu_{n}"] == 0.0

    def test_clipped_unigram_precision(self):
        # candidate "the the the" vs reference "the cat sat": clipped
        # unigram matches = min(3, 1) = 1 of 3, lengths equal so BP = 1
        report = corpus_bleu([["the", "the", "the"]], [["the", "cat", "sat"]])
        assert report["bleu_1"] == pytest.approx(100.0 / 3.0, abs=1e-9)
        assert report["bleu_2"] == 0.0

    def test_brevity_penalty(self):
        # candidate 2 tokens vs reference 4: BP = exp(1 - 4/2), p1 = 1
        report = corpus_bleu([["a", "b"]], [["a", "b", "c", "d"]])
        assert report["bleu_1"] == pytest.approx(100.0 * np.exp(-1.0), abs=1e-9)

    def test_no_penalty_when_longer(self):
        # candidate longer than reference: BP = 1, only precision bites
        report = corpus_bleu([["a", "b", "c"]], [["a", "b"]])
        assert report["bleu_1"] == pytest.approx(100.0 * 2.0 / 3.0)

    def test_corpus_level_pooling(self):
        # counts pool over the corpus before the ratio, not per sentence
        cands = [["a", "a"], ["b"]]
        refs = [["a", "x"], ["y"]]
        report = corpus_bleu(cands, refs)
        assert report["bleu_1"] == pytest.approx(100.0 / 3.0)

    def test_permutation_invariant_over_pairs(self):
        cands = [["a", "b"], ["c", "d", "e"], ["f"]]
        refs = [["a", "x"], ["c", "d", "y"], ["f"]]
        base = corpus_bleu(cands, refs)
        perm = corpus_bleu(cands[::-1], refs[::-1])
        assert base == perm

    def test_zero_propagates_to_higher_orders(self):
        # shared unigrams but no shared bigrams: orders 2..4 all zero
        report = corpus_bleu([["a", "z", "b"]], [["a", "q", "b"]])
        assert report["bleu_1"] > 0
        assert report["bleu_2"] == report["bleu_3"] == report["bleu_4"] == 0.0

    def test_monotonicity_counterexample(self):
        # BLEU-n is NOT monotone in n in general: here every candidate
        # bigram survives clipping while unigram clipping bites, so
        # BLEU-2 = sqrt(2/3) > BLEU-1 = 2/3. Kept as a regression pin on
        # standard clipping behavior.
        report = corpus_bleu([["a", "b", "a"]], [["b", "a", "b"]])
        assert report["bleu_1"] == pytest.approx(100.0 * 2.0 / 3.0)
        assert report["bleu_2"] == pytest.approx(100.0 * np.sqrt(2.0 / 3.0))
        assert report["bleu_2"] > report["bleu_1"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([["a"]], [])

    def test_empty_candidate_scores_zero(self):
        report = corpus_bleu([[]], [["a", "b"]])
        assert report["bleu_1"] == 0.0

    @given(st.lists(
        st.tuples(st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
                  st.lists(st.sampled_from("abc"), min_size=1, max_size=6)),
        min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_range_and_zero_propagation(self, pairs):
        cands = [c for c, _ in pairs]
        refs = [r for _, r in pairs]
        report = corpus_bleu(cands, refs)
        values = [report[f"bleu_{n}"] for n in range(1, 5)]
        assert all(0.0 <= v <= 100.0 for v in values)
        for lower, higher in zip(values, values[1:]):
            if lower == 0.0:
                assert higher == 0.0


    def test_summed_counts_give_the_pooled_corpus_score(self):
        # no part shares a trigram with its references, and the third part
        # shares no bigram either, so the pooled orders 3-4 score zero
        parts = [([["a", "b", "c"]], [["a", "b", "d"]]),
                 ([["x", "y"]], [["x", "y"]]),
                 ([["q", "r", "s"]], [["s", "r", "q"]])]
        pooled = corpus_bleu(sum((c for c, _ in parts), []), sum((r for _, r in parts), []))
        assert bleu_scores(sum(bleu_counts(c, r) for c, r in parts)) == pooled
        assert pooled["bleu_2"] > 0.0 and pooled["bleu_3"] == pooled["bleu_4"] == 0.0

    @given(st.lists(st.lists(
        st.tuples(st.lists(st.sampled_from("abc"), max_size=6),
                  st.lists(st.sampled_from("abc"), max_size=6)),
        min_size=1, max_size=5), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_summed_counts_match_pooled_counting(self, parts):
        counts = [bleu_counts([c for c, _ in part], [r for _, r in part])
                  for part in parts]
        pairs = [pair for part in parts for pair in part]
        pooled = corpus_bleu([c for c, _ in pairs], [r for _, r in pairs])
        assert bleu_scores(sum(counts)) == pooled


class TestBleuCountsOracle:
    @given(st.lists(st.tuples(sequences, sequences), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_counter_counts(self, pairs):
        cands, refs = [c for c, _ in pairs], [r for _, r in pairs]
        got = bleu_counts(cands, refs)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, counter_bleu_counts(cands, refs))

    @pytest.mark.parametrize("cands, refs", [
        ([[]], [[]]),                                  # no tokens at all
        ([[], ["a"]], [["a"], []]),                    # empty candidate and reference
        ([["a", "b", "c"]], [["a", "b", "c", "d"]]),   # candidate shorter than 4
        ([["a", "a", "a", "a", "a"]], [["a", "a"]]),   # repeats clipped
        ([["a", "b"], ["b", "c"]], [["x", "a"], ["b", "y"]]),  # no n-gram across pairs
        ([["<unk>", "b"]], [["<unk>", "b"]]),
    ])
    def test_edge_cases(self, cands, refs):
        np.testing.assert_array_equal(bleu_counts(cands, refs),
                                      counter_bleu_counts(cands, refs))

    def test_many_distinct_tokens_do_not_overflow(self):
        # 2**17 token types: a 4-gram code a*V**3 + b*V**2 + c*V + d wraps in
        # int64, where 4-grams whose first tokens differ by 2**13 collide.
        # Each reference 4-gram is such a twin of a candidate 4-gram.
        vocab = [f"t{i}" for i in range(2 ** 17)]
        ref = [tok for j in range(0, 4000, 4)
               for tok in (vocab[j + 2 ** 13], vocab[j + 1], vocab[j + 2], vocab[j + 3])]
        got = bleu_counts([vocab], [ref])
        np.testing.assert_array_equal(got, counter_bleu_counts([vocab], [ref]))
        assert got[2] > 0 and got[3] == 0


class TestTopkAccuracy:
    def test_full_coverage(self, rng):
        probs = rng.dirichlet(np.ones(5), size=20)
        labels = rng.integers(0, 5, size=20)
        assert topk_accuracy(probs, labels, 5) == 100.0

    def test_one_hot_predictions(self):
        probs = np.eye(4)[[0, 1, 2, 3]]
        assert topk_accuracy(probs, np.array([0, 1, 2, 3]), 1) == 100.0

    def test_hand_computed_top3(self):
        # six fixed rows, worked out by hand
        probs = np.array([
            [0.50, 0.20, 0.15, 0.10, 0.05],  # label 0 -> rank 1, hit
            [0.05, 0.10, 0.15, 0.20, 0.50],  # label 0 -> rank 5, miss
            [0.30, 0.25, 0.20, 0.15, 0.10],  # label 2 -> rank 3, hit
            [0.10, 0.15, 0.20, 0.25, 0.30],  # label 1 -> rank 4, miss
            [0.22, 0.21, 0.20, 0.19, 0.18],  # label 1 -> rank 2, hit
            [0.05, 0.05, 0.30, 0.30, 0.30],  # label 4 -> tie broken low, hit
        ])
        labels = np.array([0, 0, 2, 1, 1, 4])
        assert topk_accuracy(probs, labels, 3) == pytest.approx(100.0 * 4 / 6)

    def test_tie_breaks_toward_lower_index(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25]])
        assert topk_accuracy(probs, np.array([0]), 1) == 100.0
        assert topk_accuracy(probs, np.array([3]), 1) == 0.0
        assert topk_accuracy(probs, np.array([2]), 3) == 100.0
        assert topk_accuracy(probs, np.array([3]), 3) == 0.0

    def test_k_validation(self):
        probs = np.ones((2, 3)) / 3
        with pytest.raises(ValueError):
            topk_accuracy(probs, np.array([0, 1]), 4)
        with pytest.raises(ValueError):
            topk_accuracy(probs, np.array([0, 1]), 0)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_nondecreasing_in_k(self, k):
        rng = np.random.default_rng(k)
        probs = rng.dirichlet(np.ones(6), size=40)
        labels = rng.integers(0, 6, size=40)
        accs = [topk_accuracy(probs, labels, j) for j in range(1, k + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))

    def test_top3_at_least_top1(self, rng):
        probs = rng.dirichlet(np.ones(10), size=100)
        labels = rng.integers(0, 10, size=100)
        assert topk_accuracy(probs, labels, 3) >= topk_accuracy(probs, labels, 1)
