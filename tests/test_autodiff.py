import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gloss import autodiff as ad
from gloss.autodiff import Adam, NonFiniteError, ShapeError, Tensor

from conftest import finite_difference_grad, relative_error

GRAD_TOL = 1e-4
FD_STEP = 1e-3


def tape_gradient(build, x: np.ndarray) -> np.ndarray:
    t = Tensor(x, requires_grad=True)
    build(t).backward()
    return t.grad


def check_op(build, x: np.ndarray):
    """Tape gradient vs the central finite-difference oracle."""
    got = tape_gradient(build, x.copy())
    want = finite_difference_grad(lambda arr: build(Tensor(arr)).item(), x.copy(),
                                  step=FD_STEP)
    assert relative_error(got, want) < GRAD_TOL


class TestGradientChecks:
    """Every differentiable op at three random points."""

    @pytest.mark.parametrize("point", range(3))
    def test_matmul_left(self, rng, point):
        b = rng.normal(size=(4, 2))
        check_op(lambda t: ad.matmul(t, Tensor(b)).sum(), rng.normal(size=(3, 4)))

    @pytest.mark.parametrize("point", range(3))
    def test_matmul_right(self, rng, point):
        a = rng.normal(size=(3, 4))
        check_op(lambda t: ad.matmul(Tensor(a), t).sum(), rng.normal(size=(4, 2)))

    @pytest.mark.parametrize("point", range(3))
    def test_matmul_batched(self, rng, point):
        # the window product, through conv_max: width-2 windows over (2, 4)
        # ids with a repeated token; row 0's last window runs into padding
        # and row 1, one token long, keeps only its first window
        ids = np.array([[0, 2, 1, 2], [1, 1, 0, 2]])
        lengths = np.array([3, 1])
        table, kernel = rng.normal(size=(3, 4)), rng.normal(size=(8, 2))
        g = Tensor(rng.normal(size=(2, 2)))
        check_op(lambda t: ad.mul(ad.conv_max(t, ids, Tensor(kernel), lengths), g).sum(),
                 table)
        check_op(lambda t: ad.mul(ad.conv_max(Tensor(table), ids, t, lengths), g).sum(),
                 kernel)

    @pytest.mark.parametrize("point", range(3))
    def test_softmax(self, rng, point):
        w = rng.normal(size=5)
        check_op(lambda t: ad.mul(ad.softmax(t), Tensor(w)).sum(),
                 rng.normal(size=5))

    @pytest.mark.parametrize("point", range(3))
    def test_cross_entropy_mean(self, rng, point):
        targets = np.array([1, 3, 0])
        check_op(lambda t: ad.cross_entropy(t, targets).mean(), rng.normal(size=(3, 4)))

    @pytest.mark.parametrize("point", range(3))
    def test_cross_entropy_none(self, rng, point):
        targets = np.array([2, 0])
        w = rng.normal(size=2)
        check_op(lambda t: ad.mul(ad.cross_entropy(t, targets), Tensor(w)).sum(),
                 rng.normal(size=(2, 3)))

    @pytest.mark.parametrize("op", [ad.tanh, ad.exp, ad.neg])
    @pytest.mark.parametrize("point", range(3))
    def test_unary(self, rng, op, point):
        check_op(lambda t: op(t).sum(), rng.normal(size=(2, 3)))

    @pytest.mark.parametrize("point", range(3))
    def test_relu(self, rng, point):
        x = rng.normal(size=(2, 3))
        x[np.abs(x) < 0.05] += 0.2  # keep clear of the kink
        check_op(lambda t: ad.relu(t).sum(), x)

    @pytest.mark.parametrize("point", range(3))
    def test_add_mul_broadcast(self, rng, point):
        other = rng.normal(size=3)
        check_op(lambda t: ad.mul(t + Tensor(other), t).sum(),
                 rng.normal(size=(2, 3)))

    @pytest.mark.parametrize("point", range(3))
    def test_sub(self, rng, point):
        other = rng.normal(size=(2, 3))
        check_op(lambda t: (t - Tensor(other)).sum(), rng.normal(size=(2, 3)))

    @pytest.mark.parametrize("point", range(3))
    def test_concat(self, rng, point):
        other = rng.normal(size=(2, 2))
        w = rng.normal(size=(2, 5))
        check_op(lambda t: ad.mul(ad.concat([t, Tensor(other)], axis=1),
                                  Tensor(w)).sum(),
                 rng.normal(size=(2, 3)))

    @pytest.mark.parametrize("point", range(3))
    def test_mean_and_sum_axes(self, rng, point):
        check_op(lambda t: t.sum(axis=0).mean(), rng.normal(size=(3, 4)))
        check_op(lambda t: t.sum(axis=1).mean(), rng.normal(size=(3, 4)))
        check_op(lambda t: t.mean(), rng.normal(size=(3, 4)))

    @pytest.mark.parametrize("point", range(3))
    def test_max(self, rng, point):
        x = rng.normal(size=(3, 4))
        x += np.arange(12).reshape(3, 4) * 0.01  # break ties
        check_op(lambda t: t.max(axis=1).sum(), x)

    def test_max_ties_send_gradient_to_first_maximum(self):
        t = Tensor(np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 0.0]]), requires_grad=True)
        ad.mul(t.max(axis=1), Tensor(np.array([5.0, 7.0]))).sum().backward()
        np.testing.assert_array_equal(t.grad, [[0.0, 5.0, 0.0], [7.0, 0.0, 0.0]])

    @pytest.mark.parametrize("point", range(3))
    def test_slice_and_reshape(self, rng, point):
        check_op(lambda t: ad.slice_axis(t, 1, 1, 3).sum(), rng.normal(size=(2, 4)))
        check_op(lambda t: t.reshape(6).sum(), rng.normal(size=(2, 3)))

    @pytest.mark.parametrize("point", range(3))
    def test_embedding_lookup(self, rng, point):
        ids = np.array([[0, 2], [2, 1]])
        w = rng.normal(size=(2, 2, 3))
        check_op(lambda t: ad.mul(ad.embedding_lookup(t, ids), Tensor(w)).sum(),
                 rng.normal(size=(4, 3)))


NOT_OPS = {"no_grad"}


def test_every_op_has_a_finite_difference_case(monkeypatch):
    """Each op in ``autodiff.__all__`` is called by a criterion-1 case."""
    from test_acceptance import gradient_cases

    ops = [name for name in ad.__all__ if name not in NOT_OPS
           and not inspect.isclass(getattr(ad, name))]
    called, depth = set(), [0]

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            if depth[0] == 0:  # ops called by other ops do not count
                called.add(name)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in ops:
        monkeypatch.setattr(ad, name, recorder(name, getattr(ad, name)))
    rng = np.random.default_rng(0)
    for build in gradient_cases(rng):
        build(Tensor(rng.normal(size=(3, 4)), requires_grad=True))
    assert "lstm_sequence" in ops and "gru_sequence" in ops
    assert sorted(set(ops) - called) == []


class TestForwardValues:
    def test_matmul_identity(self):
        eye = np.eye(2)
        m = [[1.0, 2.0], [3.0, 4.0]]
        out = ad.matmul(Tensor(eye), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_matmul_hand(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_matmul_batched_is_rejected(self):
        with pytest.raises(ShapeError, match="2-D"):
            ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2))))

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(ad.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_softmax_overflow_safe(self):
        out = ad.softmax(Tensor([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        assert out[0] > 0.999999 and out[1] < 1e-6

    def test_softmax_normalization(self, rng):
        out = ad.softmax(Tensor(rng.normal(size=(20, 7)) * 10)).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out > 0).all()

    def test_cross_entropy_confident(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 50.0
        assert ad.cross_entropy(Tensor(logits), np.array([1])).mean().item() < 1e-9

    def test_cross_entropy_uniform(self):
        loss = ad.cross_entropy(Tensor(np.zeros((5, 4))), np.array([0, 1, 2, 3, 0])).mean()
        assert loss.item() == pytest.approx(np.log(4), abs=1e-12)

    def test_cross_entropy_nonnegative(self, rng):
        logits = Tensor(rng.normal(size=(30, 6)) * 3)
        targets = rng.integers(0, 6, size=30)
        losses = ad.cross_entropy(logits, targets)
        assert (losses.data >= 0).all()

    def test_cross_entropy_target_range(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_sigmoid_matches_one_exp_formula_bitwise(self, rng):
        x = np.concatenate([rng.normal(size=200) * 20,
                            [-1000.0, -800.0, -745.0, -709.0, -40.0, -0.0, 0.0, 1e-300,
                             40.0, 709.0, 745.0, 800.0, 1000.0, np.inf, -np.inf, 5e-324,
                             -5e-324, 1e-310, -1e-310, 2.2e-308, -2.2e-308]])
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
            bits = want.view(np.uint64)
            assert np.array_equal(ad._sigmoid(x, np.empty_like(x)).view(np.uint64), bits)
            # 2-D input, and a strided out=
            x2 = x.reshape(13, 17)
            got = ad._sigmoid(x2, np.empty_like(x2))
            assert np.array_equal(got.view(np.uint64), bits.reshape(13, 17))
            buf = np.full((x.size, 3), 7.0)
            got = ad._sigmoid(x, buf[:, 1])
            assert got.base is buf
            assert np.array_equal(buf[:, 1].view(np.uint64), bits)
            assert (buf[:, [0, 2]] == 7.0).all()
            # in place: out may be the input itself
            inplace = x2.copy()
            ad._sigmoid(inplace, inplace)
            assert np.array_equal(inplace.view(np.uint64), bits.reshape(13, 17))
        # exp(-x) overflows below -709 and the quotient is an exact 0
        ends = dict(zip(x[200:], want[200:]))
        assert ends[-1000.0] == ends[-745.0] == ends[-np.inf] == 0.0
        assert ends[1000.0] == ends[745.0] == ends[np.inf] == 1.0
        assert 0.0 < ends[-709.0] < 1e-300

    def test_sigmoid_keeps_nan(self):
        x = np.array([np.nan, -np.nan])
        assert np.isnan(ad._sigmoid(x, np.empty_like(x))).all()

    def test_sigmoid_tanh_zero(self):
        for zero in (0.0, -0.0):
            assert ad._sigmoid(np.array(zero), np.empty(())) == 0.5
        assert ad.tanh(Tensor(0.0)).item() == 0.0

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "no_grad"])
    def test_saturated_gates_warn_nothing(self, rng, cell, taped):
        # pre-activations of +-1000 overflow exp(-x) inside the sigmoid;
        # the ops give exact 0 and 1 gates and let no RuntimeWarning out
        nh = 3
        n = (4 if cell == "lstm" else 3) * nh
        b = np.where(np.arange(n) % 2 == 0, -1000.0, 1000.0)
        table = rng.normal(size=(6, 2))
        ids = np.array([[1, 2, 1], [3, 0, 0]])
        params = [Tensor(table, requires_grad=True),
                  Tensor(rng.normal(size=(2, n)), requires_grad=True)]
        if cell == "lstm":
            params += [Tensor(rng.normal(size=(nh, n)), requires_grad=True),
                       Tensor(b, requires_grad=True)]

            def run():
                return ad.lstm_sequence(params[0], ids, *params[1:])
        else:
            params += [Tensor(b, requires_grad=True), Tensor(rng.normal(size=(nh, 2 * nh))),
                       Tensor(rng.normal(size=(nh, nh)))]

            def run():
                return ad.gru_sequence(params[0], ids, *params[1:])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if taped:
                out = run()
                out.sum().backward()
            else:
                with ad.no_grad():
                    out = run()
        assert np.isfinite(out.data).all()

    def test_embedding_index_error(self):
        with pytest.raises(IndexError):
            ad.embedding_lookup(Tensor(np.ones((3, 2)), requires_grad=True),
                                np.array([3]))


class TestConvMax:
    @staticmethod
    def run(table, ids, w, lengths, g):
        """Output of conv_max and the gradients of sum(g * output)."""
        tt, wt = Tensor(table, requires_grad=True), Tensor(w, requires_grad=True)
        out = ad.conv_max(tt, ids, wt, lengths)
        ad.mul(out, Tensor(g)).sum().backward()
        return out.data, tt.grad, wt.grad

    @staticmethod
    def reference(table, ids, w, lengths, g):
        """The plain window product: gathered (B, W, K) windows @ w, the
        scores of windows that run past a row's length (all but the first
        in a row shorter than the filter) set to -inf and the max over
        windows, then the matrix product's gradient expressions applied to
        the gradient of each row's first maximum and scattered back to the
        table."""
        width = w.shape[0] // table.shape[1]
        window_ids = sliding_window_view(ids, width, axis=1)
        windows = table[window_ids].reshape(*window_ids.shape[:2], -1)
        scores = windows @ w
        for row, length in zip(scores, lengths):
            row[max(length - width + 1, 1):] = -np.inf
        d_scores = np.zeros_like(scores)
        np.put_along_axis(d_scores, scores.argmax(axis=1)[:, None], g[:, None], axis=1)
        d_table = np.zeros_like(table)
        np.add.at(d_table, window_ids.reshape(-1),
                  (d_scores @ w.T).reshape(-1, table.shape[1]))
        k, n = w.shape
        return (scores.max(axis=1), d_table,
                windows.reshape(-1, k).T @ d_scores.reshape(-1, n))

    @staticmethod
    def ragged(rng, batch, steps, n_embed, n_filters, width, vocab):
        """A batch whose first row is full and whose other rows have any
        length from 0 to T, some shorter than the filter."""
        ids = rng.integers(0, vocab, size=(batch, steps))
        lengths = rng.integers(0, steps + 1, size=batch)
        lengths[0] = steps
        return (rng.normal(size=(vocab, n_embed)), ids,
                rng.normal(size=(width * n_embed, n_filters)) * 0.1, lengths,
                rng.normal(size=(batch, n_filters)))

    def check_against_reference(self, args):
        for got, want in zip(self.run(*args), self.reference(*args)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    # a ragged small batch, then the serving shape: 64 rows of 41 tokens
    # from a 51-token vocabulary, 256 filters of width 6
    @pytest.mark.parametrize("shape", [(7, 11, 4, 5, 3, 9), (64, 41, 48, 256, 6, 51)])
    def test_matches_window_product(self, rng, shape):
        self.check_against_reference(self.ragged(rng, *shape))

    def test_all_ids_distinct(self, rng):
        table, _, w, lengths, g = self.ragged(rng, 6, 9, 4, 5, 3, 54)
        ids = rng.permutation(54).reshape(6, 9)
        self.check_against_reference((table, ids, w, lengths, g))

    def test_token_in_several_windows_adds_up(self):
        # filter 0 reads a window's first token and filter 1 its second: in
        # row 0 the token at position 1 fills both winning windows, in row 1
        # token 2 wins once at position 0 and once at position 2
        table = np.array([[0.0], [1.0], [2.0]])
        out, d_table, d_w = self.run(table, np.array([[1, 2, 1], [2, 1, 2]]), np.eye(2),
                                     np.array([3, 3]), np.array([[5.0, 7.0], [11.0, 13.0]]))
        np.testing.assert_array_equal(out, [[2.0, 2.0], [2.0, 2.0]])
        np.testing.assert_array_equal(d_table, [[0.0], [0.0], [36.0]])
        np.testing.assert_array_equal(d_w, [[32.0, 20.0], [16.0, 40.0]])

    def test_ties_send_gradient_to_first_maximum(self):
        # row 0 repeats the window of token 3 and ties it with token 5's
        # equal score: the gradient goes once, to the first; row 1's padded
        # windows score 0, above the valid -2, and must not win
        table = np.array([[0.0], [1.0], [2.0], [3.0], [5.0], [3.0]])
        ids = np.array([[3, 1, 3, 5, 4], [2, 2, 0, 0, 0]])
        out, d_table, d_w = self.run(table, ids, np.array([[1.0, -1.0]]), np.array([4, 2]),
                                     np.array([[5.0, 7.0], [11.0, 13.0]]))
        np.testing.assert_array_equal(out, [[3.0, -1.0], [2.0, -2.0]])
        np.testing.assert_array_equal(d_table[:, 0], [0.0, -7.0, -2.0, 5.0, 0.0, 0.0])
        np.testing.assert_array_equal(d_w, [[37.0, 33.0]])

    @pytest.mark.parametrize("bad_id", [-1, 3])
    def test_index_error(self, bad_id):
        ids = np.array([[0, 1, bad_id]])
        with pytest.raises(IndexError):
            ad.conv_max(Tensor(np.ones((3, 2))), ids, Tensor(np.ones((4, 2))), np.array([3]))

    # ``windows`` is the shape of the ids the windows are cut from; the
    # table is (3, 2), so a kernel of 4 rows has width 2
    @pytest.mark.parametrize("windows,w,lengths", [
        ((2, 3, 4), (4, 2), (2,)),
        ((2, 3), (4, 2, 1), (2,)),
        ((2, 3), (5, 2), (2,)),
        ((2, 1), (4, 2), (2,)),
        ((2, 3), (4, 2), (3,)),
        ((2, 3), (4, 2), (2, 1)),
    ])
    def test_shape_errors(self, windows, w, lengths):
        with pytest.raises(ShapeError):
            ad.conv_max(Tensor(np.ones((3, 2))), np.zeros(windows, dtype=int),
                        Tensor(np.ones(w)), np.ones(lengths, dtype=int))


class TestRowSums:
    def test_matches_add_at_bitwise_with_duplicate_ids(self, rng):
        ids = np.array([3, 0, 3, 3, 1, 0, 3, 2, 2, 3])
        values = rng.normal(size=(len(ids), 5)) * 10.0 ** rng.integers(-8, 8, size=(len(ids), 1))
        want = np.zeros((6, 5))
        np.add.at(want, ids, values)
        got = ad._row_sums(ids[:, None], values, 6)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_embedding_lookup_grad_is_add_at_on_a_fresh_gradient(self, rng):
        ids = rng.integers(0, 7, size=(33, 32))  # 1,056 rows, every id many times
        g = rng.normal(size=(33, 32, 4))
        table = Tensor(rng.normal(size=(55, 4)), requires_grad=True)
        ad.mul(ad.embedding_lookup(table, ids), Tensor(g)).sum().backward()
        want = np.zeros((55, 4))
        np.add.at(want, ids.reshape(-1), g.reshape(-1, 4))
        assert np.array_equal(table.grad.view(np.uint64), want.view(np.uint64))


def _reversed_within(ids, lengths):
    """Each row's first ``lengths`` ids reversed, as the BiGRU's backward
    direction reads them; the positions past a row's length repeat its
    first id."""
    flip = np.maximum(np.asarray(lengths)[:, None] - 1 - np.arange(ids.shape[1]), 0)
    return np.take_along_axis(ids, flip, 1)


class TestLookupInput:
    """The sequence ops fed by an embedding table and (B, T) ids."""

    V, E, H = 13, 3, 4
    # PAD (id 0) fills the padded positions; ids 2 and 3 repeat across rows
    REPEATED = np.array([[2, 3, 2, 5], [3, 3, 0, 0], [1, 2, 3, 0]])
    ALL_DISTINCT = np.arange(1, 13).reshape(3, 4)

    @classmethod
    def weights(cls, rng, cell):
        nh = cls.H
        if cell == "lstm":
            return [rng.normal(size=(cls.E, 4 * nh)) * 0.5, rng.normal(size=(nh, 4 * nh)) * 0.5,
                    rng.normal(size=4 * nh) * 0.5]
        return [rng.normal(size=(cls.E, 3 * nh)) * 0.5, rng.normal(size=3 * nh) * 0.5,
                rng.normal(size=(nh, 2 * nh)) * 0.5, rng.normal(size=(nh, nh)) * 0.5]

    @staticmethod
    def op(cell, table, weights, ids, h0=None):
        """The sequence op over the rows of ``table`` that ``ids`` pick."""
        if cell == "lstm":
            return ad.lstm_sequence(table, ids, *weights)
        return ad.gru_sequence(table, ids, *weights, h0=h0)

    @pytest.mark.parametrize("cell,reverse,with_h0", [
        ("lstm", False, False), ("gru", False, False), ("gru", True, False),
        ("gru", False, True), ("gru", True, True)])
    @pytest.mark.parametrize("ids_kind", ["repeated", "all_distinct"])
    @pytest.mark.parametrize("wrt", ["table", "w_x"])
    def test_finite_differences(self, rng, cell, reverse, with_h0, ids_kind, wrt):
        ids = self.REPEATED if ids_kind == "repeated" else self.ALL_DISTINCT
        if reverse:  # the ids of the BiGRU's backward direction
            ids = _reversed_within(ids, (ids != 0).sum(axis=1))
        table = rng.normal(size=(self.V, self.E))
        weights = self.weights(rng, cell)
        h0 = Tensor(rng.normal(size=(3, self.H)) * 0.5) if with_h0 else None
        g = Tensor(rng.normal(size=(12, self.H)))

        def build(t):
            tt = t if wrt == "table" else Tensor(table)
            ws = [Tensor(w) for w in weights]
            if wrt == "w_x":
                ws[0] = t
            out = self.op(cell, tt, ws, ids, h0=h0)
            return ad.mul(out, g).sum()

        check_op(build, table.copy() if wrt == "table" else weights[0].copy())

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("lookup_first", [True, False], ids=["lookup_first", "op_first"])
    def test_table_gradient_adds_to_a_lookup_of_the_same_table(self, rng, cell, lookup_first):
        # the loss also reads the table through embedding_lookup, so both
        # ops add into the one table gradient, whichever backward runs first
        weights = [Tensor(w) for w in self.weights(rng, cell)]
        g = Tensor(rng.normal(size=(12, self.H)))
        other_ids = np.array([[0, 2], [5, 5], [12, 2]])
        g2 = Tensor(rng.normal(size=(3, 2, self.E)))

        def build(t):
            out = self.op(cell, t, weights, self.REPEATED)
            terms = [ad.mul(out, g).sum(), ad.mul(ad.embedding_lookup(t, other_ids), g2).sum()]
            return terms[1] + terms[0] if lookup_first else terms[0] + terms[1]

        check_op(build, rng.normal(size=(self.V, self.E)))

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("bad_id", [-1, 13])
    def test_index_error(self, rng, cell, bad_id):
        ids = self.REPEATED.copy()
        ids[1, 2] = bad_id
        table = Tensor(rng.normal(size=(self.V, self.E)), requires_grad=True)
        weights = [Tensor(w) for w in self.weights(rng, cell)]
        with pytest.raises(IndexError):
            ad.embedding_lookup(table, ids)
        with pytest.raises(IndexError):
            self.op(cell, table, weights, ids)

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("table,ids", [((13, 3, 1), (3, 4)), ((13, 2), (3, 4)),
                                           ((13, 3), (12,))])
    def test_shape_errors(self, rng, cell, table, ids):
        weights = [Tensor(w) for w in self.weights(rng, cell)]
        with pytest.raises(ShapeError):
            self.op(cell, Tensor(np.ones(table)), weights, np.zeros(ids, dtype=int))


class TestTableAsGiven:
    """conv_max and the sequence ops project every row of the table they are
    given and use the ids as given; picking distinct rows is the caller's."""

    E, H = 3, 4
    IDS = np.array([[2, 0, 2, 4], [1, 1, 3, 0], [4, 2, 0, 0]])  # rows 0-4 of 5
    LENGTHS = np.array([4, 3, 2])  # for conv_max
    OPS = ["conv_max", "lstm_sequence", "gru_sequence"]

    @classmethod
    def weights(cls, rng, op):
        nh = cls.H
        if op == "conv_max":  # one kernel of width 2
            return [rng.normal(size=(2 * cls.E, nh))]
        if op == "lstm_sequence":
            return [rng.normal(size=(cls.E, 4 * nh)), rng.normal(size=(nh, 4 * nh)) * 0.5,
                    rng.normal(size=4 * nh)]
        return [rng.normal(size=(cls.E, 3 * nh)), rng.normal(size=3 * nh),
                rng.normal(size=(nh, 2 * nh)) * 0.5, rng.normal(size=(nh, nh)) * 0.5]

    @classmethod
    def run(cls, op, table, ids, weights, g):
        """Output of ``op`` and the gradients of sum(g * output) wrt the table
        and each weight."""
        params = [Tensor(a, requires_grad=True) for a in [table] + weights]
        if op == "conv_max":
            out = ad.conv_max(params[0], ids, params[1], cls.LENGTHS)
        elif op == "lstm_sequence":
            out = ad.lstm_sequence(params[0], ids, *params[1:])
        else:
            out = ad.gru_sequence(params[0], ids, *params[1:])
        ad.mul(out, Tensor(g[:, 0] if op == "conv_max" else g.reshape(-1, cls.H))).sum().backward()
        return [out.data] + [p.grad for p in params]

    @pytest.fixture
    def no_unique(self, monkeypatch):
        def unique(*args, **kwargs):
            raise AssertionError("np.unique called")
        monkeypatch.setattr(np, "unique", unique)

    @pytest.mark.parametrize("op", OPS)
    def test_runs_forward_and_backward_without_unique(self, rng, op, no_unique):
        got = self.run(op, rng.normal(size=(5, self.E)), self.IDS, self.weights(rng, op),
                       rng.normal(size=(3, 4, self.H)))
        assert all(np.isfinite(a).all() and np.abs(a).max() > 0 for a in got)

    @pytest.mark.parametrize("op", OPS)
    def test_unused_rows_change_nothing_and_get_zero_gradient(self, rng, op):
        compact = rng.normal(size=(5, self.E))
        at = np.array([1, 3, 4, 6, 8])  # where the compact rows sit among 9
        table = rng.normal(size=(9, self.E))
        table[at] = compact
        weights = self.weights(rng, op)
        g = rng.normal(size=(3, 4, self.H))
        got = self.run(op, table, at[self.IDS], weights, g)
        want = self.run(op, compact, self.IDS, weights, g)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[1][at], want[1], rtol=1e-12, atol=0)
        assert np.all(np.delete(got[1], at, axis=0) == 0.0)
        for a, b in zip(got[2:], want[2:]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("bad_id", [-1, 5])
    def test_out_of_range_id_raises(self, rng, op, bad_id, no_unique):
        ids = self.IDS.copy()
        ids[1, 2] = bad_id
        with pytest.raises(IndexError):
            self.run(op, rng.normal(size=(5, self.E)), ids, self.weights(rng, op),
                     rng.normal(size=(3, 4, self.H)))


def _lookup_and_dense(rng, build, weight_shapes, ids, g):
    """The output and every gradient of sum(g * build(...)), once from the
    table and ids and once from ``embedding_lookup(table, ids)`` as a
    (B*T, E) table with identity ids."""
    results = []
    table = rng.normal(size=(20, 5))
    weights = [rng.normal(size=shape) * 0.5 for shape in weight_shapes]
    identity = np.arange(ids.size).reshape(ids.shape)
    for use_ids in (True, False):
        tt = Tensor(table, requires_grad=True)
        ws = [Tensor(w, requires_grad=True) for w in weights]
        if use_ids:
            out = build(tt, ws, ids)
        else:
            out = build(ad.embedding_lookup(tt, ids).reshape(ids.size, -1), ws, identity)
        ad.mul(out, Tensor(g)).sum().backward()
        results.append([out.data, tt.grad] + [w.grad for w in ws])
    return results


@pytest.mark.parametrize("ragged", [True, False], ids=["ragged", "unpadded"])
@pytest.mark.parametrize("cell,reverse,with_h0", [
    ("lstm", False, False), ("gru", False, False), ("gru", True, False),
    ("gru", False, True), ("gru", True, True), ("bigru", False, False)])
def test_lookup_input_agrees_with_dense_lookup(rng, cell, reverse, with_h0, ragged):
    from gloss.models import BiGRU

    batch, steps, nh = 6, 7, 4
    ids = rng.integers(0, 9, size=(batch, steps))  # a 20-row table, 9 ids used
    lengths = np.full(batch, steps)
    if ragged:
        lengths = rng.integers(1, steps + 1, size=batch)
        ids[np.arange(steps) >= lengths[:, None]] = 0
    if reverse:  # the ids of the BiGRU's backward direction
        ids = _reversed_within(ids, lengths)
    if cell == "lstm":
        shapes = [(5, 4 * nh), (nh, 4 * nh), (4 * nh,)]

        def build(x, ws, ids):
            return ad.lstm_sequence(x, ids, *ws)
    elif cell == "gru":
        shapes = [(5, 3 * nh), (3 * nh,), (nh, 2 * nh), (nh, nh)] + [(batch, nh)] * with_h0

        def build(x, ws, ids):
            h0 = ws[4] if with_h0 else None
            return ad.gru_sequence(x, ids, *ws[:4], h0=h0)
    else:
        net = BiGRU(rng, 5, nh)
        names = list(net.parameters())
        shapes = [p.shape for p in net.parameters().values()]

        def build(x, ws, ids):
            for name, w in zip(names, ws):
                part, attr = name.split(".")
                setattr(getattr(net, part), attr, w)
            return net(x, ids, lengths)
    g_shape = (batch, 2 * nh) if cell == "bigru" else (batch * steps, nh)
    got, want = _lookup_and_dense(rng, build, shapes, ids, rng.normal(size=g_shape))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_no_grad_sequence_peak_memory(rng, cell):
    """At the numeric workload's dev batch, an untaped sequence op over ids
    holds no (T, B, n) projection: its numpy buffers (which numpy reports to
    tracemalloc) peak below three times its (B*T, H) output."""
    batch, steps, vocab, dim, nh = 100, 42, 51, 48, 64
    ids = rng.integers(0, vocab, size=(batch, steps))
    table = Tensor(rng.normal(size=(vocab, dim)))
    n = (4 if cell == "lstm" else 3) * nh
    w_x, b = Tensor(rng.normal(size=(dim, n)) * 0.1), Tensor(rng.normal(size=n) * 0.1)
    w_h = Tensor(rng.normal(size=(nh, 4 * nh if cell == "lstm" else 2 * nh)) * 0.1)
    tracemalloc.start()
    try:
        with ad.no_grad():
            if cell == "lstm":
                out = ad.lstm_sequence(table, ids, w_x, w_h, b)
            else:
                out = ad.gru_sequence(table, ids, w_x, b, w_h, Tensor(np.eye(nh) * 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (batch * steps, nh)
    assert peak < 3 * out.data.nbytes


class TestTapeSemantics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t + t).backward()

    def test_backward_deterministic_bitwise(self, rng):
        x = rng.normal(size=(6, 5))
        w = rng.normal(size=(5, 3))

        def run():
            t = Tensor(x, requires_grad=True)
            loss = ad.cross_entropy(ad.tanh(ad.matmul(t, Tensor(w))),
                                    np.array([0, 1, 2, 0, 1, 2])).mean()
            loss.backward()
            return t.grad

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_repeated_backward_accumulates(self):
        t = Tensor([2.0], requires_grad=True)
        loss = ad.mul(t, t).sum()
        loss.backward()
        first = t.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(t.grad, 2 * first)

    def test_detach_blocks_gradient(self):
        # a Tensor wrapped around another's data is a constant on the tape
        t = Tensor([3.0], requires_grad=True)
        loss = ad.mul(Tensor(t.data), t).sum()
        loss.backward()
        np.testing.assert_array_equal(t.grad, [3.0])  # only the live factor

    def test_no_grad_records_nothing(self):
        t = Tensor([1.0], requires_grad=True)
        w_x = Tensor(np.full((1, 3), 0.5), requires_grad=True)
        with ad.no_grad():
            out = ad.tanh(t)
            seq = ad.gru_sequence(Tensor(np.ones((6, 1))), np.arange(6).reshape(2, 3), w_x,
                                  Tensor(np.zeros(3)), Tensor(np.ones((1, 2))),
                                  Tensor(np.ones((1, 1))))
        assert not out.requires_grad and out._backward is None
        assert not seq.requires_grad and seq._backward is None

    def test_deep_graph_no_recursion_error(self):
        t = Tensor([0.1], requires_grad=True)
        out = t
        for _ in range(5000):
            out = out + Tensor([0.0])
        out.sum().backward()
        np.testing.assert_array_equal(t.grad, [1.0])

    def test_nan_detection(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])
        # the overflow is deliberate, and numpy warns of it
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NonFiniteError):
            ad.exp(Tensor([1e6]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_large_finite_values_pass(self):
        # the sum overflows to inf, so the full scan decides: all finite
        big = Tensor([1e308, 1e308])
        assert ad.mul(big, Tensor(0.5)).data[0] == 5e307

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_weight_in_sequence_op(self, rng):
        # weights turn non-finite in place (an optimizer step), not through Tensor()
        x = Tensor(rng.normal(size=(2, 3, 2)).reshape(6, 2))
        ids = np.arange(6).reshape(2, 3)
        lstm_w_x = Tensor(rng.normal(size=(2, 8)))
        lstm_w_x.data[1, 2] = np.inf
        with pytest.raises(NonFiniteError):
            ad.lstm_sequence(x, ids, lstm_w_x, Tensor(rng.normal(size=(2, 8))),
                             Tensor(np.zeros(8)))
        gru_w_h = Tensor(rng.normal(size=(2, 4)))
        gru_w_h.data[0, 1] = np.nan
        with pytest.raises(NonFiniteError):
            ad.gru_sequence(x, ids, Tensor(rng.normal(size=(2, 6))), Tensor(np.zeros(6)),
                            gru_w_h, Tensor(np.eye(2)))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_overflowing_bias_add_raises(self, cell):
        # x @ w_x is a finite 1.5e308; adding a bias of 1.5e308 overflows,
        # and the squashing gates would otherwise hide the inf
        nh = 2
        n = (4 if cell == "lstm" else 3) * nh
        ids = np.zeros((2, 3), dtype=int)
        x = Tensor(np.ones((1, 1)))
        w_x, b = Tensor(np.full((1, n), 1.5e308)), Tensor(np.full(n, 1.5e308))
        w_h = Tensor(np.zeros((nh, 4 * nh if cell == "lstm" else 2 * nh)))
        with pytest.raises(NonFiniteError):
            if cell == "lstm":
                ad.lstm_sequence(x, ids, w_x, w_h, b)
            else:
                ad.gru_sequence(x, ids, w_x, b, w_h, Tensor(np.zeros((nh, nh))))

    @staticmethod
    def recurrent_op(cell, scale, reset_scale=0.0, taped=False):
        """A 3-step op on a (2, 2) table whose recurrent weights are all
        ``scale`` (the GRU's w_hn all ``reset_scale``), as a function of no
        arguments; x @ w_x and the biases are small, so only the recurrent
        products can grow."""
        nh = 2
        table = Tensor(np.array([[0.5, -0.25], [1.0, 0.75]]), requires_grad=taped)
        ids = np.array([[0, 1, 1], [1, 0, 1]])
        with np.errstate(over="ignore"):  # Tensor()'s check sums the weights
            w_h = Tensor(np.full((nh, (4 if cell == "lstm" else 2) * nh), scale))
            w_hn = Tensor(np.full((nh, nh), reset_scale))
        if cell == "lstm":
            return lambda: ad.lstm_sequence(table, ids, Tensor(np.full((2, 4 * nh), 0.5)), w_h,
                                            Tensor(np.full(4 * nh, 0.25)))
        return lambda: ad.gru_sequence(table, ids, Tensor(np.full((2, 3 * nh), 0.5)),
                                       Tensor(np.full(3 * nh, 0.25)), w_h, w_hn,
                                       h0=Tensor(np.ones((2, nh))))

    @pytest.mark.parametrize("cell,scale,reset_scale", [
        ("lstm", 1.5e308, 0.0), ("gru", 1.5e308, 0.0), ("gru", 0.0, 1.5e308),
        ("gru", 1.5e308, 1.5e308)], ids=["lstm_w_h", "gru_w_h", "gru_w_hn", "gru_both"])
    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "no_grad"])
    def test_overflowing_recurrent_product_raises(self, cell, scale, reset_scale, taped):
        # h @ w_h overflows to inf inside the loop, where the gates would
        # squash it to 0 or 1 and return a finite output; nothing warns
        run = self.recurrent_op(cell, scale, reset_scale, taped)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match=f"{cell}_sequence"):
                if taped:
                    run()
                else:
                    with ad.no_grad():
                        run()

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("scale,checked", [(1e150, False), (1e307, True)],
                             ids=["bound_finite", "steps_checked"])
    def test_large_recurrent_weights_that_do_not_overflow_pass(self, cell, scale, checked):
        # products of about 1e150 keep the bound finite, so no step is
        # checked; at 1e307 the squares in the bound overflow, so every step
        # is checked, and none raises: the products themselves stay finite
        weights = [np.full((2, 8), scale)] + [np.full((2, 2), scale)] * (cell == "gru")
        assert ad._may_overflow(np.ones((3, 8)), None, *weights) is checked
        out = self.recurrent_op(cell, scale, scale if cell == "gru" else 0.0)()
        assert np.isfinite(out.data).all()

    def test_overflow_bound(self):
        # the state bound comes from h0, and a NaN anywhere turns the checks on
        proj, w_h = np.ones((3, 6)), np.full((2, 4), 1e150)
        assert not ad._may_overflow(proj, np.full((3, 2), 1e5), w_h)
        assert ad._may_overflow(proj, np.full((3, 2), 1e160), w_h)
        assert ad._may_overflow(np.full((3, 6), np.nan), None, w_h)
        assert ad._may_overflow(proj, None, np.full((2, 4), np.nan))

    @pytest.mark.parametrize("shape", [(1, 2), (3, 2), (2, 3), (2,)])
    def test_gru_h0_shape_error(self, rng, shape):
        # a (1, H) state would broadcast over the batch and get a (B, H) gradient
        with pytest.raises(ShapeError, match="h0 shape"):
            ad.gru_sequence(Tensor(rng.normal(size=(2, 3, 2)).reshape(6, 2)),
                            np.arange(6).reshape(2, 3), Tensor(rng.normal(size=(2, 6))),
                            Tensor(np.zeros(6)), Tensor(rng.normal(size=(2, 4))),
                            Tensor(np.eye(2)), h0=Tensor(np.zeros(shape), requires_grad=True))

    def test_first_gradient_is_an_owned_copy(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_single_step_magnitude(self):
        # hand evaluation: m-hat = 1, v-hat = 1, update = lr / (1 + eps)
        p = Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(0.9, abs=1e-8)

    def test_converges_on_quadratic(self):
        p = Tensor([3.0], requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = ad.mul(p, p).sum()
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 0.1

    def test_step_counter_strictly_increases(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p})
        counts = []
        for _ in range(3):
            p.grad = np.array([0.5])
            opt.step()
            counts.append(opt.step_count)
        assert counts == [1, 2, 3]

    def test_frozen_param_bitwise_constant(self):
        p = Tensor([1.0], requires_grad=True)
        q = Tensor([1.0], requires_grad=False)
        opt = Adam({"p": p, "q": q}, lr=0.1)
        for _ in range(5):
            opt.zero_grad()
            ad.mul(p, q).sum().backward()
            assert q.grad is None
            opt.step()
        assert q.data[0] == 1.0 and opt.state_arrays()["adam.m.q"][0] == 0.0
        assert p.data[0] != 1.0

    def test_shape_mismatch(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.array([1.0])
        with pytest.raises(ShapeError):
            opt.step()
