import inspect

import numpy as np
import pytest

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
        b = rng.normal(size=(4, 2))
        check_op(lambda t: ad.matmul(t, Tensor(b)).sum(), rng.normal(size=(2, 3, 4)))

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

    def test_sigmoid_matches_masked_formula_bitwise(self, rng):
        x = np.concatenate([rng.normal(size=200) * 20,
                            [-800.0, -40.0, -0.0, 0.0, 1e-300, 40.0, 800.0]])
        want = np.empty_like(x)
        pos = x >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        assert np.array_equal(ad._sigmoid(x), want)

    def test_sigmoid_tanh_zero(self):
        assert ad._sigmoid(np.array(0.0)) == 0.5
        assert ad.tanh(Tensor(0.0)).item() == 0.0

    def test_embedding_index_error(self):
        with pytest.raises(IndexError):
            ad.embedding_lookup(Tensor(np.ones((3, 2)), requires_grad=True),
                                np.array([3]))


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
            seq = ad.gru_sequence(Tensor(np.ones((2, 3, 1))), w_x, Tensor(np.zeros(3)),
                                  Tensor(np.ones((1, 2))), Tensor(np.ones((1, 1))))
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
        with pytest.raises(NonFiniteError):
            ad.exp(Tensor([1e6]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_large_finite_values_pass(self):
        # the sum overflows to inf, so the full scan decides: all finite
        big = Tensor([1e308, 1e308])
        assert ad.mul(big, Tensor(0.5)).data[0] == 5e307

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_weight_in_sequence_op(self, rng):
        # weights turn non-finite in place (an optimizer step), not through Tensor()
        x = Tensor(rng.normal(size=(2, 3, 2)))
        mask = np.ones((2, 3))
        lstm_w_x = Tensor(rng.normal(size=(2, 8)))
        lstm_w_x.data[1, 2] = np.inf
        with pytest.raises(NonFiniteError):
            ad.lstm_sequence(x, lstm_w_x, Tensor(rng.normal(size=(2, 8))),
                             Tensor(np.zeros(8)), mask)
        gru_w_h = Tensor(rng.normal(size=(2, 4)))
        gru_w_h.data[0, 1] = np.nan
        with pytest.raises(NonFiniteError):
            ad.gru_sequence(x, Tensor(rng.normal(size=(2, 6))), Tensor(np.zeros(6)),
                            gru_w_h, Tensor(np.eye(2)), mask)

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
        q = Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p, "q": q}, lr=0.1)
        opt.set_frozen(["q"])
        for _ in range(5):
            p.grad = np.array([1.0])
            q.grad = np.array([1.0])
            opt.step()
        assert q.data[0] == 1.0
        assert p.data[0] != 1.0

    def test_shape_mismatch(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.array([1.0])
        with pytest.raises(ShapeError):
            opt.step()
