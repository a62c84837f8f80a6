"""Reverse-mode automatic differentiation over dense float64 arrays.

A small dynamic-graph engine: every operation wraps its output in a new
:class:`Tensor` that remembers its inputs and a local backward rule, and
``Tensor.backward()`` replays the recorded graph in reverse topological
order. The graph is rebuilt on every forward pass, and a recorded graph
can be backpropagated once: backward frees each op's saved buffers and
intermediate gradient as soon as that op's gradient is taken. A whole
LSTM or GRU recurrence over a padded batch is a single op
(:func:`lstm_sequence`, :func:`gru_sequence`) with hand-written backprop
through time, and so is a CNN filter's convolution over embedded ids with
its max-pool (:func:`conv_max`).

Everything is float64 and single-threaded by design: the models in this
package are desk-scale and the test suite leans on finite-difference
gradient checks, so precision and determinism outrank throughput. Every
op output that computes new values is checked for NaN/Inf, and a
:class:`NonFiniteError` is raised on the first hit; views and gathers of
checked tensors are not checked again.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "add",
    "sub",
    "mul",
    "neg",
    "matmul",
    "conv_max",
    "tanh",
    "relu",
    "exp",
    "concat",
    "softmax",
    "cross_entropy",
    "embedding_lookup",
    "slice_axis",
    "lstm_sequence",
    "gru_sequence",
    "Adam",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Context manager that suspends graph recording (for inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _check_finite(arr: np.ndarray, where: str) -> None:
    # A finite sum proves every element finite; only a non-finite sum (which
    # large finite values can also give, by overflow) needs the full scan.
    if not np.isfinite(arr.sum()) and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite value produced by {where}")


class Tensor:
    """Dense float64 array participating in the gradient graph.

    ``grad`` is populated only for tensors with ``requires_grad=True``
    or tensors on a path from such a leaf to the loss; a leaf's grad
    accumulates across the backward passes of separate graphs.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "Tensor()")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------------

    def backward(self) -> None:
        """Add this scalar's gradient into every reachable requires_grad leaf.

        The pass consumes the recorded graph: once a node's backward has
        run, its ``grad`` is None and its closure, with the forward buffers
        it saved, is freed, so a graph can be backpropagated once and a
        second pass raises ``RuntimeError``. Leaf grads accumulate across
        the passes of separate graphs.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        # Iterative post-order walk; recursion would overflow on long
        # unrolled sequences.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        for node in topo:
            if node._backward is not None:
                node.grad = None
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                # drop the gradient and the closure, with the forward
                # buffers it saved; ``data`` and ``_parents`` stay
                node.grad = None
                node._backward = _spent

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def sum(self, axis: int | None = None) -> "Tensor":
        return _reduce_sum(self, axis)

    def mean(self) -> "Tensor":
        return _reduce_mean(self)

    def max(self, axis: int) -> "Tensor":
        return _reduce_max(self, axis)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _reshape(self, shape)

    def argmax(self, axis: int = -1) -> np.ndarray:
        return np.argmax(self.data, axis=axis)


def _spent(g: np.ndarray) -> None:
    """The backward rule of a node that a backward pass has consumed."""
    raise RuntimeError("backward already ran through this graph")


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # an owned copy: the same ``g`` may reach several parents
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _recording(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op over ``parents`` goes on the tape."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward, opname: str) -> Tensor:
    _check_finite(data, opname)
    return _node(data, parents, backward)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op output, recorded on the tape when any parent needs a gradient.

    Unchecked: ``reshape`` (a view), ``slice_axis`` (a slice),
    ``embedding_lookup`` (a gather of table rows) and ``concat`` call this
    directly, since their outputs only copy elements of checked tensors;
    every other op goes through :func:`_make`.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _recording(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


# -- elementwise arithmetic --------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward, "mul")


def neg(a: Tensor) -> Tensor:
    data = -a.data

    def backward(g):
        _accumulate(a, -g)

    return _make(data, (a,), backward, "neg")


# -- matrix product ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D ``a`` (m, k) and 2-D ``b`` (k, n)."""
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul supports 2-D (m,k)@(k,n), got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), backward, "matmul")


def _row_sums(rows, values: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, n) sums of ``values`` (..., n): element [..., j] is added into
    row ``rows[..., j]``; ``rows`` is of values' shape, or (..., 1) for one
    row per value row. One ``bincount`` over row * n + column slots adds each
    slot's values in order starting from zero, so the sums are bitwise what
    ``np.add.at`` gives into a zero array.
    """
    n = values.shape[-1]
    slots = rows * n + np.arange(n)
    return np.bincount(slots.ravel(), weights=values.ravel(),
                       minlength=n_rows * n).reshape(n_rows, n)


def _check_ids(ids: np.ndarray, n_rows: int) -> None:
    """``IndexError`` for an id outside [0, n_rows)."""
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise IndexError(f"embedding index out of range [0, {n_rows})")


# Bytes of window scores that conv_max sums and pools at once: about what
# stays in a core's L2 cache beside the gathered rows being added in.
_CONV_BLOCK_BYTES = 1 << 18


def conv_max(table: Tensor, ids, w: Tensor, lengths) -> Tensor:
    """Max over valid windows of a convolution over embedded ids, shape (B, F).

    ``table`` is a (V, E) table of embedding rows, ``ids`` a (B, T) array of
    its row indices, right-padded past each row's ``lengths``, and ``w`` a
    (width * E, F) kernel. Window s of a row of length L is valid when it
    ends inside the row, s + width <= L, so padding never wins the max;
    window 0 is always valid, so a row shorter than the filter keeps it.
    Equal to gathering each window's embeddings into a (B, W, width * E)
    array, W = T - width + 1, multiplying it by ``w``, setting the invalid
    windows' scores to -inf and taking the max over windows; the gradient
    goes to each row's first maximum, as ``Tensor.max`` sends it. Every row
    of ``table`` is projected through each kernel offset once and a
    window's score is the sum of its tokens' projected rows, so the product
    scales with V, not with B * W * width; a caller passes the rows its ids
    use (``models`` passes one row per distinct id of the batch).
    """
    ids = np.asarray(ids)
    if table.ndim != 2 or ids.ndim != 2 or w.ndim != 2 or w.shape[0] % table.shape[1]:
        raise ShapeError(f"conv_max expects a (V, E) table, (B, T) ids and a "
                         f"(width * E, F) kernel, got {table.shape}, {ids.shape} "
                         f"and {w.shape}")
    n_embed = table.shape[1]
    width = w.shape[0] // n_embed
    n_windows = ids.shape[1] - width + 1
    lengths = np.asarray(lengths, dtype=np.int64)
    if width == 0 or n_windows < 1 or lengths.shape != (ids.shape[0],):
        raise ShapeError(f"conv_max needs windows of width {width} in {ids.shape} ids "
                         f"and one length per row, got lengths of shape {lengths.shape}")
    _check_ids(ids, table.shape[0])
    last = np.maximum(lengths - width, 0)  # each row's last valid window
    n_rows, n_filters = table.shape[0], w.shape[1]
    # (E, width * F): column block j is the kernel slice for window offset j
    kernel = w.data.reshape(width, n_embed, n_filters).transpose(1, 0, 2).reshape(n_embed, -1)
    proj = (table.data @ kernel).reshape(n_rows, width, n_filters)
    batch = ids.shape[0]
    data = np.empty((batch, n_filters))
    recording = _recording((table, w))
    first = np.empty((batch, n_filters), dtype=np.intp) if recording else None
    # a few rows at a time, so each block's (rows, W, F) scores are summed
    # and pooled while they sit in cache
    step = max(1, _CONV_BLOCK_BYTES // (n_windows * n_filters * 8))
    for lo in range(0, batch, step):
        hi = lo + step
        block = ids[lo:hi]
        scores = proj[:, 0][block[:, :n_windows]]
        for j in range(1, width):
            scores += proj[:, j][block[:, j:j + n_windows]]
        scores[np.arange(n_windows) > last[lo:hi, None]] = -np.inf
        # only the pooled output is checked: max passes a NaN score through
        np.max(scores, axis=1, out=data[lo:hi])
        if recording:
            np.argmax(scores, axis=1, out=first[lo:hi])

    def backward(g):
        # the window at ``first`` holds token ids[b, first + j] at offset j,
        # and that token's projected row at offset j takes the gradient
        offsets = np.arange(width)[:, None, None]
        tokens = ids[np.arange(batch)[:, None], first + offsets]
        d_proj = _row_sums(tokens * width + offsets, np.broadcast_to(g, tokens.shape),
                           n_rows * width).reshape(n_rows, -1)
        if w.requires_grad:
            d_w = (table.data.T @ d_proj).reshape(n_embed, width, n_filters)
            _accumulate(w, d_w.transpose(1, 0, 2).reshape(w.shape))
        if table.requires_grad:
            _accumulate(table, d_proj @ kernel.T)

    return _make(data, (table, w), backward, "conv_max")


# -- nonlinearities ----------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - data * data))

    return _make(data, (a,), backward, "tanh")


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), in four calls that write ``out``.

    ``out`` may be ``x``. Below x = -709, exp(-x) overflows to inf and the
    result is 0, so callers run it under ``np.errstate(over="ignore")``; NaN
    stays NaN.
    """
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def backward(g):
        _accumulate(a, g * (a.data > 0))

    return _make(data, (a,), backward, "relu")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * data)

    return _make(data, (a,), backward, "exp")


# -- shape manipulation ------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    cuts = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, cuts, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                _accumulate(t, piece)

    return _node(data, tuple(tensors), backward)


def _reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)
    old_shape = a.shape

    def backward(g):
        _accumulate(a, g.reshape(old_shape))

    return _node(data, (a,), backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis; gradient scatters back zero-padded."""
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    data = a.data[index]

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        _accumulate(a, full)

    return _node(data, (a,), backward)


# -- reductions --------------------------------------------------------------


def _reduce_sum(a: Tensor, axis: int | None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(g):
        g = g if axis is None else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _make(np.asarray(data), (a,), backward, "sum")


def _reduce_mean(a: Tensor) -> Tensor:
    data = a.data.mean()

    def backward(g):
        _accumulate(a, np.full(a.shape, g / a.size))

    return _make(np.asarray(data), (a,), backward, "mean")


def _reduce_max(a: Tensor, axis: int) -> Tensor:
    data = a.data.max(axis=axis)

    def backward(g):
        # First occurrence wins on ties, which keeps backward deterministic.
        arg = np.expand_dims(np.argmax(a.data, axis=axis), axis)
        full = np.zeros_like(a.data)
        np.put_along_axis(full, arg, np.expand_dims(g, axis), axis)
        _accumulate(a, full)

    return _make(np.asarray(data), (a,), backward, "max")


# -- softmax / losses --------------------------------------------------------


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis (max subtraction)."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(a, data * (g - inner))

    return _make(data, (a,), backward, "softmax")


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-example negative log-likelihood of integer ``targets`` under
    softmax(logits), shape (batch,).

    ``logits`` is (batch, classes); ``targets`` an int array of class
    indices. Take ``.mean()`` of the result for a scalar loss.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    batch, n_classes = logits.shape
    if targets.shape != (batch,):
        raise ShapeError(f"targets shape {targets.shape} does not match batch {batch}")
    if targets.min() < 0 or targets.max() >= n_classes:
        raise IndexError(f"target out of range [0, {n_classes})")

    x = logits.data
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    total = e.sum(axis=1, keepdims=True)
    lse = np.log(total[:, 0]) + m[:, 0]
    losses = lse - x[np.arange(batch), targets]
    probs = e / total

    def backward(g):
        d = probs.copy()
        d[np.arange(batch), targets] -= 1.0
        _accumulate(logits, d * g[:, None])

    return _make(losses, (logits,), backward, "cross_entropy")


# -- lookups -----------------------------------------------------------------


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer ``ids``; grads scatter-add back."""
    ids = np.asarray(ids)
    _check_ids(ids, table.shape[0])
    data = table.data[ids]

    def backward(g):
        _accumulate(table, _row_sums(ids.reshape(-1, 1), g.reshape(-1, table.shape[1]),
                                     table.shape[0]))

    return _node(data, (table,), backward)


# -- recurrent sequences -----------------------------------------------------
#
# Each recurrence over a padded batch is one op over the rows of a (V, E)
# table that a (B, T) id array picks: an embedding table, or rows that the
# caller builds, such as the CVAE decoder's [token; control] pairs. The
# input projection, with the bias folded in, is one matmul outside the time
# loop over every row of the table, so its cost scales with V: models pass
# a table of the batch's distinct rows (models._distinct_lookup). Each step
# takes its ids' B rows of the projection into a buffer (mode="clip" only
# skips numpy's buffered range check: the ids were checked). The recurrence
# runs in numpy, and backward is hand-written backprop through time that
# sums the pre-activation gradient per table row and gathers each weight
# gradient in one matmul over all steps. Every step runs forward over all
# B rows, with no mask: callers right-pad, so a row's state at its last
# real position never depends on a pad, and models read each row's state
# there (models._last_states). The (B*T, H) output is batch-major: row
# b*T + t is row b's state after position t.
#
# An LSTM state is a gated tanh and a GRU state a convex mix of h0 or the
# state before it and a tanh, so |h| <= 1 (LSTM) or max(1, max|h0|)
# (GRU) bounds each recurrent product; only a call whose bound
# (_recurrent_bound, _overflow_possible) is not finite checks each step's
# pre-activations before the squash.
#
# The LSTM keeps its per-step work gate-major, so that each elementwise
# call runs over contiguous memory: its projection is (4, rows, H), so a
# step's rows land in the (4, B, H) pre-activation buffer, to which the
# (B, 4H) recurrent product is added transposed; the gate activations are
# (T, 4, B, H). h and c share one (2, slots, B, H) block; under a tape it
# keeps every step after a zero slot 0, and without one a single slot is
# updated in place and each h copied out.
# The GRU's (T+1, B, H) state block holds h0 and the state after each step,
# so step t reads slot t and writes slot t + 1. Every step writes into buffers
# allocated once per call.
#
# Like every op, a taped sequence op is backpropagated once, and its backward
# reuses the forward's buffers as it goes: the LSTM copies each step's
# (4, B, H) gate gradient once over that step's activations, which it has
# read for the last time, so the (T, B, 4H) array that feeds the recurrent
# and weight products is the activations' memory; the GRU writes d(z, r)
# over the step's gates and d(cand) over its candidate. Then the tape frees
# them with the closure. Each value is computed by the same float
# operations, in the same order, as in a plain loop, so outputs and
# gradients are bitwise those of that loop (tests/test_recurrence_bitwise.py
# keeps one per cell).


def _projection(table: np.ndarray, w_x: np.ndarray, b: np.ndarray, opname: str) -> np.ndarray:
    """The input projection ``table @ w_x + b``, checked after the bias, so
    that an overflowing sum raises."""
    proj = table @ w_x
    proj += b
    _check_finite(proj, opname)
    return proj


def _sequence_input(table: Tensor, ids, w_x: Tensor, b: Tensor, opname: str):
    """The (T, B) time-major ids and the projection ``table @ w_x + b``."""
    ids = np.asarray(ids)
    if table.ndim != 2 or ids.ndim != 2 or w_x.ndim != 2 or table.shape[1] != w_x.shape[0]:
        raise ShapeError(f"{opname} expects a (V, E) table, (B, T) ids and (E, n) "
                         f"weights, got {table.shape}, {ids.shape} and {w_x.shape}")
    _check_ids(ids, table.shape[0])
    return np.ascontiguousarray(ids.T), _projection(table.data, w_x.data, b.data, opname)


def _recurrent_bound(h0, *w_hs: np.ndarray) -> float:
    """A bound on every element of ``h @ w_h``, summed over ``w_hs``, for
    states of elements at most max(1, max|h0|) (1 without ``h0``). Each
    max|x| is bounded by the Frobenius norm, one BLAS dot (a square that
    overflows only turns the checks on), and an element of ``h @ w_h`` by
    ||h|| ||w_h|| (the Cauchy-Schwarz inequality)."""
    h_sq = 1.0 if h0 is None else 1.0 + float(np.vdot(h0, h0))  # >= max(1, max|h0|)^2
    norm = sum(math.sqrt(np.vdot(w_h, w_h)) for w_h in w_hs)
    return math.sqrt(h_sq * w_hs[0].shape[0]) * norm


def _overflow_possible(proj: np.ndarray, recurrent_bound: float) -> bool:
    """Whether a step's ``proj`` row plus a recurrent product within
    ``recurrent_bound`` may overflow: the bound must stay finite doubled, a
    margin for rounding."""
    return not math.isfinite(2.0 * (math.sqrt(np.vdot(proj, proj)) + recurrent_bound))


def _input_grads(table: Tensor, w_x: Tensor, ids: np.ndarray, *parts: np.ndarray) -> None:
    """Gradients of the table and W_x from the pre-activation gradient at
    the (T, B) time-major ``ids``, given as (T, B, n_i) parts of its columns
    in order; each part is summed per table row, so the parts are never
    joined into one (T, B, n) block."""
    flat = np.concatenate([_row_sums(ids[..., None], part, table.shape[0])
                           for part in parts], axis=1)
    if w_x.requires_grad:
        _accumulate(w_x, table.data.T @ flat)
    if table.requires_grad:
        _accumulate(table, flat @ w_x.data.T)


def _batch_major(states: np.ndarray) -> np.ndarray:
    """(T, B, H) time-major states as the (B*T, H) output."""
    return np.ascontiguousarray(states.transpose(1, 0, 2)).reshape(-1, states.shape[2])


def lstm_sequence(table: Tensor, ids, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """LSTM over a batch from a zero state; returns (B*T, H) states, row
    b*T + t the state of row b after position t.

    The input is the rows of the (V, E) ``table`` that the (B, T) ``ids``
    pick. Gates are packed [input, forget, output, candidate] along the last
    axis of ``w_x`` (E, 4H), ``w_h`` (H, 4H) and ``b`` (4H,).
    """
    ids, proj = _sequence_input(table, ids, w_x, b, "lstm_sequence")
    parents = (table, w_x, w_h, b)
    record = _recording(parents)
    steps, batch = ids.shape
    nh = w_h.shape[0]
    proj = np.ascontiguousarray(proj.reshape(-1, 4, nh).transpose(1, 0, 2))
    if record:
        # [h, c] before the first step and after each step
        hc = np.zeros((2, steps + 1, batch, nh))
        states = hc[0, 1:]
    else:
        # one [h, c] slot updated in place; each step's h is copied out
        hc = np.zeros((2, 1, batch, nh))
        states = np.empty((steps, batch, nh))
    slots = steps if record else 1  # without a tape, one reused slot
    acts = np.empty((slots, 4, batch, nh))  # sigmoid(i, f, o), tanh(g)
    tanh_c = np.empty((slots, batch, nh))
    gates = np.empty((batch, 4 * nh))  # the recurrent product
    gates_gm = gates.reshape(batch, 4, nh).transpose(1, 0, 2)
    pre = np.empty((4, batch, nh))  # gate pre-activations
    # an inf or nan can only come from an overflow, on which ``check`` raises
    with np.errstate(over="ignore", invalid="ignore"):
        check = _overflow_possible(proj, _recurrent_bound(None, w_h.data))
        for t in range(steps):
            k = t if record else 0
            prev = hc[:, k]
            cur = hc[:, k + 1] if record else prev
            np.matmul(prev[0], w_h.data, out=gates)
            np.add(np.take(proj, ids[t], axis=1, out=pre, mode="clip"), gates_gm, out=pre)
            if check:
                _check_finite(pre, "lstm_sequence")
            act = acts[k]
            _sigmoid(pre[:3], act[:3])
            np.tanh(pre[3], out=act[3])
            # c = f * c + i * g and h = o * tanh(c), cur[0] holding i * g first
            np.multiply(act[1], prev[1], out=cur[1])
            np.multiply(act[0], act[3], out=cur[0])
            cur[1] += cur[0]
            np.multiply(act[2], np.tanh(cur[1], out=tanh_c[k]), out=cur[0])
            if not record:
                states[t] = cur[0]

    def backward(grad):
        grad = grad.reshape(batch, steps, nh).transpose(1, 0, 2)
        w_h_t = np.ascontiguousarray(w_h.data.T)
        # step t's gate gradient overwrites acts[t], read for the last time
        # just before
        d_gates = acts.reshape(steps, batch, 4 * nh)
        # one block, which left less heap behind than five arrays: [dh, dc]
        # passed to the step before, the step's new [h, c]'s gradient, the
        # step's gate gradients gate-major, sigmoid derivatives, scratch
        work = np.zeros((12, batch, nh))
        d, d_new, dgm, deriv, tmp = work[:2], work[2:4], work[4:8], work[8:11], work[11]
        for t in range(steps - 1, -1, -1):
            d[0] += grad[t]
            # the new [h, c] takes the carried gradient; the step before, zero
            d, d_new = d_new, d
            d.fill(0.0)
            dh_new, dc_new = d_new
            act = acts[t]
            tc = tanh_c[t]
            # dc_new += dh_new * o * (1 - tanh(c)^2), dgm[2] as scratch
            np.multiply(tc, tc, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dh_new, act[2], out=dgm[2])
            dgm[2] *= tmp
            dc_new += dgm[2]
            # gate gradients before the activations' derivatives
            np.multiply(dc_new, act[3], out=dgm[0])
            np.multiply(dc_new, hc[1, t], out=dgm[1])
            np.multiply(dh_new, tc, out=dgm[2])
            # sigmoid' = s * (1 - s) for i, f, o; tanh' = 1 - g^2 for g
            np.subtract(1.0, act[:3], out=deriv)
            deriv *= act[:3]
            dgm[:3] *= deriv
            np.multiply(act[3], act[3], out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dc_new, act[0], out=dgm[3])
            dgm[3] *= tmp
            # dc += dc_new * f and dh += dg @ w_h^T
            np.multiply(dc_new, act[1], out=tmp)
            d[1] += tmp
            dg = d_gates[t]
            dg.reshape(batch, 4, nh)[...] = dgm.transpose(1, 0, 2)
            np.matmul(dg, w_h_t, out=tmp)
            d[0] += tmp
        flat = d_gates.reshape(steps * batch, 4 * nh)
        if w_h.requires_grad:
            # step 0 starts from the zero state and adds nothing
            _accumulate(w_h, states[:-1].reshape(-1, nh).T @ flat[batch:])
        if b.requires_grad:
            _accumulate(b, flat.sum(axis=0))
        _input_grads(table, w_x, ids, d_gates)

    return _make(_batch_major(states), parents, backward if record else None,
                 "lstm_sequence")


def gru_step(h: np.ndarray, proj_t: np.ndarray, w_h: np.ndarray, w_hn: np.ndarray,
             zr: np.ndarray, rh: np.ndarray, cand: np.ndarray, out: np.ndarray,
             check: str | None) -> None:
    """One GRU step over a batch, on plain arrays and off the tape: writes
    into ``out`` (which may be ``h``) the state after the step from the
    (B, H) state ``h`` and ``proj_t``, the step's (B, 3H) rows of the biased
    input projection.

    ``zr`` (B, 2H) gets the [update, reset] gates, ``rh`` (B, H) the
    reset-gated state and ``cand`` (B, H) the candidate, which backward
    reads. With ``check`` the op name to report, the pre-activations are
    checked before the squash; pass None when the recurrent products cannot
    overflow (see :func:`_overflow_possible`). Callers run it under
    ``np.errstate(over="ignore", invalid="ignore")``. :func:`gru_sequence`
    loops over it, and so does greedy decoding, whose next input depends on
    the step's output; it is not an op, so it is not in ``__all__``.
    """
    nh = w_hn.shape[0]
    np.matmul(h, w_h, out=zr)
    zr += proj_t[:, :2 * nh]
    if check:
        _check_finite(zr, check)
    _sigmoid(zr, zr)
    np.multiply(zr[:, nh:], h, out=rh)
    np.matmul(rh, w_hn, out=cand)
    cand += proj_t[:, 2 * nh:]
    if check:
        _check_finite(cand, check)
    np.tanh(cand, out=cand)
    np.subtract(h, cand, out=out)
    out *= zr[:, :nh]
    out += cand


def gru_sequence(table: Tensor, ids, w_x: Tensor, b_x: Tensor, w_h: Tensor, w_hn: Tensor,
                 h0: Tensor | None = None) -> Tensor:
    """GRU over a batch; returns (B*T, H) states, row b*T + t the state of
    row b after position t.

    The input is the rows of the (V, E) ``table`` that the (B, T) ``ids``
    pick. ``w_x`` (E, 3H) and ``b_x`` (3H,) pack [update, reset, candidate];
    ``w_h`` (H, 2H) packs [update, reset] and ``w_hn`` (H, H) acts on the
    reset-gated state. The state starts at ``h0`` (zeros when None).
    """
    ids, proj = _sequence_input(table, ids, w_x, b_x, "gru_sequence")
    parents = (table, w_x, b_x, w_h, w_hn) + (() if h0 is None else (h0,))
    record = _recording(parents)
    steps, batch = ids.shape
    nh = w_hn.shape[0]
    if h0 is not None and h0.shape != (batch, nh):
        raise ShapeError(f"gru_sequence h0 shape {h0.shape} != {(batch, nh)}")
    block = np.empty((steps + 1, batch, nh))
    block[0] = 0.0 if h0 is None else h0.data
    slots = steps if record else 1  # without a tape, one reused slot
    zr_all = np.empty((slots, batch, 2 * nh))
    cand_all = np.empty((slots, batch, nh))
    rh_all = np.empty((slots, batch, nh))
    proj_t = np.empty((batch, 3 * nh))  # a step's rows of proj, taken by id
    # an inf or nan can only come from an overflow, on which ``check`` raises
    with np.errstate(over="ignore", invalid="ignore"):
        check = _overflow_possible(
            proj, _recurrent_bound(None if h0 is None else h0.data, w_h.data, w_hn.data))
        for t in range(steps):
            k = t if record else 0
            np.take(proj, ids[t], axis=0, out=proj_t, mode="clip")
            gru_step(block[t], proj_t, w_h.data, w_hn.data, zr_all[k], rh_all[k],
                     cand_all[k], block[t + 1], "gru_sequence" if check else None)

    def backward(grad):
        grad = grad.reshape(batch, steps, nh).transpose(1, 0, 2)
        w_h_t = np.ascontiguousarray(w_h.data.T)
        w_hn_t = np.ascontiguousarray(w_hn.data.T)
        dh, dh_new = np.zeros((2, batch, nh))  # to the step before, to the step's state
        for t in range(steps - 1, -1, -1):
            dh += grad[t]
            # the step's state takes the carried gradient; the step before, zero
            dh, dh_new = dh_new, dh
            dh.fill(0.0)
            # d(z, r) overwrites zr_all[t] and d(cand) cand_all[t], so every
            # factor read from them is taken first
            zr, cand = zr_all[t], cand_all[t]
            z, r = zr[:, :nh], zr[:, nh:]
            hp = block[t]
            h_minus_cand = hp - cand
            d_sig = zr * (1.0 - zr)
            dh_z = z * dh_new
            np.multiply(dh_new - dh_new * z, 1.0 - cand * cand, out=cand)
            d_rh = cand @ w_hn_t
            dh_r = d_rh * r
            np.multiply(dh_new, h_minus_cand, out=zr[:, :nh])
            np.multiply(d_rh, hp, out=zr[:, nh:])
            zr *= d_sig
            dh += dh_z
            dh += dh_r
            dh += zr @ w_h_t
        d_zr = zr_all.reshape(steps * batch, 2 * nh)
        d_cand = cand_all.reshape(steps * batch, nh)
        if w_h.requires_grad:
            _accumulate(w_h, block[:steps].reshape(-1, nh).T @ d_zr)
        if w_hn.requires_grad:
            _accumulate(w_hn, rh_all.reshape(-1, nh).T @ d_cand)
        if b_x.requires_grad:
            _accumulate(b_x, np.concatenate([d_zr.sum(axis=0), d_cand.sum(axis=0)]))
        if h0 is not None and h0.requires_grad:
            _accumulate(h0, dh)
        _input_grads(table, w_x, ids, zr_all, cand_all)

    return _make(_batch_major(block[1:]), parents, backward if record else None,
                 "gru_sequence")


class GruDecoder:
    """A GRU with a linear readout, stepped one position at a time on plain
    arrays and off the tape: greedy decoding, where each step's input is
    read off the step before's output.

    The weights, the step buffers and the state-and-weight part of the
    overflow bound are set up once: a GRU state stays within
    max(1, max|h0|), so the bound from ``h0`` holds at every step. A step
    then projects the table it is given, runs :func:`gru_step` in place on
    the state and reads the logits out. Callers build it and run the steps
    under ``np.errstate(over="ignore", invalid="ignore")``: an inf or nan
    can only come from an overflow, on which a step's checks raise.
    """

    def __init__(self, w_x: Tensor, b_x: Tensor, w_h: Tensor, w_hn: Tensor,
                 w_out: Tensor, b_out: Tensor, h0: Tensor):
        batch, nh = h0.shape
        self.w_x, self.b_x, self.w_h, self.w_hn = w_x.data, b_x.data, w_h.data, w_hn.data
        self.w_out, self.b_out = w_out.data, b_out.data
        self.h = np.array(h0.data)  # the state, updated in place
        self._zr = np.empty((batch, 2 * nh))
        self._rh = np.empty((batch, nh))
        self._cand = np.empty((batch, nh))
        self._proj_t = np.empty((batch, 3 * nh))
        self._logits = np.empty((batch, self.w_out.shape[1]))
        self._recurrent = _recurrent_bound(self.h, self.w_h, self.w_hn)

    def step(self, table: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Advance row b of the state by row ``ids[b]`` of the (V, E)
        ``table`` and return the (B, n) logits ``h @ w_out + b_out``, in a
        buffer that the next step overwrites."""
        proj = _projection(table, self.w_x, self.b_x, "GruDecoder.step")
        np.take(proj, ids, axis=0, out=self._proj_t, mode="clip")
        check = _overflow_possible(proj, self._recurrent)
        gru_step(self.h, self._proj_t, self.w_h, self.w_hn, self._zr, self._rh, self._cand,
                 self.h, "GruDecoder.step" if check else None)
        logits = np.matmul(self.h, self.w_out, out=self._logits)
        logits += self.b_out
        # one check after the bias: the bias is finite, so a non-finite
        # product stays non-finite
        _check_finite(logits, "GruDecoder.step")
        return logits


# -- optimizer ---------------------------------------------------------------


class Adam:
    """Adam with bias correction over a named parameter dict.

    Moment arrays mirror each parameter's shape; the shared step counter
    strictly increases with every :meth:`step`. A parameter with no
    gradient, a frozen one (``requires_grad=False``) among them, is skipped,
    leaving its value and moments bitwise unchanged.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != param shape {p.data.shape} for {name}")
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    # Checkpoint support: moments and counter as plain arrays/ints.

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.params:
            out[f"adam.m.{name}"] = self._m[name]
            out[f"adam.v.{name}"] = self._v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        """Resume the moments and step counter; ``ValueError`` unless they,
        and the hyperparameters given to the constructor, can take a step:
        a count that is an integer >= 0, lr and eps finite and > 0, betas in
        [0, 1) and no negative second moment."""
        if type(step_count) is not int or step_count < 0:
            raise ValueError(f"step_count must be an integer >= 0, got {step_count!r}")
        for name in ("lr", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value!r}")
        for name, p in self.params.items():
            for key, moments in ((f"adam.m.{name}", self._m), (f"adam.v.{name}", self._v)):
                source = arrays.get(key)
                if source is None or source.shape != p.shape or not np.isfinite(source).all():
                    raise ValueError(f"missing, misshapen or non-finite {key}")
                if moments is self._v and (source < 0).any():
                    raise ValueError(f"negative second moment in {key}")
                moments[name] = np.array(source, dtype=np.float64)
        self.step_count = step_count
