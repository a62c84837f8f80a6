"""Reverse-mode automatic differentiation over dense float64 arrays.

A small dynamic-graph engine: every operation wraps its output in a new
:class:`Tensor` that remembers its inputs and a local backward rule, and
``Tensor.backward()`` replays the recorded graph in reverse topological
order. The graph is rebuilt on every forward pass. A whole LSTM or GRU
recurrence over a padded batch is a single op (:func:`lstm_sequence`,
:func:`gru_sequence`) with hand-written backprop through time.

Everything is float64 and single-threaded by design: the models in this
package are desk-scale and the test suite leans on finite-difference
gradient checks, so precision and determinism outrank throughput. Every
op output is checked for NaN/Inf, and a :class:`NonFiniteError` is raised
on the first hit.
"""
from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

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

    ``grad`` is populated (and accumulated across repeated backward calls)
    only for tensors with ``requires_grad=True`` or tensors on a path from
    such a leaf to the loss.
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
        """Populate grads of every reachable requires_grad leaf.

        Repeated calls without a reset keep accumulating into leaf grads;
        grads of recorded intermediates are rebuilt from scratch each pass
        so one pass never re-propagates another's contribution.
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
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

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
    """Matrix product. ``a`` may be 2-D or 3-D (leading batch axis), ``b`` 2-D."""
    a, b = _lift(a), _lift(b)
    if b.ndim != 2 or a.ndim not in (2, 3):
        raise ShapeError(f"matmul supports (m,k)@(k,n) or (b,m,k)@(k,n), got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            k = a.shape[-1]
            n = g.shape[-1]
            _accumulate(b, a.data.reshape(-1, k).T @ g.reshape(-1, n))

    return _make(data, (a, b), backward, "matmul")


# -- nonlinearities ----------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - data * data))

    return _make(data, (a,), backward, "tanh")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


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

    return _make(data, tuple(tensors), backward, "concat")


def _reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)
    old_shape = a.shape

    def backward(g):
        _accumulate(a, g.reshape(old_shape))

    return _make(data, (a,), backward, "reshape")


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

    return _make(data, (a,), backward, "slice_axis")


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
    # First occurrence wins on ties, which keeps backward deterministic.
    arg = np.expand_dims(np.argmax(a.data, axis=axis), axis)

    def backward(g):
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
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=1)) + m[:, 0]
    losses = lse - x[np.arange(batch), targets]
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)

    def backward(g):
        d = probs.copy()
        d[np.arange(batch), targets] -= 1.0
        _accumulate(logits, d * g[:, None])

    return _make(losses, (logits,), backward, "cross_entropy")


# -- lookups -----------------------------------------------------------------


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer ``ids``; grads scatter-add back."""
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise IndexError(f"embedding index out of range [0, {table.shape[0]})")
    data = table.data[ids]

    def backward(g):
        # scatter straight into the table's grad to avoid a dense temporary
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.shape[1]))

    return _make(data, (table,), backward, "embedding_lookup")


# -- recurrent sequences -----------------------------------------------------
#
# Each recurrence over a padded (B, T, E) batch is one op: the input
# projection is one (T*B, E) @ W_x matmul outside the time loop, the
# recurrence runs in numpy over time-major arrays, and backward is
# hand-written backprop through time that gathers the weight gradients in
# one matmul over all steps. A masked step carries the state:
# h <- h + m * (h_new - h); with no mask every step replaces it. The
# (B, T, H) output holds the state after each position, so the final state
# of a forward pass is position T-1 and of a reverse pass position 0.


def _sequence_input(x: Tensor, w_x: Tensor, mask, opname: str):
    """Time-major flat input (T*B, E), projection (T, B, n), mask (T, B, 1)."""
    if x.ndim != 3 or w_x.ndim != 2 or x.shape[2] != w_x.shape[0]:
        raise ShapeError(f"{opname} expects (B, T, E) input and (E, n) weights, "
                         f"got {x.shape} and {w_x.shape}")
    batch, steps, dim = x.shape
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (batch, steps):
            raise ShapeError(f"{opname} mask shape {mask.shape} != {(batch, steps)}")
        mask = np.ascontiguousarray(mask.T)[:, :, None]
    flat_x = np.ascontiguousarray(x.data.transpose(1, 0, 2)).reshape(steps * batch, dim)
    proj = (flat_x @ w_x.data).reshape(steps, batch, -1)
    _check_finite(proj, opname)
    return flat_x, proj, mask


def _input_grads(x: Tensor, w_x: Tensor, flat_x: np.ndarray, d_proj: np.ndarray) -> None:
    """Gradients of x and W_x from the time-major pre-activation gradient."""
    steps, batch, _ = d_proj.shape
    flat = d_proj.reshape(steps * batch, -1)
    if w_x.requires_grad:
        _accumulate(w_x, flat_x.T @ flat)
    if x.requires_grad:
        _accumulate(x, (flat @ w_x.data.T).reshape(steps, batch, -1).transpose(1, 0, 2))


def _batch_major(states: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(states.transpose(1, 0, 2))


def _carry(h: np.ndarray, h_new: np.ndarray, mask, t: int, out: np.ndarray) -> None:
    """out = h + m * (h_new - h) for step t; consumes ``h_new``."""
    if mask is None:
        out[...] = h_new
    else:
        h_new -= h
        h_new *= mask[t]
        np.add(h, h_new, out=out)


def _split_carry(d, mask, t: int):
    """Gradient of a carried state, split into (new state's, old state's)."""
    if mask is None:
        return d, 0.0
    d_new = mask[t] * d
    return d_new, d - d_new


def lstm_sequence(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, mask) -> Tensor:
    """LSTM over a padded batch from a zero state; returns (B, T, H) states.

    Gates are packed [input, forget, output, candidate] along the last
    axis of ``w_x`` (E, 4H), ``w_h`` (H, 4H) and ``b`` (4H,).
    """
    flat_x, proj, mask = _sequence_input(x, w_x, mask, "lstm_sequence")
    parents = (x, w_x, w_h, b)
    record = _recording(parents)
    steps, batch, _ = proj.shape
    nh = w_h.shape[0]
    slots = steps if record else 1  # without a tape, one reused slot
    states = np.empty((steps, batch, nh))
    cells = np.empty((slots, batch, nh))
    acts = np.empty((slots, batch, 4 * nh))  # sigmoid(i, f, o), tanh(g)
    tanh_c = np.empty((slots, batch, nh))
    h = c = np.zeros((batch, nh))
    for t in range(steps):
        k = t if record else 0
        gates = h @ w_h.data
        gates += proj[t]
        gates += b.data
        act = acts[k]
        _sigmoid(gates[:, :3 * nh], out=act[:, :3 * nh])
        np.tanh(gates[:, 3 * nh:], out=act[:, 3 * nh:])
        c_new = act[:, nh:2 * nh] * c
        c_new += act[:, :nh] * act[:, 3 * nh:]
        h_new = act[:, 2 * nh:3 * nh] * np.tanh(c_new, out=tanh_c[k])
        _carry(h, h_new, mask, t, states[t])
        _carry(c, c_new, mask, t, cells[k])
        h, c = states[t], cells[k]

    def backward(grad):
        grad = grad.transpose(1, 0, 2)
        w_h_t = np.ascontiguousarray(w_h.data.T)
        d_gates = np.empty((steps, batch, 4 * nh))
        dh = dc = 0.0
        for t in range(steps - 1, -1, -1):
            dh_new, dh = _split_carry(dh + grad[t], mask, t)
            dc_new, dc = _split_carry(dc, mask, t)
            act = acts[t]
            ifo, g = act[:, :3 * nh], act[:, 3 * nh:]
            tc = tanh_c[t]
            dc_new = dc_new + dh_new * act[:, 2 * nh:3 * nh] * (1.0 - tc * tc)
            dg = d_gates[t]
            np.multiply(dc_new, g, out=dg[:, :nh])
            np.multiply(dc_new, cells[t - 1] if t else 0.0, out=dg[:, nh:2 * nh])
            np.multiply(dh_new, tc, out=dg[:, 2 * nh:3 * nh])
            dg[:, :3 * nh] *= ifo * (1.0 - ifo)
            np.multiply(dc_new * act[:, :nh], 1.0 - g * g, out=dg[:, 3 * nh:])
            dc = dc + dc_new * act[:, nh:2 * nh]
            dh = dh + dg @ w_h_t
        flat = d_gates.reshape(steps * batch, 4 * nh)
        if w_h.requires_grad:
            # step 0 starts from the zero state and adds nothing
            _accumulate(w_h, states[:-1].reshape(-1, nh).T @ flat[batch:])
        if b.requires_grad:
            _accumulate(b, flat.sum(axis=0))
        _input_grads(x, w_x, flat_x, d_gates)

    return _make(_batch_major(states), parents, backward if record else None,
                 "lstm_sequence")


def gru_sequence(x: Tensor, w_x: Tensor, b_x: Tensor, w_h: Tensor, w_hn: Tensor,
                 mask=None, h0: Tensor | None = None, reverse: bool = False) -> Tensor:
    """GRU over a padded batch; returns (B, T, H) states.

    ``w_x`` (E, 3H) and ``b_x`` (3H,) pack [update, reset, candidate];
    ``w_h`` (H, 2H) packs [update, reset] and ``w_hn`` (H, H) acts on the
    reset-gated state. The state starts at ``h0`` (zeros when None), and
    ``reverse`` runs from position T-1 down to 0.
    """
    flat_x, proj, mask = _sequence_input(x, w_x, mask, "gru_sequence")
    parents = (x, w_x, b_x, w_h, w_hn) + (() if h0 is None else (h0,))
    record = _recording(parents)
    steps, batch, _ = proj.shape
    nh = w_hn.shape[0]
    proj += b_x.data
    h_init = np.zeros((batch, nh)) if h0 is None else h0.data
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    slots = steps if record else 1  # without a tape, one reused slot
    states = np.empty((steps, batch, nh))
    zr_all = np.empty((slots, batch, 2 * nh))
    cand_all = np.empty((slots, batch, nh))
    rh_all = np.empty((slots, batch, nh))
    h = h_init
    for t in order:
        k = t if record else 0
        pre = h @ w_h.data
        pre += proj[t, :, :2 * nh]
        zr = _sigmoid(pre, out=zr_all[k])
        rh = np.multiply(zr[:, nh:], h, out=rh_all[k])
        pre = rh @ w_hn.data
        pre += proj[t, :, 2 * nh:]
        cand = np.tanh(pre, out=cand_all[k])
        h_new = h - cand
        h_new *= zr[:, :nh]
        h_new += cand
        _carry(h, h_new, mask, t, states[t])
        h = states[t]

    def backward(grad):
        grad = grad.transpose(1, 0, 2)
        w_h_t = np.ascontiguousarray(w_h.data.T)
        w_hn_t = np.ascontiguousarray(w_hn.data.T)
        # the state each step started from
        if reverse:
            h_prev = np.concatenate([states[1:], h_init[None]])
        else:
            h_prev = np.concatenate([h_init[None], states[:-1]])
        d_proj = np.empty((steps, batch, 3 * nh))
        dh = 0.0
        for t in reversed(order):
            dh_new, dh = _split_carry(dh + grad[t], mask, t)
            zr = zr_all[t]
            z, r = zr[:, :nh], zr[:, nh:]
            hp, cand = h_prev[t], cand_all[t]
            dp = d_proj[t]
            np.multiply(dh_new - dh_new * z, 1.0 - cand * cand, out=dp[:, 2 * nh:])
            d_rh = dp[:, 2 * nh:] @ w_hn_t
            np.multiply(dh_new, hp - cand, out=dp[:, :nh])
            np.multiply(d_rh, hp, out=dp[:, nh:2 * nh])
            dp[:, :2 * nh] *= zr * (1.0 - zr)
            dh = dh + z * dh_new + d_rh * r + dp[:, :2 * nh] @ w_h_t
        flat = d_proj.reshape(steps * batch, 3 * nh)
        if w_h.requires_grad:
            _accumulate(w_h, h_prev.reshape(-1, nh).T @ flat[:, :2 * nh])
        if w_hn.requires_grad:
            _accumulate(w_hn, rh_all.reshape(-1, nh).T @ flat[:, 2 * nh:])
        if b_x.requires_grad:
            _accumulate(b_x, flat.sum(axis=0))
        if h0 is not None and h0.requires_grad:
            _accumulate(h0, dh)
        _input_grads(x, w_x, flat_x, d_proj)

    return _make(_batch_major(states), parents, backward if record else None,
                 "gru_sequence")


# -- optimizer ---------------------------------------------------------------


class Adam:
    """Adam with bias correction over a named parameter dict.

    Moment arrays mirror each parameter's shape; the shared step counter
    strictly increases with every :meth:`step`. Parameters named in
    :meth:`set_frozen` are skipped entirely, leaving their values (and
    moments) bitwise unchanged.
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
        self._frozen: set[str] = set()

    def set_frozen(self, names: Iterable[str]) -> None:
        """Permanently exclude parameters from future updates."""
        self._frozen.update(names)

    @property
    def frozen(self) -> frozenset[str]:
        return frozenset(self._frozen)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            if name in self._frozen or p.grad is None:
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
        for name in self.params:
            self._m[name] = np.array(arrays[f"adam.m.{name}"], dtype=np.float64)
            self._v[name] = np.array(arrays[f"adam.v.{name}"], dtype=np.float64)
        self.step_count = int(step_count)
