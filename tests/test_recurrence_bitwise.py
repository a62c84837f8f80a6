"""The LSTM op against a plain batch-major loop, bit for bit.

``reference_lstm_sequence`` keeps the gates as (B, 4H) rows, makes a
temporary for each elementwise call and uses the masked sigmoid formula.
It computes each value by the same float operations in the same order as
``autodiff.lstm_sequence``, so outputs and gradients must match exactly,
not to a tolerance.
"""
from __future__ import annotations

import numpy as np
import pytest

from gloss import autodiff as ad
from gloss.autodiff import Tensor


def _masked_sigmoid(x, out=None):
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def _carry(h, h_new, mask, t, out):
    if mask is None:
        out[...] = h_new
    else:
        h_new -= h
        h_new *= mask[t]
        np.add(h, h_new, out=out)


def _split_carry(d, mask, t):
    if mask is None:
        return d, 0.0
    d_new = mask[t] * d
    return d_new, d - d_new


def reference_lstm_sequence(x, w_x, w_h, b, mask):
    flat_x, proj, mask = ad._sequence_input(x, w_x, mask, "lstm_sequence")
    parents = (x, w_x, w_h, b)
    record = ad._recording(parents)
    steps, batch, _ = proj.shape
    nh = w_h.shape[0]
    slots = steps if record else 1
    states = np.empty((steps, batch, nh))
    cells = np.empty((slots, batch, nh))
    acts = np.empty((slots, batch, 4 * nh))
    tanh_c = np.empty((slots, batch, nh))
    h = c = np.zeros((batch, nh))
    for t in range(steps):
        k = t if record else 0
        gates = h @ w_h.data
        gates += proj[t]
        gates += b.data
        act = acts[k]
        _masked_sigmoid(gates[:, :3 * nh], out=act[:, :3 * nh])
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
            ad._accumulate(w_h, states[:-1].reshape(-1, nh).T @ flat[batch:])
        if b.requires_grad:
            ad._accumulate(b, flat.sum(axis=0))
        ad._input_grads(x, w_x, flat_x, d_gates)

    return ad._make(np.ascontiguousarray(states.transpose(1, 0, 2)), parents,
                    backward if record else None, "lstm_sequence")


def _inputs(rng, batch, steps, dim, nh, mask_kind):
    x = rng.normal(size=(batch, steps, dim))
    weights = (rng.normal(size=(dim, 4 * nh)), rng.normal(size=(nh, 4 * nh)) * 0.5,
               rng.normal(size=4 * nh))
    if mask_kind is None:
        mask = None
    else:
        mask = np.ones((batch, steps))
        lengths = rng.integers(1, steps + 1, size=batch)
        for row, n in enumerate(lengths):
            mask[row, n:] = 0.0
        if mask_kind == "empty rows":
            mask[::2] = 0.0
    return x, weights, mask


def _run(op, x, weights, mask, g, taped):
    """Output of ``op`` and, when taped, the gradients of sum(g * output)
    with respect to x, w_x, w_h and b."""
    params = [Tensor(a, requires_grad=True) for a in (x, *weights)]
    if not taped:
        with ad.no_grad():
            return [op(*params, mask).data]
    out = op(*params, mask)
    ad.mul(out, Tensor(g)).sum().backward()
    return [out.data] + [p.grad for p in params]


# (batch, steps, dim, hidden, mask): single row and step, padding, rows with
# no valid step, no mask, and the numeric workload's training and dev shapes
CASES = [
    (1, 1, 3, 4, "ragged"),
    (1, 1, 3, 4, None),
    (5, 7, 3, 4, "ragged"),
    (6, 5, 3, 4, "empty rows"),
    (5, 7, 3, 4, None),
    (32, 40, 48, 64, "ragged"),
    (100, 40, 48, 64, "ragged"),
]


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "no_grad"])
@pytest.mark.parametrize("batch,steps,dim,nh,mask_kind", CASES)
def test_lstm_sequence_matches_reference_bitwise(batch, steps, dim, nh, mask_kind, taped):
    rng = np.random.default_rng(batch * 1000 + steps)
    x, weights, mask = _inputs(rng, batch, steps, dim, nh, mask_kind)
    g = rng.normal(size=(batch, steps, nh))
    got = _run(ad.lstm_sequence, x, weights, mask, g, taped)
    want = _run(reference_lstm_sequence, x, weights, mask, g, taped)
    names = ["output", "x", "w_x", "w_h", "b"]
    for name, a, b in zip(names, got, want):
        assert a.shape == b.shape, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
