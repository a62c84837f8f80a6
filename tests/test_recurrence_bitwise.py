"""The recurrence ops against plain loops, bit for bit.

``reference_lstm_sequence`` keeps the gates as (B, 4H) rows, makes a
temporary for each elementwise call and uses the masked sigmoid formula.
``reference_gru_sequence`` allocates each step's split of the carried
gradient and concatenates the states each step started from. Each
computes every value by the same float operations in the same order as
its ``autodiff`` op, so outputs and gradients must match exactly, not to
a tolerance.
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


def reference_gru_sequence(x, w_x, b_x, w_h, w_hn, mask=None, h0=None, reverse=False):
    flat_x, proj, mask = ad._sequence_input(x, w_x, mask, "gru_sequence")
    parents = (x, w_x, b_x, w_h, w_hn) + (() if h0 is None else (h0,))
    record = ad._recording(parents)
    steps, batch, _ = proj.shape
    nh = w_hn.shape[0]
    proj += b_x.data
    h_init = np.zeros((batch, nh)) if h0 is None else h0.data
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    slots = steps if record else 1
    states = np.empty((steps, batch, nh))
    zr_all = np.empty((slots, batch, 2 * nh))
    cand_all = np.empty((slots, batch, nh))
    rh_all = np.empty((slots, batch, nh))
    h = h_init
    for t in order:
        k = t if record else 0
        pre = h @ w_h.data
        pre += proj[t, :, :2 * nh]
        zr = _masked_sigmoid(pre, out=zr_all[k])
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
            ad._accumulate(w_h, h_prev.reshape(-1, nh).T @ flat[:, :2 * nh])
        if w_hn.requires_grad:
            ad._accumulate(w_hn, rh_all.reshape(-1, nh).T @ flat[:, 2 * nh:])
        if b_x.requires_grad:
            ad._accumulate(b_x, flat.sum(axis=0))
        if h0 is not None and h0.requires_grad:
            ad._accumulate(h0, dh)
        ad._input_grads(x, w_x, flat_x, d_proj)

    return ad._make(np.ascontiguousarray(states.transpose(1, 0, 2)), parents,
                    backward if record else None, "gru_sequence")


def _mask(rng, batch, steps, mask_kind):
    if mask_kind is None:
        return None
    mask = np.ones((batch, steps))
    lengths = rng.integers(1, steps + 1, size=batch)
    for row, n in enumerate(lengths):
        mask[row, n:] = 0.0
    if mask_kind == "empty rows":
        mask[::2] = 0.0
    return mask


def _run(op, arrays, g, taped):
    """Output of ``op`` over ``arrays`` as parameters and, when taped, the
    gradients of sum(g * output) with respect to each of them."""
    params = [Tensor(a, requires_grad=True) for a in arrays]
    if not taped:
        with ad.no_grad():
            return [op(*params).data]
    out = op(*params)
    ad.mul(out, Tensor(g)).sum().backward()
    return [out.data] + [p.grad for p in params]


def _assert_bitwise(names, got, want):
    assert len(got) == len(want)
    for name, a, b in zip(names, got, want):
        assert a.shape == b.shape, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


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
    x = rng.normal(size=(batch, steps, dim))
    weights = (rng.normal(size=(dim, 4 * nh)), rng.normal(size=(nh, 4 * nh)) * 0.5,
               rng.normal(size=4 * nh))
    mask = _mask(rng, batch, steps, mask_kind)
    g = rng.normal(size=(batch, steps, nh))
    got, want = (_run(lambda *p: op(*p, mask), (x, *weights), g, taped)
                 for op in (ad.lstm_sequence, reference_lstm_sequence))
    _assert_bitwise(["output", "x", "w_x", "w_h", "b"], got, want)


# as CASES, with a one-step batch as in greedy decoding and the text
# workload's encoder shape in place of the numeric ones
GRU_CASES = [
    (1, 1, 3, 4, "ragged"),
    (4, 1, 3, 4, None),
    (5, 7, 3, 4, "ragged"),
    (6, 5, 3, 4, "empty rows"),
    (5, 7, 3, 4, None),
    (32, 40, 32, 64, "ragged"),
]


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "no_grad"])
@pytest.mark.parametrize("with_h0", [True, False], ids=["h0", "zero_h0"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("batch,steps,dim,nh,mask_kind", GRU_CASES)
def test_gru_sequence_matches_reference_bitwise(batch, steps, dim, nh, mask_kind, reverse,
                                                with_h0, taped):
    rng = np.random.default_rng(batch * 1000 + steps)
    arrays = [rng.normal(size=(batch, steps, dim)), rng.normal(size=(dim, 3 * nh)),
              rng.normal(size=3 * nh), rng.normal(size=(nh, 2 * nh)) * 0.5,
              rng.normal(size=(nh, nh)) * 0.5]
    if with_h0:
        arrays.append(rng.normal(size=(batch, nh)))
    mask = _mask(rng, batch, steps, mask_kind)
    g = rng.normal(size=(batch, steps, nh))

    def call(op):
        return lambda x, w_x, b_x, w_h, w_hn, *h0: op(
            x, w_x, b_x, w_h, w_hn, mask, h0=h0[0] if h0 else None, reverse=reverse)

    got, want = (_run(call(op), arrays, g, taped)
                 for op in (ad.gru_sequence, reference_gru_sequence))
    _assert_bitwise(["output", "x", "w_x", "b_x", "w_h", "w_hn", "h0"], got, want)
