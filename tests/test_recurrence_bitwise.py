"""The recurrence ops against plain loops, bit for bit.

``reference_lstm_sequence`` keeps the gates as (B, 4H) rows and makes a
temporary for each elementwise call. ``reference_gru_sequence`` allocates
each step's split of the carried gradient and concatenates the states each
step started from. Both project every row of the table, as the ops do,
gather the biased projection time-major before the loop, compute the
sigmoid as 1 / (1 + exp(-x)), and let a step whose mask is all ones take
the new state as it is. A dense (B, T, E) input is passed as the
(B*T, E) table with the ids of its rows. Each computes every value by
the same float operations in the same order as its ``autodiff`` op, so
outputs and gradients must match exactly, not to a tolerance.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gloss import autodiff as ad
from gloss.autodiff import Tensor


def _one_exp_sigmoid(x, out=None):
    with np.errstate(over="ignore"):
        return np.divide(1.0, 1.0 + np.exp(-x), out=out)


def _projection(table, ids, w_x, b, mask):
    """The (T, B) time-major ids, the (T, B, n) biased projection of their
    table rows and the (T, B, 1) mask."""
    inv = np.ascontiguousarray(ids.T)
    proj = table.data @ w_x.data
    proj += b.data
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64).T[:, :, None]
    return inv, proj[inv], mask


def _all_live(mask, t):
    return mask is None or (mask[t] == 1.0).all()


def _carry(h, h_new, mask, t, out):
    if _all_live(mask, t):
        out[...] = h_new
    else:
        h_new -= h
        h_new *= mask[t]
        np.add(h, h_new, out=out)


def _split_carry(d, mask, t):
    if _all_live(mask, t):
        return d, 0.0
    d_new = mask[t] * d
    return d_new, d - d_new


def reference_lstm_sequence(table, ids, w_x, w_h, b, mask):
    inv, proj, mask = _projection(table, ids, w_x, b, mask)
    parents = (table, w_x, w_h, b)
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
        act = acts[k]
        _one_exp_sigmoid(gates[:, :3 * nh], out=act[:, :3 * nh])
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
        ad._input_grads(table, w_x, inv, d_gates)

    return ad._make(np.ascontiguousarray(states.transpose(1, 0, 2)), parents,
                    backward if record else None, "lstm_sequence")


def reference_gru_sequence(table, ids, w_x, b_x, w_h, w_hn, mask=None, h0=None,
                           reverse=False):
    inv, proj, mask = _projection(table, ids, w_x, b_x, mask)
    parents = (table, w_x, b_x, w_h, w_hn) + (() if h0 is None else (h0,))
    record = ad._recording(parents)
    steps, batch, _ = proj.shape
    nh = w_hn.shape[0]
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
        zr = _one_exp_sigmoid(pre, out=zr_all[k])
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
        ad._input_grads(table, w_x, inv, d_proj)

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


def _identity(x):
    """A (B, T, E) input as a (B*T, E) table and the (B, T) ids of its rows."""
    batch, steps, dim = x.shape
    return x.reshape(batch * steps, dim), np.arange(batch * steps).reshape(batch, steps)


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
    table, ids = _identity(rng.normal(size=(batch, steps, dim)))
    weights = (rng.normal(size=(dim, 4 * nh)), rng.normal(size=(nh, 4 * nh)) * 0.5,
               rng.normal(size=4 * nh))
    mask = _mask(rng, batch, steps, mask_kind)
    g = rng.normal(size=(batch, steps, nh))
    got, want = (_run(lambda x, *w: op(x, ids, *w, mask), (table, *weights), g, taped)
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
    table, ids = _identity(rng.normal(size=(batch, steps, dim)))
    arrays = [table, rng.normal(size=(dim, 3 * nh)),
              rng.normal(size=3 * nh), rng.normal(size=(nh, 2 * nh)) * 0.5,
              rng.normal(size=(nh, nh)) * 0.5]
    if with_h0:
        arrays.append(rng.normal(size=(batch, nh)))
    mask = _mask(rng, batch, steps, mask_kind)
    g = rng.normal(size=(batch, steps, nh))

    def call(op):
        return lambda x, w_x, b_x, w_h, w_hn, *h0: op(
            x, ids, w_x, b_x, w_h, w_hn, mask, h0=h0[0] if h0 else None, reverse=reverse)

    got, want = (_run(call(op), arrays, g, taped)
                 for op in (ad.gru_sequence, reference_gru_sequence))
    _assert_bitwise(["output", "x", "w_x", "b_x", "w_h", "w_hn", "h0"], got, want)


@settings(max_examples=40, deadline=None)
@given(cell=st.sampled_from(["lstm", "gru"]), batch=st.integers(1, 6),
       steps=st.integers(1, 6), nh=st.integers(1, 5), use_ids=st.booleans(),
       reverse=st.booleans(), with_h0=st.booleans(), taped=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_all_ones_mask_is_no_mask_bitwise(cell, batch, steps, nh, use_ids, reverse,
                                          with_h0, taped, seed):
    """A mask of all ones gives the outputs and gradients of no mask, bit for
    bit: every step is all live, so none goes through the masked carry."""
    rng = np.random.default_rng(seed)
    dim, vocab = 3, 7
    n = (4 if cell == "lstm" else 3) * nh
    if use_ids:
        ids = rng.integers(0, vocab, size=(batch, steps))
        x = rng.normal(size=(vocab, dim))
    else:
        x, ids = _identity(rng.normal(size=(batch, steps, dim)))
    arrays = [x, rng.normal(size=(dim, n))]
    if cell == "lstm":
        arrays += [rng.normal(size=(nh, n)) * 0.5, rng.normal(size=n)]
    else:
        arrays += [rng.normal(size=n), rng.normal(size=(nh, 2 * nh)) * 0.5,
                   rng.normal(size=(nh, nh)) * 0.5]
        if with_h0:
            arrays.append(rng.normal(size=(batch, nh)))
    g = rng.normal(size=(batch, steps, nh))

    def op(mask):
        if cell == "lstm":
            return lambda x, *w: ad.lstm_sequence(x, ids, *w, mask)
        return lambda x, w_x, b_x, w_h, w_hn, *h0: ad.gru_sequence(
            x, ids, w_x, b_x, w_h, w_hn, mask, h0=h0[0] if h0 else None, reverse=reverse)

    got = _run(op(np.ones((batch, steps))), arrays, g, taped)
    want = _run(op(None), arrays, g, taped)
    _assert_bitwise(["output", "x", "w_x", "3", "4", "5", "h0"], got, want)
