"""The recurrence ops against plain loops, bit for bit.

``reference_lstm_sequence`` keeps the gates as (B, 4H) rows and makes a
temporary for each elementwise call. ``reference_gru_sequence`` allocates
each step's gradient and concatenates the states each step started from.
Both project every row of the table, as the ops do, gather the biased
projection time-major before the loop and compute the sigmoid as
1 / (1 + exp(-x)). A dense (B, T, E) input is passed as the (B*T, E) table
with the ids of its rows, padded or reversed as the models pass them. Each computes every value by the same float
operations in the same order as its ``autodiff`` op, so outputs and
gradients must match exactly, not to a tolerance.

Greedy decoding steps the GRU cell that ``gru_sequence`` loops over
(``autodiff.gru_step``) through ``autodiff.GruDecoder``; each of its steps
must give the state and logits of a one-step ``gru_sequence`` call from the
state before it, bit for bit.
"""
from __future__ import annotations

import numpy as np
import pytest

from gloss import autodiff as ad
from gloss.autodiff import Tensor
from gloss.data import EOS

from conftest import reference_greedy_decode, toy_cvae


def _one_exp_sigmoid(x, out=None):
    with np.errstate(over="ignore"):
        return np.divide(1.0, 1.0 + np.exp(-x), out=out)


def _projection(table, ids, w_x, b):
    """The (T, B) time-major ids and the (T, B, n) biased projection of
    their table rows."""
    inv = np.ascontiguousarray(ids.T)
    proj = table.data @ w_x.data
    proj += b.data
    return inv, proj[inv]


def _output(states):
    """(T, B, H) states as the ops' (B*T, H) output."""
    steps, batch, nh = states.shape
    return np.ascontiguousarray(states.transpose(1, 0, 2)).reshape(batch * steps, nh)


def reference_lstm_sequence(table, ids, w_x, w_h, b):
    inv, proj = _projection(table, ids, w_x, b)
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
        states[t] = act[:, 2 * nh:3 * nh] * np.tanh(c_new, out=tanh_c[k])
        cells[k] = c_new
        h, c = states[t], cells[k]

    def backward(grad):
        grad = grad.reshape(batch, steps, nh).transpose(1, 0, 2)
        w_h_t = np.ascontiguousarray(w_h.data.T)
        d_gates = np.empty((steps, batch, 4 * nh))
        dh = dc = 0.0
        for t in range(steps - 1, -1, -1):
            dh_new, dh = dh + grad[t], 0.0
            dc_new, dc = dc, 0.0
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

    return ad._make(_output(states), parents, backward if record else None, "lstm_sequence")


def reference_gru_sequence(table, ids, w_x, b_x, w_h, w_hn, h0=None):
    inv, proj = _projection(table, ids, w_x, b_x)
    parents = (table, w_x, b_x, w_h, w_hn) + (() if h0 is None else (h0,))
    record = ad._recording(parents)
    steps, batch, _ = proj.shape
    nh = w_hn.shape[0]
    h_init = np.zeros((batch, nh)) if h0 is None else h0.data
    slots = steps if record else 1
    states = np.empty((steps, batch, nh))
    zr_all = np.empty((slots, batch, 2 * nh))
    cand_all = np.empty((slots, batch, nh))
    rh_all = np.empty((slots, batch, nh))
    h = h_init
    for t in range(steps):
        k = t if record else 0
        pre = h @ w_h.data
        pre += proj[t, :, :2 * nh]
        zr = _one_exp_sigmoid(pre, out=zr_all[k])
        rh = np.multiply(zr[:, nh:], h, out=rh_all[k])
        pre = rh @ w_hn.data
        pre += proj[t, :, 2 * nh:]
        cand = np.tanh(pre, out=cand_all[k])
        h = np.subtract(h, cand, out=states[t])
        h *= zr[:, :nh]
        h += cand

    def backward(grad):
        grad = grad.reshape(batch, steps, nh).transpose(1, 0, 2)
        w_h_t = np.ascontiguousarray(w_h.data.T)
        w_hn_t = np.ascontiguousarray(w_hn.data.T)
        h_prev = np.concatenate([h_init[None], states[:-1]])
        d_proj = np.empty((steps, batch, 3 * nh))
        dh = 0.0
        for t in range(steps - 1, -1, -1):
            dh_new, dh = dh + grad[t], 0.0
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

    return ad._make(_output(states), parents, backward if record else None, "gru_sequence")


def _identity(x):
    """A (B, T, E) input as a (B*T, E) table and the (B, T) ids of its rows."""
    batch, steps, dim = x.shape
    return x.reshape(batch * steps, dim), np.arange(batch * steps).reshape(batch, steps)


def _padded(rng, ids, padding, direction="forward"):
    """``ids`` as the models pass them to the ops: right-padded with the pad
    id 0 past random row lengths ("ragged"), with every second row all pad
    ("empty rows"), or whole (None); in the "reverse" direction each row's
    real ids reversed within its length, as the BiGRU's backward direction
    reads them, its positions past the length repeating the row's first id."""
    batch, steps = ids.shape
    lengths = np.full(batch, steps)
    if padding is not None:
        lengths = rng.integers(1, steps + 1, size=batch)
        if padding == "empty rows":
            lengths[::2] = 0
        ids = np.where(np.arange(steps) < lengths[:, None], ids, 0)
    if direction == "reverse":
        flip = np.maximum(lengths[:, None] - 1 - np.arange(steps), 0)
        ids = np.take_along_axis(ids, flip, 1)
    return ids


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


# (batch, steps, dim, hidden, padding): a single row and step, padding,
# rows of pad only, no padding, and the numeric workload's training and dev
# shapes
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
@pytest.mark.parametrize("batch,steps,dim,nh,padding", CASES)
def test_lstm_sequence_matches_reference_bitwise(batch, steps, dim, nh, padding, taped):
    rng = np.random.default_rng(batch * 1000 + steps)
    table, ids = _identity(rng.normal(size=(batch, steps, dim)))
    ids = _padded(rng, ids, padding)
    weights = (rng.normal(size=(dim, 4 * nh)), rng.normal(size=(nh, 4 * nh)) * 0.5,
               rng.normal(size=4 * nh))
    g = rng.normal(size=(batch * steps, nh))
    got, want = (_run(lambda x, *w: op(x, ids, *w), (table, *weights), g, taped)
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
@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("batch,steps,dim,nh,padding", GRU_CASES)
def test_gru_sequence_matches_reference_bitwise(batch, steps, dim, nh, padding, direction,
                                                with_h0, taped):
    rng = np.random.default_rng(batch * 1000 + steps)
    table, ids = _identity(rng.normal(size=(batch, steps, dim)))
    ids = _padded(rng, ids, padding, direction)
    arrays = [table, rng.normal(size=(dim, 3 * nh)),
              rng.normal(size=3 * nh), rng.normal(size=(nh, 2 * nh)) * 0.5,
              rng.normal(size=(nh, nh)) * 0.5]
    if with_h0:
        arrays.append(rng.normal(size=(batch, nh)))
    g = rng.normal(size=(batch * steps, nh))

    def call(op):
        return lambda x, w_x, b_x, w_h, w_hn, *h0: op(
            x, ids, w_x, b_x, w_h, w_hn, h0=h0[0] if h0 else None)

    got, want = (_run(call(op), arrays, g, taped)
                 for op in (ad.gru_sequence, reference_gru_sequence))
    _assert_bitwise(["output", "x", "w_x", "b_x", "w_h", "w_hn", "h0"], got, want)


# (batch, EOS bias): one row; twelve rows under a small EOS bias, some of
# which stop early while others run to the cap; and 96 rows, the serving
# workload's three polarities of 32 examples
DECODE_CASES = [(1, None), (12, 0.05), (96, None)]


@pytest.mark.parametrize("batch,eos_bias", DECODE_CASES)
def test_greedy_decode_steps_match_one_step_gru_sequence_bitwise(batch, eos_bias,
                                                                 monkeypatch):
    rng = np.random.default_rng(batch)
    cvae = toy_cvae(rng)
    if eos_bias is not None:
        cvae.dec_out.b.data[EOS] = eos_bias
    v_e = Tensor(rng.normal(size=(batch, 16)))
    controls = np.arange(batch) % 3
    calls = []
    step = ad.GruDecoder.step

    def recorded(decoder, table, ids):
        before = decoder.h.copy()
        logits = step(decoder, table, ids)
        calls.append((table, ids, before, decoder.h.copy(), logits.copy()))
        return logits

    monkeypatch.setattr(ad.GruDecoder, "step", recorded)
    out = cvae.decode(v_e, controls)
    monkeypatch.undo()
    assert out == reference_greedy_decode(cvae, v_e, controls)
    if eos_bias is not None:
        lengths = {len(row) for row in out}
        assert cvae.config.max_len in lengths and min(lengths) < cvae.config.max_len
    # decoding stops at the step where the last row reads EOS, or at the cap
    assert len(calls) == min(max(len(row) for row in out) + 1, cvae.config.max_len)
    dec = cvae.dec
    with ad.no_grad():
        for table, ids, before, after, logits in calls:
            state = ad.gru_sequence(Tensor(table), ids[:, None], dec.w_x, dec.b_x, dec.w_h,
                                    dec.w_hn, h0=Tensor(before))
            _assert_bitwise(["state", "logits"], [after, logits],
                            [state.data, cvae.dec_out(state).data])
