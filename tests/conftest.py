"""Shared oracles and fixtures.

The finite-difference oracle here is the independent check for every
gradient the engine produces; it never touches the tape.
"""
from __future__ import annotations

import contextlib
import sys
import tracemalloc
from types import SimpleNamespace

# gloss sets its one-thread BLAS default at import, which only takes effect
# if numpy has not loaded yet, so it comes first
import gloss  # noqa: F401

import numpy as np
import pytest

from gloss import autodiff as ad
from gloss.models import ModelBundle


def finite_difference_grad(f, x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    x_flat = x.reshape(-1)
    for i in range(x_flat.size):
        orig = x_flat[i]
        x_flat[i] = orig + step
        f_plus = f(x)
        x_flat[i] = orig - step
        f_minus = f(x)
        x_flat[i] = orig
        flat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


@contextlib.contextmanager
def traced_memory():
    """Trace allocations (numpy reports its buffers to tracemalloc) over the
    block. The yielded namespace gets ``current`` and ``peak``, in bytes,
    when the block ends; tracing stops however it ends."""
    usage = SimpleNamespace(current=None, peak=None)
    tracemalloc.start()
    try:
        yield usage
        usage.current, usage.peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture(autouse=True)
def engine_state_restored():
    """Fail a test that leaves tracemalloc tracing, which slows every later
    test and skews their memory bounds, or grad recording off; either is
    undone first, so that later tests run as usual."""
    yield
    leaks = []
    if tracemalloc.is_tracing():
        tracemalloc.stop()
        leaks.append("tracemalloc tracing")
    if not ad._grad_enabled:
        ad._grad_enabled = True
        leaks.append("grad recording off")
    if leaks:
        pytest.fail(f"the test left {' and '.join(leaks)}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def encoder_calls(monkeypatch) -> list:
    """The batch size of every ``ModelBundle.encode_reviews`` call."""
    calls = []
    original = ModelBundle.encode_reviews

    def counted(self, examples):
        calls.append(len(examples))
        return original(self, examples)

    monkeypatch.setattr(ModelBundle, "encode_reviews", counted)
    return calls


@pytest.fixture
def made_ops(monkeypatch) -> list:
    """The name of every op the engine builds, in call order."""
    ops = []
    node = ad._node

    def recording_node(data, parents, backward):
        # every op output is built here: through _make, which knows the op
        # name (conv_max among them), or straight from an op that only
        # moves elements (reshape, slice_axis, embedding_lookup, concat)
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_make":
            ops.append(caller.f_locals["opname"])
        else:
            ops.append(caller.f_code.co_name.lstrip("_"))
        return node(data, parents, backward)

    monkeypatch.setattr(ad, "_node", recording_node)
    return ops
