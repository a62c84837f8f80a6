"""Shared oracles and fixtures.

The finite-difference oracle here is the independent check for every
gradient the engine produces; it never touches the tape.
"""
from __future__ import annotations

import numpy as np
import pytest

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
