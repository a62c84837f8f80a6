"""Tiny training runs against numbers pinned at an earlier commit.

A rounding move passes at rtol 1e-10; a changed formula fails. When the
final parameters are not bitwise those of the pinned run, a ``UserWarning``
says so, so a change that claims to keep every bit can show it here.
``tests/data/make_step_losses_golden.py`` rewrites the pinned file.
"""
from __future__ import annotations

import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).parent / "data"


def _load_maker():
    spec = importlib.util.spec_from_file_location(
        "make_step_losses_golden", DATA / "make_step_losses_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKER = _load_maker()
GOLDEN = json.loads((DATA / "step_losses_golden.json").read_text())


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(MAKER.CASES)


@pytest.mark.parametrize("name", sorted(MAKER.CASES))
def test_step_losses_match_golden(name):
    got, want = MAKER.run_case(name), GOLDEN[name]
    assert len(got["step_losses"]) == len(want["step_losses"])
    np.testing.assert_allclose(got["step_losses"], want["step_losses"], rtol=1e-10, atol=0)
    np.testing.assert_allclose(got["EF_mean"], want["EF_mean"], rtol=1e-10, atol=0)
    if got["params_sha256"] != want["params_sha256"]:
        warnings.warn(f"{name}: final parameters are not bitwise those of the "
                      "pinned run (losses agree at rtol 1e-10)", UserWarning)
