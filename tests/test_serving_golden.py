"""Committed checkpoints against the outputs pinned when they were saved.

The bundles and classifiers under ``tests/data/serving/`` are loaded as
``gloss eval`` and ``gloss explain`` load them. Probabilities must agree at
rtol 1e-12; reports, scores and decoded comments must be the same.
``tests/data/make_serving_golden.py`` wrote the files and rewrites the
outputs.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).parent / "data"


def _load_maker():
    spec = importlib.util.spec_from_file_location(
        "make_serving_golden", DATA / "make_serving_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKER = _load_maker()
GOLDEN = json.loads(MAKER.GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(MAKER.CASES)


@pytest.mark.parametrize("name", sorted(MAKER.CASES))
def test_served_outputs_match_golden(name, tmp_path):
    got, want = MAKER.serve(name, tmp_path), GOLDEN[name]
    assert got["eval"] == json.loads((MAKER.DIR / f"{name}.eval.json").read_text())
    assert got["explain"] == [json.loads(line) for line in
                              (MAKER.DIR / f"{name}.explain.jsonl").read_text().splitlines()]
    assert got["generated"] == want["generated"]
    for key in ("probs", "classifier_golden", "classifier_generated"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
