"""Pinned numbers of tiny joint-training runs, and the script that rewrites them.

Each case trains one small bundle in gef mode for two epochs on a synthetic
corpus of 120 reviews, against a classifier pre-trained for at most twelve epochs.
It records every step loss, each epoch's ``EF_mean`` and a sha256 of the
final parameters. ``tests/test_golden.py`` reruns the cases and compares.

Rewrite ``step_losses_golden.json`` with

    PYTHONPATH=src python tests/data/make_step_losses_golden.py

only when a change is meant to move training arithmetic. Before it writes,
it prints for each case how the rerun differs from the pinned numbers: the
largest relative step-loss difference, the largest ``EF_mean`` difference
and whether the final parameters are bitwise the same. Say in the change
log which numbers moved and by how much.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

# gloss sets its one-thread BLAS default at import, before numpy loads
import gloss  # noqa: F401

import numpy as np

from gloss.data import build_vocab, filter_and_split
from gloss.framework import TrainConfig, pretrain_classifier, train
from gloss.models import CvaeConfig, EncoderConfig, ModelBundle
from gloss.synth import synth_numeric, synth_text

GOLDEN = Path(__file__).with_name("step_losses_golden.json")

# (schema, encoder kind); pcmag trains the comment CVAE
CASES = {
    "skytrax-bow": ("skytrax", "bow"),
    "skytrax-gru": ("skytrax", "gru"),
    "skytrax-lstm": ("skytrax", "lstm"),
    "skytrax-cnn": ("skytrax", "cnn"),
    "pcmag-gru": ("pcmag", "gru"),
}


def params_sha256(bundle: ModelBundle) -> str:
    h = hashlib.sha256()
    for name, tensor in sorted(bundle.parameters().items()):
        h.update(name.encode())
        h.update(tensor.data.tobytes())
    return h.hexdigest()


def run_case(name: str) -> dict:
    """Train one case from scratch; its step losses, EF_mean per epoch and
    final-parameter hash."""
    schema, kind = CASES[name]
    if schema == "skytrax":
        examples, cvae = synth_numeric(120, seed=21), None
    else:
        examples = synth_text(120, seed=22)
        cvae = CvaeConfig(latent_dim=6, control_dim=4, decoder_hidden=12,
                          comment_hidden=8, embedding_dim=8, mlp_hidden=8,
                          max_len=20)
    split = filter_and_split(examples, schema, seed=13)
    vocab = build_vocab(split.train, schema)
    classifier, _ = pretrain_classifier(split, schema, seed=0, vocab=vocab,
                                        lr=1e-2, batch_size=16, max_epochs=12)
    cnn = kind == "cnn"
    enc = EncoderConfig(kind=kind, vocab_size=len(vocab), embedding_dim=10,
                        hidden_dim=12, cnn_filters=6 if cnn else None,
                        cnn_filter_sizes=(2, 3) if cnn else None)
    bundle = ModelBundle(schema, vocab, enc, cvae, seed=3)
    config = TrainConfig.for_schema(schema, batch_size=32, epochs=2, seed=4)
    result = train(bundle, split, config, classifier=classifier, mode="gef")
    return {"step_losses": result.step_losses,
            "EF_mean": [epoch["EF_mean"] for epoch in result.epochs],
            "params_sha256": params_sha256(bundle)}


def compare(name: str, got: dict, pinned: dict | None) -> str:
    """One line on how a rerun case differs from its pinned numbers."""
    if pinned is None:
        return f"{name}: not pinned before"
    lines = []
    for key in ("step_losses", "EF_mean"):
        a, b = np.asarray(got[key]), np.asarray(pinned[key])
        if a.shape != b.shape:
            lines.append(f"{key} length {len(b)} -> {len(a)}")
        elif key == "step_losses":
            lines.append(f"step losses max rel diff {np.max(np.abs(a - b) / np.abs(b)):.1e}")
        else:
            lines.append(f"EF_mean max abs diff {np.max(np.abs(a - b)):.1e}")
    same = got["params_sha256"] == pinned["params_sha256"]
    lines.append("parameters " + ("bitwise" if same else "not bitwise"))
    return f"{name}: " + ", ".join(lines)


def main() -> None:
    golden = {name: run_case(name) for name in CASES}
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name, case in golden.items():
        print(compare(name, case, pinned.get(name)))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
