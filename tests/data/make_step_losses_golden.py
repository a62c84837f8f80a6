"""Pinned numbers of tiny joint-training runs, and the script that rewrites them.

Each case trains one small bundle in gef mode for two epochs on a synthetic
corpus of 120 reviews, against a classifier pre-trained for at most twelve epochs.
It records every step loss, each epoch's ``EF_mean`` and a sha256 of the
final parameters. ``tests/test_golden.py`` reruns the cases and compares.

Rewrite ``step_losses_golden.json`` with

    PYTHONPATH=src python tests/data/make_step_losses_golden.py

only when a change is meant to move training arithmetic, and say in the
change log which numbers moved and by how much.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

# gloss sets its one-thread BLAS default at import, before numpy loads
import gloss  # noqa: F401

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


def main() -> None:
    golden = {name: run_case(name) for name in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
