"""Pinned outputs of committed checkpoints, and the script that writes them.

Each case is a tiny bundle saved under ``tests/data/serving/`` with the
frozen classifier of its schema and the synthetic corpus it was trained on:
skytrax with a CNN and with an LSTM encoder, and pcmag with a GRU encoder
and the comment CVAE. Beside them the script writes what serving them
gives: each case's ``gloss eval --json`` report (with the classifier's
oracle numbers) and ``gloss explain`` output, and in ``serving_golden.json``
the predictor's probabilities, the generated explanations and the
classifier's probabilities on the golden and on the generated explanations.
``tests/test_serving_golden.py`` loads the committed files and compares.

Rewrite the outputs with

    PYTHONPATH=src python tests/data/make_serving_golden.py

only when a change is meant to move serving arithmetic; say in the change
log which outputs moved and by how much. It keeps the committed corpora and
checkpoints, and writes them anew only where ``tests/data/serving/`` is
missing, which only a change to the checkpoint format should need.
"""
from __future__ import annotations

import json
from pathlib import Path

# gloss sets its one-thread BLAS default at import, before numpy loads
import gloss  # noqa: F401

import numpy as np

from gloss import autodiff as ad
from gloss import framework
from gloss.cli import main as cli_main
from gloss.data import (N_CLASSES, POLARITIES, build_vocab, example_to_record,
                        filter_and_split, load_jsonl, pad_batch, write_jsonl)
from gloss.framework import TrainConfig
from gloss.models import (ClassifierNumeric, ClassifierText, CvaeConfig,
                          EncoderConfig, ModelBundle)
from gloss.synth import synth_numeric, synth_text

DIR = Path(__file__).with_name("serving")
GOLDEN = DIR / "serving_golden.json"
SPLIT_SEED = 13
# schema -> (corpus size, training epochs): the comment CVAE trains until
# greedy decoding stops at EOS after varying numbers of tokens
SCHEDULE = {"skytrax": (60, 1), "pcmag": (120, 15)}

# case -> (schema, encoder kind); pcmag generates comments with the CVAE
CASES = {
    "skytrax-cnn": ("skytrax", "cnn"),
    "skytrax-lstm": ("skytrax", "lstm"),
    "pcmag-gru": ("pcmag", "gru"),
}


def corpus_path(schema: str) -> Path:
    return DIR / f"{schema}.jsonl"


def classifier_path(schema: str) -> Path:
    return DIR / f"{schema}-classifier.ckpt"


def _train_classifier(schema: str, split, vocab) -> None:
    """A small classifier, trained for a few epochs on golden explanations
    and saved; ``pretrain_classifier`` keeps the default sizes, which would
    make the text classifier's file some hundred KB."""
    rng = np.random.default_rng(0)
    if schema == "skytrax":
        classifier = ClassifierNumeric(rng, N_CLASSES[schema], emb_dim=4, hidden=8)
    else:
        classifier = ClassifierText(rng, len(vocab), N_CLASSES[schema], emb_dim=8, hidden=8)
    form = "numeric" if schema == "skytrax" else "text"
    optimizer = ad.Adam(classifier.parameters(), lr=1e-2)
    for start in list(range(0, len(split.train), 16)) * 5:
        batch = split.train[start:start + 16]
        logits = framework._classifier_logits(classifier, batch, form, vocab)
        loss = ad.cross_entropy(logits, np.array([ex.label for ex in batch])).mean()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    framework.save_classifier(classifier_path(schema), classifier, schema, vocab=vocab)


def _train_case(name: str) -> None:
    """gef training of the case's bundle, saved."""
    schema, kind = CASES[name]
    examples, _ = load_jsonl(corpus_path(schema), schema)
    split = filter_and_split(examples, schema, SPLIT_SEED)
    vocab = build_vocab(split.train, schema)
    classifier, _, _ = framework.load_classifier(classifier_path(schema))
    cnn = kind == "cnn"
    enc = EncoderConfig(kind=kind, vocab_size=len(vocab), embedding_dim=8, hidden_dim=8,
                        cnn_filters=4 if cnn else None,
                        cnn_filter_sizes=(2, 3) if cnn else None)
    cvae = (CvaeConfig(latent_dim=4, control_dim=4, decoder_hidden=8, comment_hidden=8,
                       embedding_dim=8, mlp_hidden=8, max_len=12)
            if schema == "pcmag" else None)
    bundle = ModelBundle(schema, vocab, enc, cvae, seed=3)
    config = TrainConfig.for_schema(schema, batch_size=16, epochs=SCHEDULE[schema][1],
                                    lr=2e-2, seed=4)
    framework.train(bundle, split, config, classifier=classifier, mode="gef")
    framework.save_bundle(DIR / f"{name}.ckpt", bundle,
                          extra_meta={"split_seed": SPLIT_SEED, "mode": "gef"})


def retrain() -> None:
    """Write the corpora, classifiers and bundles anew."""
    DIR.mkdir()
    for schema, synth in (("skytrax", synth_numeric), ("pcmag", synth_text)):
        examples = synth(SCHEDULE[schema][0], seed=31)
        write_jsonl(corpus_path(schema), [example_to_record(ex, schema) for ex in examples])
        split = filter_and_split(examples, schema, SPLIT_SEED)
        _train_classifier(schema, split, build_vocab(split.train, schema)
                          if schema == "pcmag" else None)
    for name in CASES:
        _train_case(name)


def serve(name: str, out_dir: Path) -> dict:
    """What the committed files of one case serve: the CLI's eval report and
    explain records (written to ``out_dir``), and the loaded bundle's and
    classifier's outputs on the case's corpus."""
    schema, _ = CASES[name]
    ckpt, corpus, cls_ckpt = DIR / f"{name}.ckpt", corpus_path(schema), classifier_path(schema)
    report, explained = out_dir / f"{name}.eval.json", out_dir / f"{name}.explain.jsonl"
    assert cli_main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--classifier", str(cls_ckpt), "--json", str(report), "--quiet"]) == 0
    assert cli_main(["explain", "--checkpoint", str(ckpt), "--input", str(corpus),
                     "--out", str(explained), "--quiet"]) == 0

    bundle, _, _ = framework.load_bundle(ckpt)
    classifier, _, _ = framework.load_classifier(cls_ckpt)
    examples, _ = load_jsonl(corpus, schema)
    probs, generated = framework.predict_and_explain(bundle, examples)
    with ad.no_grad():
        if bundle.form == "numeric":
            logits = classifier.logits_hard(generated)
            generated = generated.tolist()
        else:
            logits = classifier.logits_hard(*pad_batch(
                [ids for pol in POLARITIES for ids in generated[pol]]))
    return {
        "eval": json.loads(report.read_text()),
        "explain": [json.loads(line) for line in explained.read_text().splitlines()],
        "probs": probs.tolist(),
        "generated": generated,
        "classifier_golden": framework._classifier_probs(
            classifier, examples, bundle.form, bundle.vocab).tolist(),
        "classifier_generated": ad.softmax(logits).data.tolist(),
    }


def main() -> None:
    if not DIR.exists():
        retrain()
    golden = {}
    for name in CASES:
        got = serve(name, DIR)
        golden[name] = {key: got[key] for key in
                        ("probs", "generated", "classifier_golden", "classifier_generated")}
    GOLDEN.write_text(json.dumps(golden, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
