"""Command-line surface: synth, pretrain-c, train, eval, explain.

Every command that takes --seed is bitwise reproducible: rerunning with
identical arguments and inputs rewrites identical logs, checkpoints, and
reports. Data goes to stdout (or --out files); diagnostics go to stderr.

Each key of ``SETTINGS`` is parsed as its type, whether a flag or a
``--config`` INI file gives it. A flag wins over the config file, and a
setting that neither gives is left to the library's default (for eval's
split seed, the checkpoint's). A setting that a command needs, such as its
schema, may come from either, so the command checks it after the merge.

Exit codes: 0 success; 1 validation error, including a checkpoint whose
weights are not all finite; 2 a non-finite value computed by any command,
such as training divergence.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from . import framework
from .autodiff import NonFiniteError
from .data import (N_CLASSES, POLARITIES, SUBSCORE_FIELDS,
                   SUBSCORE_LETTERS, build_vocab, example_to_record,
                   filter_and_split, load_jsonl, write_jsonl)
from .framework import TrainConfig, TrainingDiverged
from .models import ENCODER_KINDS, CvaeConfig, EncoderConfig, ModelBundle
from .synth import synth_numeric, synth_text

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGED = 2

# the corpus split of every command that neither a flag nor the config
# (nor, for eval, the checkpoint) gives a split seed
SPLIT_SEED = 13

# the encoder settings each schema takes where EncoderConfig's defaults
# do not fit; full-scale runs override them via --config or flags
SCHEMA_DEFAULTS = {"pcmag": {"kind": "gru"}, "skytrax": {"kind": "lstm", "hidden_dim": 256}}


def weight_pair(text: str) -> tuple[float, float]:
    """Two comma-separated loss weights, for (loss, risk loss)."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("loss_weights must be two comma-separated numbers")
    return float(parts[0]), float(parts[1])


# every setting a flag or a --config key can give, with the type its text
# is parsed as; any other key in a --config file is a typo or a retired
# setting and is rejected
SETTINGS = {
    "n": int, "seed": int, "split_seed": int, "lr": float, "batch_size": int, "max_epochs": int,
    "schema": str, "encoder": str, "embedding_dim": int, "hidden_dim": int, "latent_dim": int,
    "decoder_hidden": int, "epochs": int, "loss_weights": weight_pair,
    "freeze_threshold": float, "kl_anneal_frac": float,
}


class CliError(ValueError):
    """Validation failure surfaced to the user (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _read_config(path) -> dict:
    """The settings in the INI file at ``path``, each parsed as its type."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise CliError(f"config file {path}: {err}") from err
    if not read:
        raise CliError(f"config file {path} not found")
    settings = {}
    for section in parser.sections():
        for key, text in parser.items(section):
            if key not in SETTINGS:
                raise CliError(f"unknown config key {key!r}")
            try:
                settings[key] = SETTINGS[key](text)
            except ValueError as err:
                raise CliError(f"config key {key!r}: {err}") from err
    return settings


def _given(args, *keys: str, **renamed: str) -> dict:
    """The settings among ``keys`` and ``renamed`` that a flag or the
    config file gave, each ``key=name`` in ``renamed`` passed as ``name``."""
    names = dict(zip(keys, keys), **renamed)
    return {name: getattr(args, key) for key, name in names.items()
            if getattr(args, key, None) is not None}


def _schema(args) -> str:
    """The command's schema, from the flag or else the config file."""
    if args.schema is None:
        raise CliError(f"--schema ({' or '.join(N_CLASSES)}) is required")
    if args.schema not in N_CLASSES:
        raise CliError(f"unknown schema {args.schema!r}: expected {' or '.join(N_CLASSES)}")
    return args.schema


def _check_out_dir(path) -> None:
    """Fail before any training when the directory of --out does not exist."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise CliError(f"--out {path}: directory {directory} does not exist")


def _load_corpus(path, schema: str, args) -> list:
    try:
        examples, diagnostics = load_jsonl(path, schema)
    except OSError as err:
        raise CliError(str(err)) from err
    for line in diagnostics:
        print(f"{path}: {line}", file=sys.stderr)
    if not examples:
        raise CliError(f"{path}: no valid examples")
    return examples


def _load_classifier(path, schema: str, vocab, vocab_source: str):
    """The frozen classifier at ``path``, checked against the schema and,
    for text, against ``vocab``, the vocabulary of ``vocab_source``."""
    classifier, cls_vocab, cls_meta = framework.load_classifier(path)
    if cls_meta["schema"] != schema:
        raise CliError(f"classifier schema {cls_meta['schema']} != {schema}")
    if cls_vocab is not None and cls_vocab.itos != vocab.itos:
        raise CliError(f"classifier vocabulary does not match {vocab_source}; "
                       "pretrain-c and train must see the same corpus and split seed")
    return classifier


def _format_table(rows: list[tuple], header: tuple) -> str:
    table = [header] + [tuple(f"{v:.2f}" if isinstance(v, float) else str(v)
                              for v in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


# -- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    schema = _schema(args)
    if args.n is None:
        raise CliError("--n is required")
    generate = synth_numeric if schema == "skytrax" else synth_text
    # the generators take no default seed
    examples = generate(args.n, 0 if args.seed is None else args.seed)
    write_jsonl(args.out, [example_to_record(ex, schema) for ex in examples])
    _info(args, f"wrote {len(examples)} {schema} examples to {args.out}")
    return EXIT_OK


def cmd_pretrain_c(args) -> int:
    schema = _schema(args)
    _check_out_dir(args.out)
    examples = _load_corpus(args.corpus, schema, args)
    split_seed = SPLIT_SEED if args.split_seed is None else args.split_seed
    split = filter_and_split(examples, schema, split_seed)
    vocab = build_vocab(split.train, schema) if schema == "pcmag" else None
    classifier, report = framework.pretrain_classifier(
        split, schema, vocab=vocab,
        **_given(args, "seed", "lr", "batch_size", "max_epochs"))
    report["split_seed"] = split_seed
    framework.save_classifier(args.out, classifier, schema, vocab=vocab,
                              report=report)
    print(_format_table(
        [("top1", report["dev_top1"], report["test_top1"]),
         ("top3", report["dev_top3"], report["test_top3"])],
        ("oracle", "dev", "test")))
    _info(args, f"saved frozen classifier to {args.out} "
                f"after {report['epochs_trained']} epochs")
    return EXIT_OK


def cmd_train(args) -> int:
    schema = _schema(args)
    _check_out_dir(args.out)
    examples = _load_corpus(args.corpus, schema, args)
    split_seed = SPLIT_SEED if args.split_seed is None else args.split_seed
    split = filter_and_split(examples, schema, split_seed)
    train_config = TrainConfig.for_schema(schema, **_given(
        args, "batch_size", "lr", "epochs", "seed", "loss_weights", "kl_anneal_frac",
        freeze_threshold="predictor_freeze_threshold"))

    vocab = build_vocab(split.train, schema)
    encoder_settings = SCHEMA_DEFAULTS[schema] | _given(
        args, "embedding_dim", "hidden_dim", encoder="kind")
    encoder_config = EncoderConfig(vocab_size=len(vocab), **encoder_settings)
    cvae_config = (CvaeConfig(**_given(args, "latent_dim", "decoder_hidden"))
                   if schema == "pcmag" else None)
    bundle = ModelBundle(schema, vocab, encoder_config, cvae_config,
                         seed=train_config.seed)

    classifier = None
    if args.mode == "gef":
        if not args.classifier:
            raise CliError("gef mode requires --classifier CKPT")
        classifier = _load_classifier(args.classifier, schema, vocab, "the corpus")

    _info(args, f"training {schema} / {args.mode} for {train_config.epochs} epochs "
                f"on {len(split.train)} examples")
    result = framework.train(bundle, split, train_config, classifier=classifier,
                             mode=args.mode, log_path=args.log)
    for record in result.epochs:
        _info(args, json.dumps(record, sort_keys=True))
    framework.save_bundle(args.out, bundle, extra_meta={
        "split_seed": split_seed, "mode": args.mode,
        "train_config": {"batch_size": train_config.batch_size,
                         "lr": train_config.lr, "epochs": train_config.epochs,
                         "seed": train_config.seed,
                         "loss_weights": list(train_config.loss_weights)}})
    _info(args, f"saved model to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    bundle, meta, _ = framework.load_bundle(args.checkpoint)
    schema = meta["schema"]
    examples = _load_corpus(args.corpus, schema, args)
    split_seed = meta.get("split_seed", SPLIT_SEED) if args.split_seed is None else args.split_seed
    if type(split_seed) is not int:  # a JSON true would pass isinstance(..., int)
        raise CliError(f"checkpoint split_seed must be an integer, got {split_seed!r}")
    split = filter_and_split(examples, schema, split_seed)
    part = {"train": split.train, "dev": split.dev, "test": split.test}[args.split]
    classifier = None
    if args.classifier:
        classifier = _load_classifier(args.classifier, schema, bundle.vocab,
                                      "the checkpoint's")
    report = framework.evaluate(bundle, part, classifier=classifier)

    rows = [("top1", report["top1"]), ("top3", report["top3"])]
    if "oracle" in report:
        rows += [("oracle_top1", report["oracle"]["top1"]),
                 ("oracle_top3", report["oracle"]["top3"])]
    print(_format_table(rows, ("metric", f"{args.split}%")))
    if "fields" in report:
        print()
        print(_format_table(
            [tuple(["acc%"] + [report["fields"][c] for c in SUBSCORE_LETTERS])],
            tuple(["field"] + list(SUBSCORE_LETTERS))))
    if "bleu" in report:
        print()
        print(_format_table(
            [tuple([pol] + [report["bleu"][pol][f"bleu_{n}"] for n in range(1, 5)])
             for pol in list(POLARITIES) + ["aggregate"]],
            ("polarity", "bleu1", "bleu2", "bleu3", "bleu4")))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _info(args, f"wrote report to {args.json}")
    return EXIT_OK


def cmd_explain(args) -> int:
    bundle, meta, _ = framework.load_bundle(args.checkpoint)
    schema = meta["schema"]
    examples = _load_corpus(args.input, schema, args)
    probs, generated = framework.predict_and_explain(bundle, examples)

    records = []
    for i, ex in enumerate(examples):
        record = example_to_record(ex, schema)
        if schema == "skytrax":
            record["pred_overall"] = int(np.argmax(probs[i]) + 1)
            for f, name in enumerate(SUBSCORE_FIELDS):
                record[f"pred_{name}"] = int(generated[i, f])
        else:
            record["pred_overall"] = (int(np.argmax(probs[i])) + 2) / 2.0
            for polarity in POLARITIES:
                tokens = bundle.vocab.decode(generated[polarity][i])
                record[f"pred_{polarity}"] = " ".join(tokens)
        records.append(record)
    if args.out:
        write_jsonl(args.out, records)
        _info(args, f"wrote {len(records)} explained records to {args.out}")
    else:
        for record in records:
            print(json.dumps(record, sort_keys=True))
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="gloss",
                     description="classify text and generate fine-grained explanations")
    sub = parser.add_subparsers(dest="command", required=True)
    # eval and explain keep --seed so that invocations passing it still run
    ignored_seed = "accepted and ignored: the outputs are deterministic"
    # required, but a --config file may give it, so the command checks it
    schema_help = " or ".join(N_CLASSES)

    def setting(p, *keys, **kwargs):
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), type=SETTINGS[key], **kwargs)

    def common(p, seed_help):
        setting(p, "seed", help=seed_help)
        p.add_argument("--config", default=None, help="INI file with key=value settings")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    setting(p, "schema", help=schema_help)
    setting(p, "n", help="number of examples (required)")
    p.add_argument("--out", required=True)
    common(p, "seed of the generated corpus")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain-c", help="pre-train and freeze the explanation classifier")
    p.add_argument("--corpus", required=True)
    setting(p, "schema", help=schema_help)
    p.add_argument("--out", required=True)
    setting(p, "split_seed", "lr", "batch_size", "max_epochs")
    common(p, "seed of the initial weights and of every random draw in training")
    p.set_defaults(func=cmd_pretrain_c)

    p = sub.add_parser("train", help="train a model bundle (baseline or gef)")
    p.add_argument("--corpus", required=True)
    setting(p, "schema", help=schema_help)
    p.add_argument("--mode", choices=("baseline", "gef"), default="gef")
    p.add_argument("--classifier", default=None, help="frozen classifier checkpoint (gef mode)")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="append one JSON record per epoch")
    setting(p, "encoder", choices=ENCODER_KINDS)
    setting(p, "split_seed", "epochs", "batch_size", "lr", "hidden_dim", "embedding_dim",
            "latent_dim", "decoder_hidden")
    setting(p, "loss_weights", help="two comma-separated weights for (loss, risk loss)")
    setting(p, "freeze_threshold")
    common(p, "seed of the initial weights and of every random draw in training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p.add_argument("--classifier", default=None)
    setting(p, "split_seed")
    p.add_argument("--json", default=None, help="also write the report as JSON")
    common(p, ignored_seed)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="dump predictions and explanations side by side")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    common(p, ignored_seed)
    p.set_defaults(func=cmd_explain)
    return parser


# parse_args keeps nothing between calls, so one parser serves every call
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        config = _read_config(args.config) if args.config else {}
        vars(args).update({k: v for k, v in config.items() if getattr(args, k, None) is None})
        # a non-finite value ends the command with exit 2 through
        # NonFiniteError, so numpy's own warnings about it are noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ValueError, OSError) as err:
        # CliError, CorpusError and CheckpointError are all ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TrainingDiverged, NonFiniteError) as err:
        print(f"diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
