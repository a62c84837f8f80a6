"""Command-line surface: synth, pretrain-c, train, eval, explain.

Every command that takes --seed is bitwise reproducible: rerunning with
identical arguments and inputs rewrites identical logs, checkpoints, and
reports. Data goes to stdout (or --out files); diagnostics go to stderr.

Exit codes: 0 success; 1 validation error, including a checkpoint whose
weights are not all finite; 2 a non-finite value computed by any command,
such as training divergence.
"""
from __future__ import annotations

import argparse
import configparser
import json
import sys

import numpy as np

from . import framework
from .autodiff import NonFiniteError
from .data import (N_CLASSES, POLARITIES, SUBSCORE_FIELDS,
                   SUBSCORE_LETTERS, build_vocab, example_to_record,
                   filter_and_split, load_jsonl, write_jsonl)
from .framework import TrainConfig, TrainingDiverged
from .models import CvaeConfig, EncoderConfig, ModelBundle
from .synth import synth_numeric, synth_text

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGED = 2

# desk defaults per schema; full-scale runs override via --config or flags
SCHEMA_DEFAULTS = {
    "pcmag": {"encoder": "gru", "hidden_dim": 128, "embedding_dim": 100,
              "batch_size": 32},
    "skytrax": {"encoder": "lstm", "hidden_dim": 256, "embedding_dim": 100,
                "batch_size": 64},
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


# every key some command reads through _setting; any other key in a
# --config file is a typo or a retired setting and is rejected
CONFIG_KEYS = frozenset({
    "n", "seed", "split_seed", "lr", "batch_size", "max_epochs", "schema",
    "encoder", "embedding_dim", "hidden_dim", "latent_dim", "decoder_hidden",
    "epochs", "loss_weights", "freeze_threshold", "kl_anneal_frac",
})


def _read_config(path) -> dict:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise CliError(f"config file {path}: {err}") from err
    if not read:
        raise CliError(f"config file {path} not found")
    flat = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key not in CONFIG_KEYS:
                raise CliError(f"unknown config key {key!r}")
            flat[key] = value
    return flat


def _setting(args, config: dict, key: str, default=None, cast=None):
    """Precedence: CLI flag, then config file, then default."""
    assert key in CONFIG_KEYS, key
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if value is None:
        return None
    return cast(value) if cast else value


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


def cmd_synth(args, config: dict) -> int:
    n = _setting(args, config, "n", cast=int)
    seed = _setting(args, config, "seed", 0, int)
    if args.schema == "skytrax":
        examples = synth_numeric(n, seed)
    else:
        examples = synth_text(n, seed)
    write_jsonl(args.out, [example_to_record(ex, args.schema) for ex in examples])
    _info(args, f"wrote {len(examples)} {args.schema} examples to {args.out}")
    return EXIT_OK


def cmd_pretrain_c(args, config: dict) -> int:
    schema = args.schema
    examples = _load_corpus(args.corpus, schema, args)
    split_seed = _setting(args, config, "split_seed", 13, int)
    seed = _setting(args, config, "seed", 0, int)
    split = filter_and_split(examples, schema, split_seed)
    vocab = build_vocab(split.train, schema) if schema == "pcmag" else None
    classifier, report = framework.pretrain_classifier(
        split, schema, seed=seed, vocab=vocab,
        lr=_setting(args, config, "lr", 2e-3, float),
        batch_size=_setting(args, config, "batch_size", 128, int),
        max_epochs=_setting(args, config, "max_epochs", 40, int))
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


def _build_train_config(args, config: dict, schema: str) -> TrainConfig:
    weights = _setting(args, config, "loss_weights", "1,1")
    if isinstance(weights, str):
        parts = weights.split(",")
        if len(parts) != 2:
            raise CliError("loss_weights must be two comma-separated numbers")
        weights = (float(parts[0]), float(parts[1]))
    threshold = _setting(args, config, "freeze_threshold", None, float)
    return TrainConfig.for_schema(
        schema,
        batch_size=_setting(args, config, "batch_size",
                            SCHEMA_DEFAULTS[schema]["batch_size"], int),
        lr=_setting(args, config, "lr", 1e-3, float),
        epochs=_setting(args, config, "epochs", 5, int),
        seed=_setting(args, config, "seed", 0, int),
        predictor_freeze_threshold=threshold,
        loss_weights=weights,
        kl_anneal_frac=_setting(args, config, "kl_anneal_frac", 0.2, float),
    )


def cmd_train(args, config: dict) -> int:
    schema = _setting(args, config, "schema")
    if schema not in N_CLASSES:
        raise CliError("--schema (pcmag or skytrax) is required")
    examples = _load_corpus(args.corpus, schema, args)
    split_seed = _setting(args, config, "split_seed", 13, int)
    split = filter_and_split(examples, schema, split_seed)
    train_config = _build_train_config(args, config, schema)

    vocab = build_vocab(split.train, schema)
    encoder_config = EncoderConfig(
        kind=_setting(args, config, "encoder", SCHEMA_DEFAULTS[schema]["encoder"]),
        vocab_size=len(vocab),
        embedding_dim=_setting(args, config, "embedding_dim",
                               SCHEMA_DEFAULTS[schema]["embedding_dim"], int),
        hidden_dim=_setting(args, config, "hidden_dim",
                            SCHEMA_DEFAULTS[schema]["hidden_dim"], int),
    )
    cvae_config = None
    if schema == "pcmag":
        cvae_config = CvaeConfig(
            latent_dim=_setting(args, config, "latent_dim", 64, int),
            decoder_hidden=_setting(args, config, "decoder_hidden", 128, int))
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


def cmd_eval(args, config: dict) -> int:
    bundle, meta, _ = framework.load_bundle(args.checkpoint)
    schema = meta["schema"]
    examples = _load_corpus(args.corpus, schema, args)
    split_seed = args.split_seed if args.split_seed is not None else meta.get("split_seed", 13)
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


def cmd_explain(args, config: dict) -> int:
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

    def common(p, seed_help):
        p.add_argument("--seed", type=int, default=None, help=seed_help)
        p.add_argument("--config", default=None, help="INI file with key=value settings")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--schema", required=True, choices=("pcmag", "skytrax"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    common(p, "seed of the generated corpus")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain-c", help="pre-train and freeze the explanation classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", required=True, choices=("pcmag", "skytrax"))
    p.add_argument("--out", required=True)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    common(p, "seed of the initial weights and of every random draw in training")
    p.set_defaults(func=cmd_pretrain_c)

    p = sub.add_parser("train", help="train a model bundle (baseline or gef)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", choices=("pcmag", "skytrax"), default=None)
    p.add_argument("--mode", choices=("baseline", "gef"), default="gef")
    p.add_argument("--classifier", default=None, help="frozen classifier checkpoint (gef mode)")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="append one JSON record per epoch")
    p.add_argument("--encoder", choices=("bow", "gru", "lstm", "cnn"), default=None)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=None)
    p.add_argument("--embedding-dim", dest="embedding_dim", type=int, default=None)
    p.add_argument("--latent-dim", dest="latent_dim", type=int, default=None)
    p.add_argument("--decoder-hidden", dest="decoder_hidden", type=int, default=None)
    p.add_argument("--loss-weights", dest="loss_weights", default=None,
                   help="two comma-separated weights for (loss, risk loss)")
    p.add_argument("--freeze-threshold", dest="freeze_threshold", type=float, default=None)
    common(p, "seed of the initial weights and of every random draw in training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p.add_argument("--classifier", default=None)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=None)
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _read_config(args.config) if args.config else {}
        return args.func(args, config)
    except (ValueError, OSError) as err:
        # CliError, CorpusError and CheckpointError are all ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TrainingDiverged, NonFiniteError) as err:
        print(f"diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
