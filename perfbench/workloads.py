"""The three benchmark workloads.

Each workload has a ``setup`` (repeated by the runner to time it), a
``round`` that runs whole operations in a closed loop and returns their
timings, ``latency_ms`` and ``detail`` that summarise the rounds, and
``check``/``digest`` that run once after measuring.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from gloss import cli, data, framework
from gloss.autodiff import Adam
from gloss.data import POLARITIES, SUBSCORE_FIELDS, SUBSCORE_LETTERS
from gloss.framework import TrainConfig
from gloss.models import CvaeConfig, EncoderConfig, ModelBundle

import checks

SPLIT_SEED = 13  # the CLI's default, so in-process splits match the commands'


@dataclass
class Round:
    """Timings of one round.

    ``latency_ms`` builds the bounded latency from the fastest operations. On
    a shared 2-vCPU VM other tenants slowed the process by up to 1.5x, for
    milliseconds or for whole runs, which moved a run's median step latency
    by up to 25% between runs. Interference only adds time.
    """

    seconds: float
    examples: int
    attempted: int
    failed: int = 0
    latencies: list = field(default_factory=list)   # seconds per timed step
    parts: dict = field(default_factory=dict)        # command kind -> (seconds, examples)


def run_cli(argv) -> int:
    """One in-process ``gloss`` command; its stdout and stderr are kept quiet."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([str(a) for a in argv] + ["--quiet"])
    if code != 0:
        print(f"gloss {argv[0]} exited {code}: {err.getvalue().strip()}",
              file=sys.stderr)
    return code


def must(argv) -> None:
    if run_cli(argv) != 0:
        raise RuntimeError(f"set-up command failed: gloss {' '.join(map(str, argv))}")


def sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def recompute_eval(bundle, examples, report: dict, seed: int) -> list[str]:
    """Top-1, sub-field accuracy and BLEU-1 rebuilt from raw model outputs."""
    labels = [ex.label for ex in examples]
    errors = checks.compare("top1", {"top1": checks.top1(
        framework.predict_probs(bundle, examples), labels)}, report)
    generated = framework.generate_explanations(bundle, examples,
                                                np.random.default_rng([seed, 31]))
    if bundle.form == "numeric":
        return errors + checks.compare(
            "fields", checks.field_accuracy(generated, examples, SUBSCORE_LETTERS),
            report["fields"])
    cands = {p: [bundle.vocab.decode(ids) for ids in generated[p]] for p in POLARITIES}
    refs = {p: [getattr(ex, p) for ex in examples] for p in POLARITIES}
    got = {p: checks.bleu1(cands[p], refs[p]) for p in POLARITIES}
    got["aggregate"] = checks.bleu1(sum(cands.values(), []), sum(refs.values(), []))
    return errors + checks.compare(
        "bleu_1", got, {k: v["bleu_1"] for k, v in report["bleu"].items()})


# -- training workloads ---------------------------------------------------------


class TrainWorkload:
    """``framework.train`` in gef mode, one epoch per round.

    Rounds resume from the previous epoch with the same optimizer, as a
    checkpoint resume would, so a run trains for as many epochs as fit.
    """

    batch_size = 32
    lr = 2e-3

    def __init__(self, schema, corpus_n, encoder, cvae=None, pretrain_flags=()):
        self.schema = schema
        self.corpus_n = corpus_n
        self.encoder = encoder
        self.cvae = cvae
        self.pretrain_flags = list(pretrain_flags)

    def setup(self, workdir, seed: int) -> None:
        corpus, ckpt = workdir / "corpus.jsonl", workdir / "classifier.ckpt"
        must(["synth", "--schema", self.schema, "--n", self.corpus_n, "--seed", seed,
              "--out", corpus])
        must(["pretrain-c", "--corpus", corpus, "--schema", self.schema, "--out", ckpt,
              "--seed", seed, *self.pretrain_flags])
        examples, diagnostics = data.load_jsonl(corpus, self.schema)
        if diagnostics:
            raise RuntimeError(f"synthetic corpus has invalid lines: {diagnostics[:3]}")
        self.seed = seed
        self.examples = examples
        self.split = data.filter_and_split(examples, self.schema, SPLIT_SEED)
        vocab = data.build_vocab(self.split.train, self.schema)
        self.classifier, cls_vocab, _ = framework.load_classifier(ckpt)
        if cls_vocab is not None and cls_vocab.itos != vocab.itos:
            raise RuntimeError("classifier vocabulary does not match the corpus")
        cvae = CvaeConfig(**self.cvae) if self.cvae else None
        self.bundle = ModelBundle(self.schema, vocab,
                                  EncoderConfig(vocab_size=len(vocab), **self.encoder),
                                  cvae, seed=seed)
        self.optimizer = Adam(self.bundle.parameters(), lr=self.lr)
        self.optimizer.step = self._timed_step
        self.epochs, self.losses, self._stamps = [], [], []

    def _timed_step(self):
        # looked up on the class at call time, so a traced Adam.step is used
        type(self.optimizer).step(self.optimizer)
        self._stamps.append(perf_counter())

    def round(self) -> Round:
        epoch = len(self.epochs)
        config = TrainConfig.for_schema(self.schema, seed=self.seed, epochs=epoch + 1,
                                        batch_size=self.batch_size, lr=self.lr)
        self._stamps = []
        start = perf_counter()
        result = framework.train(self.bundle, self.split, config,
                                 classifier=self.classifier, mode="gef",
                                 optimizer=self.optimizer, start_epoch=epoch)
        seconds = perf_counter() - start
        self.epochs += result.epochs
        self.losses.append(result.step_losses)
        # a step runs from the end of the previous step to its own end; the
        # first step of an epoch also carries the epoch's set-up, so it is left out
        return Round(seconds, len(self.split.train), len(result.step_losses),
                     latencies=list(np.diff(self._stamps)))

    @staticmethod
    def latency_ms(rounds) -> float:
        """The fastest optimizer step."""
        return 1e3 * min(x for r in rounds for x in r.latencies)

    def detail(self, rounds) -> dict:
        steps = [x for r in rounds for x in r.latencies]
        out = {"train_examples_per_s": sum(r.examples for r in rounds)
               / sum(r.seconds for r in rounds),
               "train_step_ms_p25": 1e3 * float(np.percentile(steps, 25)),
               "train_step_ms_p50": 1e3 * float(np.median(steps)),
               "steps_timed": len(steps)}
        if len(steps) >= 200:
            out["train_step_ms_p95"] = 1e3 * float(np.percentile(steps, 95))
        return out

    def check(self) -> list[str]:
        errors = checks.epoch_records(self.epochs)
        errors += checks.step_losses([x for epoch in self.losses for x in epoch])
        if self.schema == "skytrax":
            errors += checks.rating_rule(self.examples)
        report = framework.evaluate(self.bundle, self.split.test, seed=self.seed)
        return errors + recompute_eval(self.bundle, self.split.test, report, self.seed)

    def digest(self) -> str:
        return sha(np.asarray(self.losses[0], dtype=np.float64).tobytes())


# -- explain-serve ----------------------------------------------------------------

TEXT_TRAIN = ["--encoder", "gru", "--epochs", 2, "--hidden-dim", 64, "--embedding-dim", 32,
              "--latent-dim", 16, "--decoder-hidden", 64, "--lr", 2e-3]
NUMERIC_TRAIN = ["--encoder", "cnn", "--epochs", 1, "--hidden-dim", 64,
                 "--embedding-dim", 48, "--batch-size", 32, "--lr", 2e-3]
SERVE_MODELS = {  # schema -> (training corpus size, pretrain-c flags, train flags)
    "pcmag": (400, ["--max-epochs", 3], TEXT_TRAIN),
    "skytrax": (600, [], NUMERIC_TRAIN),
}
HELD_OUT_N = 640   # eval scores the test tenth of this corpus
REQUESTS_N = 64    # examples per explain command
FORM = {"pcmag": "text", "skytrax": "numeric"}


class ServeWorkload:
    """In-process ``gloss eval`` and ``gloss explain`` on both schemas."""

    def setup(self, workdir, seed: int) -> None:
        self.workdir, self.seed = workdir, seed
        self.eval_n = {}
        for k, (schema, (n, pretrain_flags, train_flags)) in enumerate(SERVE_MODELS.items()):
            p = self.paths(schema)
            must(["synth", "--schema", schema, "--n", n, "--seed", seed + k, "--out", p["corpus"]])
            must(["pretrain-c", "--corpus", p["corpus"], "--schema", schema,
                  "--out", p["classifier"], "--seed", seed, *pretrain_flags])
            must(["train", "--corpus", p["corpus"], "--schema", schema, "--mode", "gef",
                  "--classifier", p["classifier"], "--out", p["model"], "--log", p["log"],
                  "--seed", seed, *train_flags])
            must(["synth", "--schema", schema, "--n", HELD_OUT_N, "--seed", seed + 100 + k,
                  "--out", p["held_out"]])
            must(["synth", "--schema", schema, "--n", REQUESTS_N, "--seed", seed + 200 + k,
                  "--out", p["requests"]])
            held_out, _ = data.load_jsonl(p["held_out"], schema)
            self.eval_n[schema] = len(data.filter_and_split(held_out, schema, SPLIT_SEED).test)
        self.outputs = []

    def paths(self, schema: str) -> dict:
        form = FORM[schema]
        names = {"corpus": "corpus.jsonl", "classifier": "classifier.ckpt",
                 "model": "model.ckpt", "log": "train_log.jsonl",
                 "held_out": "held_out.jsonl", "requests": "requests.jsonl",
                 "report": "report.json", "explained": "explained.jsonl"}
        return {k: self.workdir / f"{form}_{v}" for k, v in names.items()}

    def commands(self):
        for schema in SERVE_MODELS:
            p, form = self.paths(schema), FORM[schema]
            yield f"eval_{form}", self.eval_n[schema], [
                "eval", "--checkpoint", p["model"], "--corpus", p["held_out"],
                "--split", "test", "--classifier", p["classifier"], "--json", p["report"]]
            yield f"explain_{form}", REQUESTS_N, [
                "explain", "--checkpoint", p["model"], "--input", p["requests"],
                "--out", p["explained"]]

    def round(self) -> Round:
        parts, failed, examples = {}, 0, 0
        start = perf_counter()
        for kind, n, argv in self.commands():
            t0 = perf_counter()
            failed += run_cli(argv) != 0
            parts[kind] = (perf_counter() - t0, n)
            examples += n
        seconds = perf_counter() - start
        self.outputs.append(sha(*(self.paths(s)[k].read_bytes() for s in SERVE_MODELS
                                  for k in ("report", "explained"))))
        return Round(seconds, examples, len(parts), failed, parts=parts)

    @staticmethod
    def latency_ms(rounds) -> float:
        """A round's worth of commands, each at its fastest."""
        return 1e3 * sum(min(r.parts[kind][0] for r in rounds) for kind in rounds[0].parts)

    def detail(self, rounds) -> dict:
        out = {}
        for form in FORM.values():
            evals = [r.parts[f"eval_{form}"][0] for r in rounds]
            explains = [r.parts[f"explain_{form}"] for r in rounds]
            out[f"eval_{form}_ms_p25"] = 1e3 * float(np.percentile(evals, 25))
            out[f"eval_{form}_ms_p50"] = 1e3 * float(np.median(evals))
            out[f"explain_{form}_examples_per_s"] = (sum(n for _, n in explains)
                                                     / sum(t for t, _ in explains))
        return out

    def check(self) -> list[str]:
        errors = []
        if len(set(self.outputs)) != 1:
            errors.append("eval/explain outputs differ between rounds")
        for schema in SERVE_MODELS:
            p = self.paths(schema)
            with open(p["log"], encoding="utf-8") as fh:
                errors += checks.epoch_records([json.loads(line) for line in fh])
            bundle, meta, _ = framework.load_bundle(p["model"])
            held_out, _ = data.load_jsonl(p["held_out"], schema)
            requests, _ = data.load_jsonl(p["requests"], schema)
            if schema == "skytrax":
                corpus, _ = data.load_jsonl(p["corpus"], schema)
                errors += checks.rating_rule(corpus + held_out + requests)
            test = data.filter_and_split(held_out, schema, meta["split_seed"]).test
            report = json.loads(p["report"].read_text(encoding="utf-8"))
            errors += recompute_eval(bundle, test, report, seed=0)
            with open(p["explained"], encoding="utf-8") as fh:
                explained = [json.loads(line) for line in fh]
            errors += self.check_explained(bundle, requests, explained)
        return errors

    @staticmethod
    def check_explained(bundle, examples, records) -> list[str]:
        """Predictions match our argmax of the raw outputs; comments end at EOS."""
        if len(records) != len(examples):
            return [f"explain wrote {len(records)} records for {len(examples)} inputs"]
        argmax = np.argmax(framework.predict_probs(bundle, examples), axis=1)
        generated = framework.generate_explanations(bundle, examples,
                                                    np.random.default_rng([0, 37]))
        errors = []
        for i, rec in enumerate(records):
            if bundle.form == "numeric":
                want = {"pred_overall": int(argmax[i]) + 1}
                want.update({f"pred_{f}": int(generated[i, k])
                             for k, f in enumerate(SUBSCORE_FIELDS)})
            else:
                want = {"pred_overall": (int(argmax[i]) + 2) / 2.0}
                for pol in POLARITIES:
                    ids = generated[pol][i]
                    if len(ids) >= bundle.cvae_config.max_len:
                        errors.append(f"record {i}: {pol} comment hit the "
                                      f"{bundle.cvae_config.max_len}-token cap")
                    want[f"pred_{pol}"] = " ".join(bundle.vocab.decode(ids))
            errors += [f"record {i}: {k} is {rec[k]!r}, recomputed {v!r}"
                       for k, v in want.items() if rec[k] != v]
        return errors

    def digest(self) -> str:
        return self.outputs[0]


WORKLOADS = {
    # criterion 5's model and batch: LSTM, emb 48, hidden 64, batch 32
    "numeric-lstm-gef": lambda: TrainWorkload(
        "skytrax", 1000, dict(kind="lstm", embedding_dim=48, hidden_dim=64)),
    # criterion 6's sizes: GRU encoder and comment CVAE
    "text-cvae-gef": lambda: TrainWorkload(
        "pcmag", 600, dict(kind="gru", embedding_dim=32, hidden_dim=64),
        cvae=dict(latent_dim=16, control_dim=8, decoder_hidden=64, comment_hidden=32,
                  embedding_dim=32, mlp_hidden=32),
        pretrain_flags=["--max-epochs", 3]),
    "explain-serve": ServeWorkload,
}
