import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gloss import checkpoint, cli, data, framework
from gloss.cli import main
from gloss.data import POLARITIES, filter_and_split, load_jsonl
from gloss.framework import TrainConfig, TrainResult
from gloss.models import CvaeConfig, EncoderConfig


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def numeric_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "numeric.jsonl"
    assert run_cli("synth", "--schema", "skytrax", "--n", "400", "--seed", "21",
                   "--out", path, "--quiet") == 0
    return path


@pytest.fixture(scope="module")
def text_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "text.jsonl"
    assert run_cli("synth", "--schema", "pcmag", "--n", "300", "--seed", "22",
                   "--out", path, "--quiet") == 0
    return path


@pytest.fixture(scope="module")
def numeric_classifier(tmp_path_factory, numeric_corpus):
    path = tmp_path_factory.mktemp("cls") / "classifier.ckpt"
    code = run_cli("pretrain-c", "--corpus", numeric_corpus, "--schema", "skytrax",
                   "--out", path, "--max-epochs", "8", "--quiet")
    assert code == 0
    return path


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, numeric_corpus, numeric_classifier):
    out = tmp_path_factory.mktemp("model")
    ckpt = out / "model.ckpt"
    log = out / "train.jsonl"
    code = run_cli("train", "--corpus", numeric_corpus, "--schema", "skytrax",
                   "--mode", "gef", "--classifier", numeric_classifier,
                   "--out", ckpt, "--log", log, "--epochs", "1",
                   "--encoder", "bow", "--hidden-dim", "24",
                   "--embedding-dim", "16", "--seed", "3", "--quiet")
    assert code == 0
    return ckpt, log


@pytest.fixture(scope="module")
def text_model(tmp_path_factory, text_corpus):
    ckpt = tmp_path_factory.mktemp("text_model") / "model.ckpt"
    code = run_cli("train", "--corpus", text_corpus, "--schema", "pcmag",
                   "--mode", "baseline", "--out", ckpt, "--epochs", "1",
                   "--encoder", "bow", "--hidden-dim", "16",
                   "--embedding-dim", "12", "--latent-dim", "6",
                   "--decoder-hidden", "16", "--seed", "2", "--quiet")
    assert code == 0
    return ckpt


class TestSynth:
    def test_output_reloads_cleanly(self, numeric_corpus):
        examples, diagnostics = load_jsonl(numeric_corpus, "skytrax")
        assert len(examples) == 400 and not diagnostics

    def test_seeded_rerun_is_bitwise_identical(self, tmp_path, numeric_corpus):
        again = tmp_path / "again.jsonl"
        run_cli("synth", "--schema", "skytrax", "--n", "400", "--seed", "21",
                "--out", again, "--quiet")
        assert again.read_bytes() == Path(numeric_corpus).read_bytes()

    def test_text_schema(self, text_corpus):
        examples, diagnostics = load_jsonl(text_corpus, "pcmag")
        assert len(examples) == 300 and not diagnostics


class TestPretrainC:
    def test_prints_oracle_table(self, numeric_corpus, tmp_path, capsys):
        out = tmp_path / "c.ckpt"
        run_cli("pretrain-c", "--corpus", numeric_corpus, "--schema", "skytrax",
                "--out", out, "--max-epochs", "3", "--quiet")
        captured = capsys.readouterr().out
        assert "oracle" in captured and "top1" in captured and "top3" in captured

    def test_missing_corpus_is_validation_error(self, tmp_path):
        assert run_cli("pretrain-c", "--corpus", tmp_path / "nope.jsonl",
                       "--schema", "skytrax", "--out", tmp_path / "c.ckpt",
                       "--quiet") == 1


    def test_non_finite_overall_is_a_diagnostic(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        record = {"review": "fine .", "pos": "a", "neg": "b", "neu": "c"}
        corpus.write_text("".join(json.dumps(dict(record, overall=v)) + "\n"
                                  for v in (float("inf"), float("nan"))))
        assert run_cli("pretrain-c", "--corpus", corpus, "--schema", "pcmag",
                       "--out", tmp_path / "c.ckpt", "--quiet") == 1
        err = capsys.readouterr().err
        assert "line 1:" in err and "line 2:" in err and "no valid examples" in err
        assert "Traceback" not in err


class TestTrain:
    def test_writes_log_and_checkpoint(self, trained_model):
        ckpt, log = trained_model
        assert ckpt.exists()
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 1
        assert set(records[0]) == {"epoch", "L_p", "L_e", "L", "EF_mean",
                                   "L_MRT", "L_final", "dev_acc", "dev_top3"}

    def test_gef_without_classifier_fails(self, numeric_corpus, tmp_path):
        assert run_cli("train", "--corpus", numeric_corpus, "--schema", "skytrax",
                       "--mode", "gef", "--out", tmp_path / "m.ckpt",
                       "--epochs", "1", "--quiet") == 1

    def test_baseline_needs_no_classifier(self, numeric_corpus, tmp_path):
        code = run_cli("train", "--corpus", numeric_corpus, "--schema", "skytrax",
                       "--mode", "baseline", "--out", tmp_path / "b.ckpt",
                       "--epochs", "1", "--encoder", "bow", "--hidden-dim", "16",
                       "--embedding-dim", "12", "--seed", "1", "--quiet")
        assert code == 0

    def test_seeded_rerun_reproduces_checkpoint_and_log(
            self, numeric_corpus, numeric_classifier, tmp_path, trained_model):
        ckpt, log = trained_model
        ckpt2 = tmp_path / "model2.ckpt"
        log2 = tmp_path / "train2.jsonl"
        run_cli("train", "--corpus", numeric_corpus, "--schema", "skytrax",
                "--mode", "gef", "--classifier", numeric_classifier,
                "--out", ckpt2, "--log", log2, "--epochs", "1",
                "--encoder", "bow", "--hidden-dim", "24",
                "--embedding-dim", "16", "--seed", "3", "--quiet")
        assert ckpt2.read_bytes() == ckpt.read_bytes()
        assert log2.read_bytes() == log.read_bytes()

    def test_config_file_with_flag_override(self, numeric_corpus,
                                            numeric_classifier, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[run]\nschema = skytrax\nencoder = bow\n"
            "[train]\nepochs = 1\nhidden_dim = 16\nembedding_dim = 12\nseed = 5\n")
        ckpt = tmp_path / "cfg.ckpt"
        code = run_cli("train", "--corpus", numeric_corpus, "--config", config,
                       "--mode", "baseline", "--out", ckpt,
                       "--hidden-dim", "24", "--quiet")
        assert code == 0
        from gloss.framework import load_bundle
        bundle, meta, _ = load_bundle(ckpt)
        assert bundle.encoder_config.hidden_dim == 24  # flag beats config
        assert bundle.encoder_config.embedding_dim == 12

    @pytest.mark.parametrize("line", ["epoch = 7", "ef_mode = soft"])
    def test_config_file_unknown_key_rejected(self, numeric_corpus, tmp_path,
                                              capsys, line):
        config = tmp_path / "typo.ini"
        config.write_text(f"[train]\nencoder = bow\n{line}\n")
        ckpt = tmp_path / "typo.ckpt"
        capsys.readouterr()
        code = run_cli("train", "--corpus", numeric_corpus, "--schema", "skytrax",
                       "--config", config, "--mode", "baseline", "--out", ckpt,
                       "--quiet")
        assert code == 1
        key = line.split()[0]
        err = capsys.readouterr().err
        assert f"error: unknown config key '{key}'" in err
        assert "Traceback" not in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("text", ["epochs = 3\n", "[a]\nseed = 1\nseed = 2\n"])
    def test_malformed_config_file_exits_1(self, tmp_path, capsys, text):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        out = tmp_path / "corpus.jsonl"
        capsys.readouterr()
        assert run_cli("synth", "--schema", "skytrax", "--n", "5", "--out", out,
                       "--config", config, "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file") and "Traceback" not in err
        assert not out.exists()

    def test_gef_rejects_classifier_of_other_schema(self, text_corpus, numeric_classifier,
                                                    tmp_path, capsys):
        capsys.readouterr()
        assert run_cli("train", "--corpus", text_corpus, "--schema", "pcmag",
                       "--classifier", numeric_classifier, "--out", tmp_path / "m.ckpt",
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert err == "error: classifier schema skytrax != pcmag\n"

    def test_bad_schema_exit_code(self, numeric_corpus, tmp_path):
        assert run_cli("train", "--corpus", numeric_corpus, "--out",
                       tmp_path / "x.ckpt", "--mode", "baseline",
                       "--quiet") == 1

    def test_divergence_exit_code(self, numeric_corpus, tmp_path):
        code = run_cli("train", "--corpus", numeric_corpus, "--schema",
                       "skytrax", "--mode", "baseline",
                       "--out", tmp_path / "d.ckpt", "--epochs", "1",
                       "--encoder", "bow", "--hidden-dim", "16",
                       "--embedding-dim", "12", "--lr", "1e200",
                       "--seed", "1", "--quiet")
        assert code == 2

    def test_divergence_stderr_is_one_line(self, small_corpus, tmp_path):
        # a fresh interpreter, so numpy's warnings reach stderr as a user sees them
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "gloss.cli", "pretrain-c", "--corpus", str(small_corpus),
             "--schema", "skytrax", "--out", str(tmp_path / "c.ckpt"), "--lr", "1e300",
             "--max-epochs", "2"], env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "diverged: non-finite value produced by matmul\n"


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "small.jsonl"
    assert run_cli("synth", "--schema", "skytrax", "--n", "60", "--out", path,
                   "--quiet") == 0
    return path


@pytest.fixture
def train_calls(monkeypatch) -> list:
    """The (bundle, config) of every ``framework.train`` call, which trains
    nothing, so that a command's settings are cheap to inspect."""
    calls = []

    def record(bundle, split, config, **kwargs):
        calls.append((bundle, config))
        return TrainResult()

    monkeypatch.setattr(framework, "train", record)
    return calls


class TestSettings:
    """Each setting comes from a flag, else the config file, else the
    library's default (for eval's split seed, the checkpoint's)."""

    @pytest.mark.parametrize("schema", ["skytrax", "pcmag"])
    def test_train_leaves_defaults_to_the_library(self, schema, numeric_corpus,
                                                  text_corpus, tmp_path, train_calls):
        corpus = numeric_corpus if schema == "skytrax" else text_corpus
        assert run_cli("train", "--corpus", corpus, "--schema", schema,
                       "--mode", "baseline", "--out", tmp_path / "m.ckpt", "--quiet") == 0
        (bundle, config), = train_calls
        assert config == TrainConfig.for_schema(schema)
        assert bundle.encoder_config == EncoderConfig(
            vocab_size=len(bundle.vocab), **cli.SCHEMA_DEFAULTS[schema])
        assert bundle.cvae_config == (CvaeConfig() if schema == "pcmag" else None)

    def test_pretrain_leaves_defaults_to_the_library(self, small_corpus, tmp_path,
                                                     monkeypatch):
        class Stop(Exception):
            """Raised in place of any training."""

        calls = []

        def record(*args, **kwargs):
            calls.append(inspect.signature(pretrain).bind(*args, **kwargs).arguments)
            raise Stop

        pretrain = framework.pretrain_classifier
        monkeypatch.setattr(framework, "pretrain_classifier", record)
        with pytest.raises(Stop):
            run_cli("pretrain-c", "--corpus", small_corpus, "--schema", "skytrax",
                    "--out", tmp_path / "c.ckpt", "--quiet")
        assert not {"seed", "lr", "batch_size", "max_epochs"} & set(calls[0])

    def test_config_only_key_reaches_train_config(self, small_corpus, tmp_path,
                                                  train_calls):
        config = tmp_path / "run.ini"
        config.write_text("[train]\nkl_anneal_frac = 0.5\nloss_weights = 0.5,2\n"
                          "freeze_threshold = 1.5\nlr = 0.003\n")
        assert run_cli("train", "--corpus", small_corpus, "--schema", "skytrax",
                       "--mode", "baseline", "--out", tmp_path / "m.ckpt",
                       "--config", config, "--lr", "0.004", "--quiet") == 0
        (_, train_config), = train_calls
        assert train_config == TrainConfig.for_schema(
            "skytrax", kl_anneal_frac=0.5, loss_weights=(0.5, 2.0),
            predictor_freeze_threshold=1.5, lr=0.004)

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_config_value_of_the_wrong_type_exits_1(self, small_corpus, tmp_path,
                                                    capsys, command):
        # synth reads no lr, and still rejects the file
        config = tmp_path / "bad.ini"
        config.write_text("[train]\nlr = abc\n")
        out = tmp_path / "out"
        args = {"synth": ("--schema", "skytrax", "--n", "5"),
                "train": ("--corpus", small_corpus, "--schema", "skytrax",
                          "--mode", "baseline")}[command]
        capsys.readouterr()
        assert run_cli(command, *args, "--out", out, "--config", config, "--quiet") == 1
        err = capsys.readouterr().err
        assert err == "error: config key 'lr': could not convert string to float: 'abc'\n"
        assert not out.exists()

    def test_required_settings_may_come_from_the_config_file(self, small_corpus, tmp_path,
                                                              capsys):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nschema = skytrax\nn = 40\nmax_epochs = 1\n")
        corpus = tmp_path / "z.jsonl"
        assert run_cli("synth", "--out", corpus, "--config", config, "--quiet") == 0
        assert len(load_jsonl(corpus, "skytrax")[0]) == 40
        ckpt = tmp_path / "c.ckpt"
        assert run_cli("pretrain-c", "--corpus", small_corpus, "--out", ckpt,
                       "--config", config, "--quiet") == 0
        assert checkpoint.load(ckpt)[1]["schema"] == "skytrax"
        # and synth still needs n from one or the other
        config.write_text("[run]\nschema = skytrax\n")
        capsys.readouterr()
        assert run_cli("synth", "--out", tmp_path / "y.jsonl", "--config", config,
                       "--quiet") == 1
        assert capsys.readouterr().err == "error: --n is required\n"

    @pytest.mark.parametrize("command", ["synth", "pretrain-c", "train"])
    @pytest.mark.parametrize("given", ["nowhere", "flag", "config"])
    def test_missing_or_unknown_schema_exits_1(self, small_corpus, tmp_path, capsys,
                                               train_calls, command, given):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nschema = skytrack\n")
        flags = {"nowhere": (), "flag": ("--schema", "skytrack"),
                 "config": ("--config", config)}[given]
        args = {"synth": ("--n", "5"), "pretrain-c": ("--corpus", small_corpus),
                "train": ("--corpus", small_corpus, "--mode", "baseline")}[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(command, *args, *flags, "--out", out, "--quiet") == 1
        err = capsys.readouterr().err
        assert err == ("error: --schema (pcmag or skytrax) is required\n" if given == "nowhere"
                       else "error: unknown schema 'skytrack': expected pcmag or skytrax\n")
        assert not out.exists() and not train_calls

    @pytest.mark.parametrize("command", ["synth", "pretrain-c", "train", "eval", "explain"])
    def test_missing_out_directory_exits_1_before_training(self, small_corpus, tmp_path,
                                                           capsys, monkeypatch, command):
        done = []  # every input read and every generation or training run
        for owner, name in ((framework, "train"), (framework, "pretrain_classifier"),
                            (framework, "load_bundle"), (cli, "_load_corpus"),
                            (cli, "synth_numeric")):
            def record(*args, name=name, **kwargs):
                done.append(name)
                raise cli.CliError(f"{name} ran")
            monkeypatch.setattr(owner, name, record)
        out = tmp_path / "missing" / "m.out"
        ckpt = tmp_path / "m.ckpt"
        flag = "--json" if command == "eval" else "--out"
        args = {"synth": ("--schema", "skytrax", "--n", "5"),
                "pretrain-c": ("--corpus", small_corpus, "--schema", "skytrax"),
                "train": ("--corpus", small_corpus, "--schema", "skytrax", "--mode", "baseline"),
                "eval": ("--checkpoint", ckpt, "--corpus", small_corpus),
                "explain": ("--checkpoint", ckpt, "--input", small_corpus)}[command]
        capsys.readouterr()
        assert run_cli(command, *args, flag, out, "--quiet") == 1
        assert capsys.readouterr() == ("", f"error: {flag} {out}: directory {out.parent} "
                                           "does not exist\n")
        assert done == [] and not out.parent.exists()

    def test_eval_split_seed_precedence(self, numeric_corpus, trained_model, tmp_path,
                                        monkeypatch):
        arrays, meta = checkpoint.load(trained_model[0])
        meta["split_seed"] = 11
        ckpt = tmp_path / "seed11.ckpt"
        checkpoint.save(ckpt, arrays, meta)
        config = tmp_path / "run.ini"
        config.write_text("[eval]\nsplit_seed = 5\n")
        seeds = []

        def record(examples, schema, seed):
            seeds.append(seed)
            return split(examples, schema, seed)

        split = cli.filter_and_split
        monkeypatch.setattr(cli, "filter_and_split", record)
        base = ("eval", "--checkpoint", ckpt, "--corpus", numeric_corpus, "--quiet")
        for extra in ((), ("--config", config), ("--config", config, "--split-seed", "7")):
            assert run_cli(*base, *extra) == 0
        assert seeds == [11, 5, 7]

    def test_consecutive_calls_share_nothing(self, numeric_corpus, trained_model,
                                             small_corpus, tmp_path, capsys, train_calls,
                                             monkeypatch):
        # main parses with the parser it built once; it builds no other
        monkeypatch.setattr(cli, "_build_parser", None)
        synth = ("synth", "--schema", "skytrax", "--n", "5", "--out", tmp_path / "s.jsonl")
        capsys.readouterr()
        assert run_cli(*synth, "--quiet") == 0
        assert capsys.readouterr().err == ""
        assert run_cli(*synth) == 0
        assert capsys.readouterr().err.startswith("wrote 5 skytrax examples")

        ckpt, _ = trained_model
        evaluate = ("eval", "--checkpoint", ckpt, "--corpus", numeric_corpus, "--quiet")
        assert run_cli(*evaluate, "--split", "dev") == 0
        assert "dev%" in capsys.readouterr().out
        assert run_cli(*evaluate) == 0
        assert "test%" in capsys.readouterr().out

        config = tmp_path / "run.ini"
        config.write_text("[train]\nlr = 0.003\nkl_anneal_frac = 0.5\nhidden_dim = 8\n")
        train = ("train", "--corpus", small_corpus, "--schema", "skytrax",
                 "--mode", "baseline", "--out", tmp_path / "m.ckpt", "--quiet")
        assert run_cli(*train, "--config", config) == 0
        assert run_cli(*train) == 0
        (first_bundle, first), (second_bundle, second) = train_calls
        assert first == TrainConfig.for_schema("skytrax", lr=0.003, kl_anneal_frac=0.5)
        assert first_bundle.encoder_config.hidden_dim == 8
        assert second == TrainConfig.for_schema("skytrax")
        assert second_bundle.encoder_config == EncoderConfig(
            vocab_size=len(second_bundle.vocab), **cli.SCHEMA_DEFAULTS["skytrax"])

    def test_every_setting_is_a_flag_or_config_only(self):
        # the keys a --config file may set that no command has a flag for
        config_only = {"kl_anneal_frac"}
        # flags that are paths, modes or switches, not settings
        not_settings = {"help", "config", "quiet", "out", "corpus", "input",
                        "checkpoint", "classifier", "log", "json", "mode", "split"}
        subparsers, = (a for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
        flags = [a for p in subparsers.choices.values() for a in p._actions
                 if a.dest not in not_settings]
        assert {a.dest for a in flags} | config_only == set(cli.SETTINGS)
        assert {a.dest for a in flags}.isdisjoint(config_only)
        for action in flags:  # a flag is parsed as its config key is
            assert action.type is cli.SETTINGS[action.dest], action.dest
            assert action.default is None, action.dest

    @pytest.mark.parametrize("command,flags", [
        ("train", ("--batch-size", "-1")),
        ("train", ("--epochs", "0")),
        ("train", ("--loss-weights", "nan,1")),
        ("train", ("--loss-weights", "1,2,3")),
        ("train", ("--lr", "nan")),
        ("train", ("--lr", "0")),
        ("train", ("--freeze-threshold", "nan")),
        ("train", ("--config", "kl_anneal_frac = nan")),
        ("train", ("--config", "kl_anneal_frac = -0.5")),
        ("pretrain-c", ("--lr", "nan")),
        ("pretrain-c", ("--batch-size", "0")),
        ("pretrain-c", ("--max-epochs", "0")),
    ])
    def test_bad_training_setting_exits_1(self, small_corpus, tmp_path, capsys,
                                          command, flags):
        if flags[0] == "--config":
            config = tmp_path / "run.ini"
            config.write_text(f"[train]\n{flags[1]}\n")
            flags = ("--config", config)
        out = tmp_path / "out.ckpt"
        capsys.readouterr()
        code = run_cli(command, "--corpus", small_corpus, "--schema", "skytrax",
                       "--out", out, *flags, "--quiet",
                       *(("--mode", "baseline") if command == "train" else ()))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()


class TestTinyCorpus:
    """Below 10 kept examples the 80/10/10 split leaves dev empty, and
    below 2 train as well; training rejects such a split by name."""

    @staticmethod
    def corpus(tmp_path, n) -> Path:
        path = tmp_path / f"tiny{n}.jsonl"
        assert run_cli("synth", "--schema", "skytrax", "--n", n, "--seed", "3",
                       "--out", path, "--quiet") == 0
        examples, _ = load_jsonl(path, "skytrax")
        assert len(examples) == n
        return path

    @pytest.mark.parametrize("command", ["train", "pretrain-c"])
    @pytest.mark.parametrize("n,empty", [(1, "train"), (9, "dev")])
    def test_empty_split_exits_1(self, tmp_path, capsys, command, n, empty):
        out = tmp_path / "out.ckpt"
        corpus = self.corpus(tmp_path, n)
        capsys.readouterr()
        code = run_cli(command, "--corpus", corpus, "--schema", "skytrax", "--out", out,
                       "--quiet", *(("--mode", "baseline") if command == "train" else ()))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: the {empty} split is empty (")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_eval_scores_the_split_it_has(self, trained_model, tmp_path, capsys):
        ckpt, _ = trained_model
        corpus = self.corpus(tmp_path, 9)
        assert run_cli("eval", "--checkpoint", ckpt, "--corpus", corpus, "--quiet") == 0
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", ckpt, "--corpus", corpus,
                       "--split", "dev", "--quiet") == 1
        assert capsys.readouterr().err == "error: cannot evaluate an empty split\n"


class TestEvalAndExplain:
    def test_eval_prints_table_and_writes_json(self, numeric_corpus,
                                               numeric_classifier,
                                               trained_model, tmp_path, capsys):
        ckpt, _ = trained_model
        report_path = tmp_path / "report.json"
        code = run_cli("eval", "--checkpoint", ckpt, "--corpus", numeric_corpus,
                       "--split", "test", "--classifier", numeric_classifier,
                       "--json", report_path, "--quiet")
        assert code == 0
        out = capsys.readouterr().out
        assert "top1" in out and "oracle_top1" in out and "field" in out
        report = json.loads(report_path.read_text())
        assert report["top3"] >= report["top1"]
        assert set(report["fields"]) == {"s", "c", "f", "i", "t"}

    @pytest.mark.parametrize("schema", ["skytrax", "pcmag"])
    def test_eval_tokenizes_only_the_scored_split(self, schema, numeric_corpus, text_corpus,
                                                  trained_model, text_model, monkeypatch):
        corpus, ckpt, fields = {
            "skytrax": (numeric_corpus, trained_model[0], ("review",)),
            "pcmag": (text_corpus, text_model, ("review",) + POLARITIES)}[schema]
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        # every line is settled by the raw-text bounds of passes_filter
        assert all(len(r[f].lower()) <= 75 for r in records for f in fields[1:])
        assert all(len(r["review"].lower()) <= 300 if schema == "skytrax"
                   else sum(map(r["review"].count, ".!?")) <= 70 for r in records)
        examples, _ = load_jsonl(corpus, schema)
        position = {id(ex): i for i, ex in enumerate(examples)}
        test = filter_and_split(examples, schema, cli.SPLIT_SEED).test
        scored = sorted(records[position[id(ex)]][f] for ex in test for f in fields)

        tokenized = []
        tokenize = data.tokenize

        def recording(text):
            tokenized.append(text)
            return tokenize(text)

        monkeypatch.setattr(data, "tokenize", recording)
        assert run_cli("eval", "--checkpoint", ckpt, "--corpus", corpus,
                       "--split", "test", "--quiet") == 0
        assert sorted(tokenized) == scored

    def test_explain_roundtrips_through_loader(self, numeric_corpus,
                                               trained_model, tmp_path):
        ckpt, _ = trained_model
        out_path = tmp_path / "explained.jsonl"
        code = run_cli("explain", "--checkpoint", ckpt, "--input", numeric_corpus,
                       "--out", out_path, "--quiet")
        assert code == 0
        examples, diagnostics = load_jsonl(out_path, "skytrax")
        assert len(examples) == 400 and not diagnostics
        record = json.loads(out_path.read_text().splitlines()[0])
        assert {"pred_overall", "pred_seat", "pred_cabin", "pred_food",
                "pred_inflight", "pred_value"} <= set(record)
        assert 1 <= record["pred_overall"] <= 10

    def test_explain_deterministic(self, numeric_corpus, trained_model, tmp_path):
        ckpt, _ = trained_model
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("explain", "--checkpoint", ckpt, "--input", numeric_corpus,
                "--out", a, "--seed", "9", "--quiet")
        run_cli("explain", "--checkpoint", ckpt, "--input", numeric_corpus,
                "--out", b, "--seed", "9", "--quiet")
        assert a.read_bytes() == b.read_bytes()

    def test_text_outputs_do_not_depend_on_seed(self, text_corpus, text_model, tmp_path):
        # decoding is greedy from the prior mean, so --seed feeds nothing
        for seed in ("0", "5"):
            assert run_cli("eval", "--checkpoint", text_model, "--corpus", text_corpus,
                           "--json", tmp_path / f"report{seed}.json",
                           "--seed", seed, "--quiet") == 0
            assert run_cli("explain", "--checkpoint", text_model, "--input", text_corpus,
                           "--out", tmp_path / f"explained{seed}.jsonl",
                           "--seed", seed, "--quiet") == 0
        for name in ("report{}.json", "explained{}.jsonl"):
            first = (tmp_path / name.format("0")).read_bytes()
            assert first and first == (tmp_path / name.format("5")).read_bytes()

    def test_explain_encodes_its_one_batch_once(self, numeric_corpus, trained_model,
                                                tmp_path, encoder_calls):
        ckpt, _ = trained_model
        requests = tmp_path / "requests.jsonl"
        requests.write_text("".join(numeric_corpus.read_text().splitlines(True)[:100]))
        assert run_cli("explain", "--checkpoint", ckpt, "--input", requests,
                       "--out", tmp_path / "explained.jsonl", "--quiet") == 0
        assert encoder_calls == [100]

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_seed_help_says_it_is_ignored(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--seed SEED accepted and ignored: the outputs are deterministic" in help_text

    def test_seed_is_still_accepted(self, numeric_corpus, trained_model, tmp_path):
        ckpt, _ = trained_model
        assert run_cli("eval", "--checkpoint", ckpt, "--corpus", numeric_corpus,
                       "--seed", "3", "--quiet") == 0
        assert run_cli("explain", "--checkpoint", ckpt, "--input", numeric_corpus,
                       "--out", tmp_path / "explained.jsonl", "--seed", "3",
                       "--quiet") == 0

    def test_text_explain_emits_comments(self, text_corpus, text_model, tmp_path):
        out_path = tmp_path / "explained.jsonl"
        assert run_cli("explain", "--checkpoint", text_model, "--input", text_corpus,
                       "--out", out_path, "--quiet") == 0
        record = json.loads(out_path.read_text().splitlines()[0])
        assert {"pred_overall", "pred_pos", "pred_neg", "pred_neu"} <= set(record)
        examples, diagnostics = load_jsonl(out_path, "pcmag")
        assert not diagnostics

    def test_eval_missing_checkpoint(self, numeric_corpus, tmp_path):
        assert run_cli("eval", "--checkpoint", tmp_path / "missing.ckpt",
                       "--corpus", numeric_corpus, "--quiet") == 1

    def test_eval_checkpoint_missing_tensor(self, numeric_corpus, trained_model,
                                            tmp_path, capsys):
        arrays, meta = checkpoint.load(trained_model[0])
        del arrays["model.encoder.embed.w"]
        broken = tmp_path / "broken.ckpt"
        checkpoint.save(broken, arrays, meta)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", broken,
                       "--corpus", numeric_corpus, "--quiet") == 1
        err = capsys.readouterr().err
        assert "model.encoder.embed.w" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["encoder", "schema", "vocab", "seed"])
    def test_eval_checkpoint_missing_meta_key(self, numeric_corpus, trained_model,
                                              tmp_path, capsys, key):
        arrays, meta = checkpoint.load(trained_model[0])
        del meta[key]
        broken = tmp_path / "broken.ckpt"
        checkpoint.save(broken, arrays, meta)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", broken,
                       "--corpus", numeric_corpus, "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err

    def test_eval_checkpoint_malformed_encoder_meta(self, numeric_corpus, trained_model,
                                                    tmp_path, capsys):
        arrays, meta = checkpoint.load(trained_model[0])
        meta["encoder"]["hidden_dim"] = "wide"
        broken = tmp_path / "broken.ckpt"
        checkpoint.save(broken, arrays, meta)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", broken,
                       "--corpus", numeric_corpus, "--quiet") == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("split_seed", ["x", 1.5, True])
    def test_eval_checkpoint_non_integer_split_seed(self, numeric_corpus, trained_model,
                                                    tmp_path, capsys, split_seed):
        arrays, meta = checkpoint.load(trained_model[0])
        meta["split_seed"] = split_seed
        broken = tmp_path / "broken.ckpt"
        checkpoint.save(broken, arrays, meta)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", broken,
                       "--corpus", numeric_corpus, "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "split_seed" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["schema", "form", "dims"])
    def test_eval_classifier_missing_meta_key(self, numeric_corpus, trained_model,
                                              numeric_classifier, tmp_path, capsys, key):
        arrays, meta = checkpoint.load(numeric_classifier)
        del meta[key]
        broken = tmp_path / "broken.ckpt"
        checkpoint.save(broken, arrays, meta)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", trained_model[0], "--classifier", broken,
                       "--corpus", numeric_corpus, "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err

    def test_eval_ignores_retired_train_config_keys(
            self, numeric_corpus, trained_model, tmp_path):
        arrays, meta = checkpoint.load(trained_model[0])
        meta["train_config"]["retired_setting"] = "stop"
        legacy = tmp_path / "legacy.ckpt"
        checkpoint.save(legacy, arrays, meta)
        assert run_cli("eval", "--checkpoint", legacy,
                       "--corpus", numeric_corpus, "--quiet") == 0

    def test_eval_rejects_classifier_with_other_vocabulary(self, text_corpus,
                                                           tmp_path, capsys):
        model = tmp_path / "tm.ckpt"
        assert run_cli("train", "--corpus", text_corpus, "--schema", "pcmag",
                       "--mode", "baseline", "--out", model, "--epochs", "1",
                       "--encoder", "bow", "--hidden-dim", "16",
                       "--embedding-dim", "12", "--latent-dim", "6",
                       "--decoder-hidden", "16", "--seed", "2", "--quiet") == 0
        other_corpus = tmp_path / "other.jsonl"
        assert run_cli("synth", "--schema", "pcmag", "--n", "300", "--seed", "23",
                       "--out", other_corpus, "--quiet") == 0
        classifier = tmp_path / "other_cls.ckpt"
        assert run_cli("pretrain-c", "--corpus", other_corpus, "--schema", "pcmag",
                       "--out", classifier, "--max-epochs", "1", "--quiet") == 0
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", model, "--corpus", text_corpus,
                       "--classifier", classifier, "--quiet") == 1
        err = capsys.readouterr().err
        assert "vocabulary" in err and "Traceback" not in err


def poisoned(path, out, value):
    """A copy of the checkpoint at ``path`` with one weight set to NaN
    (``value="nan"``) or every model weight set to 1e200 (``"huge"``)."""
    arrays, meta = checkpoint.load(path)
    names = sorted(k for k in arrays if not k.startswith("optim"))
    if value == "nan":
        arrays[names[0]] = arrays[names[0]].copy()
        arrays[names[0]].flat[0] = np.nan
    else:
        for name in names:
            arrays[name] = np.full_like(arrays[name], 1e200)
    checkpoint.save(out, arrays, meta)
    return out


SERVING = Path(__file__).parent / "data" / "serving"


@pytest.mark.parametrize("part,stray", [("model", "model.encoder.rnn.w_stray"),
                                        ("classifier", "out.w_stray")])
def test_tensor_that_no_parameter_reads_exits_1(tmp_path, capsys, part, stray):
    """A committed skytrax checkpoint with one extra tensor is invalid input:
    ``gloss eval`` exits 1 and names the tensor."""
    paths = {"model": SERVING / "skytrax-lstm.ckpt",
             "classifier": SERVING / "skytrax-classifier.ckpt"}
    arrays, meta = checkpoint.load(paths[part])
    arrays[stray] = np.zeros(3)
    paths[part] = tmp_path / f"{part}.ckpt"
    checkpoint.save(paths[part], arrays, meta)
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", paths["model"], "--corpus", SERVING / "skytrax.jsonl",
                   "--classifier", paths["classifier"], "--quiet") == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and f"unexpected tensor {stray}" in err


class TestNonFiniteExitCodes:
    """A checkpoint with non-finite weights is invalid input (exit 1); a
    non-finite value computed from finite inputs is divergence (exit 2).
    Neither ends in a traceback."""

    @pytest.fixture(autouse=True)
    def quiet_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"):
            yield

    @pytest.mark.parametrize("value,code", [("nan", 1), ("huge", 2)])
    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_poisoned_bundle(self, numeric_corpus, trained_model, tmp_path, capsys,
                             command, value, code):
        ckpt = poisoned(trained_model[0], tmp_path / "bad.ckpt", value)
        if command == "eval":
            args = ("--corpus", numeric_corpus)
        else:
            args = ("--input", numeric_corpus, "--out", tmp_path / "out.jsonl")
        capsys.readouterr()
        assert run_cli(command, "--checkpoint", ckpt, *args, "--quiet") == code
        err = capsys.readouterr().err
        assert err.startswith("error: " if code == 1 else "diverged: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_nan_classifier(self, numeric_corpus, numeric_classifier, trained_model,
                            tmp_path, capsys, command):
        classifier = poisoned(numeric_classifier, tmp_path / "bad_cls.ckpt", "nan")
        if command == "train":
            args = ("train", "--corpus", numeric_corpus, "--schema", "skytrax",
                    "--mode", "gef", "--out", tmp_path / "m.ckpt", "--epochs", "1",
                    "--encoder", "bow", "--hidden-dim", "24", "--embedding-dim", "16")
        else:
            args = ("eval", "--checkpoint", trained_model[0], "--corpus", numeric_corpus)
        capsys.readouterr()
        assert run_cli(*args, "--classifier", classifier, "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_pretrain_overflow(self, numeric_corpus, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli("pretrain-c", "--corpus", numeric_corpus, "--schema", "skytrax",
                       "--out", tmp_path / "c.ckpt", "--max-epochs", "2",
                       "--lr", "1e300", "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("diverged: ") and "Traceback" not in err


@pytest.fixture(scope="module")
def cnn_checkpoint(tmp_path_factory):
    """A corpus and a tiny skytrax CNN checkpoint trained on it."""
    root = tmp_path_factory.mktemp("cnn")
    corpus, ckpt = root / "corpus.jsonl", root / "cnn.ckpt"
    assert run_cli("synth", "--schema", "skytrax", "--n", "80", "--seed", "31",
                   "--out", corpus, "--quiet") == 0
    assert run_cli("train", "--corpus", corpus, "--schema", "skytrax",
                   "--mode", "baseline", "--encoder", "cnn", "--out", ckpt,
                   "--epochs", "1", "--hidden-dim", "8", "--embedding-dim", "6",
                   "--seed", "4", "--quiet") == 0
    return corpus, ckpt


class TestEvalOnCorruptedCheckpoint:
    """``gloss eval`` on a damaged checkpoint ends with exit 0, 1 (invalid
    checkpoint) or 2 (a non-finite value computed), never a traceback."""

    @staticmethod
    def eval_exit_code(corpus, ckpt) -> int:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(all="ignore"):
            code = run_cli("eval", "--checkpoint", ckpt, "--corpus", corpus, "--quiet")
        assert "Traceback" not in err.getvalue()
        return code

    @settings(max_examples=40, deadline=None)
    @given(in_header=st.booleans(),
           flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                    st.integers(1, 255)), min_size=1, max_size=4))
    def test_flipped_bytes(self, cnn_checkpoint, in_header, flips):
        corpus, ckpt = cnn_checkpoint
        data = bytearray(ckpt.read_bytes())
        payload = data.index(b"\ndata\n") + len(b"\ndata\n")
        start, size = (0, payload) if in_header else (payload, len(data) - payload)
        for where, mask in flips:
            data[start + int(where * size)] ^= mask
        bad = ckpt.with_name("corrupted.ckpt")
        bad.write_bytes(data)
        assert self.eval_exit_code(corpus, bad) in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3),
           value=st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200]),
           whole=st.booleans())
    # the embedding table and the first kernel at 1e200 overflow the window scores
    @example(picks=[0.0, 0.1], value=1e200, whole=True)
    def test_overwritten_weights(self, cnn_checkpoint, picks, value, whole):
        corpus, ckpt = cnn_checkpoint
        arrays, meta = checkpoint.load(ckpt)
        names = sorted(arrays)
        for pick in picks:
            name = names[int(pick * len(names))]
            arrays[name] = arrays[name].copy()
            if whole:
                arrays[name][...] = value
            else:
                arrays[name].flat[int(pick * 7919) % arrays[name].size] = value
        bad = ckpt.with_name("corrupted.ckpt")
        checkpoint.save(bad, arrays, meta)
        code = self.eval_exit_code(corpus, bad)
        assert code in ((0, 1, 2) if np.isfinite(value) else (1,))


def test_unknown_argument_exits_1(capsys):
    assert run_cli("train", "--bogus-flag") == 1
