import json
from pathlib import Path

import numpy as np
import pytest

from gloss import checkpoint
from gloss.cli import main
from gloss.data import load_jsonl


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
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run_cli("train", "--corpus", numeric_corpus, "--schema",
                           "skytrax", "--mode", "baseline",
                           "--out", tmp_path / "d.ckpt", "--epochs", "1",
                           "--encoder", "bow", "--hidden-dim", "16",
                           "--embedding-dim", "12", "--lr", "1e200",
                           "--seed", "1", "--quiet")
        assert code == 2


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


def test_unknown_argument_exits_1(capsys):
    assert run_cli("train", "--bogus-flag") == 1
