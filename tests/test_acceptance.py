"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 4-6 are directional reproductions on synthetic corpora and run
full (desk-scale) training loops; they dominate the suite's runtime but
stay well inside their stated budgets on one CPU core.
"""
import json
import math
import time

import numpy as np
import pytest

from gloss import autodiff as ad
from gloss import framework as fw
from gloss.autodiff import Tensor
from gloss.cli import main as cli_main
from gloss.data import build_vocab, filter_and_split, pad_batch
from gloss.framework import (ProbTriple, TrainConfig, evaluate,
                             explanation_factor, final_loss, mrt_loss,
                             pretrain_classifier, train)
from gloss.metrics import corpus_bleu
from gloss.models import (CvaeConfig, EncoderConfig, ModelBundle, TextCvae)
from gloss.synth import synth_numeric, synth_text

from conftest import finite_difference_grad, relative_error


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


# -- criterion 1: gradient correctness -------------------------------------------


def gradient_cases(rng) -> list:
    """Scalar functions of one (3, 4) input, together covering every op.

    ``tests/test_autodiff.py`` checks that each op in ``autodiff.__all__``
    is called by at least one case.
    """
    ids = np.array([[0, 2], [2, 1]])
    ce_targets = np.array([1, 0, 3])
    w42 = Tensor(rng.normal(size=(4, 2)))
    w53 = Tensor(rng.normal(size=(5, 3)))
    w34a = Tensor(rng.normal(size=(3, 4)))
    w34b = Tensor(rng.normal(size=(3, 4)))
    w34c = Tensor(rng.normal(size=(3, 4)))
    w3 = Tensor(rng.normal(size=3))
    w4 = Tensor(rng.normal(size=4))
    w224 = Tensor(rng.normal(size=(2, 2, 4)))
    # width-2 windows over (2, 4) ids with a repeated token: row 0's last
    # window runs into padding; row 1, one token long, keeps its first window
    conv_ids = np.array([[0, 2, 1, 2], [1, 1, 0, 2]])
    conv_lengths = np.array([3, 1])
    w83 = Tensor(rng.normal(size=(8, 3)))
    w32 = Tensor(rng.normal(size=(3, 2)))
    w23 = Tensor(rng.normal(size=(2, 3)))
    cases = [
        lambda t: ad.matmul(t, w42).sum(),
        lambda t: ad.matmul(w53, t.reshape(3, 4)).sum(),
        lambda t: ad.mul(ad.softmax(t), w34a).sum(),
        lambda t: ad.cross_entropy(t, ce_targets).mean(),
        lambda t: ad.mul(ad.cross_entropy(t, ce_targets), w3).sum(),
        lambda t: (t + w4).sum(),
        lambda t: ad.mul(t - w34c, w34a).sum(),
        lambda t: ad.mul(ad.neg(t), w34b).sum(),
        lambda t: ad.mul(t, w34b).mean(),
        lambda t: ad.tanh(t).sum(),
        lambda t: ad.relu(t + Tensor(0.3)).sum(),
        lambda t: ad.exp(ad.mul(t, Tensor(0.3))).sum(),
        lambda t: ad.concat([t, w34c], axis=0).sum(),
        lambda t: t.max(axis=1).sum(),
        lambda t: ad.slice_axis(t, 1, 1, 3).sum(),
        lambda t: ad.mul(ad.embedding_lookup(t, ids), w224).sum(),
        lambda t: ad.mul(ad.conv_max(t, conv_ids, w83, conv_lengths), w23).sum(),
        lambda t: ad.mul(ad.conv_max(w32, conv_ids, t.reshape(4, 3), conv_lengths), w23).sum(),
    ]

    # Sequence ops over a batch of 3 sequences of 4 one-dimensional inputs;
    # every output state is weighted into the loss. The inputs are the rows
    # of a (12, 1) table x, one per position (identity ids). The (3, 4)
    # input stands in for x, h0, each weight or the bias in turn; weights of
    # other shapes are linear maps of it. Padded rows read at their own
    # lengths are checked through the models (tests/test_models.py).
    seq_ids = np.arange(12).reshape(3, 4)
    seq_x = Tensor(rng.normal(size=(3, 4, 1)).reshape(12, 1))
    l_wx = Tensor(rng.normal(size=(1, 12)) * 0.5)
    l_wh = Tensor(rng.normal(size=(3, 12)) * 0.5)
    l_b = Tensor(rng.normal(size=12) * 0.5)
    l_out = Tensor(rng.normal(size=(12, 3)))
    to_w_h = Tensor(rng.normal(size=(4, 12)) * 0.3)

    def lstm(x=seq_x, w_x=l_wx, w_h=l_wh, b=l_b):
        return ad.mul(ad.lstm_sequence(x, seq_ids, w_x, w_h, b), l_out).sum()

    cases += [
        lambda t: lstm(x=t.reshape(12, 1)),
        lambda t: lstm(w_x=t.reshape(1, 12)),
        lambda t: lstm(w_h=ad.matmul(t, to_w_h)),
        lambda t: lstm(b=t.reshape(12)),
    ]

    g_wx = Tensor(rng.normal(size=(1, 12)) * 0.5)
    g_bx = Tensor(rng.normal(size=12) * 0.5)
    g_wh = Tensor(rng.normal(size=(4, 8)) * 0.5)
    g_whn = Tensor(rng.normal(size=(4, 4)) * 0.5)
    g_h0 = Tensor(rng.normal(size=(3, 4)) * 0.5)
    g_out = Tensor(rng.normal(size=(12, 4)))
    to_w_h2 = Tensor(rng.normal(size=(3, 8)) * 0.3)
    to_w_hn = Tensor(rng.normal(size=(3, 4)) * 0.3)

    def gru(x=seq_x, w_x=g_wx, b_x=g_bx, w_h=g_wh, w_hn=g_whn, h0=g_h0):
        return ad.mul(ad.gru_sequence(x, seq_ids, w_x, b_x, w_h, w_hn, h0=h0), g_out).sum()

    cases += [
        lambda t: gru(x=t.reshape(12, 1), h0=None),
        lambda t: gru(x=t.reshape(12, 1)),
        lambda t: gru(w_x=t.reshape(1, 12)),
        lambda t: gru(b_x=t.reshape(12)),
        lambda t: gru(w_h=ad.matmul(t.reshape(4, 3), to_w_h2)),
        lambda t: gru(w_hn=ad.matmul(t.reshape(4, 3), to_w_hn)),
        lambda t: gru(h0=t),
    ]
    return cases


def test_criterion_1_gradient_checks():
    started = time.time()
    rng = np.random.default_rng(77)
    tol, step = 1e-4, 1e-3

    def check(build, x):
        t = Tensor(x.copy(), requires_grad=True)
        build(t).backward()
        got = t.grad
        want = finite_difference_grad(lambda arr: build(Tensor(arr)).item(),
                                      x.copy(), step=step)
        assert relative_error(got, want) < tol

    cases = gradient_cases(rng)
    n_checked = 0
    for build in cases:
        for _ in range(3):
            x = rng.normal(size=(3, 4))
            x[np.abs(x) < 0.05] += 0.2
            check(build, x)
            n_checked += 1
    elapsed = time.time() - started
    assert elapsed < 30.0
    report(1, f"{n_checked} finite-difference checks over {len(cases)} cases, "
              f"rel err < {tol}, {elapsed:.1f}s")


# -- criterion 2: explanation-factor arithmetic ----------------------------------


def test_criterion_2_factor_arithmetic_matches_oracle():
    started = time.time()
    rng = np.random.default_rng(88)
    for _ in range(10_000):
        p_pred, p_cls, p_gold = rng.uniform(1e-9, 1 - 1e-9, size=3)
        loss = rng.uniform(0.0, 12.0)
        factor = explanation_factor(ProbTriple(p_pred, p_cls, p_gold))
        risk = mrt_loss(loss, factor)
        total = final_loss(loss, risk)
        # independent scalar reimplementation, same rounding order
        oracle_factor = abs(p_cls - p_gold) + abs(p_cls - p_pred)
        assert factor == oracle_factor
        assert risk == loss * oracle_factor
        assert total == 1.0 * loss + 1.0 * (loss * oracle_factor)
        assert 0.0 <= factor < 2.0
    elapsed = time.time() - started
    assert elapsed < 5.0
    report(2, f"10k random triples match the scalar oracle bitwise, {elapsed:.1f}s")


# -- criterion 3: degenerate-weight ablation --------------------------------------


def test_criterion_3_ablation_identity():
    examples = synth_numeric(800, seed=300)
    split = filter_and_split(examples, "skytrax", seed=13)
    vocab = build_vocab(split.train, "skytrax")
    enc = EncoderConfig(kind="gru", vocab_size=len(vocab), embedding_dim=16,
                        hidden_dim=24)
    classifier, _ = pretrain_classifier(split, "skytrax", seed=0, max_epochs=10)
    kwargs = dict(epochs=5, seed=31, batch_size=16, lr=2e-3)

    baseline = ModelBundle("skytrax", vocab, enc, None, seed=31)
    res_base = train(baseline, split, TrainConfig.for_schema("skytrax", **kwargs),
                     mode="baseline")
    degenerate = ModelBundle("skytrax", vocab, enc, None, seed=31)
    res_gef = train(degenerate, split,
                    TrainConfig.for_schema("skytrax", loss_weights=(1.0, 0.0),
                                           **kwargs),
                    classifier=classifier, mode="gef")

    assert len(res_base.step_losses) >= 200
    diffs = [abs(a - b) for a, b in zip(res_base.step_losses,
                                        res_gef.step_losses)]
    assert max(diffs) <= 1e-12
    report(3, f"{len(diffs)} steps, max |baseline - gef(1,0)| = {max(diffs):.2e}")


# -- criteria 4 and 5: numeric-case claims ----------------------------------------

NUMERIC_ENCODER = dict(kind="lstm", embedding_dim=48, hidden_dim=64)
NUMERIC_TRAIN = dict(epochs=3, batch_size=32, lr=2e-3)


@pytest.fixture(scope="module")
def numeric_acceptance_world():
    examples = synth_numeric(8000, seed=105)
    split = filter_and_split(examples, "skytrax", seed=13)
    vocab = build_vocab(split.train, "skytrax")
    classifier, c_report = pretrain_classifier(split, "skytrax", seed=0,
                                               max_epochs=40)
    return split, vocab, classifier, c_report


def _numeric_run(split, vocab, classifier, seed: int, mode: str,
                 epochs: int | None = None):
    enc = EncoderConfig(vocab_size=len(vocab), **NUMERIC_ENCODER)
    bundle = ModelBundle("skytrax", vocab, enc, None, seed=seed)
    settings = dict(NUMERIC_TRAIN)
    if epochs is not None:
        settings["epochs"] = epochs
    config = TrainConfig.for_schema("skytrax", seed=seed, **settings)
    result = train(bundle, split, config,
                   classifier=classifier if mode == "gef" else None, mode=mode)
    rep = evaluate(bundle, split.test, seed=seed)
    rep["epochs"] = result.epochs
    return rep


def test_criterion_4_oracle_exceeds_text_baseline():
    started = time.time()
    examples = synth_numeric(20_000, seed=104)
    split = filter_and_split(examples, "skytrax", seed=13)
    vocab = build_vocab(split.train, "skytrax")
    classifier, c_report = pretrain_classifier(split, "skytrax", seed=0,
                                               max_epochs=40)
    # the classifier trains to convergence (early stopping); the raw-text
    # baseline gets the same optimizer-step budget as the improvement
    # experiment (~600 updates), which this corpus covers in one epoch
    base = _numeric_run(split, vocab, classifier, seed=0, mode="baseline",
                        epochs=1)
    elapsed = time.time() - started
    assert c_report["test_top1"] >= 95.0
    gap = c_report["test_top1"] - base["top1"]
    assert gap >= 10.0
    assert elapsed < 900.0
    report(4, f"oracle top1 {c_report['test_top1']:.2f} vs text baseline "
              f"{base['top1']:.2f} (gap {gap:.2f} >= 10), {elapsed:.0f}s")


def test_criterion_5_numeric_improvement(numeric_acceptance_world):
    started = time.time()
    split, vocab, classifier, _ = numeric_acceptance_world
    seeds = range(5)
    base_top1, gef_top1, base_fields, gef_fields = [], [], [], []
    first_ef, last_ef = [], []
    for seed in seeds:
        rb = _numeric_run(split, vocab, classifier, seed, "baseline")
        rg = _numeric_run(split, vocab, classifier, seed, "gef")
        base_top1.append(rb["top1"])
        gef_top1.append(rg["top1"])
        base_fields.append(np.mean(list(rb["fields"].values())))
        gef_fields.append(np.mean(list(rg["fields"].values())))
        first_ef.append(rg["epochs"][0]["EF_mean"])
        last_ef.append(rg["epochs"][-1]["EF_mean"])
    elapsed = time.time() - started

    top1_delta = float(np.mean(gef_top1) - np.mean(base_top1))
    field_delta = float(np.mean(gef_fields) - np.mean(base_fields))
    measured = (f"top1 {np.mean(base_top1):.2f} -> {np.mean(gef_top1):.2f} "
                f"(delta {top1_delta:+.2f}), mean sub-field "
                f"{np.mean(base_fields):.2f} -> {np.mean(gef_fields):.2f} "
                f"(delta {field_delta:+.2f}), factor {np.mean(first_ef):.3f} -> "
                f"{np.mean(last_ef):.3f}, 5 seeds, {elapsed:.0f}s")
    print(f"\nACCEPTANCE 5: measured {measured}")
    # trained explanation heads recover the sub-scores well
    assert float(np.mean(gef_fields)) >= 80.0
    # the factor trajectory falls as explanations improve
    assert float(np.mean(last_ef)) < float(np.mean(first_ef))
    assert elapsed < 2700.0
    assert top1_delta >= -0.3, measured
    assert field_delta >= 1.0, measured
    report(5, measured + "; top1 delta >= -0.3 and sub-field delta >= 1.0")


# -- criterion 6: text-case claim --------------------------------------------------

TEXT_ENCODER = dict(kind="gru", embedding_dim=32, hidden_dim=64)
TEXT_CVAE = dict(latent_dim=16, control_dim=8, decoder_hidden=64,
                 comment_hidden=32, embedding_dim=32, mlp_hidden=32)
# two epochs is the pre-saturation point: by epoch three both arms decode
# near-perfect bank sentences and nothing can differ
TEXT_TRAIN = dict(epochs=2, batch_size=32, lr=2e-3)


def test_criterion_6_text_improvement():
    started = time.time()
    examples = synth_text(3000, seed=106)
    split = filter_and_split(examples, "pcmag", seed=13)
    vocab = build_vocab(split.train, "pcmag")
    classifier, _ = pretrain_classifier(split, "pcmag", seed=0, vocab=vocab,
                                        max_epochs=20)

    def run(seed, mode):
        enc = EncoderConfig(vocab_size=len(vocab), **TEXT_ENCODER)
        bundle = ModelBundle("pcmag", vocab, enc, CvaeConfig(**TEXT_CVAE),
                             seed=seed)
        config = TrainConfig.for_schema("pcmag", seed=seed, **TEXT_TRAIN)
        train(bundle, split, config,
              classifier=classifier if mode == "gef" else None, mode=mode)
        rep = evaluate(bundle, split.test, seed=seed)
        rep["bundle"] = bundle
        return rep

    base_bleu, gef_bleu, base_top1, gef_top1 = [], [], [], []
    last_gef = None
    for seed in range(3):
        rb = run(seed, "baseline")
        rg = run(seed, "gef")
        base_bleu.append(rb["bleu"]["aggregate"]["bleu_1"])
        gef_bleu.append(rg["bleu"]["aggregate"]["bleu_1"])
        base_top1.append(rb["top1"])
        gef_top1.append(rg["top1"])
        last_gef = rg["bundle"]
    elapsed = time.time() - started

    # bank-membership oracle: decoded comments stay inside the comment
    # vocabulary of the grade banks
    from gloss.synth import text_comment_bank
    bank_tokens = set()
    for comments in text_comment_bank().values():
        for tokens in comments:
            bank_tokens.update(tokens)
    decoded = fw.generate_explanations(last_gef, split.test[:100],
                                       np.random.default_rng(61))
    decoded_tokens = [tok for ids in decoded["pos"]
                      for tok in last_gef.vocab.decode(ids)]
    assert decoded_tokens and all(tok in bank_tokens for tok in decoded_tokens)

    bleu_delta = float(np.mean(gef_bleu) - np.mean(base_bleu))
    top1_delta = float(np.mean(gef_top1) - np.mean(base_top1))
    assert elapsed < 3600.0
    assert bleu_delta >= 0.0
    assert top1_delta >= -0.5
    report(6, f"bleu-1 {np.mean(base_bleu):.2f} -> {np.mean(gef_bleu):.2f} "
              f"(delta {bleu_delta:+.2f} >= 0), top1 delta {top1_delta:+.2f} "
              f">= -0.5, 3 seeds, {elapsed:.0f}s")


# -- criterion 7: BLEU fixtures ----------------------------------------------------


def test_criterion_7_bleu_fixtures():
    identical = corpus_bleu([["all", "set", "for", "the", "demo"]],
                            [["all", "set", "for", "the", "demo"]])
    assert all(identical[f"bleu_{n}"] == pytest.approx(100.0) for n in range(1, 5))

    disjoint = corpus_bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]])
    assert all(disjoint[f"bleu_{n}"] == 0.0 for n in range(1, 5))

    clipped = corpus_bleu([["the", "the", "the"]], [["the", "cat", "sat"]])
    assert abs(clipped["bleu_1"] - 100.0 / 3.0) <= 1e-9
    report(7, "identity=100, disjoint=0, clipped unigram fixture within 1e-9")


# -- criterion 8: CVAE sanity -------------------------------------------------------


def test_criterion_8_cvae_sanity():
    rng = np.random.default_rng(800)
    for _ in range(1000):
        mu_q, mu_p = rng.normal(size=(2, 1, 5)) * 3
        lv_q, lv_p = rng.normal(size=(2, 1, 5)) * 2
        kl = TextCvae.gaussian_kl(Tensor(mu_q), Tensor(lv_q),
                                  Tensor(mu_p), Tensor(lv_p))
        assert kl.data[0] >= 0.0

    mu = Tensor(rng.normal(size=(4, 5)))
    logvar = Tensor(rng.normal(size=(4, 5)))
    zero_kl = TextCvae.gaussian_kl(mu, logvar, Tensor(mu.data.copy()),
                                   Tensor(logvar.data.copy()))
    assert (zero_kl.data == 0.0).all()

    # toy corpus: variational loss falls by >= 30% over 300 steps
    examples = synth_text(50, seed=81)
    vocab = build_vocab(examples, "pcmag", min_freq=1)
    cvae = TextCvae(rng, len(vocab), cond_input_dim=8,
                    config=CvaeConfig(latent_dim=6, control_dim=4,
                                      decoder_hidden=24, comment_hidden=12,
                                      embedding_dim=16, mlp_hidden=12))
    v_e = Tensor(np.zeros((len(examples), 8)))
    ids, lengths = pad_batch([vocab.encode(ex.pos) for ex in examples])
    pos = np.zeros(len(examples), dtype=np.int64)  # control id of every row

    def elbo_mean(*args):
        recon, kl = cvae.elbo_per_example(*args)
        return kl.mean() + recon.mean()

    def elbo_loss(seed):
        with ad.no_grad():
            loss = elbo_mean(v_e, pos, ids, lengths, np.random.default_rng(seed))
        return loss.item()

    initial = elbo_loss(0)
    optimizer = ad.Adam(cvae.parameters(), lr=5e-3)
    step_rng = np.random.default_rng(82)
    order_rng = np.random.default_rng(83)
    for _ in range(300):
        idx = order_rng.choice(len(examples), size=10, replace=False)
        loss = elbo_mean(Tensor(v_e.data[idx]), pos[idx], ids[idx], lengths[idx], step_rng)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    final = elbo_loss(0)
    drop = (initial - final) / initial
    assert drop >= 0.30
    report(8, f"KL >= 0 on 1000 states, exact zero case, toy loss "
              f"{initial:.1f} -> {final:.1f} ({100 * drop:.0f}% drop >= 30%)")


# -- criterion 9: end-to-end determinism --------------------------------------------


def _pipeline(root):
    root.mkdir()
    corpus = root / "corpus.jsonl"
    cls = root / "classifier.ckpt"
    model = root / "model.ckpt"
    log = root / "train.jsonl"
    rep = root / "report.json"
    explained = root / "explained.jsonl"
    steps = [
        ["synth", "--schema", "skytrax", "--n", "300", "--seed", "12",
         "--out", corpus],
        ["pretrain-c", "--corpus", corpus, "--schema", "skytrax", "--out", cls,
         "--max-epochs", "4", "--seed", "1"],
        ["train", "--corpus", corpus, "--schema", "skytrax", "--mode", "gef",
         "--classifier", cls, "--out", model, "--log", log, "--epochs", "2",
         "--encoder", "bow", "--hidden-dim", "24", "--embedding-dim", "16",
         "--seed", "5"],
        ["eval", "--checkpoint", model, "--corpus", corpus, "--split", "test",
         "--classifier", cls, "--json", rep, "--seed", "2"],
        ["explain", "--checkpoint", model, "--input", corpus,
         "--out", explained, "--seed", "2"],
    ]
    for step in steps:
        assert cli_main([str(a) for a in step] + ["--quiet"]) == 0
    return [corpus, cls, model, log, rep, explained]


def test_criterion_9_bitwise_determinism(tmp_path):
    first = _pipeline(tmp_path / "run1")
    second = _pipeline(tmp_path / "run2")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
    report(9, "synth/pretrain-c/train/eval/explain reruns are bitwise identical")
