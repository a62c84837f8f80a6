import hashlib
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gloss import autodiff as ad
from gloss import framework as fw
from gloss.autodiff import Tensor
from gloss.checkpoint import CheckpointError
from gloss.data import N_CLASSES, build_vocab, filter_and_split
from gloss.framework import (LossBreakdown, ProbTriple, TrainConfig,
                             TrainingDiverged, evaluate, explanation_factor,
                             extract_gold_prob, final_loss, load_bundle,
                             load_classifier, mrt_loss, pretrain_classifier,
                             resume_optimizer, save_bundle, save_classifier,
                             train)
from gloss.models import (ClassifierNumeric, ClassifierText, CvaeConfig,
                          EncoderConfig, ModelBundle, NumericGenerator)
from gloss.synth import synth_numeric, synth_text

from conftest import finite_difference_grad, relative_error


class TestScalarContract:
    def test_extract_gold_prob(self):
        assert extract_gold_prob([0.1, 0.7, 0.2], 1) == 0.7
        assert extract_gold_prob([0.25] * 4, 2) == 0.25
        assert extract_gold_prob([0.0, 1.0], 1) == 1.0

    def test_extract_gold_prob_range(self):
        with pytest.raises(IndexError):
            extract_gold_prob([0.5, 0.5], 2)

    def test_explanation_factor_hand_case(self):
        triple = ProbTriple(p_pred=0.3, p_classified=0.6, p_gold=0.9)
        assert explanation_factor(triple) == pytest.approx(0.6, abs=1e-15)

    def test_explanation_factor_coincident(self):
        triple = ProbTriple(p_pred=0.4, p_classified=0.4, p_gold=0.4)
        assert explanation_factor(triple) == 0.0

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    @settings(max_examples=300, deadline=None)
    def test_factor_range_and_zero_condition(self, p_pred, p_cls, p_gold):
        factor = explanation_factor(ProbTriple(p_pred, p_cls, p_gold))
        assert 0.0 <= factor < 2.0
        if factor == 0.0:
            assert p_cls == p_gold and p_cls == p_pred

    def test_mrt_and_final_loss(self):
        assert mrt_loss(2.0, 0.5) == 1.0
        assert mrt_loss(3.0, 0.0) == 0.0
        assert final_loss(1.0, 0.6) == 1.6
        assert final_loss(1.0, 0.6, weights=(1.0, 0.0)) == 1.0
        # with constant factor, final = loss * (1 + factor)
        loss, factor = 1.7, 0.3
        assert final_loss(loss, mrt_loss(loss, factor)) == pytest.approx(
            loss * (1 + factor), rel=1e-15)
        # per-example Tensors, as train() builds its batch loss
        total = final_loss(Tensor([1.0, 2.0]), Tensor([0.5, 0.25]), (0.5, 2.0))
        np.testing.assert_array_equal(total.data, [1.5, 1.5])

    def test_matches_independent_reimplementation(self, rng):
        for _ in range(1000):
            p_pred, p_cls, p_gold = rng.uniform(1e-6, 1 - 1e-6, size=3)
            loss = rng.uniform(0, 10)
            factor = explanation_factor(ProbTriple(p_pred, p_cls, p_gold))
            oracle = abs(p_cls - p_gold) + abs(p_cls - p_pred)
            assert factor == oracle  # bitwise, same rounding order
            assert mrt_loss(loss, factor) == loss * oracle
            assert final_loss(loss, loss * oracle) == 1.0 * loss + 1.0 * (loss * oracle)


class TestLossBreakdown:
    def test_identities_exact(self):
        b = LossBreakdown(l_p=0.3, l_e=1.7, ef=0.4, l_mrt=0.8)
        assert b.l == b.l_p + b.l_e
        assert b.l_final == b.l + b.l_mrt
        record = b.log_record()
        assert record["L"] == record["L_p"] + record["L_e"]
        assert record["L_final"] == record["L"] + record["L_MRT"]


def small_numeric_setup(n=600, seed=42, hidden=24, emb=16):
    examples = synth_numeric(n, seed=seed)
    split = filter_and_split(examples, "skytrax", seed=13)
    vocab = build_vocab(split.train, "skytrax")
    enc = EncoderConfig(kind="gru", vocab_size=len(vocab), embedding_dim=emb,
                        hidden_dim=hidden)
    return split, vocab, enc


def small_text_setup(n=400, seed=43):
    examples = synth_text(n, seed=seed)
    split = filter_and_split(examples, "pcmag", seed=13)
    vocab = build_vocab(split.train, "pcmag")
    enc = EncoderConfig(kind="gru", vocab_size=len(vocab), embedding_dim=16,
                        hidden_dim=24)
    cvae = CvaeConfig(latent_dim=8, control_dim=4, decoder_hidden=24,
                      comment_hidden=12, embedding_dim=16, mlp_hidden=12)
    return split, vocab, enc, cvae


def params_digest(module) -> str:
    h = hashlib.sha256()
    for name, tensor in sorted(module.parameters().items()):
        h.update(name.encode())
        h.update(tensor.data.tobytes())
    return h.hexdigest()


class TestJointLossAnalytics:
    def test_uniform_logits_give_log_n(self):
        split, vocab, enc = small_numeric_setup()
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=0)
        bundle.predictor.out.w.data[...] = 0.0
        bundle.predictor.out.b.data[...] = 0.0
        for head in bundle.generator.heads:
            head.w.data[...] = 0.0
            head.b.data[...] = 0.0
        batch = split.train[:32]
        labels = np.array([ex.label for ex in batch])
        v_e = bundle.encode_reviews(batch)
        lp = ad.cross_entropy(bundle.predictor.logits(v_e), labels)
        le, _ = fw._generation_loss(bundle, v_e, batch, beta=1.0,
                                    rng=np.random.default_rng(0))
        assert lp.data.mean() == pytest.approx(math.log(10), abs=1e-12)
        assert le.data.mean() == pytest.approx(5 * math.log(6), abs=1e-12)


class TestNumericGenerationLoss:
    """The five score heads' loss is one cross entropy over the (B, 5, 6)
    block, summed per example in field order."""

    @staticmethod
    def _setup(rng):
        split, vocab, enc = small_numeric_setup()
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=0)
        for head in bundle.generator.heads:
            head.b.data[:] = rng.normal(size=head.b.shape)
        batch = split.train[:13]
        v_e = Tensor(rng.normal(size=(len(batch), enc.hidden_dim)), requires_grad=True)
        return bundle, batch, v_e

    def test_matches_per_head_left_fold(self, rng):
        bundle, batch, v_e = self._setup(rng)
        subs = np.array([ex.subscores for ex in batch])
        want = None
        for f, head in enumerate(bundle.generator.heads):
            ce = ad.cross_entropy(head(v_e), subs[:, f])
            want = ce if want is None else want + ce
        got, _ = fw._generation_loss(bundle, v_e, batch, beta=1.0,
                                     rng=np.random.default_rng(0))
        assert np.array_equal(got.data, want.data)
        params = bundle.generator.parameters().values()
        want.sum().backward()
        want_grads = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None
        got.sum().backward()
        assert all(np.array_equal(p.grad, g) for p, g in zip(params, want_grads))

    def test_op_count(self, rng, made_ops):
        bundle, batch, v_e = self._setup(rng)
        made_ops.clear()
        fw._generation_loss(bundle, v_e, batch, beta=1.0, rng=np.random.default_rng(0))
        assert made_ops == ["concat", "concat", "matmul", "add", "reshape",
                       "reshape", "cross_entropy", "reshape", "sum"]


def tiny_bundle(schema: str, kind: str):
    """A bundle small enough for finite differences, a random classifier
    standing in for the frozen one, and a short training batch."""
    if schema == "skytrax":
        examples, cvae = synth_numeric(60, seed=5), None
    else:
        examples = synth_text(60, seed=6)
        cvae = CvaeConfig(latent_dim=3, control_dim=2, decoder_hidden=5,
                          comment_hidden=3, embedding_dim=4, mlp_hidden=4,
                          max_len=16)
    split = filter_and_split(examples, schema, seed=13)
    vocab = build_vocab(split.train, schema)
    enc = EncoderConfig(kind=kind, vocab_size=len(vocab), embedding_dim=4,
                        hidden_dim=5,
                        cnn_filters=3 if kind == "cnn" else None,
                        cnn_filter_sizes=(2, 3) if kind == "cnn" else None)
    bundle = ModelBundle(schema, vocab, enc, cvae, seed=1)
    rng = np.random.default_rng(2)
    for name, param in bundle.parameters().items():
        if name.endswith(".b") or name.endswith(".b_x"):
            param.data[:] = rng.normal(scale=0.1, size=param.shape)
    n_classes = N_CLASSES[schema]
    if schema == "skytrax":
        classifier = ClassifierNumeric(rng, n_classes, emb_dim=3, hidden=4)
    else:
        classifier = ClassifierText(rng, len(vocab), n_classes, emb_dim=3, hidden=3)
    return bundle, classifier, split.train[:5]


class TestWholeBundleGradients:
    """``backward()`` of ``train``'s batch loss against central differences,
    on every parameter of the encoder, predictor and generator together.

    Criterion 1 checks each op alone; this catches faults that only show
    when ops are composed, such as state shared by two calls of one op
    before ``backward`` runs.
    """

    @pytest.mark.parametrize("schema,kind", [
        ("skytrax", "bow"), ("skytrax", "gru"), ("skytrax", "lstm"),
        ("skytrax", "cnn"), ("pcmag", "gru"), ("pcmag", "lstm")])
    def test_batch_loss_matches_finite_differences(self, schema, kind):
        bundle, classifier, batch = tiny_bundle(schema, kind)
        labels = np.array([ex.label for ex in batch])
        gold = np.random.default_rng(3).uniform(size=len(batch))
        weights = (1.0, 0.7)
        beta = 0.5

        def loss_vec():
            v_e = bundle.encode_reviews(batch)
            logits = bundle.predictor.logits(v_e)
            # the same ε draw on every call, so the CVAE's loss is a
            # deterministic function of the parameters
            le_vec, score_logits = fw._generation_loss(bundle, v_e, batch, beta,
                                                       np.random.default_rng(4))
            return v_e, logits, score_logits, ad.cross_entropy(logits, labels) + le_vec

        v_e, logits, score_logits, vec = loss_vec()
        # the factor is a constant per-example weight, as in train
        factor, mrt_vec = fw._risk_terms(bundle, classifier, v_e, logits, score_logits,
                                         labels, vec, gold)

        def total(vec):
            return (ad.mul(vec, Tensor(weights[0]))
                    + ad.mul(mrt_loss(vec, Tensor(factor)), Tensor(weights[1]))).mean()

        assert np.array_equal(mrt_vec.data, mrt_loss(vec, Tensor(factor)).data)
        total(vec).backward()
        rng = np.random.default_rng(5)
        for name, param in bundle.parameters().items():
            flat = param.data.reshape(-1)
            coords = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            orig = flat[coords].copy()

            def loss_at(values):
                flat[coords] = values
                with ad.no_grad():
                    loss = float(total(loss_vec()[-1]).data)
                flat[coords] = orig
                return loss

            want = finite_difference_grad(loss_at, orig.copy())
            got = param.grad.reshape(-1)[coords]
            assert relative_error(got, want) < 1e-4, name


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        {"batch_size": 0}, {"batch_size": -1}, {"epochs": 0},
        {"lr": 0.0}, {"lr": -1e-3}, {"lr": math.nan}, {"lr": math.inf},
        {"loss_weights": (math.nan, 1.0)}, {"loss_weights": (1.0, math.inf)},
        {"loss_weights": (-1.0, 1.0)}, {"loss_weights": (0.0, 0.0)},
        {"predictor_freeze_threshold": math.nan},
        {"predictor_freeze_threshold": math.inf},
        {"predictor_freeze_threshold": -0.5},
        {"kl_anneal_frac": -0.1}, {"kl_anneal_frac": math.nan},
        {"kl_anneal_frac": math.inf}])
    def test_rejects_settings_training_cannot_run(self, bad):
        with pytest.raises(ValueError):
            TrainConfig.for_schema("skytrax", **bad)

    @pytest.mark.parametrize("edge", [
        {"batch_size": 1, "epochs": 1}, {"lr": 1e300}, {"loss_weights": (0.0, 1.0)},
        {"predictor_freeze_threshold": 0.0}, {"kl_anneal_frac": 0.0}])
    def test_accepts_edge_values(self, edge):
        TrainConfig.for_schema("skytrax", **edge)


class TestPretrainClassifier:
    def test_numeric_oracle_and_freeze(self):
        split, vocab, enc = small_numeric_setup(n=3000)
        classifier, report = pretrain_classifier(split, "skytrax", seed=0,
                                                 max_epochs=30)
        assert classifier.frozen
        assert all(not t.requires_grad for t in classifier.parameters().values())
        assert report["test_top1"] >= 95.0
        assert report["test_top3"] >= report["test_top1"]

    def test_text_oracle(self):
        split, vocab, enc, cvae = small_text_setup(n=900)
        classifier, report = pretrain_classifier(split, "pcmag", seed=0,
                                                 vocab=vocab, max_epochs=16)
        assert report["test_top1"] >= 90.0

    def test_text_requires_vocab(self):
        split, *_ = small_text_setup(n=60)
        with pytest.raises(ValueError):
            pretrain_classifier(split, "pcmag", seed=0)

    @pytest.mark.parametrize("bad", [
        {"lr": math.nan}, {"lr": 0.0}, {"batch_size": 0}, {"max_epochs": 0}])
    def test_rejects_settings_training_cannot_run(self, bad):
        split, *_ = small_numeric_setup(n=60)
        with pytest.raises(ValueError, match=next(iter(bad))):
            pretrain_classifier(split, "skytrax", **bad)


@pytest.fixture(scope="module")
def numeric_world():
    split, vocab, enc = small_numeric_setup(n=900)
    classifier, report = pretrain_classifier(split, "skytrax", seed=0,
                                             max_epochs=25)
    return split, vocab, enc, classifier


class TestTrainer:
    def test_gef_requires_frozen_classifier(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=1)
        config = TrainConfig.for_schema("skytrax", epochs=1, seed=1)
        with pytest.raises(ValueError):
            train(bundle, split, config, classifier=None, mode="gef")

    def test_log_schema_and_identities(self, numeric_world, tmp_path):
        split, vocab, enc, classifier = numeric_world
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=1)
        config = TrainConfig.for_schema("skytrax", epochs=2, seed=1,
                                        batch_size=64, lr=2e-3)
        log_path = tmp_path / "train.jsonl"
        result = train(bundle, split, config, classifier=classifier,
                       mode="gef", log_path=log_path)
        lines = log_path.read_text().splitlines()
        assert len(lines) == 2
        for line, record in zip(lines, result.epochs):
            parsed = json.loads(line)
            assert set(parsed) == {"epoch", "L_p", "L_e", "L", "EF_mean",
                                   "L_MRT", "L_final", "dev_acc", "dev_top3"}
            assert parsed == record
            assert parsed["L"] == parsed["L_p"] + parsed["L_e"]
            assert parsed["L_final"] == parsed["L"] + parsed["L_MRT"]
            assert parsed["dev_top3"] >= parsed["dev_acc"]
            assert min(parsed["L_p"], parsed["L_e"], parsed["EF_mean"],
                       parsed["L_MRT"]) >= 0.0

    def test_classifier_frozen_through_training(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        before = params_digest(classifier)
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=2)
        config = TrainConfig.for_schema("skytrax", epochs=1, seed=2)
        train(bundle, split, config, classifier=classifier, mode="gef")
        assert params_digest(classifier) == before

    def test_batch_factor_matches_scalar_oracle(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=3)
        batch = split.train[:3]
        labels = np.array([ex.label for ex in batch])
        gold = fw._gold_prob_cache(bundle, classifier, batch)
        v_e = bundle.encode_reviews(batch)
        logits = bundle.predictor.logits(v_e)
        lp = ad.cross_entropy(logits, labels)
        le, score_logits = fw._generation_loss(bundle, v_e, batch, 1.0,
                                               np.random.default_rng(0))
        loss_vec = lp + le
        factor, mrt = fw._risk_terms(bundle, classifier, v_e, logits, score_logits,
                                     labels, loss_vec, gold)
        p_pred = ad.softmax(logits).data[np.arange(3), labels]
        scores = bundle.generator.scores(v_e)
        p_cls = ad.softmax(classifier.logits_hard(scores)).data[np.arange(3), labels]
        for i in range(3):
            expected = explanation_factor(
                ProbTriple(p_pred[i], p_cls[i], gold[i]))
            assert factor[i] == pytest.approx(expected, rel=1e-15)
            assert mrt.data[i] == pytest.approx(
                mrt_loss(loss_vec.data[i], expected), rel=1e-15)

    def test_stop_mode_has_no_classifier_gradient_path(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        batch = split.train[:8]
        labels = np.array([ex.label for ex in batch])

        def generator_grads(substitute_constants: bool):
            bundle = ModelBundle("skytrax", vocab, enc, None, seed=4)
            gold = fw._gold_prob_cache(bundle, classifier, batch)
            v_e = bundle.encode_reviews(batch)
            logits = bundle.predictor.logits(v_e)
            lp = ad.cross_entropy(logits, labels)
            le, score_logits = fw._generation_loss(bundle, v_e, batch, 1.0,
                                                   np.random.default_rng(0))
            loss_vec = lp + le
            if substitute_constants:
                rows = np.arange(len(batch))
                with ad.no_grad():
                    scores = bundle.generator.scores(v_e)
                    p_cls = ad.softmax(classifier.logits_hard(scores)).data[rows, labels]
                p_pred = ad.softmax(logits).data[rows, labels]
                factor = explanation_factor(ProbTriple(p_pred, p_cls, gold))
                mrt = ad.mul(loss_vec, Tensor(factor))
            else:
                factor, mrt = fw._risk_terms(bundle, classifier, v_e, logits,
                                             score_logits, labels, loss_vec, gold)
            total = (loss_vec + mrt).mean()
            total.backward()
            return {k: t.grad.copy() for k, t in
                    bundle.generator.parameters().items()}

        via_classifier = generator_grads(False)
        via_constants = generator_grads(True)
        for key in via_classifier:
            np.testing.assert_array_equal(via_classifier[key], via_constants[key])

    def test_ablation_weights_match_baseline(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        config = dict(epochs=2, seed=7, batch_size=32, lr=2e-3)

        baseline = ModelBundle("skytrax", vocab, enc, None, seed=7)
        res_base = train(baseline, split,
                         TrainConfig.for_schema("skytrax", **config),
                         mode="baseline")
        degenerate = ModelBundle("skytrax", vocab, enc, None, seed=7)
        res_gef = train(degenerate, split,
                        TrainConfig.for_schema("skytrax", loss_weights=(1.0, 0.0),
                                               **config),
                        classifier=classifier, mode="gef")
        assert len(res_base.step_losses) == len(res_gef.step_losses)
        for a, b in zip(res_base.step_losses, res_gef.step_losses):
            assert abs(a - b) <= 1e-12
        for (ka, ta), (kb, tb) in zip(baseline.parameters().items(),
                                      degenerate.parameters().items()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_divergence_aborts(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=8)
        config = TrainConfig.for_schema("skytrax", epochs=1, seed=8, lr=1e200)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDiverged):
                train(bundle, split, config, mode="baseline")

    def test_checkpoint_resume_bitwise(self, numeric_world, tmp_path):
        split, vocab, enc, classifier = numeric_world
        full_cfg = TrainConfig.for_schema("skytrax", epochs=4, seed=9,
                                          batch_size=64, lr=2e-3)
        full = ModelBundle("skytrax", vocab, enc, None, seed=9)
        res_full = train(full, split, full_cfg, classifier=classifier, mode="gef")

        first = ModelBundle("skytrax", vocab, enc, None, seed=9)
        half_cfg = TrainConfig.for_schema("skytrax", epochs=2, seed=9,
                                          batch_size=64, lr=2e-3)
        opt = ad.Adam(first.parameters(), lr=half_cfg.lr)
        train(first, split, half_cfg, classifier=classifier, mode="gef",
              optimizer=opt)
        path = tmp_path / "half.ckpt"
        save_bundle(path, first, optimizer=opt)

        resumed, meta, arrays = load_bundle(path)
        opt2 = resume_optimizer(resumed, meta, arrays)
        res_resumed = train(resumed, split, full_cfg, classifier=classifier,
                            mode="gef", optimizer=opt2, start_epoch=2)
        assert res_resumed.step_losses == res_full.step_losses[len(res_full.step_losses) // 2:]
        for (ka, ta), (kb, tb) in zip(full.parameters().items(),
                                      resumed.parameters().items()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_explicit_freeze_threshold_is_monotone(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=10)
        config = TrainConfig.for_schema("skytrax", epochs=4, seed=10, lr=2e-3,
                                        predictor_freeze_threshold=2.5)
        opt = ad.Adam(bundle.parameters(), lr=config.lr)
        result = train(bundle, split, config, classifier=classifier,
                       mode="gef", optimizer=opt)
        assert result.frozen_at_epoch is not None
        assert bundle.predictor.frozen
        digest = params_digest(bundle.predictor)
        extra_cfg = TrainConfig.for_schema("skytrax", epochs=5, seed=10, lr=2e-3,
                                           predictor_freeze_threshold=2.5)
        train(bundle, split, extra_cfg, classifier=classifier, mode="gef",
              optimizer=opt, start_epoch=4)
        assert params_digest(bundle.predictor) == digest

    def test_frozen_predictor_takes_no_gradient(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=10)
        opt = ad.Adam(bundle.parameters(), lr=2e-3)
        config = dict(seed=10, lr=2e-3, predictor_freeze_threshold=100.0)
        result = train(bundle, split, TrainConfig.for_schema("skytrax", epochs=1, **config),
                       classifier=classifier, mode="gef", optimizer=opt)
        assert result.frozen_at_epoch == 0 and bundle.predictor.frozen
        names = [f"predictor.{k}" for k in bundle.predictor.parameters()]
        moments = [f"adam.{m}.{name}" for m in "mv" for name in names]
        before = {k: opt.state_arrays()[k].copy() for k in moments}
        grads = []
        step = opt.step

        def recorded_step():
            grads.append({k: opt.params[k].grad for k in names + ["generator.heads.0.w"]})
            step()

        opt.step = recorded_step
        train(bundle, split, TrainConfig.for_schema("skytrax", epochs=2, **config),
              classifier=classifier, mode="gef", optimizer=opt, start_epoch=1)
        assert grads and all(g["generator.heads.0.w"] is not None for g in grads)
        assert all(g[name] is None for g in grads for name in names)
        after = opt.state_arrays()
        for key in moments:
            assert np.array_equal(after[key].view(np.uint64), before[key].view(np.uint64))

    @staticmethod
    def freeze_config(epochs):
        """The predictor freezes after epoch 1: train L_p reads 2.274, then 2.198."""
        return TrainConfig.for_schema("skytrax", epochs=epochs, seed=9, batch_size=64,
                                      lr=2e-3, predictor_freeze_threshold=2.21)

    @pytest.fixture(scope="class")
    def uninterrupted(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=9)
        result = train(bundle, split, self.freeze_config(4), classifier=classifier, mode="gef")
        assert result.frozen_at_epoch == 1
        return bundle, result

    # the checkpoint comes before the freeze epoch or right after it
    @pytest.mark.parametrize("k", [1, 2])
    def test_resume_across_the_freeze_epoch_bitwise(self, numeric_world, uninterrupted,
                                                    tmp_path, k):
        split, vocab, enc, classifier = numeric_world
        full, res_full = uninterrupted
        first = ModelBundle("skytrax", vocab, enc, None, seed=9)
        opt = ad.Adam(first.parameters(), lr=2e-3)
        res_first = train(first, split, self.freeze_config(k), classifier=classifier,
                          mode="gef", optimizer=opt)
        save_bundle(tmp_path / "part.ckpt", first, optimizer=opt)

        resumed, meta, arrays = load_bundle(tmp_path / "part.ckpt")
        frozen = ["predictor.out.b", "predictor.out.w"] if k > 1 else []
        assert meta["optimizer"]["frozen"] == frozen
        opt2 = resume_optimizer(resumed, meta, arrays)
        assert resumed.predictor.frozen == (k > 1)
        res_rest = train(resumed, split, self.freeze_config(4), classifier=classifier,
                         mode="gef", optimizer=opt2, start_epoch=k)
        assert res_first.step_losses + res_rest.step_losses == res_full.step_losses
        assert resumed.predictor.frozen
        for (ka, ta), (kb, tb) in zip(full.parameters().items(), resumed.parameters().items()):
            assert ka == kb and np.array_equal(ta.data.view(np.uint64), tb.data.view(np.uint64))

    @staticmethod
    def _no_optimizer(meta, arrays):
        del meta["optimizer"]

    @staticmethod
    def _missing_moment(meta, arrays):
        del arrays["adam.m.predictor.out.w"]

    @staticmethod
    def _misshapen_moment(meta, arrays):
        arrays["adam.v.predictor.out.w"] = np.zeros(1)

    @staticmethod
    def _nan_moment(meta, arrays):
        arrays["adam.m.encoder.rnn.w_h"][0, 0] = np.nan

    @staticmethod
    def _unknown_frozen_name(meta, arrays):
        meta["optimizer"]["frozen"] = ["predictor.out.w", "predictor.hidden.w"]

    @staticmethod
    def _negative_second_moment(meta, arrays):
        # the next step would take its square root
        arrays["adam.v.encoder.rnn.w_h"][0, 0] = -1.0

    # each would resume silently: a step count of -1 divides by zero at the
    # next step's bias correction, and an lr of -1 ascends the loss
    @staticmethod
    def _negative_step_count(meta, arrays):
        meta["optimizer"]["step_count"] = -1

    @staticmethod
    def _fractional_step_count(meta, arrays):
        meta["optimizer"]["step_count"] = 2.5

    @staticmethod
    def _negative_lr(meta, arrays):
        meta["optimizer"]["lr"] = -1.0

    @staticmethod
    def _infinite_eps(meta, arrays):
        meta["optimizer"]["eps"] = float("inf")

    @staticmethod
    def _beta1_of_one(meta, arrays):
        meta["optimizer"]["beta1"] = 1.0

    @staticmethod
    def _negative_beta2(meta, arrays):
        meta["optimizer"]["beta2"] = -0.5

    @pytest.mark.parametrize("fault", ["_no_optimizer", "_missing_moment", "_misshapen_moment",
                                       "_nan_moment", "_unknown_frozen_name",
                                       "_negative_second_moment", "_negative_step_count",
                                       "_fractional_step_count", "_negative_lr",
                                       "_infinite_eps", "_beta1_of_one", "_negative_beta2"])
    def test_resume_rejects_bad_optimizer_state(self, tmp_path, fault):
        split, vocab, enc = small_numeric_setup(n=60)
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=1)
        save_bundle(tmp_path / "b.ckpt", bundle, optimizer=ad.Adam(bundle.parameters()))
        resumed, meta, arrays = load_bundle(tmp_path / "b.ckpt")
        assert not resume_optimizer(resumed, meta, arrays).step_count
        getattr(self, fault)(meta, arrays)
        with pytest.raises(CheckpointError):
            resume_optimizer(resumed, meta, arrays)


class TestTextTrainer:
    def test_text_gef_runs_and_freeze_rule_engages(self):
        split, vocab, enc, cvae = small_text_setup(n=500)
        classifier, _ = pretrain_classifier(split, "pcmag", seed=0, vocab=vocab,
                                            max_epochs=10)
        bundle = ModelBundle("pcmag", vocab, enc, cvae, seed=5)
        config = TrainConfig.for_schema("pcmag", epochs=4, seed=5, lr=3e-3)
        result = train(bundle, split, config, classifier=classifier, mode="gef")
        assert len(result.epochs) == 4
        # text runs auto-freeze the predictor once train L_p dips under the
        # dev-derived threshold
        if result.frozen_at_epoch is not None:
            assert result.frozen_at_epoch >= 0


class TestEvaluate:
    def test_numeric_report_structure(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=11)
        report = evaluate(bundle, split.test, classifier=classifier, seed=0)
        assert set(report["fields"]) == {"s", "c", "f", "i", "t"}
        assert report["top3"] >= report["top1"]
        assert report["oracle"]["top3"] >= report["oracle"]["top1"]

    def test_text_report_structure(self):
        split, vocab, enc, cvae = small_text_setup(n=200)
        bundle = ModelBundle("pcmag", vocab, enc, cvae, seed=12)
        report = evaluate(bundle, split.test, seed=0)
        assert set(report["bleu"]) == {"pos", "neg", "neu", "aggregate"}
        for section in report["bleu"].values():
            assert set(section) == {"bleu_1", "bleu_2", "bleu_3", "bleu_4"}

    def test_perfect_predictions_score_100(self, numeric_world):
        split, vocab, enc, classifier = numeric_world

        class PerfectBundle:
            form = "numeric"
            schema = "skytrax"

            def __init__(self, examples):
                self._by_id = {id(ex): ex for ex in examples}

            def encode_reviews(self, examples):
                self._batch = examples
                return examples

            class predictor:
                @staticmethod
                def probs(examples):
                    rows = np.eye(10)[[ex.label for ex in examples]]
                    return Tensor(rows)

            class generator:
                @staticmethod
                def scores(examples):
                    return np.array([ex.subscores for ex in examples])

        part = split.test[:40]
        report = evaluate(PerfectBundle(part), part, seed=0)
        assert report["top1"] == 100.0 and report["top3"] == 100.0
        assert all(v == 100.0 for v in report["fields"].values())

    def test_perfect_text_bleu_is_100(self):
        split, vocab, enc, cvae = small_text_setup(n=120)

        class EchoBundle:
            """Encodes each review as its row number; the predictor and the
            generator echo that example's golden label and comments."""
            form = "text"
            schema = "pcmag"

            def __init__(self, vocab):
                self.vocab = vocab

            def encode_reviews(self, examples):
                self._batch = examples
                return Tensor(np.arange(len(examples), dtype=np.float64)[:, None])

            def examples(self, v_e):
                return [self._batch[int(row)] for row in v_e.data[:, 0]]

        bundle = EchoBundle(vocab)
        bundle.predictor = type("P", (), {})()
        bundle.predictor.probs = lambda v_e: Tensor(
            np.eye(9)[[ex.label for ex in bundle.examples(v_e)]])
        bundle.generator = type("G", (), {})()

        def decode(v_e, controls, _vocab=vocab):
            from gloss.data import POLARITIES
            return [_vocab.encode(getattr(ex, POLARITIES[control]))
                    for ex, control in zip(bundle.examples(v_e), controls)]

        bundle.generator.decode = decode
        part = split.test[:30]
        report = evaluate(bundle, part, seed=0)
        assert report["top1"] == 100.0
        for pol in ("pos", "neg", "neu", "aggregate"):
            assert report["bleu"][pol]["bleu_1"] == pytest.approx(100.0)

    def test_empty_split_rejected(self, numeric_world):
        split, vocab, enc, classifier = numeric_world
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=13)
        with pytest.raises(ValueError):
            evaluate(bundle, [], seed=0)


def _serving_bundle(schema, kind, n=150, seed=5):
    if schema == "skytrax":
        examples = synth_numeric(n, seed=seed)
        cvae = None
    else:
        examples = synth_text(n, seed=seed)
        cvae = CvaeConfig(latent_dim=8, control_dim=4, decoder_hidden=24,
                          comment_hidden=12, embedding_dim=16, mlp_hidden=12)
    vocab = build_vocab(examples, schema)
    cnn = dict(cnn_filters=8, cnn_filter_sizes=(2, 3)) if kind == "cnn" else {}
    enc = EncoderConfig(kind=kind, vocab_size=len(vocab), embedding_dim=16,
                        hidden_dim=24, **cnn)
    return ModelBundle(schema, vocab, enc, cvae, seed=seed), examples


def _encode_twice_reference(bundle, examples, batch_size):
    """Per batch, one encoding for the probabilities and another for the
    explanations, each output regrouped by hand."""
    probs, explained = [], []
    with ad.no_grad():
        for start in range(0, len(examples), batch_size):
            exs = examples[start:start + batch_size]
            probs.append(bundle.predictor.probs(bundle.encode_reviews(exs)).data)
            v_e = bundle.encode_reviews(exs)
            if bundle.form == "numeric":
                explained.append(bundle.generator.scores(v_e))
            else:
                decoded = bundle.generator.decode(
                    ad.concat([v_e] * 3, axis=0), np.repeat(np.arange(3), len(exs)))
                explained.append([decoded[k * len(exs):(k + 1) * len(exs)]
                                  for k in range(3)])
    if bundle.form == "numeric":
        return np.concatenate(probs), np.concatenate(explained)
    return np.concatenate(probs), {
        pol: [ids for parts in explained for ids in parts[k]]
        for k, pol in enumerate(("pos", "neg", "neu"))}


class TestPredictAndExplain:
    @pytest.mark.parametrize("schema, kind", [("skytrax", "bow"), ("skytrax", "lstm"),
                                              ("skytrax", "cnn"), ("pcmag", "gru"), ("pcmag", "lstm")])
    def test_matches_separate_encodings_bitwise(self, schema, kind):
        bundle, examples = _serving_bundle(schema, kind)
        probs, explained = fw.predict_and_explain(bundle, examples, batch_size=64)
        ref_probs, ref_explained = _encode_twice_reference(bundle, examples, 64)
        assert len(examples) % 64  # the last batch is ragged
        assert np.array_equal(probs, fw.predict_probs(bundle, examples, batch_size=64))
        assert np.array_equal(probs, ref_probs)
        if bundle.form == "numeric":
            assert explained.shape == (len(examples), 5)
            assert np.array_equal(explained, ref_explained)
        else:
            assert explained == ref_explained
            assert all(len(explained[pol]) == len(examples) for pol in explained)

    def test_evaluate_encodes_each_batch_once(self, encoder_calls):
        bundle, examples = _serving_bundle("skytrax", "bow", n=130)
        evaluate(bundle, examples, batch_size=64)
        assert encoder_calls == [64, 64, 2]


class TestPersistence:
    def test_bundle_checkpoint_roundtrip(self, numeric_world, tmp_path):
        split, vocab, enc, classifier = numeric_world
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=14)
        path = tmp_path / "bundle.ckpt"
        save_bundle(path, bundle, extra_meta={"split_seed": 13})
        loaded, meta, _ = load_bundle(path)
        assert meta["split_seed"] == 13
        for (ka, ta), (kb, tb) in zip(bundle.parameters().items(),
                                      loaded.parameters().items()):
            assert ka == kb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_classifier_checkpoint_roundtrip(self, numeric_world, tmp_path):
        split, vocab, enc, classifier = numeric_world
        path = tmp_path / "classifier.ckpt"
        save_classifier(path, classifier, "skytrax", report={"dev_top1": 99.0})
        loaded, cls_vocab, meta = load_classifier(path)
        assert loaded.frozen and cls_vocab is None
        assert meta["report"]["dev_top1"] == 99.0
        scores = np.array([ex.subscores for ex in split.test[:16]])
        with ad.no_grad():
            np.testing.assert_array_equal(ad.softmax(classifier.logits_hard(scores)).data,
                                          ad.softmax(loaded.logits_hard(scores)).data)

    def test_text_classifier_checkpoint_keeps_vocab(self, tmp_path):
        split, vocab, enc, cvae = small_text_setup(n=150)
        classifier, _ = pretrain_classifier(split, "pcmag", seed=0, vocab=vocab,
                                            max_epochs=3)
        path = tmp_path / "ctext.ckpt"
        save_classifier(path, classifier, "pcmag", vocab=vocab)
        loaded, cls_vocab, meta = load_classifier(path)
        assert cls_vocab.itos == vocab.itos


def test_every_engine_op_is_called_by_a_model_path(monkeypatch):
    """Every op in ``autodiff.__all__`` is called by some model path: a tiny gef
    epoch per skytrax encoder, one on pcmag, and a greedy decode."""
    ops = [name for name in ad.__all__ if name != "no_grad"
           and not inspect.isclass(getattr(ad, name))]
    called = set()

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ops:
        monkeypatch.setattr(ad, name, recorder(name, getattr(ad, name)))

    split, vocab, enc = small_numeric_setup(n=60)
    classifier, _ = pretrain_classifier(split, "skytrax", seed=0, max_epochs=1)
    config = TrainConfig.for_schema("skytrax", epochs=1, batch_size=len(split.train))
    for kind in ("bow", "gru", "lstm", "cnn"):
        enc = EncoderConfig(kind=kind, vocab_size=len(vocab), embedding_dim=8,
                            hidden_dim=8, cnn_filters=4 if kind == "cnn" else None,
                            cnn_filter_sizes=(2, 3) if kind == "cnn" else None)
        bundle = ModelBundle("skytrax", vocab, enc, None, seed=0)
        train(bundle, split, config, classifier=classifier, mode="gef")

    split, vocab, enc, cvae = small_text_setup(n=40)
    classifier, _ = pretrain_classifier(split, "pcmag", seed=0, vocab=vocab, max_epochs=1)
    bundle = ModelBundle("pcmag", vocab, enc, cvae, seed=0)
    config = TrainConfig.for_schema("pcmag", epochs=1, batch_size=len(split.train))
    train(bundle, split, config, classifier=classifier, mode="gef")
    fw.generate_explanations(bundle, split.dev[:4], np.random.default_rng(0))

    assert sorted(set(ops) - called) == []


def test_pcmag_gef_step_records_four_gru_sequences(monkeypatch):
    """One text training step runs each recurrence once over all three
    polarities: the review GRU, the comment BiGRU (two directions) and the
    teacher-forced decoder. The frozen classifier and greedy decoding run
    without a tape."""
    split, vocab, enc, cvae = small_text_setup(n=40)
    classifier, _ = pretrain_classifier(split, "pcmag", seed=0, vocab=vocab, max_epochs=1)
    bundle = ModelBundle("pcmag", vocab, enc, cvae, seed=0)
    taped = []
    make = ad._make

    def recording_make(data, parents, backward, opname):
        out = make(data, parents, backward, opname)
        if out._backward is not None:
            taped.append(opname)
        return out

    monkeypatch.setattr(ad, "_make", recording_make)
    config = TrainConfig.for_schema("pcmag", epochs=1, batch_size=len(split.train))
    result = train(bundle, split, config, classifier=classifier, mode="gef")
    assert len(result.step_losses) == 1
    assert taped.count("gru_sequence") == 4


def test_skytrax_gef_step_builds_score_logits_once(monkeypatch):
    """The risk terms read the numeric scores off the logits the generation
    loss built on the tape; no second five-head block is built."""
    split, vocab, enc = small_numeric_setup(n=60)
    classifier, _ = pretrain_classifier(split, "skytrax", seed=0, max_epochs=1)
    bundle = ModelBundle("skytrax", vocab, enc, None, seed=0)
    calls = []
    logits = NumericGenerator.logits

    def counted(self, v_e):
        calls.append(v_e.shape[0])
        return logits(self, v_e)

    monkeypatch.setattr(NumericGenerator, "logits", counted)
    config = TrainConfig.for_schema("skytrax", epochs=1, batch_size=16)
    result = train(bundle, split, config, classifier=classifier, mode="gef")
    assert len(calls) == len(result.step_losses) > 1
