import numpy as np
import pytest

from gloss import autodiff as ad
from gloss.autodiff import Adam, Tensor
from gloss.data import BOS, EOS, Vocab, pad_batch
from gloss.models import (GRU, LSTM, BiGRU, ClassifierNumeric, ClassifierText,
                          CvaeConfig, EncoderConfig, ModelBundle,
                          NumericGenerator, Predictor, TextCvae, build_encoder)


def toy_vocab(n_extra: int = 30) -> Vocab:
    return Vocab(itos=["<pad>", "<unk>", "<bos>", "<eos>"]
                 + [f"w{i}" for i in range(n_extra)])


def toy_batch(rng, batch=4, t=9, vocab_size=34):
    ids = rng.integers(4, vocab_size, size=(batch, t))
    mask = np.ones((batch, t))
    mask[0, 6:] = 0
    ids[0, 6:] = 0
    return ids, mask


@pytest.fixture(params=["bow", "gru", "lstm", "cnn"])
def encoder(request, rng):
    config = EncoderConfig(kind=request.param, vocab_size=34, embedding_dim=12,
                           hidden_dim=16,
                           cnn_filters=8 if request.param == "cnn" else None,
                           cnn_filter_sizes=(2, 3) if request.param == "cnn" else None)
    return build_encoder(config, rng)


class TestEncoderConfig:
    def test_cnn_fields_default_when_cnn(self):
        config = EncoderConfig(kind="cnn", vocab_size=10)
        assert config.cnn_filters == 256
        assert config.cnn_filter_sizes == (3, 4, 5, 6)

    def test_cnn_fields_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            EncoderConfig(kind="gru", vocab_size=10, cnn_filters=8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EncoderConfig(kind="transformer", vocab_size=10)

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            EncoderConfig(kind="bow", vocab_size=10, hidden_dim=0)


class TestEncoders:
    def test_output_shape(self, encoder, rng):
        ids, mask = toy_batch(rng)
        assert encoder(ids, mask).shape == (4, 16)

    def test_deterministic(self, encoder, rng):
        ids, mask = toy_batch(rng)
        a = encoder(ids, mask).data
        b = encoder(ids, mask).data
        np.testing.assert_array_equal(a, b)

    def test_empty_sequence_rejected(self, encoder):
        ids = np.zeros((2, 3), dtype=np.int64)
        mask = np.zeros((2, 3))
        with pytest.raises(ValueError):
            encoder(ids, mask)

    def test_bow_permutation_invariant_gru_not(self, rng):
        ids = np.array([[5, 6, 7, 8, 9, 10]])
        perm = np.array([[10, 9, 8, 7, 6, 5]])
        mask = np.ones((1, 6))
        bow = build_encoder(EncoderConfig(kind="bow", vocab_size=34,
                                          embedding_dim=12, hidden_dim=16), rng)
        gru = build_encoder(EncoderConfig(kind="gru", vocab_size=34,
                                          embedding_dim=12, hidden_dim=16), rng)
        np.testing.assert_allclose(bow(ids, mask).data, bow(perm, mask).data,
                                   atol=1e-12)
        assert not np.allclose(gru(ids, mask).data, gru(perm, mask).data)

    def test_padding_does_not_leak(self, encoder, rng):
        # same sequence padded to different lengths encodes identically
        ids = np.array([[5, 6, 7]])
        mask = np.ones((1, 3))
        ids_padded = np.array([[5, 6, 7, 0, 0, 0]])
        mask_padded = np.concatenate([mask, np.zeros((1, 3))], axis=1)
        np.testing.assert_allclose(encoder(ids, mask).data,
                                   encoder(ids_padded, mask_padded).data,
                                   atol=1e-12)

    def test_gradients_reach_embeddings(self, encoder, rng):
        ids, mask = toy_batch(rng)
        encoder(ids, mask).sum().backward()
        grads = [t.grad for t in encoder.parameters().values()]
        assert all(g is not None for g in grads)


class TestMasking:
    """Padding never changes a state, and the sequence ops match plain loops."""

    def test_appended_pad_columns_leave_encoders_bitwise_unchanged(self, encoder, rng):
        ids, mask = toy_batch(rng)
        ids_padded = np.concatenate([ids, np.zeros((4, 5), dtype=ids.dtype)], axis=1)
        mask_padded = np.concatenate([mask, np.zeros((4, 5))], axis=1)
        assert np.array_equal(encoder(ids, mask).data,
                              encoder(ids_padded, mask_padded).data)

    def test_appended_pad_columns_leave_bigru_bitwise_unchanged(self, rng):
        bigru = BiGRU(rng, 5, 7)
        _, mask = toy_batch(rng)
        x = rng.normal(size=(4, 9, 5))
        x_padded = np.concatenate([x, rng.normal(size=(4, 5, 5))], axis=1)
        mask_padded = np.concatenate([mask, np.zeros((4, 5))], axis=1)
        assert np.array_equal(bigru(Tensor(x), mask).data,
                              bigru(Tensor(x_padded), mask_padded).data)

    @staticmethod
    def _sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    @staticmethod
    def _ragged_mask(rng, batch, steps):
        mask = np.ones((batch, steps))
        for i, n in enumerate(rng.integers(1, steps + 1, size=batch)):
            mask[i, n:] = 0.0
        return mask

    def test_lstm_sequence_matches_reference_loop(self, rng):
        batch, steps, dim, nh = 5, 7, 3, 4
        lstm = LSTM(rng, dim, nh)
        lstm.b.data[:] = rng.normal(size=4 * nh)
        x = rng.normal(size=(batch, steps, dim))
        mask = self._ragged_mask(rng, batch, steps)
        w_x, w_h, b = lstm.w_x.data, lstm.w_h.data, lstm.b.data
        h, c = np.zeros((batch, nh)), np.zeros((batch, nh))
        want = np.zeros((batch, steps, nh))
        for t in range(steps):
            pre = [x[:, t] @ w_x[:, k * nh:(k + 1) * nh] + h @ w_h[:, k * nh:(k + 1) * nh]
                   + b[k * nh:(k + 1) * nh] for k in range(4)]
            i, f, o = (self._sig(p) for p in pre[:3])
            c_new = f * c + i * np.tanh(pre[3])
            h_new = o * np.tanh(c_new)
            keep = mask[:, t:t + 1] > 0
            h, c = np.where(keep, h_new, h), np.where(keep, c_new, c)
            want[:, t] = h
        np.testing.assert_allclose(lstm(Tensor(x), mask).data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("with_h0", [False, True])
    def test_gru_sequence_matches_reference_loop(self, rng, reverse, with_h0):
        batch, steps, dim, nh = 5, 7, 3, 4
        gru = GRU(rng, dim, nh)
        gru.b_x.data[:] = rng.normal(size=3 * nh)
        x = rng.normal(size=(batch, steps, dim))
        mask = self._ragged_mask(rng, batch, steps)
        h0 = rng.normal(size=(batch, nh)) if with_h0 else np.zeros((batch, nh))
        w_x, b_x = gru.w_x.data, gru.b_x.data
        w_z, w_r = gru.w_h.data[:, :nh], gru.w_h.data[:, nh:]
        h = h0
        want = np.zeros((batch, steps, nh))
        for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
            gx = x[:, t] @ w_x + b_x
            z = self._sig(gx[:, :nh] + h @ w_z)
            r = self._sig(gx[:, nh:2 * nh] + h @ w_r)
            cand = np.tanh(gx[:, 2 * nh:] + (r * h) @ gru.w_hn.data)
            h_new = (1.0 - z) * cand + z * h
            h = np.where(mask[:, t:t + 1] > 0, h_new, h)
            want[:, t] = h
        got = gru(Tensor(x), mask, h0=Tensor(h0) if with_h0 else None, reverse=reverse)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)


class TestPredictor:
    def test_probs_normalize(self, rng):
        pred = Predictor(rng, 16, 9)
        v = Tensor(rng.normal(size=(6, 16)))
        probs = pred.probs(v).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs > 0).all()

    def test_n_classes_by_schema(self, rng):
        assert Predictor(rng, 8, 9).probs(Tensor(rng.normal(size=(2, 8)))).shape == (2, 9)
        assert Predictor(rng, 8, 10).probs(Tensor(rng.normal(size=(2, 8)))).shape == (2, 10)

    def test_zero_initialized_head_gives_uniform(self, rng):
        pred = Predictor(rng, 16, 10)
        pred.out.w.data[...] = 0.0
        pred.out.b.data[...] = 0.0
        probs = pred.probs(Tensor(rng.normal(size=(3, 16)))).data
        np.testing.assert_allclose(probs, 0.1, atol=1e-15)


class TestNumericGenerator:
    def test_shapes_and_normalization(self, rng):
        gen = NumericGenerator(rng, 16)
        v = Tensor(rng.normal(size=(7, 16)))
        probs = [ad.softmax(head) for head in gen.logits(v)]
        assert len(probs) == 5
        for head in probs:
            assert head.shape == (7, 6)
            np.testing.assert_allclose(head.data.sum(axis=1), 1.0, atol=1e-12)

    def test_scores_are_argmaxes(self, rng):
        gen = NumericGenerator(rng, 16)
        v = Tensor(rng.normal(size=(3, 16)))
        scores = gen.scores(v)
        assert scores.shape == (3, 5)
        for f, logits in enumerate(gen.logits(v)):
            np.testing.assert_array_equal(scores[:, f], logits.data.argmax(axis=1))


def toy_cvae(rng, vocab_size=34, cond=16):
    config = CvaeConfig(latent_dim=6, control_dim=4, decoder_hidden=12,
                        comment_hidden=8, embedding_dim=10, mlp_hidden=8,
                        max_len=12)
    return TextCvae(rng, vocab_size, cond, config)


class TestCvae:
    def test_kl_zero_when_posterior_equals_prior(self, rng):
        mu = Tensor(rng.normal(size=(5, 6)))
        logvar = Tensor(rng.normal(size=(5, 6)))
        kl = TextCvae.gaussian_kl(mu, logvar, Tensor(mu.data.copy()),
                                  Tensor(logvar.data.copy()))
        assert (kl.data == 0.0).all()

    def test_kl_nonnegative_on_random_states(self, rng):
        for _ in range(1000):
            mu_q, mu_p = rng.normal(size=(2, 1, 4)) * 3
            lv_q, lv_p = rng.normal(size=(2, 1, 4)) * 2
            kl = TextCvae.gaussian_kl(Tensor(mu_q), Tensor(lv_q),
                                      Tensor(mu_p), Tensor(lv_p))
            assert kl.data[0] >= 0.0

    def test_elbo_components(self, rng):
        cvae = toy_cvae(rng)
        v_e = Tensor(rng.normal(size=(3, 16)))
        ids, mask = pad_batch([[5, 6, 7], [8, 9], [10]])
        recon, kl = cvae.elbo_per_example(v_e, controls(3, 0), ids, mask,
                                          np.random.default_rng(0))
        assert recon.shape == kl.shape == (3,)
        assert (kl.data >= 0).all() and (recon.data >= 0).all()

    def test_comment_over_cap_rejected(self, rng):
        cvae = toy_cvae(rng)
        v_e = Tensor(rng.normal(size=(1, 16)))
        ids, mask = pad_batch([[5] * 13])
        with pytest.raises(ValueError):
            cvae.elbo_per_example(v_e, controls(1, 0), ids, mask, np.random.default_rng(0))

    def test_decode_respects_cap_and_seed(self, rng):
        cvae = toy_cvae(rng)
        v_e = Tensor(rng.normal(size=(4, 16)))
        out1 = cvae.decode(v_e, controls(4, 1))
        out2 = cvae.decode(v_e, controls(4, 1))
        assert out1 == out2
        assert all(len(seq) <= 12 for seq in out1)

    def test_decode_differs_by_control(self, rng):
        cvae = toy_cvae(rng)
        v_e = Tensor(rng.normal(size=(4, 16)))
        a = cvae.decode(v_e, controls(4, 0))
        b = cvae.decode(v_e, controls(4, 1))
        assert a != b  # control signal conditions the decoder

    def test_single_token_vocab_reconstruction_vanishes(self, rng):
        # vocabulary of one real token: after a few steps the decoder
        # saturates and reconstruction loss approaches zero
        cvae = toy_cvae(rng, vocab_size=5)
        v_e = Tensor(rng.normal(size=(8, 16)))
        ids, mask = pad_batch([[4, 4, 4]] * 8)
        opt = Adam(cvae.parameters(), lr=5e-2)
        train_rng = np.random.default_rng(3)
        for _ in range(100):
            recon, kl = cvae.elbo_per_example(v_e, controls(8, 0), ids, mask, train_rng)
            loss = recon.mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
        final = cvae.elbo_per_example(v_e, controls(8, 0), ids, mask,
                                      np.random.default_rng(4))[0].mean()
        assert final.item() < 0.05

    def test_batched_elbo_matches_per_polarity_calls(self, rng):
        # one polarity-major call over 3B rows against one call per polarity
        # on the same rows, drawing from the same generator state
        cvae = toy_cvae(rng)
        v_e = Tensor(rng.normal(size=(3, 16)))
        comments = [[[5, 6, 7], [8, 9], [10]], [[11], [12, 13, 14, 15], []],
                    [[16, 17], [18], [19, 20]]]
        per_rng = RecordingRng(5)
        per_call = [cvae.elbo_per_example(v_e, controls(3, k), *pad_batch(rows), per_rng)
                    for k, rows in enumerate(comments)]
        batched_rng = RecordingRng(5)
        recon, kl = cvae.elbo_per_example(
            Tensor(np.concatenate([v_e.data] * 3)), np.repeat(np.arange(3), 3),
            *pad_batch([row for rows in comments for row in rows]), batched_rng)
        assert len(batched_rng.draws) == 1
        np.testing.assert_array_equal(batched_rng.draws[0], np.concatenate(per_rng.draws))
        np.testing.assert_allclose(recon.data, np.concatenate([r.data for r, _ in per_call]),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(kl.data, np.concatenate([k.data for _, k in per_call]),
                                   rtol=0, atol=1e-12)

    def test_batched_decode_matches_per_polarity_calls(self, rng):
        cvae = toy_cvae(rng)
        v_e = Tensor(rng.normal(size=(4, 16)))
        per_call = [cvae.decode(v_e, controls(4, k)) for k in range(3)]
        batched = cvae.decode(Tensor(np.concatenate([v_e.data] * 3)),
                              np.repeat(np.arange(3), 4))
        assert batched == per_call[0] + per_call[1] + per_call[2]

    def test_decode_eos_rule_matches_reference_loop(self, rng):
        cvae = toy_cvae(rng)
        v_e = Tensor(rng.normal(size=(12, 16)))
        # a small EOS bias makes some rows stop early and others hit the cap
        cvae.dec_out.b.data[EOS] = 0.05
        ctrl = np.arange(12) % 3
        out = cvae.decode(v_e, ctrl)
        lengths = {len(row) for row in out}
        assert cvae.config.max_len in lengths and min(lengths) < cvae.config.max_len
        assert out == reference_greedy_decode(cvae, v_e, ctrl)


def controls(batch: int, control: int) -> np.ndarray:
    return np.full(batch, control, dtype=np.int64)


class RecordingRng:
    """A generator that keeps every standard-normal draw it hands out."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def standard_normal(self, shape):
        self.draws.append(self.rng.standard_normal(shape))
        return self.draws[-1]


def reference_greedy_decode(cvae, v_e, ctrl_ids):
    """Greedy decoding with a per-row Python stop check: each row keeps the
    tokens before its first EOS, at most ``max_len`` of them."""
    with ad.no_grad():
        cond = cvae.condition(v_e, ctrl_ids)
        h = cvae._decode_hidden(cvae.prior(cond)[0], cond)
        batch = v_e.shape[0]
        ctrl = cvae.ctrl(ctrl_ids[:, None])
        tokens = np.full(batch, BOS, dtype=np.int64)
        finished = np.zeros(batch, dtype=bool)
        out = [[] for _ in range(batch)]
        for _ in range(cvae.config.max_len):
            x = ad.concat([cvae.embed(tokens[:, None]), ctrl], axis=2)
            h = cvae.dec(x, h0=h).reshape(batch, cvae.config.decoder_hidden)
            tokens = cvae.dec_out(h).argmax(axis=1)
            for i in range(batch):
                if finished[i]:
                    continue
                if tokens[i] == EOS:
                    finished[i] = True
                else:
                    out[i].append(int(tokens[i]))
            if finished.all():
                break
    return out


class TestClassifierSoftHard:
    def test_numeric_wrong_arity(self, rng):
        c = ClassifierNumeric(rng, 10)
        with pytest.raises(ValueError):
            c.probs_hard(np.array([[1, 2, 3]]))

    def test_text_wrong_arity(self, rng):
        c = ClassifierText(rng, 34, 9)
        with pytest.raises(ValueError):
            c.probs_hard([pad_batch([[5]])] * 2)

    def test_text_handles_empty_comment(self, rng):
        c = ClassifierText(rng, 34, 9)
        comments = [pad_batch([[]]), pad_batch([[5]]), pad_batch([[6, 7]])]
        probs = c.probs_hard(comments).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestBundle:
    def _bundle(self, schema="skytrax", seed=1):
        vocab = toy_vocab()
        enc = EncoderConfig(kind="gru", vocab_size=len(vocab), embedding_dim=10,
                            hidden_dim=12)
        cvae = None
        if schema == "pcmag":
            cvae = CvaeConfig(latent_dim=4, control_dim=3, decoder_hidden=8,
                              comment_hidden=6, embedding_dim=8, mlp_hidden=6)
        return ModelBundle(schema, vocab, enc, cvae, seed=seed)

    def test_parameters_are_prefixed(self):
        bundle = self._bundle()
        names = bundle.parameters().keys()
        assert any(n.startswith("encoder.") for n in names)
        assert any(n.startswith("predictor.") for n in names)
        assert any(n.startswith("generator.") for n in names)

    def test_same_seed_same_init(self):
        a = self._bundle(seed=5)
        b = self._bundle(seed=5)
        for (ka, ta), (kb, tb) in zip(a.parameters().items(),
                                      b.parameters().items()):
            assert ka == kb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_meta_roundtrip(self):
        for schema in ("skytrax", "pcmag"):
            bundle = self._bundle(schema)
            clone = ModelBundle.from_meta(bundle.meta())
            assert clone.schema == schema
            assert clone.encoder_config == bundle.encoder_config
            assert clone.vocab.itos == bundle.vocab.itos
            assert set(clone.parameters()) == set(bundle.parameters())

    def test_text_schema_requires_cvae_config(self):
        vocab = toy_vocab()
        enc = EncoderConfig(kind="gru", vocab_size=len(vocab), embedding_dim=10,
                            hidden_dim=12)
        with pytest.raises(ValueError):
            ModelBundle("pcmag", vocab, enc, None, seed=0)
