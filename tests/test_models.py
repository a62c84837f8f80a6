import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gloss import autodiff as ad
from gloss.autodiff import Adam, Tensor
from gloss.data import BOS, EOS, Vocab, pad_batch
from gloss.models import (GRU, LSTM, BiGRU, ClassifierNumeric, ClassifierText,
                          CvaeConfig, EncoderConfig, ModelBundle,
                          NumericGenerator, Predictor, TextCvae, _distinct_rows,
                          _masked_mean, build_encoder)

from conftest import finite_difference_grad, relative_error


def toy_vocab(n_extra: int = 30) -> Vocab:
    return Vocab(itos=["<pad>", "<unk>", "<bos>", "<eos>"]
                 + [f"w{i}" for i in range(n_extra)])


def toy_batch(rng, batch=4, t=9, vocab_size=34):
    ids = rng.integers(4, vocab_size, size=(batch, t))
    lengths = np.full(batch, t)
    lengths[0] = 6
    ids[0, 6:] = 0
    return ids, lengths


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
        ids, lengths = toy_batch(rng)
        assert encoder(ids, lengths).shape == (4, 16)

    def test_deterministic(self, encoder, rng):
        ids, lengths = toy_batch(rng)
        a = encoder(ids, lengths).data
        b = encoder(ids, lengths).data
        np.testing.assert_array_equal(a, b)

    def test_empty_sequence_rejected(self, encoder):
        ids = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            encoder(ids, np.zeros(2, dtype=np.int64))

    def test_bow_permutation_invariant_gru_not(self, rng):
        ids = np.array([[5, 6, 7, 8, 9, 10]])
        perm = np.array([[10, 9, 8, 7, 6, 5]])
        lengths = np.array([6])
        bow = build_encoder(EncoderConfig(kind="bow", vocab_size=34,
                                          embedding_dim=12, hidden_dim=16), rng)
        gru = build_encoder(EncoderConfig(kind="gru", vocab_size=34,
                                          embedding_dim=12, hidden_dim=16), rng)
        np.testing.assert_allclose(bow(ids, lengths).data, bow(perm, lengths).data,
                                   atol=1e-12)
        assert not np.allclose(gru(ids, lengths).data, gru(perm, lengths).data)

    def test_padding_does_not_leak(self, encoder, rng):
        # same sequence padded to different lengths encodes identically
        ids = np.array([[5, 6, 7]])
        ids_padded = np.array([[5, 6, 7, 0, 0, 0]])
        np.testing.assert_allclose(encoder(ids, [3]).data, encoder(ids_padded, [3]).data,
                                   atol=1e-12)

    def test_gradients_reach_embeddings(self, encoder, rng):
        ids, lengths = toy_batch(rng)
        encoder(ids, lengths).sum().backward()
        grads = [t.grad for t in encoder.parameters().values()]
        assert all(g is not None for g in grads)

    def test_gradients_match_finite_differences(self, encoder, rng):
        ids, lengths = toy_batch(rng)
        weights = rng.normal(size=(4, 16))
        ad.mul(encoder(ids, lengths), Tensor(weights)).sum().backward()
        for name, param in encoder.parameters().items():
            flat = param.data.reshape(-1)
            coords = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            orig = flat[coords].copy()

            def loss_at(values):
                flat[coords] = values
                with ad.no_grad():
                    loss = float((encoder(ids, lengths).data * weights).sum())
                flat[coords] = orig
                return loss

            want = finite_difference_grad(loss_at, orig.copy())
            got = param.grad.reshape(-1)[coords]
            assert relative_error(got, want) < 1e-4, name


class TestMasking:
    """Padding never changes a state, and the sequence ops match plain loops."""

    def test_appended_pad_columns_leave_encoders_bitwise_unchanged(self, encoder, rng):
        ids, lengths = toy_batch(rng)
        ids_padded = np.concatenate([ids, np.zeros((4, 5), dtype=ids.dtype)], axis=1)
        assert np.array_equal(encoder(ids, lengths).data,
                              encoder(ids_padded, lengths).data)

    def test_appended_pad_columns_leave_bigru_bitwise_unchanged(self, rng):
        bigru = BiGRU(rng, 5, 7)
        _, lengths = toy_batch(rng)
        x = rng.normal(size=(4, 9, 5))
        x_padded = np.concatenate([x, rng.normal(size=(4, 5, 5))], axis=1)
        assert np.array_equal(bigru(*identity_input(x), lengths).data,
                              bigru(*identity_input(x_padded), lengths).data)

    @staticmethod
    def _sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def test_lstm_sequence_matches_reference_loop(self, rng):
        batch, steps, dim, nh = 5, 7, 3, 4
        lstm = LSTM(rng, dim, nh)
        lstm.b.data[:] = rng.normal(size=4 * nh)
        x = rng.normal(size=(batch, steps, dim))
        w_x, w_h, b = lstm.w_x.data, lstm.w_h.data, lstm.b.data
        h, c = np.zeros((batch, nh)), np.zeros((batch, nh))
        want = np.zeros((batch, steps, nh))
        for t in range(steps):
            pre = [x[:, t] @ w_x[:, k * nh:(k + 1) * nh] + h @ w_h[:, k * nh:(k + 1) * nh]
                   + b[k * nh:(k + 1) * nh] for k in range(4)]
            i, f, o = (self._sig(p) for p in pre[:3])
            c = f * c + i * np.tanh(pre[3])
            h = o * np.tanh(c)
            want[:, t] = h
        got = lstm(*identity_input(x)).data.reshape(batch, steps, nh)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_h0", [False, True])
    def test_gru_sequence_matches_reference_loop(self, rng, with_h0):
        batch, steps, dim, nh = 5, 7, 3, 4
        gru = GRU(rng, dim, nh)
        gru.b_x.data[:] = rng.normal(size=3 * nh)
        x = rng.normal(size=(batch, steps, dim))
        h0 = rng.normal(size=(batch, nh)) if with_h0 else np.zeros((batch, nh))
        w_x, b_x = gru.w_x.data, gru.b_x.data
        w_z, w_r = gru.w_h.data[:, :nh], gru.w_h.data[:, nh:]
        h = h0
        want = np.zeros((batch, steps, nh))
        for t in range(steps):
            gx = x[:, t] @ w_x + b_x
            z = self._sig(gx[:, :nh] + h @ w_z)
            r = self._sig(gx[:, nh:2 * nh] + h @ w_r)
            cand = np.tanh(gx[:, 2 * nh:] + (r * h) @ gru.w_hn.data)
            h = (1.0 - z) * cand + z * h
            want[:, t] = h
        got = gru(*identity_input(x), h0=Tensor(h0) if with_h0 else None)
        np.testing.assert_allclose(got.data.reshape(batch, steps, nh), want, rtol=0, atol=1e-12)

    def test_cnn_encoder_matches_reference_loop(self, rng, made_ops):
        widths = (2, 3, 5)
        cnn = build_encoder(EncoderConfig(kind="cnn", vocab_size=34, embedding_dim=6,
                                          hidden_dim=7, cnn_filters=5,
                                          cnn_filter_sizes=widths), rng)
        for kernel in cnn.kernels:
            kernel.b.data[:] = rng.normal(size=kernel.b.shape)
        # T=4 is below the widest filter; row 1 is shorter than widths 3 and 5
        ids = rng.integers(4, 34, size=(3, 4))
        mask = np.ones((3, 4))
        mask[1, 2:] = mask[2, 3:] = 0.0
        ids[mask == 0] = 0
        table = cnn.embed.w.data
        padded = np.concatenate([ids, np.zeros((3, 1), dtype=ids.dtype)], axis=1)
        padded_mask = np.concatenate([mask, np.zeros((3, 1))], axis=1)
        pooled = []
        for width, kernel in zip(widths, cnn.kernels):
            starts = range(padded.shape[1] - width + 1)
            windows = np.array([[np.concatenate([table[row[s + j]] for j in range(width)])
                                 for s in starts] for row in padded])
            feats = np.maximum(windows @ kernel.w.data + kernel.b.data, 0.0)
            valid = [[s for s in starts if row_mask[s:s + width].all()] or [0]
                     for row_mask in padded_mask]
            pooled.append(np.array([f[v].max(axis=0) for f, v in zip(feats, valid)]))
        want = np.tanh(np.concatenate(pooled, axis=1) @ cnn.proj.w.data + cnn.proj.b.data)

        lengths = mask.sum(axis=1).astype(np.int64)
        taped = cnn(ids, lengths)
        assert taped.requires_grad
        # conv_max sums each window's projected tokens, not one K-long dot
        # product, so it rounds differently from the loop
        np.testing.assert_allclose(taped.data, want, rtol=0, atol=1e-12)
        per_width = ["conv_max", "add", "relu"]
        assert made_ops == (["embedding_lookup"] + per_width * len(widths)
                            + ["concat", "matmul", "add", "tanh"])
        with ad.no_grad():
            assert np.array_equal(cnn(ids, lengths).data, taped.data)


class TestReadAtLength:
    """The recurrent readers run forward over every position of a
    right-padded batch and read each row's state at its own length; the
    BiGRU's backward direction reads each row's real ids reversed."""

    LENGTHS = [5, 0, 2, 5, 1]  # one empty row; two rows use every step
    TOL, STEP = 1e-4, 1e-3  # acceptance criterion 1's

    @classmethod
    def batch(cls, rng, empty_row=True):
        lengths = cls.LENGTHS if empty_row else [n or 3 for n in cls.LENGTHS]
        return pad_batch([list(rng.integers(4, 34, size=n)) for n in lengths])

    @staticmethod
    def reader(rng, kind):
        """A reader of (ids, lengths) and its parameters by name, the
        embedding table included."""
        if kind == "bigru":
            net = BiGRU(rng, 6, 4)
            table = Tensor(rng.normal(size=(34, 6)), requires_grad=True)
            return ((lambda ids, lengths: net(table, ids, lengths)),
                    {"table": table} | net.parameters())
        enc = build_encoder(EncoderConfig(kind=kind, vocab_size=34, embedding_dim=6,
                                          hidden_dim=4), rng)
        for name, p in enc.parameters().items():  # nonzero biases
            if name.endswith((".b", ".b_x")):
                p.data[:] = rng.normal(size=p.shape) * 0.5
        return enc, enc.parameters()

    @staticmethod
    def read(reader, params, ids, lengths, g):
        """The output and the gradients of sum(g * output) wrt ``params``."""
        for p in params.values():
            p.grad = None
        out = reader(ids, lengths)
        ad.mul(out, Tensor(g)).sum().backward()
        return [out.data] + [p.grad for p in params.values()]

    @pytest.mark.parametrize("kind", ["gru", "lstm", "bigru"])
    def test_matches_each_row_read_alone(self, rng, kind):
        reader, params = self.reader(rng, kind)
        ids, lengths = self.batch(rng, empty_row=kind == "bigru")
        g = rng.normal(size=(len(ids), 8 if kind == "bigru" else 4))
        got = self.read(reader, params, ids, lengths, g)
        alone = [self.read(reader, params, ids[b:b + 1, :n], [n], g[b:b + 1])
                 for b, n in enumerate(lengths) if n]
        nonempty = lengths > 0
        np.testing.assert_allclose(got[0][nonempty], np.concatenate([r[0] for r in alone]),
                                   rtol=1e-12, atol=0)
        # an empty row's state is exactly the zero initial state, and it
        # passes no gradient back
        assert np.all(got[0][~nonempty] == 0.0)
        for k in range(1, len(got)):
            np.testing.assert_allclose(got[k], sum(r[k] for r in alone), rtol=1e-12,
                                       atol=1e-15)

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_encoder_rejects_an_empty_row(self, rng, kind):
        reader, _ = self.reader(rng, kind)
        with pytest.raises(ValueError, match="empty sequence"):
            reader(*self.batch(rng))

    def test_bigru_backward_direction_reads_each_row_reversed(self, rng, monkeypatch):
        reader, params = self.reader(rng, "bigru")
        ids, lengths = self.batch(rng)
        seen = []
        gru_sequence = ad.gru_sequence

        def recorded(table, ids, *args, **kwargs):
            seen.append((table.data, ids))
            return gru_sequence(table, ids, *args, **kwargs)

        monkeypatch.setattr(ad, "gru_sequence", recorded)
        reader(ids, lengths)
        (rows, fwd), (bwd_rows, bwd) = seen
        assert bwd_rows is rows
        assert np.array_equal(rows[fwd], params["table"].data[ids])
        for b, n in enumerate(lengths):
            assert np.array_equal(bwd[b, :n], fwd[b, :n][::-1])


    @staticmethod
    def any_reader(rng, name):
        """Each reader of a padded batch as a function of (ids, lengths) of
        six rows; the CVAE's condition is built here, before the read."""
        if name in ("bow", "gru", "lstm", "cnn"):
            return build_encoder(EncoderConfig(kind=name, vocab_size=34, embedding_dim=6,
                                               hidden_dim=4), rng)
        if name == "bigru":
            net, table = BiGRU(rng, 6, 4), Tensor(rng.normal(size=(34, 6)))
            return lambda ids, lengths: net(table, ids, lengths)
        if name == "distinct_rows":
            return _distinct_rows
        if name == "classifier":
            return ClassifierText(rng, 34, 9).logits_hard
        cvae = toy_cvae(rng)
        if name == "teacher_io":
            return cvae._teacher_io
        v_e, ctrl = Tensor(rng.normal(size=(6, 16))), controls(6, 0)
        if name == "posterior":
            cond = cvae.condition(v_e, ctrl)
            return lambda ids, lengths: cvae.posterior(cond, ids, lengths)
        return lambda ids, lengths: cvae.elbo_per_example(v_e, ctrl, ids, lengths,
                                                          np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["bow", "gru", "lstm", "cnn", "bigru", "distinct_rows",
                                      "posterior", "elbo", "teacher_io", "classifier"])
    @pytest.mark.parametrize("fault", ["short", "2-D", "negative", "over-T", "float"])
    def test_lengths_must_fit_ids(self, rng, name, fault, made_ops):
        """Lengths of another shape, below 0, past T or not integers raise
        ``ShapeError`` before any op runs; a length past T would read the
        next row's states."""
        reader = self.any_reader(rng, name)
        ids, lengths = pad_batch([list(rng.integers(4, 34, size=n)) for n in (5, 3, 1, 4, 2, 5)])
        lengths = {"short": lengths[:-1], "2-D": lengths[:, None],
                   "negative": np.where(lengths == 3, -1, lengths),
                   "over-T": np.where(lengths == 3, 6, lengths),
                   "float": lengths.astype(np.float64)}[fault]
        made_ops.clear()
        with pytest.raises(ad.ShapeError):
            reader(ids, lengths)
        assert made_ops == []

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["gru", "lstm", "bigru"]),
           lengths=st.lists(st.integers(0, 6), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_any_ragged_batch_matches_each_row_read_alone(self, kind, lengths, seed):
        rng = np.random.default_rng(seed)
        if kind != "bigru":  # the encoders reject empty rows
            lengths = [n or 1 for n in lengths]
        reader, params = self.reader(rng, kind)
        ids, lengths = pad_batch([list(rng.integers(4, 34, size=n)) for n in lengths])
        g = rng.normal(size=(len(ids), 8 if kind == "bigru" else 4))
        got = self.read(reader, params, ids, lengths, g)
        nonempty = lengths > 0
        assert np.all(got[0][~nonempty] == 0.0)
        for b in np.flatnonzero(nonempty):
            n = lengths[b]
            alone = self.read(reader, params, ids[b:b + 1, :n], [n], g[b:b + 1])
            np.testing.assert_allclose(got[0][b:b + 1], alone[0], rtol=1e-12, atol=0)

    def check_finite_differences(self, rng, kind, ids, lengths, names=None):
        """The gradients of a weighted sum of the reader's output wrt each
        parameter in ``names`` (all by default) against central differences
        at up to 12 coordinates; for the embedding table, of the rows the
        batch reads."""
        reader, params = self.reader(rng, kind)
        weights = rng.normal(size=(len(ids), 8 if kind == "bigru" else 4))
        ad.mul(reader(ids, lengths), Tensor(weights)).sum().backward()
        if names is not None:
            params = {name: p for name, p in params.items() if name in names}
            assert params
        for name, param in params.items():
            flat = param.data.reshape(-1)
            coords = np.arange(flat.size)
            if name in ("table", "embed.w"):  # the rows the batch reads
                coords = (np.unique(ids)[:, None] * param.shape[1]
                          + np.arange(param.shape[1])).ravel()
            coords = rng.choice(coords, size=min(12, coords.size), replace=False)
            orig = flat[coords].copy()

            def loss_at(values):
                flat[coords] = values
                with ad.no_grad():
                    loss = float((reader(ids, lengths).data * weights).sum())
                flat[coords] = orig
                return loss

            want = finite_difference_grad(loss_at, orig.copy(), step=self.STEP)
            got = param.grad.reshape(-1)[coords]
            assert relative_error(got, want) < self.TOL, name

    @pytest.mark.parametrize("kind", ["gru", "lstm", "bigru"])
    def test_gradients_match_finite_differences(self, rng, kind):
        """Through the read at each length and, for the BiGRU, the flip."""
        ids, lengths = self.batch(rng, empty_row=kind == "bigru")
        self.check_finite_differences(rng, kind, ids, lengths)

    @pytest.mark.parametrize("kind", ["gru", "lstm", "bigru"])
    @pytest.mark.parametrize("end", [1, 3, 5], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("wrt", ["table", "w_h"])
    def test_row_ending_at_each_step_matches_finite_differences(self, rng, kind, end, wrt):
        """Row 1 of three ends at the first, a middle or the last of five
        steps, so its state is read there and the steps after it are not;
        for the table rows the batch reads, or the recurrent weights."""
        ids, lengths = pad_batch([list(rng.integers(4, 34, size=n)) for n in (5, end, 5)])
        names = {"table", "embed.w"} if wrt == "table" else {
            "fwd.w_h", "bwd.w_h", "rnn.w_h"}
        self.check_finite_differences(rng, kind, ids, lengths, names)


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
        probs = ad.softmax(gen.logits(v)).data
        assert probs.shape[1] == 5
        for f in range(5):
            head = probs[:, f]
            assert head.shape == (7, 6)
            np.testing.assert_allclose(head.sum(axis=1), 1.0, atol=1e-12)

    def test_scores_are_argmaxes(self, rng):
        gen = NumericGenerator(rng, 16)
        v = Tensor(rng.normal(size=(3, 16)))
        scores = gen.scores(v)
        assert scores.shape == (3, 5)
        logits = gen.logits(v).data
        for f in range(5):
            np.testing.assert_array_equal(scores[:, f], logits[:, f].argmax(axis=1))

    def test_block_matches_each_head(self, rng):
        gen = NumericGenerator(rng, 16)
        for head in gen.heads:
            head.b.data[:] = rng.normal(size=6)
        v = Tensor(rng.normal(size=(9, 16)))
        logits = gen.logits(v).data
        scores = gen.scores(v)
        for f, head in enumerate(gen.heads):
            assert np.array_equal(logits[:, f], head(v).data)
            assert np.array_equal(scores[:, f], head(v).data.argmax(axis=1))

    def test_op_count(self, rng, made_ops):
        gen = NumericGenerator(rng, 16)
        gen.logits(Tensor(rng.normal(size=(4, 16))))
        assert made_ops == ["concat", "concat", "matmul", "add", "reshape"]

    @pytest.mark.parametrize("part", ["w", "b"])
    def test_nan_head_parameter_raises_at_the_next_checked_op(self, rng, part):
        # concat copies the heads unchecked; the matmul or bias add that reads
        # the copy is the op that reports the NaN
        gen = NumericGenerator(rng, 16)
        getattr(gen.heads[2], part).data[0] = np.nan
        op = "matmul" if part == "w" else "add"
        with pytest.raises(ad.NonFiniteError, match=f"produced by {op}$"):
            gen.logits(Tensor(rng.normal(size=(4, 16))))


def identity_input(x: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """A dense (B, T, E) input as a (B*T, E) table and the (B, T) ids of its rows."""
    batch, steps, dim = x.shape
    return Tensor(x.reshape(batch * steps, dim)), np.arange(batch * steps).reshape(batch, steps)


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
        ids, lengths = pad_batch([[5, 6, 7], [8, 9], [10]])
        recon, kl = cvae.elbo_per_example(v_e, controls(3, 0), ids, lengths,
                                          np.random.default_rng(0))
        assert recon.shape == kl.shape == (3,)
        assert (kl.data >= 0).all() and (recon.data >= 0).all()

    def test_comment_over_cap_rejected(self, rng):
        cvae = toy_cvae(rng)
        v_e = Tensor(rng.normal(size=(1, 16)))
        ids, lengths = pad_batch([[5] * 13])
        with pytest.raises(ValueError):
            cvae.elbo_per_example(v_e, controls(1, 0), ids, lengths, np.random.default_rng(0))

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
        ids, lengths = pad_batch([[4, 4, 4]] * 8)
        opt = Adam(cvae.parameters(), lr=5e-2)
        train_rng = np.random.default_rng(3)
        for _ in range(100):
            recon, kl = cvae.elbo_per_example(v_e, controls(8, 0), ids, lengths, train_rng)
            loss = recon.mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
        final = cvae.elbo_per_example(v_e, controls(8, 0), ids, lengths,
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


class TestDistinctIds:
    """``models`` picks each input's distinct ids once and hands the ops a
    table of their rows."""

    @staticmethod
    def count_unique(monkeypatch) -> list:
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(args[0])
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        return calls

    def test_cnn_hands_one_table_of_distinct_rows_to_every_width(self, rng, monkeypatch):
        cnn = build_encoder(EncoderConfig(kind="cnn", vocab_size=34, embedding_dim=6,
                                          hidden_dim=7, cnn_filters=5), rng)
        ids, lengths = toy_batch(rng)
        tables = []
        conv_max = ad.conv_max

        def recorded(table, *args):
            tables.append(table)
            return conv_max(table, *args)

        monkeypatch.setattr(ad, "conv_max", recorded)
        uniques = self.count_unique(monkeypatch)
        cnn(ids, lengths)
        assert len(uniques) == 1
        assert len(tables) == len(cnn.kernels) == 4
        assert all(table is tables[0] for table in tables)
        want = cnn.embed.w.data[np.unique(ids)]
        assert np.array_equal(tables[0].data.view(np.uint64), want.view(np.uint64))

    def test_greedy_decode_picks_distinct_ids_once_per_step(self, rng, monkeypatch):
        cvae = toy_cvae(rng)
        v_e = Tensor(rng.normal(size=(4, 16)))
        steps = []
        gru_sequence = ad.gru_sequence

        def recorded(table, ids, *args, **kwargs):
            steps.append(ids)
            return gru_sequence(table, ids, *args, **kwargs)

        monkeypatch.setattr(ad, "gru_sequence", recorded)
        uniques = self.count_unique(monkeypatch)
        cvae.decode(v_e, np.arange(4) % 3)
        assert len(steps) > 1 and len(uniques) == len(steps)

    def test_classifier_masked_mean_reads_only_distinct_rows(self, rng, monkeypatch):
        """Three 32-row polarities drawn from 4 comments: the mean embedding
        looks up the distinct comments' rows alone, and the read takes one
        ``np.unique`` over the (ids, length) rows and one over their ids."""
        c = ClassifierText(rng, 34, 9)
        pool = [list(rng.integers(4, 34, size=n)) for n in (3, 5, 5, 8)]
        picks = rng.integers(0, len(pool), size=96)
        ids, lengths = pad_batch([pool[k] for k in picks])
        lookups = []
        embedding_lookup = ad.embedding_lookup

        def recorded(table, lookup_ids):
            if table is c.embed.w:
                lookups.append(np.asarray(lookup_ids))
            return embedding_lookup(table, lookup_ids)

        monkeypatch.setattr(ad, "embedding_lookup", recorded)
        distinct = len(set(picks.tolist()))
        uniques = self.count_unique(monkeypatch)
        c.logits_hard(ids, lengths)
        assert [key.shape for key in uniques] == [(96, ids.shape[1] + 1),
                                                  (distinct, ids.shape[1])]
        per_row = [rows for rows in lookups if rows.ndim == 2]
        assert [rows.shape for rows in per_row] == [(distinct, ids.shape[1])]
        assert len(np.unique(per_row[0], axis=0)) == distinct

    def test_posterior_matches_reading_every_row(self, rng):
        cvae = toy_cvae(rng)
        ids, lengths = pad_batch([[5, 6, 7], [8], [5, 6, 7], [5, 6], [8], [5, 6, 7]])
        cond = Tensor(rng.normal(size=(len(ids), 4 + 16)))
        got = cvae.posterior(cond, ids, lengths)
        enc = cvae.comment_enc(cvae.embed.w, ids, lengths)
        packed = cvae.recog_out(ad.tanh(cvae.recog_hidden(ad.concat([enc, cond], axis=1))))
        for a, b in zip(got, cvae._split_gaussian(packed)):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-12, atol=1e-15)


class TestDecoderInput:
    """The decoder reads one [token; control] row per distinct pair."""

    # ragged comments whose (token, control) pairs repeat within and across
    # rows: token 5 under control 0 in rows 0 and 2, 7 under control 1 twice
    COMMENTS = [[5, 6, 5], [5, 6], [6, 5, 5, 7], [5], [7, 7, 5]]
    CONTROLS = np.array([0, 1, 0, 2, 1])

    def teacher_input(self, cvae):
        ids, lengths = pad_batch(self.COMMENTS)
        return ids, lengths, cvae._teacher_io(ids, lengths)[0]

    def concat_rows(self, cvae, dec_in):
        """The per-position (B, T, E + C) concat the decoder used to read."""
        ctrl = np.repeat(self.CONTROLS[:, None], dec_in.shape[1], axis=1)
        return ad.concat([cvae.embed(dec_in), cvae.ctrl(ctrl)], axis=2)

    def test_rows_are_the_per_position_concat_once_per_pair(self, rng):
        cvae = toy_cvae(rng)
        dec_in = self.teacher_input(cvae)[2]
        table, ids = cvae._dec_input(dec_in, self.CONTROLS)
        want = self.concat_rows(cvae, dec_in).data
        assert ids.shape == dec_in.shape
        assert np.array_equal(table.data[ids].view(np.uint64), want.view(np.uint64))
        pairs = set(zip(dec_in.ravel().tolist(),
                        np.repeat(self.CONTROLS, dec_in.shape[1]).tolist()))
        assert table.shape == (len(pairs), 14)
        assert len(np.unique(table.data, axis=0)) == len(pairs)

    def test_decoder_agrees_with_identity_ids_over_the_concat(self, rng):
        cvae = toy_cvae(rng)
        dec_in = self.teacher_input(cvae)[2]
        batch, steps = dec_in.shape
        h0 = rng.normal(size=(batch, 12))
        g = Tensor(rng.normal(size=(batch * steps, 12)))
        names = ["embed.w", "ctrl.w", "dec.w_x", "dec.b_x", "dec.w_h", "dec.w_hn"]
        results = []
        for pairs in (True, False):
            params = cvae.parameters()
            for param in params.values():
                param.grad = None
            h = Tensor(h0, requires_grad=True)
            if pairs:
                table, ids = cvae._dec_input(dec_in, self.CONTROLS)
            else:
                table = self.concat_rows(cvae, dec_in).reshape(batch * steps, -1)
                ids = np.arange(batch * steps).reshape(batch, steps)
            out = cvae.dec(table, ids, h0=h)
            ad.mul(out, g).sum().backward()
            results.append([out.data, h.grad] + [params[name].grad for name in names])
        for name, a, b in zip(["output", "h0"] + names, *results):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("name", ["embed.w", "ctrl.w", "dec.w_x"])
    def test_reconstruction_gradients_match_finite_differences(self, rng, name):
        cvae = toy_cvae(rng)
        ids, lengths, dec_in = self.teacher_input(cvae)
        v_e = Tensor(rng.normal(size=(len(self.COMMENTS), 16)))
        weights = Tensor(rng.normal(size=len(self.COMMENTS)))

        def recon_loss():
            recon, _ = cvae.elbo_per_example(v_e, self.CONTROLS, ids, lengths,
                                             np.random.default_rng(7))
            return ad.mul(recon, weights).sum()

        param = cvae.parameters()[name]
        recon_loss().backward()
        if name == "embed.w":  # the rows of the tokens the comments use
            coords = (np.unique(dec_in)[:, None] * param.shape[1]
                      + np.arange(param.shape[1])).ravel()
        else:
            coords = rng.choice(param.size, size=min(40, param.size), replace=False)
        flat = param.data.reshape(-1)
        orig = flat[coords].copy()

        def loss_at(values):
            flat[coords] = values
            with ad.no_grad():
                loss = recon_loss().item()
            flat[coords] = orig
            return loss

        want = finite_difference_grad(loss_at, orig.copy())
        got = param.grad.reshape(-1)[coords]
        assert np.abs(got).max() > 1e-3
        assert relative_error(got, want) < 1e-4


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
        ctrl = cvae.ctrl(ctrl_ids)
        tokens = np.full(batch, BOS, dtype=np.int64)
        finished = np.zeros(batch, dtype=bool)
        out = [[] for _ in range(batch)]
        for _ in range(cvae.config.max_len):
            # each row's own [token; control] row, with identity ids
            x = ad.concat([cvae.embed(tokens), ctrl], axis=1)
            h = cvae.dec(x, np.arange(batch)[:, None], h0=h)
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


def repeated_rows(rng, case: str, batch: int = 9, steps: int = 6, vocab: int = 12):
    """(B, T) ids and lengths whose rows repeat, except in "all_distinct";
    only "ragged" pads, and two of its rows share their ids and differ in
    length."""
    if case == "all_equal":
        base = rng.integers(4, vocab, size=(1, steps))
        pick = np.zeros(batch, dtype=np.int64)
    else:
        n_rows = batch if case == "all_distinct" else 4
        base = rng.integers(4, vocab, size=(n_rows, steps))
        pick = (np.arange(batch) if case == "all_distinct"
                else rng.integers(0, n_rows, size=batch))
    ids, lengths = base[pick], np.full(batch, steps)
    if case == "ragged":
        for row, n in enumerate(rng.integers(2, steps + 1, size=4)):
            lengths[pick == row] = n
        ids[np.arange(steps) >= lengths[:, None]] = 0
        ids[-1], lengths[-1] = ids[0], 1  # row 0's ids, one step long
    return ids, lengths


def distinct_read(net, table, ids, lengths):
    """A BiGRU read as ``ClassifierText`` and ``TextCvae.posterior`` make it:
    over the distinct (ids, lengths) rows, then gathered back to every row."""
    ids, lengths, gather = _distinct_rows(ids, lengths)
    return ad.embedding_lookup(net(table, ids, lengths), gather)


class TestBiGRUDistinctRows:
    """A BiGRU read over ``_distinct_rows`` and a gather equals the read of
    every row."""

    CASES = ["unpadded", "ragged", "all_equal", "all_distinct"]

    @staticmethod
    def _read(read, net, table, ids, lengths, g):
        """The output and the gradients of sum(g * out) wrt the table and
        each weight."""
        for p in [table] + list(net.parameters().values()):
            p.grad = None
        out = read(net, table, ids, lengths)
        ad.mul(out, Tensor(g)).sum().backward()
        return [out.data, table.grad] + [p.grad for p in net.parameters().values()]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_row_by_row_reads(self, rng, case):
        ids, lengths = repeated_rows(rng, case)
        net = BiGRU(rng, 5, 4)
        table = Tensor(rng.normal(size=(12, 5)), requires_grad=True)
        g = rng.normal(size=(len(ids), 8))
        # the distinct rows, in order of first occurrence
        keys = [(tuple(row), lengths[i]) for i, row in enumerate(ids)]
        first = [i for i, key in enumerate(keys) if key not in keys[:i]]
        rows, row_lengths, gather = _distinct_rows(ids, lengths)
        assert np.array_equal(rows, ids[first])
        assert np.array_equal(row_lengths, lengths[first])
        assert [keys[first[k]] for k in gather] == keys
        got = self._read(distinct_read, net, table, ids, lengths, g)
        per_row = [self._read(BiGRU.__call__, net, table, ids[i:i + 1],
                              lengths[i:i + 1], g[i:i + 1])
                   for i in range(len(ids))]
        want = [np.concatenate([r[0] for r in per_row])]
        want += [sum(r[k] for r in per_row) for k in range(1, len(got))]
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_distinct_rows_run_as_given(self, rng):
        """A batch with no repeated row keeps its own row order, so the
        states are bitwise those of the BiGRU without a gather."""
        ids, lengths = repeated_rows(rng, "all_distinct")
        rows, row_lengths, gather = _distinct_rows(ids, lengths)
        assert np.array_equal(rows, ids) and np.array_equal(row_lengths, lengths)
        assert np.array_equal(gather, np.arange(len(ids)))
        net = BiGRU(rng, 5, 4)
        table = Tensor(rng.normal(size=(12, 5)))
        want = net(table, ids, lengths).data
        assert np.array_equal(distinct_read(net, table, ids, lengths).data, want)

    def test_gradients_match_finite_differences(self, rng):
        ids, lengths = repeated_rows(rng, "ragged")
        net = BiGRU(rng, 5, 4)
        table = Tensor(rng.normal(size=(12, 5)), requires_grad=True)
        weights = rng.normal(size=(len(ids), 8))
        ad.mul(distinct_read(net, table, ids, lengths), Tensor(weights)).sum().backward()
        params = {"table": table} | net.parameters()
        assert len(params) == 9
        for name, param in params.items():
            flat = param.data.reshape(-1)
            coords = rng.choice(flat.size, size=min(12, flat.size), replace=False)
            orig = flat[coords].copy()

            def loss_at(values):
                flat[coords] = values
                with ad.no_grad():
                    loss = float((distinct_read(net, table, ids, lengths).data * weights).sum())
                flat[coords] = orig
                return loss

            want = finite_difference_grad(loss_at, orig.copy())
            got = param.grad.reshape(-1)[coords]
            assert relative_error(got, want) < 1e-4, name

    def test_lengths_of_another_shape_are_rejected(self, rng):
        ids, lengths = repeated_rows(rng, "ragged")
        with pytest.raises(ad.ShapeError):
            _distinct_rows(ids, lengths[:-1])
        with pytest.raises(ad.ShapeError):
            BiGRU(rng, 5, 4)(Tensor(rng.normal(size=(12, 5))), ids, lengths[:-1])


class TestClassifierSoftHard:
    def test_numeric_wrong_arity(self, rng):
        c = ClassifierNumeric(rng, 10)
        with pytest.raises(ValueError):
            c.logits_hard(np.array([[1, 2, 3]]))

    @pytest.mark.parametrize("scores", [[6, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 0, 0, 6]],
                             ids=["first-field-6", "minus-1", "last-field-6"])
    def test_numeric_rejects_a_score_outside_0_to_5(self, rng, scores, made_ops):
        """A score past a field's six levels would read another field's
        embedding row; it raises before any op runs."""
        c = ClassifierNumeric(rng, 10)
        made_ops.clear()
        with pytest.raises(ValueError, match="0..5"):
            c.logits_hard(np.array([[0, 5, 2, 3, 4], scores]))
        assert made_ops == []

    @pytest.mark.parametrize("rows,lengths", [
        (2, [3] * 2), (4, [3] * 4), (6, [3] * 5), (6, [3] * 3), (6, [3] * 5 + [4]),
        (6, [3] * 5 + [-1]), (6, [3.0] * 6)], ids=["2-rows", "4-rows", "5-lengths",
                                                  "3-lengths", "over-T", "negative", "float"])
    def test_text_rejects_misaligned_input(self, rng, rows, lengths, made_ops):
        """Rows must stack three polarities, and there must be one integer
        length in [0, T] per row; either fault is caught before any op runs."""
        c = ClassifierText(rng, 34, 9)
        with pytest.raises(ValueError):
            c.logits_hard(np.full((rows, 3), 5), np.array(lengths))
        with pytest.raises(ValueError):
            c.logits_hard(np.full(6, 5), np.full(6, 1))
        assert made_ops == []

    def test_text_handles_empty_comment(self, rng):
        c = ClassifierText(rng, 34, 9)
        probs = ad.softmax(c.logits_hard(*pad_batch([[], [5], [6, 7]]))).data
        assert probs.shape == (1, 9)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_text_matches_per_polarity_reads(self, rng):
        """Each example's logits are those of its three comments read
        polarity by polarity, each padded on its own, in POLARITIES order."""
        c = ClassifierText(rng, 34, 9, emb_dim=6, hidden=5)
        comments = [[[5, 6], [7], [5, 6], [8, 9, 10]],
                    [[11], [11], [12, 13, 14, 15], [11]],
                    [[], [5, 6], [16], [17, 18]]]
        vecs = []
        for part in comments:
            ids, lengths = pad_batch(part)
            vecs.append(ad.concat([c.rnn(c.embed.w, ids, lengths),
                                   _masked_mean(c.embed(ids), lengths)], axis=1))
        want = c.out(ad.concat(vecs, axis=1)).data
        got = c.logits_hard(*pad_batch([row for part in comments for row in part])).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_text_read_runs_each_direction_once_over_distinct_rows(self, rng, monkeypatch):
        """Three 32-row polarities with repeated comments: one read calls the
        GRU op twice (one per direction), each over the distinct rows only."""
        c = ClassifierText(rng, 34, 9)
        pool = [list(rng.integers(4, 34, size=n)) for n in (3, 5, 5, 8)]
        picks = rng.integers(0, len(pool), size=96)
        ids, lengths = pad_batch([pool[k] for k in picks])
        seen = []
        gru_sequence = ad.gru_sequence

        def counted(table, ids, *args, **kwargs):
            seen.append(ids)
            return gru_sequence(table, ids, *args, **kwargs)

        monkeypatch.setattr(ad, "gru_sequence", counted)
        c.logits_hard(ids, lengths)
        distinct = len(np.unique(picks))
        assert [len(rows) for rows in seen] == [distinct, distinct]
        assert all(len(np.unique(rows, axis=0)) == distinct for rows in seen)


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
