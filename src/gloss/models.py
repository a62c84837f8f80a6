"""Neural components: encoders, predictor, explanation generators, classifier.

Every model here is a thin composition of autodiff ops. A bundle ties
together the text encoder, the label predictor, and an explanation
generator (five score heads for numeric explanations, a conditional VAE
for text comments). The explanation classifier is a separate model that
maps explanations back to overall labels and stays frozen once
pre-trained.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import (BOS, EOS, N_CLASSES, PAD, POLARITIES, SUBSCORE_FIELDS, Vocab,
                   pad_batch)

ENCODER_KINDS = ("bow", "gru", "lstm", "cnn")
N_CONTROLS = 3  # positive / negative / neutral control signals
N_LEVELS = 6  # a sub-field score is an integer 0..5
EMBEDDING_SCALE = 0.1  # standard deviation of the initial embeddings


class Module:
    """Parameter container; collects tensors from attributes recursively."""

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out[name] = value
            elif isinstance(value, Module):
                for key, tensor in value.parameters().items():
                    out[f"{name}.{key}"] = tensor
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        for key, tensor in item.parameters().items():
                            out[f"{name}.{i}.{key}"] = tensor
        return out

    def freeze(self) -> None:
        for tensor in self.parameters().values():
            tensor.requires_grad = False

    @property
    def frozen(self) -> bool:
        return not any(t.requires_grad for t in self.parameters().values())

    def load_arrays(self, arrays: dict[str, np.ndarray], prefix: str = "") -> None:
        """Make each parameter's data the array stored under its name after
        ``prefix``, which the module then shares; a ``ValueError`` if one is
        missing, misshapen or not finite, or if a name under ``prefix``
        belongs to no parameter."""
        params = self.parameters()
        for name, tensor in params.items():
            source = arrays.get(prefix + name)
            if source is None:
                raise ValueError(f"missing tensor {prefix + name}")
            if source.shape != tensor.data.shape:
                raise ValueError(f"shape mismatch for {prefix + name}")
            if not np.isfinite(source).all():
                raise ValueError(f"non-finite values in {prefix + name}")
            tensor.data = np.asarray(source, dtype=np.float64)
        for key in arrays:
            if key.startswith(prefix) and key[len(prefix):] not in params:
                raise ValueError(f"unexpected tensor {key}")


class _Undrawn:
    """A stand-in for the generator of a module whose every weight a
    checkpoint supplies: each draw is a read-only zero view of the asked
    shape, which takes no memory, for :meth:`Module.load_arrays` to replace."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)

    normal = uniform


UNDRAWN = _Undrawn()


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear(Module):
    def __init__(self, rng, n_in: int, n_out: int):
        self.w = Tensor(_xavier(rng, n_in, n_out), requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w) + self.b


class Embedding(Module):
    """Randomly initialized token embeddings (no pre-trained import path)."""

    def __init__(self, rng, n_rows: int, dim: int):
        self.w = Tensor(rng.normal(0.0, EMBEDDING_SCALE, size=(n_rows, dim)), requires_grad=True)

    def __call__(self, ids) -> Tensor:
        return ad.embedding_lookup(self.w, ids)


class GRU(Module):
    def __init__(self, rng, n_in: int, n_hidden: int):
        self.n_hidden = n_hidden
        self.w_x = Tensor(_xavier(rng, n_in, 3 * n_hidden), requires_grad=True)
        self.b_x = Tensor(np.zeros(3 * n_hidden), requires_grad=True)
        self.w_h = Tensor(_xavier(rng, n_hidden, 2 * n_hidden), requires_grad=True)
        self.w_hn = Tensor(_xavier(rng, n_hidden, n_hidden), requires_grad=True)

    def __call__(self, table: Tensor, ids: np.ndarray, h0: Tensor | None = None) -> Tensor:
        """(B*T, H) states over the rows of ``table`` that the (B, T) ``ids``
        pick; row b*T + t is row b's state after position t."""
        return ad.gru_sequence(table, ids, self.w_x, self.b_x, self.w_h, self.w_hn, h0=h0)


class LSTM(Module):
    def __init__(self, rng, n_in: int, n_hidden: int):
        self.w_x = Tensor(_xavier(rng, n_in, 4 * n_hidden), requires_grad=True)
        self.w_h = Tensor(_xavier(rng, n_hidden, 4 * n_hidden), requires_grad=True)
        self.b = Tensor(np.zeros(4 * n_hidden), requires_grad=True)

    def __call__(self, table: Tensor, ids: np.ndarray) -> Tensor:
        """(B*T, H) states over the rows of ``table`` that the (B, T) ``ids``
        pick; row b*T + t is row b's state after position t."""
        return ad.lstm_sequence(table, ids, self.w_x, self.w_h, self.b)


def _check_lengths(ids: np.ndarray, lengths) -> np.ndarray:
    """The row lengths of the right-padded (B, T) ``ids`` as int64; a
    ``ShapeError`` unless they are B integers in [0, T], since a longer one
    would read the next row's states."""
    lengths = np.asarray(lengths)
    if (np.ndim(ids) != 2 or lengths.shape != (len(ids),) or lengths.dtype.kind not in "iu"
            or not np.all((lengths >= 0) & (lengths <= np.shape(ids)[1]))):
        raise ad.ShapeError(f"lengths must be B integers in [0, T] for (B, T) ids of shape "
                            f"{np.shape(ids)}, got {lengths.dtype} lengths of shape "
                            f"{lengths.shape}")
    return lengths.astype(np.int64)


def _last_states(states: Tensor, lengths: np.ndarray) -> Tensor:
    """Each row's state after its last real position, (B, H), from the
    (B*T, H) states of a sequence op over right-padded rows of ``lengths``;
    a row of length 0 reads as the zero initial state."""
    batch = len(lengths)
    last = np.arange(batch) * (states.shape[0] // batch) + np.maximum(lengths - 1, 0)
    nonempty = Tensor((lengths > 0).astype(np.float64)[:, None])
    return ad.mul(ad.embedding_lookup(states, last), nonempty)


def _distinct_lookup(table: Tensor, ids) -> tuple[Tensor, np.ndarray]:
    """The rows of ``table`` that ``ids`` pick, once per distinct id, and
    ``ids`` as indices into them: the input for the sequence ops and
    ``conv_max``, which project every row of the table they are given."""
    uniq, inv = np.unique(ids, return_inverse=True)
    return ad.embedding_lookup(table, uniq), inv.reshape(np.shape(ids))


def _distinct_rows(ids, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a right-padded batch, (ids, lengths) keyed by
    ids and length, in order of first occurrence, and each row's index among
    them. From a zero state a reader's outputs for a row depend on that row
    alone, so callers read these and gather; the gather's backward sums
    repeated rows' gradients."""
    ids = np.asarray(ids)
    lengths = _check_lengths(ids, lengths)
    key = np.concatenate([ids, lengths[:, None]], axis=1)
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    rows = np.sort(first)
    # each row's first occurrence, placed among the sorted first rows (the
    # inverse's shape differs across numpy versions)
    gather = np.searchsorted(rows, first[inverse.reshape(-1)])
    return ids[rows], lengths[rows], gather


class BiGRU(Module):
    def __init__(self, rng, n_in: int, n_hidden: int):
        self.fwd = GRU(rng, n_in, n_hidden)
        self.bwd = GRU(rng, n_in, n_hidden)

    def __call__(self, table: Tensor, ids: np.ndarray, lengths) -> Tensor:
        """Both directions' states after each row's last real position,
        concatenated: (B, 2H); the input as for GRU, right-padded past each
        row's ``lengths``. ``bwd`` runs forward over each row's real ids
        reversed, as a packed sequence's reverse direction does, so neither
        direction reads a pad; an empty row reads as zeros. One lookup of the
        distinct ids' rows feeds both directions."""
        lengths = _check_lengths(ids, lengths)
        rows, ids = _distinct_lookup(table, ids)
        flip = np.maximum(lengths[:, None] - 1 - np.arange(ids.shape[1]), 0)
        return ad.concat([_last_states(self.fwd(rows, ids), lengths),
                          _last_states(self.bwd(rows, np.take_along_axis(ids, flip, 1)),
                                       lengths)], axis=1)


def _masked_mean(emb3: Tensor, lengths: np.ndarray) -> Tensor:
    """Each row's mean over its first ``lengths`` positions of the (B, T, E)
    ``emb3``; an empty row reads as zeros."""
    weights = np.arange(emb3.shape[1]) < lengths[:, None]
    summed = ad.mul(emb3, Tensor(weights[:, :, None].astype(np.float64))).sum(axis=1)
    return ad.mul(summed, Tensor(1.0 / np.maximum(lengths, 1)[:, None]))


# -- encoders ------------------------------------------------------------------


@dataclass
class EncoderConfig:
    """Architecture and sizes of the review encoder."""

    kind: str
    vocab_size: int
    embedding_dim: int = 100
    hidden_dim: int = 128
    cnn_filters: int | None = None
    cnn_filter_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if min(self.vocab_size, self.embedding_dim, self.hidden_dim) < 1:
            raise ValueError("encoder dimensions must be positive")
        if self.kind == "cnn":
            if self.cnn_filters is None:
                self.cnn_filters = 256
            if self.cnn_filter_sizes is None:
                self.cnn_filter_sizes = (3, 4, 5, 6)
            self.cnn_filter_sizes = tuple(self.cnn_filter_sizes)
            if self.cnn_filters < 1 or not self.cnn_filter_sizes:
                raise ValueError("cnn encoder needs filters and filter sizes")
        elif self.cnn_filters is not None or self.cnn_filter_sizes is not None:
            raise ValueError("cnn fields are only valid for kind='cnn'")

    def as_dict(self) -> dict:
        out = asdict(self)
        if self.cnn_filter_sizes is not None:
            out["cnn_filter_sizes"] = list(self.cnn_filter_sizes)
        return out


def _check_nonempty(ids: np.ndarray, lengths) -> np.ndarray:
    """An encoder's checked ``lengths``; its input has rows, none empty."""
    lengths = _check_lengths(ids, lengths)
    if lengths.size == 0 or lengths.min() == 0:
        raise ValueError("encoder input is empty or contains an empty sequence")
    return lengths


class BowEncoder(Module):
    def __init__(self, config: EncoderConfig, rng):
        self.config = config
        self.embed = Embedding(rng, config.vocab_size, config.embedding_dim)
        self.proj = Linear(rng, config.embedding_dim, config.hidden_dim)

    def __call__(self, ids: np.ndarray, lengths) -> Tensor:
        lengths = _check_nonempty(ids, lengths)
        return ad.tanh(self.proj(_masked_mean(self.embed(ids), lengths)))


class RecurrentEncoder(Module):
    def __init__(self, config: EncoderConfig, rng):
        self.config = config
        self.embed = Embedding(rng, config.vocab_size, config.embedding_dim)
        rnn_cls = GRU if config.kind == "gru" else LSTM
        self.rnn = rnn_cls(rng, config.embedding_dim, config.hidden_dim)

    def __call__(self, ids: np.ndarray, lengths) -> Tensor:
        lengths = _check_nonempty(ids, lengths)
        return _last_states(self.rnn(*_distinct_lookup(self.embed.w, ids)), lengths)


class CnnEncoder(Module):
    """Multi-width convolution over embeddings, max-pooled then projected."""

    def __init__(self, config: EncoderConfig, rng):
        self.config = config
        self.embed = Embedding(rng, config.vocab_size, config.embedding_dim)
        self.kernels = [
            Linear(rng, w * config.embedding_dim, config.cnn_filters)
            for w in config.cnn_filter_sizes
        ]
        self.proj = Linear(rng, config.cnn_filters * len(config.cnn_filter_sizes),
                           config.hidden_dim)

    def __call__(self, ids: np.ndarray, lengths) -> Tensor:
        lengths = _check_nonempty(ids, lengths)
        pad = max(0, max(self.config.cnn_filter_sizes) - ids.shape[1])
        ids = np.pad(ids, ((0, 0), (0, pad)), constant_values=PAD)
        rows, ids = _distinct_lookup(self.embed.w, ids)
        pooled = []
        for kernel in self.kernels:
            # x -> x + b and relu are monotone, so relu(max(x) + b) is
            # bitwise max(relu(x + b)): pool first, then bias and relu on (B, F)
            pooled.append(ad.relu(ad.conv_max(rows, ids, kernel.w, lengths) + kernel.b))
        return ad.tanh(self.proj(ad.concat(pooled, axis=1)))


def build_encoder(config: EncoderConfig, rng) -> Module:
    if config.kind == "bow":
        return BowEncoder(config, rng)
    if config.kind in ("gru", "lstm"):
        return RecurrentEncoder(config, rng)
    return CnnEncoder(config, rng)


# -- predictor and numeric generator --------------------------------------------


class Predictor(Module):
    """Linear head mapping the review representation to label probabilities."""

    def __init__(self, rng, hidden_dim: int, n_classes: int):
        self.out = Linear(rng, hidden_dim, n_classes)

    def logits(self, v_e: Tensor) -> Tensor:
        return self.out(v_e)

    def probs(self, v_e: Tensor) -> Tensor:
        return ad.softmax(self.logits(v_e))


class NumericGenerator(Module):
    """Five independent 6-way score heads over the review representation."""

    def __init__(self, rng, hidden_dim: int):
        self.heads = [Linear(rng, hidden_dim, N_LEVELS) for _ in SUBSCORE_FIELDS]

    def logits(self, v_e: Tensor) -> Tensor:
        """All five heads' logits as one (batch, 5, N_LEVELS) block."""
        # concatenated per call, not stored as one parameter, so the
        # per-head names generator.heads.{f}.w/b and checkpoints stay valid
        w = ad.concat([head.w for head in self.heads], axis=1)
        b = ad.concat([head.b for head in self.heads], axis=0)
        return (ad.matmul(v_e, w) + b).reshape(-1, len(self.heads), N_LEVELS)

    def scores(self, v_e: Tensor) -> np.ndarray:
        """Per-field argmax scores, shape (batch, 5)."""
        return self.logits(v_e).argmax(axis=2)


# -- conditional VAE for text explanations ---------------------------------------


@dataclass
class CvaeConfig:
    """Latent/control sizes and the decode-length cap for comment generation."""

    latent_dim: int = 64
    control_dim: int = 16
    decoder_hidden: int = 128
    comment_hidden: int = 64
    embedding_dim: int = 64
    mlp_hidden: int = 64
    max_len: int = 75

    def __post_init__(self):
        if min(self.latent_dim, self.control_dim, self.decoder_hidden,
               self.comment_hidden, self.embedding_dim, self.mlp_hidden,
               self.max_len) < 1:
            raise ValueError("cvae dimensions must be positive")

    def as_dict(self) -> dict:
        return asdict(self)


class TextCvae(Module):
    """Comment generator conditioned on the review vector and a polarity signal.

    Training maximizes a variational bound: a recognition network encodes
    the golden comment into a latent, the decoder reconstructs the comment
    under teacher forcing, and a KL term ties the recognition posterior to
    a prior network that only sees the condition. At test time the latent
    comes from the prior and decoding is greedy.
    """

    def __init__(self, rng, vocab_size: int, cond_input_dim: int, config: CvaeConfig):
        self.config = config
        cond_dim = config.control_dim + cond_input_dim
        self.embed = Embedding(rng, vocab_size, config.embedding_dim)
        self.ctrl = Embedding(rng, N_CONTROLS, config.control_dim)
        self.comment_enc = BiGRU(rng, config.embedding_dim, config.comment_hidden)
        self.prior_hidden = Linear(rng, cond_dim, config.mlp_hidden)
        self.prior_out = Linear(rng, config.mlp_hidden, 2 * config.latent_dim)
        self.recog_hidden = Linear(rng, cond_dim + 2 * config.comment_hidden,
                                   config.mlp_hidden)
        self.recog_out = Linear(rng, config.mlp_hidden, 2 * config.latent_dim)
        self.dec_init = Linear(rng, config.latent_dim + cond_dim, config.decoder_hidden)
        self.dec = GRU(rng, config.embedding_dim + config.control_dim,
                       config.decoder_hidden)
        self.dec_out = Linear(rng, config.decoder_hidden, vocab_size)

    # condition c = [control embedding ; review vector], one control id per row
    def condition(self, v_e: Tensor, controls: np.ndarray) -> Tensor:
        return ad.concat([self.ctrl(controls), v_e], axis=1)

    def _split_gaussian(self, packed: Tensor) -> tuple[Tensor, Tensor]:
        z = self.config.latent_dim
        return ad.slice_axis(packed, 1, 0, z), ad.slice_axis(packed, 1, z, 2 * z)

    def prior(self, cond: Tensor) -> tuple[Tensor, Tensor]:
        return self._split_gaussian(self.prior_out(ad.tanh(self.prior_hidden(cond))))

    def posterior(self, cond: Tensor, comment_ids: np.ndarray,
                  comment_lengths) -> tuple[Tensor, Tensor]:
        ids, lengths, gather = _distinct_rows(comment_ids, comment_lengths)
        enc = ad.embedding_lookup(self.comment_enc(self.embed.w, ids, lengths), gather)
        packed = self.recog_out(ad.tanh(self.recog_hidden(ad.concat([enc, cond], axis=1))))
        return self._split_gaussian(packed)

    @staticmethod
    def gaussian_kl(mu_q: Tensor, logvar_q: Tensor,
                    mu_p: Tensor, logvar_p: Tensor) -> Tensor:
        """Per-example KL(q || p) between diagonal Gaussians; exact 0 at q = p."""
        dmu = mu_q - mu_p
        ratio = ad.exp(logvar_q - logvar_p)
        scaled = ad.mul(ad.mul(dmu, dmu), ad.exp(ad.neg(logvar_p)))
        per_dim = (logvar_p - logvar_q) + ratio + scaled - Tensor(1.0)
        return ad.mul(per_dim.sum(axis=1), Tensor(0.5))

    def _decode_hidden(self, z: Tensor, cond: Tensor) -> Tensor:
        return ad.tanh(self.dec_init(ad.concat([z, cond], axis=1)))

    def _teacher_io(self, comment_ids: np.ndarray, comment_lengths):
        """Decoder inputs (BOS-shifted), targets (EOS-terminated) and the
        targets' weights, 1 up to each row's EOS and 0 past it."""
        lengths = _check_lengths(comment_ids, comment_lengths)
        batch, steps = comment_ids.shape
        if steps > self.config.max_len:
            raise ValueError(f"comment length {steps} exceeds decode cap {self.config.max_len}")
        dec_in = np.concatenate([np.full((batch, 1), BOS, dtype=np.int64), comment_ids], axis=1)
        targets = np.full((batch, steps + 1), PAD, dtype=np.int64)
        targets[:, :steps] = comment_ids
        targets[np.arange(batch), lengths] = EOS
        t_mask = (np.arange(steps + 1) <= lengths[:, None]).astype(np.float64)
        return dec_in, targets, t_mask

    def _dec_input(self, tokens: np.ndarray, controls: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Decoder table and (B, T) ids: a [token; control] embedding row per
        distinct (token, control) pair, row i of ``tokens`` under ``controls[i]``."""
        pairs, ids = np.unique(tokens * N_CONTROLS + controls[:, None], return_inverse=True)
        rows = [self.embed(pairs // N_CONTROLS), self.ctrl(pairs % N_CONTROLS)]
        return ad.concat(rows, axis=1), ids.reshape(tokens.shape)

    def elbo_per_example(self, v_e: Tensor, controls: np.ndarray, comment_ids: np.ndarray,
                         comment_lengths, rng: np.random.Generator,
                         ) -> tuple[Tensor, Tensor]:
        """Teacher-forced reconstruction and KL, each shape (batch,); row i is
        conditioned on control id ``controls[i]``."""
        dec_in, targets, t_mask = self._teacher_io(comment_ids, comment_lengths)
        cond = self.condition(v_e, controls)
        mu_p, logvar_p = self.prior(cond)
        mu_q, logvar_q = self.posterior(cond, comment_ids, comment_lengths)
        eps = Tensor(rng.standard_normal(mu_q.shape))
        z = mu_q + ad.mul(ad.exp(ad.mul(logvar_q, Tensor(0.5))), eps)
        kl = self.gaussian_kl(mu_q, logvar_q, mu_p, logvar_p)

        states = self.dec(*self._dec_input(dec_in, controls), h0=self._decode_hidden(z, cond))
        ce = ad.cross_entropy(self.dec_out(states), targets.reshape(-1))
        recon = ad.mul(ce, Tensor(t_mask.reshape(-1))).reshape(dec_in.shape).sum(axis=1)
        return recon, kl

    def decode(self, v_e: Tensor, controls: np.ndarray) -> list[list[int]]:
        """Greedy decoding until EOS or the cap, latent at the prior's mean.

        Row i, under control id ``controls[i]``, yields its tokens before
        the first EOS. The golden explanation is absent at test time, so the
        latent is the prior network's mean, which keeps decoding deterministic.
        The decoder is set up once (:class:`autodiff.GruDecoder`); every step
        runs over all rows, finished ones too, so that its products keep one
        shape and bits.
        """
        with ad.no_grad():
            cond = self.condition(v_e, controls)
            mu_p, _ = self.prior(cond)
            h0 = self._decode_hidden(mu_p, cond)
        embed, ctrl = self.embed.w.data, self.ctrl.w.data
        batch = v_e.shape[0]
        tokens = np.full(batch, BOS, dtype=np.int64)
        finished = np.zeros(batch, dtype=bool)
        steps = []
        with np.errstate(over="ignore", invalid="ignore"):  # see GruDecoder
            decoder = ad.GruDecoder(self.dec.w_x, self.dec.b_x, self.dec.w_h, self.dec.w_hn,
                                    self.dec_out.w, self.dec_out.b, h0)
            for _ in range(self.config.max_len):
                # a [token; control] row per distinct pair, as in _dec_input
                pairs, ids = np.unique(tokens * N_CONTROLS + controls, return_inverse=True)
                table = np.concatenate([embed[pairs // N_CONTROLS], ctrl[pairs % N_CONTROLS]],
                                       axis=1)
                tokens = decoder.step(table, ids).argmax(axis=1)
                steps.append(tokens)
                finished |= tokens == EOS
                if finished.all():
                    break
        grid = np.stack(steps + [np.full(batch, EOS)], axis=1)  # EOS sentinel at the cap
        lengths = (grid == EOS).argmax(axis=1)
        return [row[:n].tolist() for row, n in zip(grid, lengths)]


# -- explanation classifier -------------------------------------------------------


class ClassifierNumeric(Module):
    """Maps five sub-field scores to an overall label.

    Each (field, score) pair owns its own embedding row; "cabin staff = 3"
    and "food = 3" are different evidence.
    """

    def __init__(self, rng, n_classes: int, emb_dim: int = 16, hidden: int = 64):
        self.emb_dim = emb_dim
        self.embed = Embedding(rng, len(SUBSCORE_FIELDS) * N_LEVELS, emb_dim)
        self.hidden = Linear(rng, len(SUBSCORE_FIELDS) * emb_dim, hidden)
        self.out = Linear(rng, hidden, n_classes)

    def logits_hard(self, subscores: np.ndarray) -> Tensor:
        subscores = np.asarray(subscores, dtype=np.int64)
        n_fields = len(SUBSCORE_FIELDS)
        if subscores.ndim != 2 or subscores.shape[1] != n_fields:
            raise ValueError(f"expected (batch, {n_fields}) scores")
        if subscores.size and (subscores.min() < 0 or subscores.max() >= N_LEVELS):
            raise ValueError(f"scores must lie in 0..{N_LEVELS - 1}")
        offsets = np.arange(n_fields) * N_LEVELS
        flat = self.embed(subscores + offsets).reshape(
            subscores.shape[0], n_fields * self.emb_dim)
        return self.out(ad.tanh(self.hidden(flat)))


class ClassifierText(Module):
    """Maps the three polarity comments to an overall label.

    One shared bidirectional recurrent layer reads each comment; its final
    states concatenate with the comment's mean embedding (skip connection)
    and the three comment vectors feed one output layer. All three
    polarities are read as one batch, each distinct comment once.
    """

    def __init__(self, rng, vocab_size: int, n_classes: int,
                 emb_dim: int = 32, hidden: int = 48):
        self.embed = Embedding(rng, vocab_size, emb_dim)
        self.rnn = BiGRU(rng, emb_dim, hidden)
        self.out = Linear(rng, 3 * (2 * hidden + emb_dim), n_classes)

    def logits_hard(self, ids: np.ndarray, lengths) -> Tensor:
        """(B, n_classes) logits from the right-padded (3B, T) ``ids`` of the
        comments and their ``lengths``, polarity-major: row k * B + i is
        example i's comment under ``POLARITIES[k]``."""
        ids = np.asarray(ids)
        n_pol = len(POLARITIES)
        if ids.ndim != 2 or ids.shape[0] % n_pol:
            raise ValueError(f"expected (3B, T) comment ids, got shape {ids.shape}")
        batch = ids.shape[0] // n_pol
        ids, lengths, gather = _distinct_rows(ids, lengths)
        vecs = ad.concat([self.rnn(self.embed.w, ids, lengths),
                          _masked_mean(self.embed(ids), lengths)], axis=1)
        per_example = gather.reshape(n_pol, batch).T  # (B, 3) distinct rows
        return self.out(ad.embedding_lookup(vecs, per_example).reshape(batch, -1))


# -- bundle ----------------------------------------------------------------------


FORM_BY_SCHEMA = {"pcmag": "text", "skytrax": "numeric"}


class ModelBundle(Module):
    """Encoder + predictor + explanation generator for one schema."""

    def __init__(self, schema: str, vocab: Vocab, encoder_config: EncoderConfig,
                 cvae_config: CvaeConfig | None, seed: int, *, draw: bool = True):
        """Weights drawn from ``seed``; with ``draw=False``, placeholders that
        :meth:`load_arrays` replaces, and nothing is drawn."""
        self.schema = schema
        self.form = FORM_BY_SCHEMA[schema]
        self.vocab = vocab
        self.encoder_config = encoder_config
        self.cvae_config = cvae_config
        self.seed = seed
        rng = np.random.default_rng(seed) if draw else UNDRAWN
        self.encoder = build_encoder(encoder_config, rng)
        self.predictor = Predictor(rng, encoder_config.hidden_dim, N_CLASSES[schema])
        if self.form == "numeric":
            self.generator: Module = NumericGenerator(rng, encoder_config.hidden_dim)
        else:
            if cvae_config is None:
                raise ValueError("text schema requires a cvae config")
            self.generator = TextCvae(rng, len(vocab), encoder_config.hidden_dim,
                                      cvae_config)

    def encode_reviews(self, examples) -> Tensor:
        return self.encoder(*pad_batch([self.vocab.encode(ex.review) for ex in examples]))

    def meta(self) -> dict:
        out = {
            "kind": "bundle",
            "schema": self.schema,
            "seed": self.seed,
            "encoder": self.encoder_config.as_dict(),
            "vocab": self.vocab.itos,
        }
        if self.cvae_config is not None:
            out["cvae"] = self.cvae_config.as_dict()
        return out

    @classmethod
    def from_meta(cls, meta: dict) -> "ModelBundle":
        """The bundle a checkpoint's meta describes, undrawn, for
        :meth:`load_arrays` to fill."""
        cvae = CvaeConfig(**meta["cvae"]) if "cvae" in meta else None
        return cls(meta["schema"], Vocab(itos=list(meta["vocab"])),
                   EncoderConfig(**meta["encoder"]), cvae, seed=meta["seed"], draw=False)
