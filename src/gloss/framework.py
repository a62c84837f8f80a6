"""Joint training of classification and explanation generation.

The core idea: a frozen pre-trained classifier maps explanations (golden
or generated) to label distributions. From the three distributions in
play per example we extract the probability each assigns to the true
label and combine the gaps into a per-example explanation factor

    factor = |p_classified - p_gold| + |p_classified - p_pred|

which weights that example's loss inside a minimum-risk objective:

    total_i = w_loss * L_i + w_risk * (L_i * factor_i)

with L_i = classification loss + generation loss. At the default 1:1
weights the logged breakdown satisfies L = L_p + L_e and
L_final = L + L_MRT exactly. With weights (1, 0) the trainer degenerates
to the plain supervised baseline, sharing one code path.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .autodiff import Adam, Tensor
from .data import (CorpusSplit, N_CLASSES, POLARITIES, SUBSCORE_FIELDS, SUBSCORE_LETTERS,
                   Vocab, pad_batch)
# corpus_bleu is not called here, but perfbench/tracing.py patches it by
# this module's name, so it stays importable from here
from .metrics import bleu_counts, bleu_scores, corpus_bleu, topk_accuracy  # noqa: F401
from .models import (ClassifierNumeric, ClassifierText, CvaeConfig,
                     EncoderConfig, FORM_BY_SCHEMA, ModelBundle, N_LEVELS, UNDRAWN)


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""


# -- scalar contract: ground-truth probabilities and the explanation factor -----


def extract_gold_prob(prob_vector, true_label: int) -> float:
    """The probability a normalized distribution assigns to the true class."""
    probs = np.asarray(prob_vector, dtype=np.float64)
    if not 0 <= true_label < probs.shape[-1]:
        raise IndexError(f"label {true_label} out of range [0, {probs.shape[-1]})")
    return float(probs[true_label])


@dataclass
class ProbTriple:
    """Ground-truth probabilities under the predictor, the explanation
    classifier on generated explanations, and the classifier on golden
    explanations: floats for one example, or equal-length arrays for a
    batch (the functions below then apply elementwise)."""

    p_pred: float
    p_classified: float
    p_gold: float


def explanation_factor(triple: ProbTriple) -> float:
    """|p_classified - p_gold| + |p_classified - p_pred|, in [0, 2)."""
    return abs(triple.p_classified - triple.p_gold) + abs(triple.p_classified - triple.p_pred)


def mrt_loss(loss: float, factor: float) -> float:
    """Risk-weighted loss for one example."""
    return loss * factor


def final_loss(loss: float, risk_loss: float,
               weights: tuple[float, float] = (1.0, 1.0)) -> float:
    """Weighted sum of the plain loss and the risk-weighted loss: floats,
    or per-example Tensors."""
    return loss * weights[0] + risk_loss * weights[1]


# -- configuration ----------------------------------------------------------------


def _check_split(split: CorpusSplit) -> None:
    """Reject a split with no train or no dev example: training needs both."""
    for name, part in (("train", split.train), ("dev", split.dev)):
        if not part:
            raise ValueError(f"the {name} split is empty ({len(split.train)} train, "
                             f"{len(split.dev)} dev, {len(split.test)} test examples)")


def _check_schedule(lr: float, **counts: int) -> None:
    """Reject an lr that is not finite and > 0, or a count below 1."""
    if not 0 < lr < np.inf:  # a chained comparison is False for NaN, here and below
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    schema: str
    batch_size: int = 64
    lr: float = 1e-3
    epochs: int = 5
    seed: int = 0
    predictor_freeze_threshold: float | None = None
    loss_weights: tuple[float, float] = (1.0, 1.0)
    kl_anneal_frac: float = 0.2

    def __post_init__(self):
        if self.schema not in FORM_BY_SCHEMA:
            raise ValueError(f"unknown schema {self.schema!r}")
        _check_schedule(self.lr, batch_size=self.batch_size, epochs=self.epochs)
        threshold = self.predictor_freeze_threshold
        if threshold is not None and not 0 <= threshold < np.inf:
            raise ValueError("freeze threshold must be finite and >= 0")
        if not all(0 <= w < np.inf for w in self.loss_weights) or max(self.loss_weights) <= 0:
            raise ValueError("loss weights must be finite, nonnegative and not all zero")
        if not 0 <= self.kl_anneal_frac < np.inf:
            raise ValueError("kl_anneal_frac must be finite and >= 0")
        self.loss_weights = (float(self.loss_weights[0]), float(self.loss_weights[1]))

    @classmethod
    def for_schema(cls, schema: str, **overrides) -> "TrainConfig":
        defaults = {"batch_size": 32 if schema == "pcmag" else 64}
        defaults.update(overrides)
        return cls(schema=schema, **defaults)


@dataclass
class LossBreakdown:
    """Per-batch (or per-epoch) scalar means of every loss component."""

    l_p: float
    l_e: float
    ef: float
    l_mrt: float

    @property
    def l(self) -> float:
        return self.l_p + self.l_e

    @property
    def l_final(self) -> float:
        return self.l + self.l_mrt

    def log_record(self) -> dict:
        return {"L_p": self.l_p, "L_e": self.l_e, "L": self.l,
                "EF_mean": self.ef, "L_MRT": self.l_mrt, "L_final": self.l_final}


@dataclass
class TrainResult:
    epochs: list[dict] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)
    frozen_at_epoch: int | None = None


# -- classifier pre-training -------------------------------------------------------


def _classifier_logits(classifier, examples, form: str, vocab: Vocab | None) -> Tensor:
    if form == "numeric":
        scores = np.array([ex.subscores for ex in examples], dtype=np.int64)
        return classifier.logits_hard(scores)
    return classifier.logits_hard(*_golden_comments(vocab, examples))


def _golden_comments(vocab: Vocab, examples) -> tuple[np.ndarray, np.ndarray]:
    """Padded ids and lengths of the examples' comments, polarity-major: row
    k * B + i is example i's comment under POLARITIES[k]."""
    return pad_batch([vocab.encode(getattr(ex, pol)) for pol in POLARITIES for ex in examples])


def _in_batches(fn, examples, batch_size: int) -> list:
    """``fn`` applied without a tape to consecutive slices of ``examples``."""
    with ad.no_grad():
        return [fn(examples[start:start + batch_size])
                for start in range(0, len(examples), batch_size)]


def _classifier_probs(classifier, examples, form: str, vocab: Vocab | None,
                      batch_size: int = 256) -> np.ndarray:
    """The classifier's label distributions on golden explanations."""
    return np.concatenate(_in_batches(
        lambda exs: ad.softmax(_classifier_logits(classifier, exs, form, vocab)).data,
        examples, batch_size))


PRETRAIN_PATIENCE = 5  # epochs without a dev-accuracy gain before pretraining stops


def pretrain_classifier(split: CorpusSplit, schema: str, seed: int = 0,
                        vocab: Vocab | None = None, lr: float = 2e-3,
                        batch_size: int = 128, max_epochs: int = 40):
    """Train the explanation classifier on golden explanations, then freeze it.

    Stops once dev accuracy has not improved for ``PRETRAIN_PATIENCE``
    consecutive epochs, restores the best epoch's weights, and reports
    dev/test accuracy. Test accuracy on golden explanations is the oracle
    number a perfect generator could reach. The classifier keeps its
    constructor's default sizes.
    """
    _check_schedule(lr, batch_size=batch_size, max_epochs=max_epochs)
    _check_split(split)
    form = FORM_BY_SCHEMA[schema]
    rng = np.random.default_rng(seed)
    n_classes = N_CLASSES[schema]
    if form == "numeric":
        classifier = ClassifierNumeric(rng, n_classes)
    else:
        if vocab is None:
            raise ValueError("text classifier needs a vocabulary")
        classifier = ClassifierText(rng, len(vocab), n_classes)

    params = classifier.parameters()
    optimizer = Adam(params, lr=lr)
    labels = {name: np.array([ex.label for ex in part])
              for name, part in (("train", split.train), ("dev", split.dev))}

    best_acc = -1.0
    best_state = None
    bad_epochs = 0
    epochs_run = 0
    for epoch in range(max_epochs):
        epoch_rng = np.random.default_rng([seed, 11, epoch])
        order = epoch_rng.permutation(len(split.train))
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            batch = [split.train[i] for i in idx]
            logits = _classifier_logits(classifier, batch, form, vocab)
            loss = ad.cross_entropy(logits, labels["train"][idx]).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        epochs_run = epoch + 1
        acc = topk_accuracy(_classifier_probs(classifier, split.dev, form, vocab),
                            labels["dev"], 1)
        if acc > best_acc:
            best_acc = acc
            best_state = {k: t.data.copy() for k, t in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= PRETRAIN_PATIENCE:
                break
    if best_state is not None:
        for key, tensor in params.items():
            tensor.data[...] = best_state[key]
    classifier.freeze()

    report = {"dev_top1": best_acc, "epochs_trained": epochs_run}
    for name, part in (("dev", split.dev), ("test", split.test)):
        probs = _classifier_probs(classifier, part, form, vocab)
        part_labels = np.array([ex.label for ex in part])
        report[f"{name}_top1"] = topk_accuracy(probs, part_labels, 1)
        report[f"{name}_top3"] = topk_accuracy(probs, part_labels, 3)
    return classifier, report


# -- training ---------------------------------------------------------------------


def _gold_prob_cache(bundle: ModelBundle, classifier, examples) -> np.ndarray:
    """Classifier's true-class probability on golden explanations, cached
    once per run (the classifier is frozen, so the values never change)."""
    labels = np.array([ex.label for ex in examples])
    probs = _classifier_probs(classifier, examples, bundle.form, bundle.vocab)
    return probs[np.arange(len(examples)), labels]


def _dev_stats(bundle: ModelBundle, examples, batch_size: int = 256):
    labels = np.array([ex.label for ex in examples])

    def batch_stats(batch):
        logits = bundle.predictor.logits(bundle.encode_reviews(batch))
        lp = ad.cross_entropy(logits, np.array([ex.label for ex in batch]))
        return float(lp.data.sum()), ad.softmax(logits).data

    batch_lps, prob_rows = zip(*_in_batches(batch_stats, examples, batch_size))
    lp_sum = 0.0
    for batch_lp in batch_lps:  # in batch order: the freeze rule reads dev_lp
        lp_sum += batch_lp
    probs = np.concatenate(prob_rows)
    return (topk_accuracy(probs, labels, 1), topk_accuracy(probs, labels, 3),
            lp_sum / len(examples))


def train(bundle: ModelBundle, split: CorpusSplit, config: TrainConfig,
          classifier=None, mode: str = "gef", log_path=None,
          optimizer: Adam | None = None, start_epoch: int = 0) -> TrainResult:
    """Run the joint trainer in "gef" or "baseline" mode.

    Baseline mode forces loss weights (1, 0) and never touches the
    classifier; it is the same code path with the risk branch inert, so
    ablations compare identical arithmetic. Epoch RNG streams are derived
    from (seed, epoch), which makes checkpoint-resume bitwise exact.

    A predictor frozen (``requires_grad=False``) once train ``L_p`` falls
    under the freeze threshold stays frozen in later calls, as the classifier does.
    """
    if mode not in ("gef", "baseline"):
        raise ValueError(f"unknown mode {mode!r}")
    if config.schema != bundle.schema:
        raise ValueError("config schema does not match bundle schema")
    weights = config.loss_weights if mode == "gef" else (1.0, 0.0)
    use_factor = mode == "gef"
    if use_factor:
        if classifier is None:
            raise ValueError("gef mode requires a pre-trained classifier")
        if not classifier.frozen:
            raise ValueError("classifier must be frozen before gef training")
    _check_split(split)

    params = bundle.parameters()
    if optimizer is None:
        optimizer = Adam(params, lr=config.lr)
    result = TrainResult()
    train_labels = np.array([ex.label for ex in split.train])
    gold_cache = (_gold_prob_cache(bundle, classifier, split.train)
                  if use_factor else None)

    n_batches = (len(split.train) + config.batch_size - 1) // config.batch_size
    total_steps = max(1, config.epochs * n_batches)
    anneal_steps = max(1, int(config.kl_anneal_frac * total_steps))
    best_dev_lp = np.inf
    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None

    try:
        for epoch in range(start_epoch, config.epochs):
            epoch_rng = np.random.default_rng([config.seed, 23, epoch])
            order = epoch_rng.permutation(len(split.train))
            sums = {"l_p": 0.0, "l_e": 0.0, "ef": 0.0, "l_mrt": 0.0}
            seen = 0
            for start in range(0, len(order), config.batch_size):
                idx = order[start:start + config.batch_size]
                batch = [split.train[i] for i in idx]
                labels = train_labels[idx]
                beta = min(1.0, optimizer.step_count / anneal_steps)

                v_e = bundle.encode_reviews(batch)
                logits = bundle.predictor.logits(v_e)
                lp_vec = ad.cross_entropy(logits, labels)
                le_vec, score_logits = _generation_loss(bundle, v_e, batch, beta,
                                                        epoch_rng)
                loss_vec = lp_vec + le_vec

                if use_factor:
                    factor, mrt_vec = _risk_terms(
                        bundle, classifier, v_e, logits, score_logits, labels,
                        loss_vec, gold_cache[idx])
                    sums["ef"] += float(factor.sum())
                    sums["l_mrt"] += float(mrt_vec.data.sum())
                else:
                    mrt_vec = None

                if weights[1] == 0.0:
                    total = (loss_vec * weights[0]).mean()
                else:
                    total = final_loss(loss_vec, mrt_vec, weights).mean()

                optimizer.zero_grad()
                total.backward()
                optimizer.step()

                result.step_losses.append(float(total.data))
                sums["l_p"] += float(lp_vec.data.sum())
                sums["l_e"] += float(le_vec.data.sum())
                seen += len(batch)

            breakdown = LossBreakdown(
                l_p=sums["l_p"] / seen, l_e=sums["l_e"] / seen,
                ef=sums["ef"] / seen, l_mrt=sums["l_mrt"] / seen)
            dev_acc, dev_top3, dev_lp = _dev_stats(bundle, split.dev)
            record = {"epoch": epoch, **breakdown.log_record(),
                      "dev_acc": dev_acc, "dev_top3": dev_top3}
            result.epochs.append(record)
            if log_fh:
                log_fh.write(json.dumps(record, sort_keys=True) + "\n")
                log_fh.flush()

            if not bundle.predictor.frozen:
                best_dev_lp = min(best_dev_lp, dev_lp)
                threshold = config.predictor_freeze_threshold
                if threshold is None and bundle.form == "text":
                    # generation loss dwarfs classification loss for text, so
                    # the predictor stops once train L_p nears the dev optimum
                    threshold = 1.05 * best_dev_lp
                if threshold is not None and breakdown.l_p < threshold:
                    bundle.predictor.freeze()
                    result.frozen_at_epoch = epoch
    except ad.NonFiniteError as err:
        raise TrainingDiverged(str(err)) from err
    finally:
        if log_fh:
            log_fh.close()
    return result


def _generation_loss(bundle: ModelBundle, v_e: Tensor, batch, beta: float,
                     rng: np.random.Generator) -> tuple[Tensor, Tensor | None]:
    """Per-example explanation loss: five-head cross entropy, or the
    KL-annealed variational bound summed over the three comments.

    Also returns the (B, 5, N_LEVELS) score logits the numeric loss was
    built from, for :func:`_risk_terms`; None for text.
    """
    if bundle.form == "numeric":
        subs = np.array([ex.subscores for ex in batch], dtype=np.int64)
        logits = bundle.generator.logits(v_e)
        ce = ad.cross_entropy(logits.reshape(-1, N_LEVELS), subs.reshape(-1))
        return ce.reshape(subs.shape).sum(axis=1), logits
    v_rows, controls = _polarity_rows(v_e)
    recon, kl = bundle.generator.elbo_per_example(
        v_rows, controls, *_golden_comments(bundle.vocab, batch), rng)
    part = recon + ad.mul(kl, Tensor(beta))
    return part.reshape(len(POLARITIES), len(batch)).sum(axis=0), None


def _polarity_rows(v_e: Tensor) -> tuple[Tensor, np.ndarray]:
    """The review vectors repeated once per polarity, polarity-major, with
    each row's control id: row k * B + i is example i under POLARITIES[k]."""
    return (ad.concat([v_e] * len(POLARITIES), axis=0),
            np.repeat(np.arange(len(POLARITIES)), v_e.shape[0]))


def _decode_comments(bundle: ModelBundle, v_e: Tensor) -> list[list[list[int]]]:
    """Greedy comments for a batch, one list per polarity, from one decode
    call over the polarity-major stack."""
    decoded = bundle.generator.decode(*_polarity_rows(v_e))
    batch = v_e.shape[0]
    return [decoded[k * batch:(k + 1) * batch] for k in range(len(POLARITIES))]


def _risk_terms(bundle: ModelBundle, classifier, v_e: Tensor, logits: Tensor,
                score_logits: Tensor | None, labels: np.ndarray, loss_vec: Tensor,
                gold_probs: np.ndarray) -> tuple[np.ndarray, Tensor]:
    """Explanation factor and risk-weighted loss for one batch.

    Generated explanations are decoded hard and the frozen classifier reads
    them without recording a graph, so the factor is a constant
    per-example weight on the loss: gradients reach the model only
    through ``loss_vec``. Numeric scores are the argmax of
    ``score_logits``, the logits :func:`_generation_loss` returned.
    """
    rows = np.arange(len(labels))
    with ad.no_grad():
        p_pred = ad.softmax(logits).data[rows, labels]
        if bundle.form == "numeric":
            cls_logits = classifier.logits_hard(score_logits.argmax(axis=2))
        else:
            decoded = bundle.generator.decode(*_polarity_rows(v_e))
            cls_logits = classifier.logits_hard(*pad_batch(decoded))
        p_cls = ad.softmax(cls_logits).data[rows, labels]
    factor = explanation_factor(ProbTriple(p_pred, p_cls, gold_probs))
    return factor, mrt_loss(loss_vec, Tensor(factor))


# -- evaluation -------------------------------------------------------------------


def predict_probs(bundle: ModelBundle, examples, batch_size: int = 128) -> np.ndarray:
    """Predictor's label distributions for a list of examples."""
    return np.concatenate(_in_batches(
        lambda exs: bundle.predictor.probs(bundle.encode_reviews(exs)).data,
        examples, batch_size))


def predict_and_explain(bundle: ModelBundle, examples, batch_size: int = 128):
    """The predictor's label distributions and the generated explanations
    for a list of examples, both read from one encoding of each batch.

    Returns ``(probs, explanations)``. Numeric explanations are an (n, 5)
    int array of scores; text explanations a dict mapping polarity to
    decoded token-id lists; no examples give empty ones.
    """
    if not examples:
        # the encoders reject an empty batch, so no batch can give the types
        probs = np.empty((0, N_CLASSES[bundle.schema]))
        if bundle.form == "numeric":
            return probs, np.empty((0, len(SUBSCORE_FIELDS)), dtype=np.intp)
        return probs, {pol: [] for pol in POLARITIES}

    def batch_outputs(exs):
        v_e = bundle.encode_reviews(exs)
        probs = bundle.predictor.probs(v_e).data
        if bundle.form == "numeric":
            return probs, bundle.generator.scores(v_e)
        return probs, _decode_comments(bundle, v_e)

    probs, explained = zip(*_in_batches(batch_outputs, examples, batch_size))
    if bundle.form == "numeric":
        return np.concatenate(probs), np.concatenate(explained)
    return np.concatenate(probs), {
        pol: [ids for parts in explained for ids in parts[k]]
        for k, pol in enumerate(POLARITIES)}


def generate_explanations(bundle: ModelBundle, examples, rng=None,
                          batch_size: int = 128):
    """The explanations of ``predict_and_explain``.

    Decoding is greedy, so ``rng`` is unused; it stays because
    ``perfbench/workloads.py`` passes it.
    """
    return predict_and_explain(bundle, examples, batch_size)[1]


def evaluate(bundle: ModelBundle, examples, classifier=None, seed: int = 0,
             batch_size: int = 128) -> dict:
    """Accuracy (and BLEU or sub-field accuracy) report for one split.

    Every output is deterministic, so ``seed`` is unused; it stays because
    ``perfbench/workloads.py`` passes it.
    """
    if not examples:
        raise ValueError("cannot evaluate an empty split")
    labels = np.array([ex.label for ex in examples])
    probs, generated = predict_and_explain(bundle, examples, batch_size)
    report: dict = {
        "top1": topk_accuracy(probs, labels, 1),
        "top3": topk_accuracy(probs, labels, 3),
    }
    if bundle.form == "numeric":
        golden = np.array([ex.subscores for ex in examples])
        report["fields"] = {
            letter: 100.0 * float((generated[:, f] == golden[:, f]).mean())
            for f, letter in enumerate(SUBSCORE_LETTERS)
        }
    else:
        # each polarity's n-grams are counted once; the aggregate adds the
        # (integer-valued, so exact) counts of the three polarities
        counts = {pol: bleu_counts([bundle.vocab.decode(ids) for ids in generated[pol]],
                                   [getattr(ex, pol) for ex in examples])
                  for pol in POLARITIES}
        bleu = {pol: bleu_scores(c) for pol, c in counts.items()}
        bleu["aggregate"] = bleu_scores(sum(counts.values()))
        report["bleu"] = bleu
    if classifier is not None:
        oracle_probs = _classifier_probs(classifier, examples, bundle.form,
                                         bundle.vocab, batch_size)
        report["oracle"] = {
            "top1": topk_accuracy(oracle_probs, labels, 1),
            "top3": topk_accuracy(oracle_probs, labels, 3),
        }
    return report


# -- persistence ------------------------------------------------------------------


def save_bundle(path, bundle: ModelBundle, optimizer: Adam | None = None,
                extra_meta: dict | None = None) -> None:
    params = bundle.parameters()
    arrays = {f"model.{k}": t.data for k, t in params.items()}
    meta = bundle.meta()
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
        meta["optimizer"] = {"step_count": optimizer.step_count, "lr": optimizer.lr,
                             "beta1": optimizer.beta1, "beta2": optimizer.beta2,
                             "eps": optimizer.eps,
                             "frozen": sorted(k for k, t in params.items()
                                              if not t.requires_grad)}
    if extra_meta:
        meta.update(extra_meta)
    checkpoint.save(path, arrays, meta)


def load_bundle(path) -> tuple[ModelBundle, dict, dict]:
    """Rebuild a bundle from its checkpoint; returns (bundle, meta, arrays).

    The bundle's parameters are the loaded ``model.*`` arrays themselves;
    no weight is drawn only to be overwritten.
    """
    arrays, meta = checkpoint.load(path)
    if meta is None or meta.get("kind") != "bundle":
        raise checkpoint.CheckpointError(f"{path} is not a model bundle checkpoint")
    try:
        bundle = ModelBundle.from_meta(meta)
        bundle.load_arrays(arrays, prefix="model.")
    except (KeyError, TypeError, ValueError) as err:
        raise checkpoint.CheckpointError(f"{path}: bad bundle checkpoint: {err!r}") from err
    return bundle, meta, arrays


def resume_optimizer(bundle: ModelBundle, meta: dict, arrays: dict) -> Adam:
    """The optimizer saved with ``bundle``, its frozen parameters frozen
    again; a ``CheckpointError`` if that state is missing or unusable."""
    params = bundle.parameters()
    try:
        opt_meta = meta["optimizer"]
        optimizer = Adam(params, lr=opt_meta["lr"], beta1=opt_meta["beta1"],
                         beta2=opt_meta["beta2"], eps=opt_meta["eps"])
        optimizer.load_state_arrays(arrays, opt_meta["step_count"])
        frozen = [params[name] for name in opt_meta.get("frozen", ())]
    except (KeyError, TypeError, ValueError) as err:
        raise checkpoint.CheckpointError(f"bad optimizer state: {err!r}") from err
    for tensor in frozen:
        tensor.requires_grad = False
    return optimizer


def save_classifier(path, classifier, schema: str, vocab: Vocab | None = None,
                    report: dict | None = None) -> None:
    meta = {"kind": "classifier", "schema": schema, "form": FORM_BY_SCHEMA[schema]}
    if isinstance(classifier, ClassifierText):
        meta["vocab"] = vocab.itos
        meta["dims"] = {"emb_dim": classifier.embed.w.shape[1],
                        "hidden": classifier.rnn.fwd.n_hidden}
    else:
        meta["dims"] = {"emb_dim": classifier.emb_dim,
                        "hidden": classifier.hidden.w.shape[1]}
    if report:
        meta["report"] = report
    arrays = {k: t.data for k, t in classifier.parameters().items()}
    checkpoint.save(path, arrays, meta)


def load_classifier(path):
    """Load a frozen classifier; returns (classifier, vocab_or_None, meta)."""
    arrays, meta = checkpoint.load(path)
    if meta is None or meta.get("kind") != "classifier":
        raise checkpoint.CheckpointError(f"{path} is not a classifier checkpoint")
    vocab = None
    try:
        n_classes = N_CLASSES[meta["schema"]]
        dims = meta["dims"]
        if meta["form"] == "text":
            vocab = Vocab(itos=list(meta["vocab"]))
            # the checkpoint supplies every weight, so none is drawn
            classifier = ClassifierText(UNDRAWN, len(vocab), n_classes,
                                        emb_dim=dims["emb_dim"], hidden=dims["hidden"])
        else:
            classifier = ClassifierNumeric(UNDRAWN, n_classes, emb_dim=dims["emb_dim"],
                                           hidden=dims["hidden"])
        classifier.load_arrays(arrays)
    except (KeyError, TypeError, ValueError) as err:
        raise checkpoint.CheckpointError(f"{path}: bad classifier checkpoint: {err!r}") from err
    classifier.freeze()
    return classifier, vocab, meta
