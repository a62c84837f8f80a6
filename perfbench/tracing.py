"""Span tracing around the public functions of each gloss layer.

The tracer patches the layer boundaries from outside the program: it swaps
each public function or method named in ``TARGETS`` for a wrapper while
installed, and puts the originals back afterwards. A wrapped call becomes a
span (name, start, end, parent, trace id). Calls too frequent for a span of
their own (every autodiff op, ``Vocab.encode``) are counted and timed as
leaves of the innermost open span instead. Spans stay in memory until
``write`` saves them as JSON lines.

A span's self time is its duration minus its child spans and its leaves; a
layer's self time is the sum over spans whose name starts with the layer.
"""
from __future__ import annotations

import contextlib
import json
import os
from collections import defaultdict
from time import perf_counter

from gloss import autodiff, checkpoint, cli, data, framework, models


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _first_arg(args, kwargs, result):
    return int(args[0])


def _decoded_tokens(args, kwargs, result):
    return sum(len(ids) for ids in result)


# (owner, attribute, span name, count extractor or None). Functions imported
# by name into another module are patched where the caller looks them up.
TARGETS = [
    (autodiff.Tensor, "backward", "autodiff.backward", None),
    (autodiff.Adam, "step", "autodiff.adam", None),
    (checkpoint, "save", "checkpoint.save", _file_bytes),
    (checkpoint, "load", "checkpoint.load", _file_bytes),
    (cli, "main", "cli.main", None),
    (cli, "load_jsonl", "data.load_jsonl", None),
    (data, "load_jsonl", "data.load_jsonl", None),
    (cli, "write_jsonl", "data.write_jsonl", None),
    (cli, "filter_and_split", "data.filter_and_split", None),
    (cli, "build_vocab", "data.build_vocab", None),
    (models, "pad_batch", "data.pad_batch", None),
    (framework, "pad_batch", "data.pad_batch", None),
    (cli, "synth_numeric", "synth.numeric", _first_arg),
    (cli, "synth_text", "synth.text", _first_arg),
    (models.ModelBundle, "encode_reviews", "models.encoder", None),
    (models.Predictor, "logits", "models.predictor", None),
    (models.NumericGenerator, "logits", "models.generator", None),
    (models.TextCvae, "elbo_per_example", "models.generator", None),
    (models.TextCvae, "decode", "models.decode", _decoded_tokens),
    (models.ClassifierNumeric, "logits_hard", "models.classifier", None),
    (models.ClassifierText, "logits_hard", "models.classifier", None),
    (framework, "train", "framework.train", None),
    (framework, "evaluate", "framework.evaluate", None),
    (framework, "predict_probs", "framework.predict_probs", None),
    (framework, "generate_explanations", "framework.generate_explanations", None),
    (framework, "pretrain_classifier", "framework.pretrain_classifier", None),
    (framework, "save_bundle", "framework.save_bundle", None),
    (framework, "load_bundle", "framework.load_bundle", None),
    (framework, "save_classifier", "framework.save_classifier", None),
    (framework, "load_classifier", "framework.load_classifier", None),
    (framework, "corpus_bleu", "metrics.bleu", None),
    (framework, "topk_accuracy", "metrics.topk", None),
]

_NOT_OPS = {"Tensor", "ShapeError", "NonFiniteError", "no_grad", "set_nan_checks",
            "nan_checks_enabled", "Adam"}

# Leaves: every public autodiff op function, the Tensor methods that record
# an op, and vocabulary encoding.
LEAVES = ([(autodiff, name, f"autodiff.{name}") for name in autodiff.__all__
           if name not in _NOT_OPS]
          + [(autodiff.Tensor, name, f"autodiff.{name}")
             for name in ("sum", "mean", "max", "reshape")]
          + [(data.Vocab, "encode", "data.vocab_encode")])


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end", "count",
                 "child_s", "leaves")

    def __init__(self, sid, parent, trace, name):
        self.id = sid
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = perf_counter()
        self.end = None
        self.count = None
        self.child_s = 0.0
        self.leaves = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - sum(s for _, s in self.leaves.values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._leaf_depth = 0
        self._saved = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str, trace=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None,
                    parent.trace if parent else trace, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    def _span_wrapper(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.count = counter(args, kwargs, result)
                return result
            finally:
                self._close(span)
        return wrapper

    def _leaf_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            leaves = self._stack[-1].leaves
            if self._leaf_depth:
                # an op called inside another op: counted, its time is the outer op's
                n, s = leaves.get(name, (0, 0.0))
                leaves[name] = (n + 1, s)
                return fn(*args, **kwargs)
            self._leaf_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._leaf_depth -= 1
                n, s = leaves.get(name, (0, 0.0))
                leaves[name] = (n + 1, s + elapsed)
        return wrapper

    @contextlib.contextmanager
    def installed(self, root: str, trace):
        """Patch every layer boundary and open a root span for ``trace``."""
        for owner, attr, name, counter in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span_wrapper(original, name, counter))
        for owner, attr, name in LEAVES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._leaf_wrapper(original, name))
        span = self._open(root, trace)
        try:
            yield span
        finally:
            self._close(span)
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    # -- reading ----------------------------------------------------------

    def select(self, keep) -> "SpanSet":
        return SpanSet([s for s in self.spans if keep(s.trace)])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "trace": s.trace, "name": s.name,
                    "start_ms": 1e3 * s.start, "end_ms": 1e3 * s.end,
                    "self_ms": 1e3 * s.self_s, "count": s.count,
                    "leaves": {k: [n, 1e3 * t] for k, (n, t) in s.leaves.items()},
                }) + "\n")


class SpanSet:
    """Totals over a subset of spans (for example, the measured rounds)."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_s = defaultdict(float)   # layer -> self seconds
        self.leaf_n = defaultdict(int)     # layer -> leaf calls
        for s in spans:
            self.self_s[s.name.split(".")[0]] += s.self_s
            for leaf, (n, t) in s.leaves.items():
                layer = leaf.split(".")[0]
                self.self_s[layer] += t
                self.leaf_n[layer] += n

    def named(self, *names) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def total_s(self, *names) -> float:
        return sum(s.duration for s in self.named(*names))

    def calls(self, *names) -> int:
        return len(self.named(*names))

    def mean_s(self, *names) -> float:
        spans = self.named(*names)
        return sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def count(self, *names) -> int:
        return sum(s.count or 0 for s in self.named(*names))

    def leaf_s(self, *leaf_names) -> float:
        return sum(s.leaves[n][1] for s in self.spans for n in leaf_names if n in s.leaves)
