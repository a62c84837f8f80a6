"""Dataset schemas, tokenization, vocabulary, JSONL ingestion, and splits.

Two corpus schemas are supported:

* ``pcmag``: product reviews with three short comments (positive,
  negative, neutral) as the fine-grained explanation and an overall
  score on the half-point grid 1.0 .. 5.0 (9 classes).
* ``skytrax``: flight reviews with five sub-field scores (seat, cabin
  staff, food, in-flight environment, ticket value), each 0..5, as the
  explanation and an integer overall score 1..10 (10 classes).

Score-to-class maps are fixed: pcmag class = round(2 * overall) - 2,
skytrax class = overall - 1.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

N_CLASSES = {"pcmag": 9, "skytrax": 10}
POLARITIES = ("pos", "neg", "neu")
SUBSCORE_FIELDS = ("seat", "cabin", "food", "inflight", "value")
SUBSCORE_LETTERS = ("s", "c", "f", "i", "t")

PCMAG_MAX_SENTENCES = 70
PCMAG_MAX_COMMENT_TOKENS = 75
SKYTRAX_MAX_REVIEW_TOKENS = 300

_SENTENCE_ENDERS = {".", "!", "?"}


class CorpusError(ValueError):
    """Raised for invalid records, schemas, or empty corpora."""


# -- tokenization --------------------------------------------------------------

# Deterministic rule tokenizer standing in for a full NLP tokenizer:
# lowercase, keep decimal numbers whole, split punctuation off words. The
# alternatives start with disjoint character classes, so their order picks
# no token; words, the commonest, come first.
_TOKEN_RE = re.compile(r"[a-z]+(?:'[a-z]+)*|\d+(?:\.\d+)?|[^\sa-z0-9]")


def tokenize(text: str) -> list[str]:
    """Lowercased tokens with punctuation split from words."""
    return _TOKEN_RE.findall(text.lower())


def sentence_count(tokens: list[str]) -> int:
    """Sentence count as the number of terminal punctuation tokens, min 1."""
    return max(1, sum(1 for t in tokens if t in _SENTENCE_ENDERS))


# -- examples ------------------------------------------------------------------

_RAW = "_raw_"  # prefix of the instance attribute holding a field's raw text


class _TextField:
    """A text field that an example built by ``_from_text`` holds as its raw
    string until it is first read.

    That read tokenizes the string, drops it and stores the tokens as an
    instance attribute. Later reads find that attribute before this non-data
    descriptor and never call it.
    """

    def __init__(self, name: str):
        self.name = name

    def __get__(self, example, owner=None):
        if example is None:
            return self
        try:
            text = vars(example).pop(_RAW + self.name)
        except KeyError:
            raise AttributeError(self.name) from None
        tokens = vars(example)[self.name] = tokenize(text)
        return tokens


def _text_fields(*names):
    """Class decorator: the dataclass fields ``names`` become ``_TextField``s."""
    def decorate(cls):
        for name in names:
            setattr(cls, name, _TextField(name))
        return cls
    return decorate


def _from_text(cls, texts: dict, **fields):
    """An example of ``cls`` holding ``texts`` as raw strings, so a corpus
    can be filtered and split without tokenizing what is then thrown away."""
    example = object.__new__(cls)
    vars(example).update({_RAW + name: text for name, text in texts.items()}, **fields)
    return example


def _raw_text(example, name: str):
    """The raw text of ``example``'s field ``name``, or None once it is tokens."""
    return vars(example).get(_RAW + name)


@_text_fields("review", *POLARITIES)
@dataclass
class PCMagExample:
    """A review with three polarity comments and a half-point overall score."""

    review: list[str]
    pos: list[str]
    neg: list[str]
    neu: list[str]
    overall: float

    @property
    def label(self) -> int:
        return pcmag_class(self.overall)

    def comments(self) -> tuple[list[str], list[str], list[str]]:
        return (self.pos, self.neg, self.neu)


@_text_fields("review")
@dataclass
class SkytraxExample:
    """A review with five integer sub-field scores and an integer overall."""

    review: list[str]
    subscores: tuple[int, int, int, int, int]
    overall: int

    @property
    def label(self) -> int:
        return self.overall - 1


def pcmag_class(overall: float) -> int:
    doubled = overall * 2.0
    # range first: round() fails on NaN and Inf
    if not 1.0 <= overall <= 5.0 or abs(doubled - round(doubled)) > 1e-9:
        raise CorpusError(f"overall {overall} not on the half-point grid 1.0..5.0")
    return int(round(doubled)) - 2


def _require(record: dict, key: str):
    if key not in record:
        raise CorpusError(f"missing field {key!r}")
    return record[key]


def _text(record: dict, key: str) -> str:
    value = _require(record, key)
    if not isinstance(value, str):
        raise CorpusError(f"{key} must be a string, got {value!r}")
    return value


def _review(record: dict) -> str:
    review = _text(record, "review")
    # exactly when tokenize(review) == []
    if _TOKEN_RE.search(review.lower()) is None:
        raise CorpusError("empty review")
    return review


def example_from_record(record: dict, schema: str):
    """Validate one JSONL record and build the schema's example type.

    The text fields stay raw strings until first read (see ``_TextField``).
    """
    if schema == "pcmag":
        review = _review(record)
        overall = _require(record, "overall")
        if not isinstance(overall, (int, float)) or isinstance(overall, bool):
            raise CorpusError(f"overall must be a number, got {overall!r}")
        texts = {"review": review} | {pol: _text(record, pol) for pol in POLARITIES}
        ex = _from_text(PCMagExample, texts, overall=float(overall))
        ex.label  # validates the grid
        return ex
    if schema == "skytrax":
        review = _review(record)
        scores = []
        for name in SUBSCORE_FIELDS:
            value = _require(record, name)
            if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 5:
                raise CorpusError(f"{name} must be an integer in 0..5, got {value!r}")
            scores.append(value)
        overall = _require(record, "overall")
        if not isinstance(overall, int) or isinstance(overall, bool) or not 1 <= overall <= 10:
            raise CorpusError(f"overall must be an integer in 1..10, got {overall!r}")
        return _from_text(SkytraxExample, {"review": review}, subscores=tuple(scores),
                          overall=overall)
    raise CorpusError(f"unknown schema {schema!r}")


def example_to_record(example, schema: str) -> dict:
    """Inverse of :func:`example_from_record` for already-tokenized text."""
    if schema == "pcmag":
        return {
            "review": " ".join(example.review),
            "pos": " ".join(example.pos),
            "neg": " ".join(example.neg),
            "neu": " ".join(example.neu),
            "overall": example.overall,
        }
    if schema == "skytrax":
        record = {"review": " ".join(example.review)}
        for name, score in zip(SUBSCORE_FIELDS, example.subscores):
            record[name] = int(score)
        record["overall"] = int(example.overall)
        return record
    raise CorpusError(f"unknown schema {schema!r}")


def load_jsonl(path, schema: str) -> tuple[list, list[str]]:
    """Read one-record-per-line JSON; invalid lines become diagnostics.

    Returns (examples, diagnostics). Unknown extra keys are ignored so
    enriched dumps (e.g. explanation output) re-parse cleanly.
    """
    examples = []
    diagnostics = []
    # undecodable bytes become lone surrogates, which valid UTF-8 never yields;
    # utf-8-sig drops a byte order mark at the start of the file
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                diagnostics.append(f"line {line_no}: not valid UTF-8")
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise CorpusError("line is not a JSON object")
                examples.append(example_from_record(record, schema))
            except (ValueError, OverflowError, RecursionError) as err:  # huge or deep JSON too
                diagnostics.append(f"line {line_no}: {err}")
    return examples, diagnostics


def write_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(", ", ": ")) + "\n")


# -- filtering and splitting ---------------------------------------------------


def passes_filter(example, schema: str) -> bool:
    """The schema's length filter.

    A field still held as raw text is tokenized only when a bound taken from
    the text does not settle the question:
    - a field has at most ``len(text.lower())`` tokens, as every token is at
      least one character of the lowered text (``'İ'.lower()`` has two);
    - a review has at most as many sentence-ender tokens as it has ``.``,
      ``!`` and ``?`` characters.
    """
    if schema == "pcmag":
        return (_at_most_sentences(example, PCMAG_MAX_SENTENCES)
                and all(_at_most_tokens(example, pol, PCMAG_MAX_COMMENT_TOKENS)
                        for pol in POLARITIES))
    if schema == "skytrax":
        return _at_most_tokens(example, "review", SKYTRAX_MAX_REVIEW_TOKENS)
    raise CorpusError(f"unknown schema {schema!r}")


def _at_most_sentences(example, cap: int) -> bool:
    text = _raw_text(example, "review")
    if text is not None and sum(map(text.count, _SENTENCE_ENDERS)) <= cap:
        return True
    return sentence_count(example.review) <= cap


def _at_most_tokens(example, name: str, cap: int) -> bool:
    text = _raw_text(example, name)
    if text is not None and len(text.lower()) <= cap:
        return True
    return len(getattr(example, name)) <= cap


@dataclass
class CorpusSplit:
    train: list
    dev: list
    test: list


def filter_and_split(examples: list, schema: str, seed: int) -> CorpusSplit:
    """Apply the schema's length filter, then a seeded 80/10/10 shuffle-split."""
    kept = [ex for ex in examples if passes_filter(ex, schema)]
    if not kept:
        raise CorpusError("corpus is empty after filtering")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(kept))
    n = len(kept)
    n_train = int(n * 0.8)
    n_dev = int(n * 0.1)
    train = [kept[i] for i in order[:n_train]]
    dev = [kept[i] for i in order[n_train:n_train + n_dev]]
    test = [kept[i] for i in order[n_train + n_dev:]]
    return CorpusSplit(train=train, dev=dev, test=test)


# -- vocabulary ---------------------------------------------------------------

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>")


@dataclass
class Vocab:
    """Token/id bijection with reserved PAD/UNK/BOS/EOS slots."""

    itos: list[str]
    stoi: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.stoi:
            self.stoi = {tok: i for i, tok in enumerate(self.itos)}

    def __len__(self) -> int:
        return len(self.itos)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.stoi.get(t, UNK) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.itos[i] for i in ids]

    @classmethod
    def build(cls, token_lists, min_freq: int = 2) -> "Vocab":
        counts = Counter()
        for tokens in token_lists:
            counts.update(tokens)
        itos = list(RESERVED)
        for token, freq in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            if freq >= min_freq and token not in RESERVED:
                itos.append(token)
        return cls(itos=itos)


def corpus_token_lists(examples: list, schema: str):
    """All token sequences of a corpus (reviews plus text explanations)."""
    for ex in examples:
        yield ex.review
        if schema == "pcmag":
            yield from ex.comments()


def build_vocab(examples: list, schema: str, min_freq: int = 2) -> Vocab:
    return Vocab.build(corpus_token_lists(examples, schema), min_freq=min_freq)


def pad_batch(sequences: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id lists with PAD to a dense (batch, T) int array, and give
    each list's length as int64; T is at least 1, so a batch of empty
    sequences still has one padded step."""
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    ids = np.full((len(sequences), max(1, lengths.max(initial=0))), PAD, dtype=np.int64)
    for i, seq in enumerate(sequences):
        ids[i, :len(seq)] = seq
    return ids, lengths
