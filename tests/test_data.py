import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gloss import data
from gloss.data import (CorpusError, PCMagExample, SkytraxExample, Vocab,
                        build_vocab, example_from_record, example_to_record,
                        filter_and_split, load_jsonl, pad_batch, pcmag_class,
                        sentence_count, tokenize)

FIXTURES = Path(__file__).parent / "data"


class TestTokenizer:
    def test_punctuation_split(self):
        assert tokenize("Good contrast.") == ["good", "contrast", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_numbers_kept_whole(self):
        assert tokenize("rated 4.5 of 5") == ["rated", "4.5", "of", "5"]

    def test_golden_fixture(self):
        golden = json.loads((FIXTURES / "tokenizer_golden.json").read_text())
        assert len(golden) == 20
        for item in golden:
            assert tokenize(item["text"]) == item["tokens"]

    def test_sentence_count(self):
        assert sentence_count(tokenize("One. Two! Three?")) == 3
        assert sentence_count(["no", "enders"]) == 1


class TestClassMaps:
    def test_pcmag_grid(self):
        grid = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
        assert [pcmag_class(v) for v in grid] == list(range(9))

    def test_pcmag_example_mapping(self):
        record = {"review": "fine.", "pos": "a", "neg": "b", "neu": "c",
                  "overall": 4.0}
        assert example_from_record(record, "pcmag").label == 6

    def test_pcmag_off_grid_rejected(self):
        with pytest.raises(CorpusError):
            pcmag_class(4.2)

    @pytest.mark.parametrize("overall", [float("inf"), float("-inf"), float("nan")])
    def test_pcmag_non_finite_rejected(self, overall):
        with pytest.raises(CorpusError):
            pcmag_class(overall)

    def test_skytrax_label(self):
        ex = SkytraxExample(review=["ok"], subscores=(1, 2, 3, 4, 5), overall=7)
        assert ex.label == 6


class TestRecords:
    def test_skytrax_roundtrip(self):
        record = {"review": "the seat was good .", "seat": 4, "cabin": 3,
                  "food": 2, "inflight": 1, "value": 5, "overall": 6}
        ex = example_from_record(record, "skytrax")
        assert ex.subscores == (4, 3, 2, 1, 5)
        assert example_to_record(ex, "skytrax") == record

    def test_skytrax_score_range(self):
        record = {"review": "x", "seat": 6, "cabin": 0, "food": 0,
                  "inflight": 0, "value": 0, "overall": 5}
        with pytest.raises(CorpusError):
            example_from_record(record, "skytrax")

    def test_missing_field(self):
        with pytest.raises(CorpusError, match="pos"):
            example_from_record({"review": "x", "overall": 3.0}, "pcmag")

    @pytest.mark.parametrize("value", [None, ["x"], 3, {"a": "b"}, True])
    @pytest.mark.parametrize("schema, key", [("pcmag", "review"), ("pcmag", "pos"),
                                             ("pcmag", "neg"), ("pcmag", "neu"),
                                             ("skytrax", "review")])
    def test_non_string_text_field(self, schema, key, value):
        record = {"review": "fine.", "pos": "a", "neg": "b", "neu": "c", "overall": 3,
                  "seat": 1, "cabin": 1, "food": 1, "inflight": 1, "value": 1}
        record[key] = value
        with pytest.raises(CorpusError) as info:
            example_from_record(record, schema)
        assert str(info.value) == f"{key} must be a string, got {value!r}"

    def test_text_is_tokenized_on_first_read(self):
        ex = example_from_record({"review": "Fine. OK", "pos": "a", "neg": "b c",
                                  "neu": "", "overall": 3.0}, "pcmag")
        assert data._raw_text(ex, "review") == "Fine. OK"
        tokens = ex.review
        assert tokens == ["fine", ".", "ok"] and vars(ex)["review"] is tokens
        assert data._raw_text(ex, "review") is None and ex.review is tokens
        assert ex == PCMagExample(review=["fine", ".", "ok"], pos=["a"], neg=["b", "c"],
                                  neu=[], overall=3.0)
        assert not any(name.startswith(data._RAW) for name in vars(ex))
        with pytest.raises(AttributeError):
            ex.nonexistent

    def test_extra_keys_ignored(self):
        record = {"review": "fine.", "pos": "a", "neg": "b", "neu": "c",
                  "overall": 3.0, "pred_overall": 2.5}
        assert example_from_record(record, "pcmag").overall == 3.0


class TestLoadJsonl:
    def test_fixture_with_bad_lines(self, tmp_path):
        good = {"review": "nice seat .", "seat": 3, "cabin": 3, "food": 3,
                "inflight": 3, "value": 3, "overall": 6}
        lines = []
        for i in range(12):
            if i == 4:
                lines.append("{not json")
            elif i == 9:
                bad = dict(good, overall=11)
                lines.append(json.dumps(bad))
            else:
                lines.append(json.dumps(good))
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")
        examples, diagnostics = load_jsonl(path, "skytrax")
        assert len(examples) == 10
        assert len(diagnostics) == 2
        assert diagnostics[0].startswith("line 5:")
        assert diagnostics[1].startswith("line 10:")

    def test_pcmag_line(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps({"review": "solid.", "pos": "good.",
                                    "neg": "bad.", "neu": "meh.",
                                    "overall": 4.0}) + "\n")
        examples, diagnostics = load_jsonl(path, "pcmag")
        assert not diagnostics
        assert examples[0].label == 6

    def test_off_grid_rejected(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps({"review": "x.", "pos": "a", "neg": "b",
                                    "neu": "c", "overall": 4.2}) + "\n")
        examples, diagnostics = load_jsonl(path, "pcmag")
        assert not examples and len(diagnostics) == 1

    def test_non_finite_overall_is_a_line_diagnostic(self, tmp_path):
        record = {"review": "x.", "pos": "a", "neg": "b", "neu": "c"}
        path = tmp_path / "three.jsonl"
        path.write_text("".join(json.dumps(dict(record, overall=v)) + "\n"
                                for v in (float("inf"), float("nan"), 4.0)))
        examples, diagnostics = load_jsonl(path, "pcmag")
        assert [ex.overall for ex in examples] == [4.0]
        assert [d.split(":")[0] for d in diagnostics] == ["line 1", "line 2"]

    def test_unparseable_lines_are_line_diagnostics(self, tmp_path):
        # a huge integer overall, an integer literal past Python's digit
        # limit, and nesting too deep for the JSON parser
        good = '{"review": "x.", "pos": "a", "neg": "b", "neu": "c", "overall": 4.0}'
        lines = [good.replace("4.0", "1" + "0" * 400), '{"review": ' + "1" * 5000 + "}",
                 "[" * 100_000, good]
        path = tmp_path / "four.jsonl"
        path.write_text("\n".join(lines) + "\n")
        examples, diagnostics = load_jsonl(path, "pcmag")
        assert [ex.overall for ex in examples] == [4.0]
        assert [d.split(":")[0] for d in diagnostics] == ["line 1", "line 2", "line 3"]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        record = {"review": "fine .", "pos": "a", "neg": "b", "neu": "c", "overall": 4.0}
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + (json.dumps(record) + "\n").encode() * 2)
        examples, diagnostics = load_jsonl(path, "pcmag")
        assert diagnostics == [] and len(examples) == 2
        assert examples[0].review == ["fine", "."]

    def test_non_string_text_field_is_a_line_diagnostic(self, tmp_path):
        record = {"review": None, "pos": "a", "neg": "b", "neu": "c", "overall": 4.0}
        path = tmp_path / "null.jsonl"
        path.write_text(json.dumps(record) + "\n"
                        + json.dumps(dict(record, review="ok", neg=["x"])) + "\n")
        examples, diagnostics = load_jsonl(path, "pcmag")
        assert examples == []
        assert diagnostics == ["line 1: review must be a string, got None",
                               "line 2: neg must be a string, got ['x']"]

    def test_invalid_utf8_is_a_line_diagnostic(self, tmp_path):
        good = json.dumps({"review": "caf\u00e9 .", "seat": 3, "cabin": 3, "food": 3,
                           "inflight": 3, "value": 3, "overall": 6},
                          ensure_ascii=False).encode("utf-8")
        bad = good.replace("\u00e9".encode("utf-8"), b"\xe9")
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(b"\n".join([good, bad, good]) + b"\n")
        examples, diagnostics = load_jsonl(path, "skytrax")
        assert len(examples) == 2 and "\u00e9" in examples[0].review
        assert diagnostics == ["line 2: not valid UTF-8"]


def _skytrax(n_tokens: int) -> SkytraxExample:
    return SkytraxExample(review=["tok"] * n_tokens, subscores=(1, 1, 1, 1, 1),
                          overall=2)


def _pcmag(comment_tokens: int = 3, sentences: int = 2) -> PCMagExample:
    return PCMagExample(review=["word", "."] * sentences,
                        pos=["p"] * comment_tokens, neg=["n"], neu=["u"],
                        overall=3.0)


class TestFilterAndSplit:
    def test_skytrax_review_cap(self):
        assert data.passes_filter(_skytrax(300), "skytrax")
        assert not data.passes_filter(_skytrax(301), "skytrax")

    def test_pcmag_comment_cap(self):
        assert data.passes_filter(_pcmag(comment_tokens=75), "pcmag")
        assert not data.passes_filter(_pcmag(comment_tokens=76), "pcmag")

    def test_pcmag_sentence_cap(self):
        assert data.passes_filter(_pcmag(sentences=70), "pcmag")
        assert not data.passes_filter(_pcmag(sentences=71), "pcmag")

    def test_split_sizes(self):
        examples = [_skytrax(5) for _ in range(100)]
        split = filter_and_split(examples, "skytrax", seed=7)
        assert (len(split.train), len(split.dev), len(split.test)) == (80, 10, 10)

    def test_split_reproducible_and_disjoint(self):
        examples = [_skytrax(i % 20 + 1) for i in range(50)]
        a = filter_and_split(examples, "skytrax", seed=3)
        b = filter_and_split(examples, "skytrax", seed=3)
        parts_a, parts_b = (a.train, a.dev, a.test), (b.train, b.dev, b.test)
        for part_a, part_b in zip(parts_a, parts_b):
            assert [id(x) for x in part_a] == [id(x) for x in part_b]
        ids = [id(x) for part in parts_a for x in part]
        assert len(ids) == len(set(ids)) == 50

    def test_different_seed_same_sizes(self):
        examples = [_skytrax(5) for _ in range(103)]
        a = filter_and_split(examples, "skytrax", seed=1)
        b = filter_and_split(examples, "skytrax", seed=2)
        assert ((len(a.train), len(a.dev), len(a.test))
                == (len(b.train), len(b.dev), len(b.test)))
        assert [id(x) for x in a.train] != [id(x) for x in b.train]

    def test_empty_after_filter(self):
        with pytest.raises(CorpusError):
            filter_and_split([_skytrax(400)], "skytrax", seed=0)


class TestVocab:
    def test_reserved_ids(self):
        vocab = Vocab.build([["hello", "world", "hello"]], min_freq=1)
        assert vocab.itos[:4] == ["<pad>", "<unk>", "<bos>", "<eos>"]
        assert (data.PAD, data.UNK, data.BOS, data.EOS) == (0, 1, 2, 3)

    def test_min_freq(self):
        vocab = Vocab.build([["a", "a", "b"]], min_freq=2)
        assert "a" in vocab.stoi and "b" not in vocab.stoi

    def test_oov_maps_to_unk(self):
        vocab = Vocab.build([["a", "a"]], min_freq=2)
        assert vocab.encode(["a", "zzz"]) == [vocab.stoi["a"], data.UNK]

    def test_decode_encode_identity_for_invocab(self):
        vocab = Vocab.build([["x", "x", "y", "y"]], min_freq=1)
        tokens = ["x", "y", "x"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_roundtrip_ids(self, ids):
        vocab = Vocab.build([["a", "a", "b", "b"]], min_freq=1)
        ids = [i % len(vocab) for i in ids]
        assert vocab.encode(vocab.decode(ids)) == ids

    def test_build_vocab_covers_comments(self):
        ex = _pcmag()
        vocab = build_vocab([ex, ex], "pcmag", min_freq=2)
        assert "p" in vocab.stoi and "word" in vocab.stoi


def test_pad_batch():
    ids, lengths = pad_batch([[5, 6], [7]])
    np.testing.assert_array_equal(ids, [[5, 6], [7, 0]])
    assert lengths.dtype == np.int64 and lengths.tolist() == [2, 1]
    ids, lengths = pad_batch([[]])
    assert ids.shape == (1, 1) and lengths.tolist() == [0]
    ids, lengths = pad_batch([])
    assert ids.shape == (0, 1) and lengths.shape == (0,) and lengths.dtype == np.int64


FIELD_NAMES = ["review", "pos", "neg", "neu", "overall", "seat", "cabin", "food",
               "inflight", "value"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=8)


@st.composite
def jsonl_bytes(draw):
    """Arbitrary bytes, or lines of records over the corpus field names with
    arbitrary JSON values, some cut short or with raw bytes spliced in."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        record = draw(st.dictionaries(st.sampled_from(FIELD_NAMES), json_values))
        line = json.dumps(record).encode("utf-8")
        cut = draw(st.integers(0, len(line)))
        splice = draw(st.sampled_from([b"", b"\xff", b"\r", b"1" * 5000, b"[" * 5000]))
        lines.append(line[:cut] + splice + line[cut:] if draw(st.booleans()) else line)
    return b"\n".join(lines)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=jsonl_bytes(), schema=st.sampled_from(["pcmag", "skytrax"]))
def test_load_jsonl_any_bytes_gives_examples_and_diagnostics(tmp_path, blob, schema):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(blob)
    examples, diagnostics = load_jsonl(path, schema)
    assert all(isinstance(line, str) for line in diagnostics)


# -- lazy loading against an eager reference ----------------------------------


def eager_example(record: dict, schema: str):
    """``example_from_record`` with every text field tokenized at once, for
    records whose numeric fields are valid."""
    def text(key):
        if key not in record:
            raise CorpusError(f"missing field {key!r}")
        if not isinstance(record[key], str):
            raise CorpusError(f"{key} must be a string, got {record[key]!r}")
        return tokenize(record[key])

    review = text("review")
    if not review:
        raise CorpusError("empty review")
    if schema == "pcmag":
        return PCMagExample(review=review, pos=text("pos"), neg=text("neg"),
                            neu=text("neu"), overall=float(record["overall"]))
    return SkytraxExample(review=review, overall=record["overall"],
                          subscores=tuple(record[name] for name in data.SUBSCORE_FIELDS))


def eager_passes_filter(example, schema: str) -> bool:
    if schema == "pcmag":
        return (sentence_count(example.review) <= data.PCMAG_MAX_SENTENCES
                and all(len(c) <= data.PCMAG_MAX_COMMENT_TOKENS for c in example.comments()))
    return len(example.review) <= data.SKYTRAX_MAX_REVIEW_TOKENS


# Texts on both sides of every bound that ``passes_filter`` reads from raw
# text: the token caps (300 review tokens, 75 comment tokens) and the
# 70-sentence cap, reached by long words, lone punctuation, 'İ' (two tokens
# from one character), and '3.5' (a '.' that ends no sentence).
BOUNDARY_TEXTS = [
    " ".join(["longword"] * 300), " ".join(["longword"] * 301),
    "." * 300, "." * 301, "İ" * 150, "İ" * 151,
    "a. " * 70, "a. " * 71, "!" * 70, "?" * 71, "3.5 " * 80, "3.5. " * 71,
    "x " * 75, "x " * 76, "," * 75, "," * 76, "İ" * 37, "İ" * 38,
    "", " ", "  \t\n ", "...", "!?", "'",
]
PIECES = ["word", " ", "İ", "3.5", ".", "!", "?", "don't", "\t", "É", ",", "x", "9"]
texts = st.one_of(
    st.sampled_from(BOUNDARY_TEXTS),
    st.tuples(st.sampled_from(BOUNDARY_TEXTS),
              st.lists(st.sampled_from(PIECES), max_size=4)).map(lambda t: t[0] + "".join(t[1])),
    st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
    st.text(max_size=20))
text_values = st.one_of(texts, texts, texts, st.none(), st.lists(st.just("x"), max_size=1))


@pytest.mark.parametrize("text", BOUNDARY_TEXTS, ids=range(len(BOUNDARY_TEXTS)))
@pytest.mark.parametrize("schema, key", [("pcmag", "review"), ("pcmag", "neg"),
                                         ("skytrax", "review")])
def test_filter_bounds_match_eager_reference(schema, key, text):
    record = {"review": "fine.", "pos": "a", "neg": "b", "neu": "c", "overall": 3,
              "seat": 1, "cabin": 1, "food": 1, "inflight": 1, "value": 1, key: text}
    try:
        eager = eager_example(record, schema)
    except CorpusError:
        with pytest.raises(CorpusError, match="empty review"):
            example_from_record(record, schema)
        return
    lazy = example_from_record(record, schema)
    assert data.passes_filter(lazy, schema) == eager_passes_filter(eager, schema)
    assert lazy == eager


@st.composite
def corpus_records(draw, schema):
    records = []
    for _ in range(draw(st.integers(1, 8))):
        names = ["review"] + (list(data.POLARITIES) if schema == "pcmag" else [])
        record = {name: draw(text_values) for name in names
                  if draw(st.integers(0, 15))}  # now and then a field is missing
        if schema == "pcmag":
            record["overall"] = draw(st.sampled_from([1.0, 2.5, 4, 5.0]))
        else:
            record.update((name, draw(st.integers(0, 5))) for name in data.SUBSCORE_FIELDS)
            record["overall"] = draw(st.integers(1, 10))
        records.append(record)
    return records


def split_positions(examples: list, schema: str) -> list[list[int]]:
    """Where in ``examples`` each member of the train, dev and test split sits."""
    split = filter_and_split(examples, schema, seed=5)
    where = {id(ex): i for i, ex in enumerate(examples)}
    return [[where[id(ex)] for ex in part] for part in (split.train, split.dev, split.test)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow, HealthCheck.data_too_large])
@given(drawn=st.data(), schema=st.sampled_from(["pcmag", "skytrax"]))
def test_lazy_loader_matches_eager_reference(tmp_path, drawn, schema):
    records = drawn.draw(corpus_records(schema))
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    eager, eager_diagnostics = [], []
    for line_no, record in enumerate(records, start=1):
        try:
            eager.append(eager_example(record, schema))
        except CorpusError as err:
            eager_diagnostics.append(f"line {line_no}: {err}")

    lazy, diagnostics = load_jsonl(path, schema)
    assert diagnostics == eager_diagnostics
    keep = [eager_passes_filter(ex, schema) for ex in eager]
    assert [data.passes_filter(ex, schema) for ex in lazy] == keep
    if any(keep):
        fresh, _ = load_jsonl(path, schema)
        assert split_positions(fresh, schema) == split_positions(eager, schema)
    assert lazy == eager
    assert not any(name.startswith(data._RAW) for ex in lazy for name in vars(ex))
