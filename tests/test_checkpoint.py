import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gloss import checkpoint


def test_roundtrip_bit_exact(tmp_path, rng):
    arrays = {
        "encoder.w": rng.normal(size=(7, 3)),
        "encoder.b": rng.normal(size=3),
        "deep.nested.name": rng.normal(size=(2, 2, 2)),
        "tiny": np.array([np.pi]),
    }
    # denormals and signed zero must survive exactly
    arrays["edge"] = np.array([5e-324, -0.0, 1e308, -1e-300])
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, arrays, meta={"schema": "skytrax", "seed": 3})
    loaded, meta = checkpoint.load(path)
    assert meta == {"schema": "skytrax", "seed": 3}
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert loaded[name].shape == np.asarray(arrays[name]).shape
        assert np.array_equal(
            loaded[name].view(np.uint64), np.asarray(arrays[name]).view(np.uint64)
        ), name


def test_roundtrip_without_meta(tmp_path):
    path = tmp_path / "x.ckpt"
    checkpoint.save(path, {"a": np.zeros(4)})
    loaded, meta = checkpoint.load(path)
    assert meta is None
    np.testing.assert_array_equal(loaded["a"], np.zeros(4))


def test_header_is_text_with_offsets(tmp_path):
    path = tmp_path / "x.ckpt"
    checkpoint.save(path, {"a": np.zeros(2), "b": np.ones((2, 2))})
    raw = path.read_bytes()
    header = raw.split(b"\ndata\n")[0].decode("utf-8")
    lines = header.splitlines()
    assert lines[0] == "GLOSSCKPT 1"
    assert lines[1] == "tensor a 2 0"
    assert lines[2] == "tensor b 2,2 16"


def test_save_identical_bytes(tmp_path, rng):
    arrays = {"w": rng.normal(size=(4, 4))}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save(p1, arrays, meta={"k": 1})
    checkpoint.save(p2, arrays, meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT\ndata\n")
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ckpt"
    checkpoint.save(path, {"a": np.zeros(8)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(path)


def test_rejects_name_with_spaces(tmp_path):
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.save(tmp_path / "x.ckpt", {"bad name": np.zeros(1)})


def _write(path, header_lines, payload: bytes):
    path.write_bytes(("\n".join(header_lines) + "\ndata\n").encode("utf-8") + payload)


def _floats(*values) -> bytes:
    return np.array(values, dtype="<f8").tobytes()


def test_well_formed_hand_written_file_loads(tmp_path):
    path = tmp_path / "ok.ckpt"
    _write(path, ["GLOSSCKPT 1", 'meta {"k":1}', "tensor a 2 0", "tensor b 1 16"],
           _floats(1.0, 2.0, 3.0))
    arrays, meta = checkpoint.load(path)
    assert meta == {"k": 1}
    np.testing.assert_array_equal(arrays["a"], [1.0, 2.0])
    np.testing.assert_array_equal(arrays["b"], [3.0])


def test_rejects_duplicate_tensor_name(tmp_path):
    path = tmp_path / "dup.ckpt"
    _write(path, ["GLOSSCKPT 1", "tensor a 1 0", "tensor a 1 8"], _floats(1.0, 2.0))
    with pytest.raises(checkpoint.CheckpointError, match="duplicate tensor a"):
        checkpoint.load(path)


def test_rejects_second_meta_line(tmp_path):
    path = tmp_path / "meta.ckpt"
    _write(path, ["GLOSSCKPT 1", 'meta {"k":1}', 'meta {"k":2}', "tensor a 1 0"],
           _floats(1.0))
    with pytest.raises(checkpoint.CheckpointError, match="second meta line"):
        checkpoint.load(path)


@pytest.mark.parametrize("dims, match", [
    ("4294967296,4294967296", "payload truncated"),  # 2**64 elements, 0 in int64
    ("4294967296,4294967296,0", "bad shape"),  # empty, but too large for numpy
])
def test_rejects_shape_whose_size_overflows(tmp_path, dims, match):
    path = tmp_path / "huge.ckpt"
    _write(path, ["GLOSSCKPT 1", f"tensor a {dims} 0"], b"")
    with pytest.raises(checkpoint.CheckpointError, match=match):
        checkpoint.load(path)


def test_rejects_meta_nested_too_deeply_to_parse(tmp_path):
    path = tmp_path / "deep.ckpt"
    _write(path, ["GLOSSCKPT 1", "meta " + "[" * 100_000, "tensor a 1 0"], _floats(1.0))
    with pytest.raises(checkpoint.CheckpointError, match="bad meta line"):
        checkpoint.load(path)


@pytest.mark.parametrize("offset", ["-16", "0", "16"])
def test_rejects_offset_other_than_running_size(tmp_path, offset):
    # the second tensor must start at byte 8; -16 would read the bytes of 2.0
    path = tmp_path / "offset.ckpt"
    _write(path, ["GLOSSCKPT 1", "tensor a 1 0", f"tensor b 1 {offset}"],
           _floats(1.0, 2.0, 3.0))
    with pytest.raises(checkpoint.CheckpointError, match=f"offset {offset} for b, expected 8"):
        checkpoint.load(path)


def test_rejects_trailing_payload_bytes(tmp_path):
    path = tmp_path / "trail.ckpt"
    checkpoint.save(path, {"a": np.zeros(2)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(checkpoint.CheckpointError, match="1 trailing payload bytes"):
        checkpoint.load(path)


def test_failed_save_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, {"a": np.zeros(4)}, meta={"k": 1})
    before = path.read_bytes()

    class DiskFull:
        """A file that accepts a few bytes, then fails the way a full disk does."""

        def __init__(self, name, mode):
            self.fh = open(name, mode)

        def write(self, data):
            self.fh.write(bytes(data[:5]))
            raise OSError(28, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(checkpoint, "open", DiskFull, raising=False)
    with pytest.raises(OSError):
        checkpoint.save(path, {"a": np.ones(4)}, meta={"k": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_failed_rename_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, {"a": np.zeros(4)})
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(checkpoint.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        checkpoint.save(path, {"a": np.ones(4)})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_save_replaces_existing_file(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint.save(path, {"a": np.zeros(4)})
    checkpoint.save(path, {"a": np.ones(2)})
    np.testing.assert_array_equal(checkpoint.load(path)[0]["a"], np.ones(2))
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


# pieces a corrupted header is likely to be made of
HEADER_TOKENS = [b"GLOSSCKPT 1\n", b"meta ", b"tensor ", b"data\n", b"\n", b" ", b",",
                 b"0", b"8", b"-1", b"4294967296,4294967296", b"99999999999999999999",
                 b"{}", b"[]", b"{\"a\": 1}", b"[" * 5000, b"\xff", b"\x00" * 8]


@st.composite
def checkpoint_bytes(draw):
    """Arbitrary bytes, or a valid checkpoint with a few of its fields
    replaced, deleted or duplicated."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    fields = [b"GLOSSCKPT 1", b"\n", b"meta ", b'{"k":1}', b"\n",
              b"tensor ", b"a", b" ", b"2,3", b" ", b"0", b"\n",
              b"tensor ", b"b", b" ", b"1", b" ", b"48", b"\n", b"data\n",
              np.arange(7, dtype="<f8").tobytes()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(fields) - 1))
        edit = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if edit == "replace":
            fields[i] = draw(st.one_of(st.sampled_from(HEADER_TOKENS), st.binary(max_size=8)))
        elif edit == "delete":
            del fields[i]
        else:
            fields.insert(i, fields[i])
        if not fields:
            break
    return b"".join(fields)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=checkpoint_bytes())
def test_load_any_bytes_returns_or_raises_checkpoint_error(tmp_path, blob):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        checkpoint.load(path)
    except checkpoint.CheckpointError:
        pass
