"""Checkpoint container: text header plus little-endian float64 payload.

Layout, in one file:

    GLOSSCKPT 1\n
    meta <compact json>\n            (optional, single line)
    tensor <name> <d0,d1,...> <byte offset>\n   (one line per array)
    data\n
    <raw bytes: little-endian float64, in header order>

Dimensions and offsets are plain ASCII decimal numbers. Offsets are
relative to the first payload byte, and each tensor starts where the one
before it ends. Round-trips are bit exact: arrays are written with
``tobytes()`` and read back into arrays of the same dtype. ``save``
writes a temporary file beside the target and renames it into place, so an
existing checkpoint is never left half overwritten.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

MAGIC = "GLOSSCKPT 1"


class CheckpointError(ValueError):
    """Malformed checkpoint file or invalid save request."""


def save(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named float arrays (and optional JSON metadata) to ``path``."""
    lines = [MAGIC]
    if meta is not None:
        lines.append("meta " + json.dumps(meta, separators=(",", ":"), sort_keys=True))
    payload = bytearray()
    for name, arr in arrays.items():
        if any(ch.isspace() for ch in name) or not name:
            raise CheckpointError(f"invalid tensor name {name!r}")
        arr = np.ascontiguousarray(arr, dtype="<f8")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        dims = ",".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dims} {len(payload)}")
        payload.extend(arr.tobytes())
    lines.append("data")
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".",
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException as err:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(err, OSError):
            # name the target: the temporary file is not the caller's
            raise type(err)(f"cannot write {path}: {err.strerror or err}") from err
        raise


def load(path) -> tuple[dict[str, np.ndarray], dict | None]:
    """Read a checkpoint, returning (arrays, meta).

    Raises :class:`CheckpointError` unless the header is well formed, every
    name and the meta line appear once, and the tensors tile the payload
    exactly, in header order. The header is read line by line and each
    tensor straight from the file into its own array, so the payload is
    copied once.
    """
    with open(path, "rb") as fh:
        try:
            header = _read_header(fh).decode("utf-8").splitlines()
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{path}: header is not UTF-8") from err
        payload_size = os.fstat(fh.fileno()).st_size - fh.tell()
        if not header or header[0] != MAGIC:
            raise CheckpointError(f"{path}: bad magic line")
        meta = None
        arrays: dict[str, np.ndarray] = {}
        size = 0  # payload bytes claimed so far
        for line in header[1:]:
            if line.startswith("meta "):
                if meta is not None:
                    raise CheckpointError(f"{path}: second meta line")
                try:
                    meta = json.loads(line[len("meta "):])
                except (ValueError, RecursionError) as err:  # RecursionError: deep nesting
                    raise CheckpointError(f"{path}: bad meta line") from err
                if not isinstance(meta, dict):
                    raise CheckpointError(f"{path}: meta is not a JSON object")
            elif line.startswith("tensor "):
                try:
                    _, name, dims, offset = line.split(" ")
                    shape = tuple(_natural(d) for d in dims.split(","))
                except ValueError as err:
                    raise CheckpointError(f"{path}: bad tensor line {line!r}") from err
                if name in arrays:
                    raise CheckpointError(f"{path}: duplicate tensor {name}")
                if offset != str(size):  # the running size in plain decimal, as save writes it
                    raise CheckpointError(f"{path}: offset {offset} for {name}, expected {size}")
                size += 8 * math.prod(shape)  # exact: np.prod would wrap at 2**63
                if size > payload_size:
                    raise CheckpointError(f"{path}: payload truncated for {name}")
                try:
                    arrays[name] = np.empty(shape, dtype="<f8")
                except ValueError as err:  # an empty shape with dimensions numpy cannot hold
                    raise CheckpointError(f"{path}: bad shape for {name}") from err
            else:
                raise CheckpointError(f"{path}: unrecognized header line {line!r}")
        if size != payload_size:
            raise CheckpointError(f"{path}: {payload_size - size} trailing payload bytes")
        # the tensors tile the payload in header order, so they are read in turn
        for name, arr in arrays.items():
            if fh.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"{path}: payload truncated for {name}")
    return arrays, meta


def _natural(text: str) -> int:
    """``text`` as a plain decimal number; ``int()`` alone would also take a
    sign, underscores, surrounding spaces and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a plain decimal number: {text!r}")
    return int(text)


def _read_header(fh) -> bytes:
    """The header's bytes, up to the ``data`` line, which is read past."""
    lines = []
    for line in fh:
        if line == b"data\n":
            return b"".join(lines)
        lines.append(line)
    raise CheckpointError("no data marker found")
