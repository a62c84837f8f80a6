"""Checkpoint container: text header plus little-endian float64 payload.

Layout, in one file:

    GLOSSCKPT 1\n
    meta <compact json>\n            (optional, single line)
    tensor <name> <d0,d1,...> <byte offset>\n   (one line per array)
    data\n
    <raw bytes: little-endian float64, in header order>

Offsets are relative to the first payload byte, and each tensor starts
where the one before it ends. Round-trips are bit exact: arrays are
written with ``tobytes()`` and read back with ``frombuffer`` on the same
dtype. ``save`` writes a temporary file beside the target and renames it
into place, so an existing checkpoint is never left half overwritten.
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
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load(path) -> tuple[dict[str, np.ndarray], dict | None]:
    """Read a checkpoint, returning (arrays, meta).

    Raises :class:`CheckpointError` unless the header is well formed, every
    name and the meta line appear once, and the tensors tile the payload
    exactly, in header order.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header_end = _find_data_line(blob)
    try:
        header = blob[:header_end].decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise CheckpointError(f"{path}: header is not UTF-8") from err
    payload = blob[header_end + len(b"data\n"):]
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
                shape = tuple(int(d) for d in dims.split(","))
                offset = int(offset)
            except ValueError as err:
                raise CheckpointError(f"{path}: bad tensor line {line!r}") from err
            if name in arrays:
                raise CheckpointError(f"{path}: duplicate tensor {name}")
            if min(shape) < 0:
                raise CheckpointError(f"{path}: negative dimension for {name}")
            if offset != size:
                raise CheckpointError(f"{path}: offset {offset} for {name}, expected {size}")
            size += 8 * math.prod(shape)  # exact: np.prod would wrap at 2**63
            if size > len(payload):
                raise CheckpointError(f"{path}: payload truncated for {name}")
            try:
                arrays[name] = np.frombuffer(payload[offset:size], dtype="<f8").reshape(shape).copy()
            except ValueError as err:  # an empty shape with dimensions numpy cannot hold
                raise CheckpointError(f"{path}: bad shape for {name}") from err
        else:
            raise CheckpointError(f"{path}: unrecognized header line {line!r}")
    if size != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - size} trailing payload bytes")
    return arrays, meta


def _find_data_line(blob: bytes) -> int:
    marker = b"\ndata\n"
    idx = blob.find(marker)
    if idx < 0:
        if blob.startswith(b"data\n"):
            return 0
        raise CheckpointError("no data marker found")
    return idx + 1
