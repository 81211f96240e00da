"""Binary snapshot files.

Layout (all integers little-endian):

    magic  "HGTN" (4 bytes)
    u32    format version (currently 1)
    u64    metadata byte length, then that many UTF-8 bytes holding the
           flat ``key = value`` text
    table  named parameter arrays
    table  named optimizer-moment arrays

Each table is a u64 entry count followed by, per entry: u64 name length,
the UTF-8 name, u8 rank, rank x u64 extents, then the raw little-endian
float64 payload.  Writes go to a temp file and are renamed into place, so
a crash never leaves a partial checkpoint at the target path.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError
from .kvtext import parse_kv, render_kv

MAGIC = b"HGTN"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    metadata: dict[str, str]
    params: dict[str, np.ndarray]
    moments: dict[str, np.ndarray]


def _pack_table(arrays: dict[str, np.ndarray]) -> bytes:
    chunks = [struct.pack("<Q", len(arrays))]
    for name, arr in arrays.items():
        # note: ascontiguousarray would promote rank-0 arrays to rank 1
        arr = np.asarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<Q", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.tobytes())
    return b"".join(chunks)


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated checkpoint "
                                  f"(needed {n} bytes at offset {self.pos})")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def text(self, what: str) -> str:
        raw = self.take(self.u64())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8 ({exc})") from None


def _unpack_table(r: _Reader) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    count = r.u64()
    for _ in range(count):
        name = r.text("entry name")
        if name in out:
            raise CheckpointError(f"{r.path}: duplicate entry {name!r}")
        rank = r.u8()
        shape = tuple(r.u64() for _ in range(rank))
        # Python ints: a product of u64 extents can overflow int64
        size = math.prod(shape)
        payload = r.take(size * 8)
        try:
            data = np.frombuffer(payload, dtype="<f8").reshape(shape)
        except ValueError as exc:  # an extent numpy cannot index, beside a zero one
            raise CheckpointError(f"{r.path}: entry {name!r} has invalid extents "
                                  f"{shape} ({exc})") from None
        out[name] = data.astype(np.float64)
    return out


def atomic_write(path, write_fn) -> None:
    """Run ``write_fn(tmp_path)`` on a fresh file beside ``path``, then rename
    it over ``path``; on any failure the temp file is removed and ``path``
    is left as it was."""
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(os.fspath(path)) or ".")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path, metadata: dict[str, str], params: dict[str, np.ndarray],
                    moments: dict[str, np.ndarray]) -> None:
    meta_bytes = render_kv(metadata).encode("utf-8")
    blob = b"".join([
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<Q", len(meta_bytes)),
        meta_bytes,
        _pack_table(params),
        _pack_table(moments),
    ])
    atomic_write(path, lambda tmp: Path(tmp).write_bytes(blob))


def load_checkpoint(path) -> Checkpoint:
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint ({exc})") from exc
    r = _Reader(buf, path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version} "
                              f"(expected {FORMAT_VERSION})")
    try:
        metadata = parse_kv(r.text("metadata"), source=path)
    except ConfigError as exc:
        raise CheckpointError(f"malformed metadata: {exc}") from None
    params = _unpack_table(r)
    moments = _unpack_table(r)
    if r.pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - r.pos} trailing bytes after payload")
    return Checkpoint(metadata=metadata, params=params, moments=moments)
