"""Binary snapshot files.

Layout (all integers little-endian):

    magic  "HGTN" (4 bytes)
    u32    format version (currently 2)
    u64    header byte length, then that many UTF-8 bytes of flat
           ``key = value`` text: the metadata, then one
           ``array.<name> = d0,d1,...`` line per array, in payload order
    f64    the arrays' values, each in C order, back to back
    u32    CRC-32 (``zlib.crc32``) of every byte before it

A file of any other version is refused.  Writes go to a temp file and are
renamed into place, so a crash never leaves a partial checkpoint at the
target path.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import CheckpointError, ConfigError
from .kvtext import get_ints, parse_kv, render_kv

MAGIC = b"HGTN"
FORMAT_VERSION = 2
ARRAY = "array."  # the header key prefix of an array's extents
_HEAD = 16        # magic, version and header length


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


def save_checkpoint(path, metadata: dict[str, str], arrays: dict[str, np.ndarray]) -> None:
    """Write the metadata and the arrays, each of rank >= 1, as float64;
    no metadata key may start with ``array.``."""
    if any(k.startswith(ARRAY) for k in metadata) or any(np.ndim(a) == 0 for a in arrays.values()):
        raise ValueError("a checkpoint holds arrays of rank >= 1 and metadata keys "
                         f"that do not start with {ARRAY!r}")
    arrays = {n: np.ascontiguousarray(a, dtype="<f8") for n, a in arrays.items()}
    header = render_kv({**metadata, **{ARRAY + n: ",".join(map(str, a.shape))
                                       for n, a in arrays.items()}}).encode("utf-8")
    parts = [MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header,
             *arrays.values()]

    def write(tmp):
        crc = 0
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
                crc = zlib.crc32(part, crc)
            fh.write(struct.pack("<I", crc))

    atomic_write(path, write)


def load_checkpoint(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """``(metadata, arrays)``: the arrays are writable float64 copies that
    share no memory.  Any file this module would not write, whatever its
    bytes, raises ``CheckpointError``."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint ({exc})") from None
    if buf[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version = int.from_bytes(buf[4:8], "little")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: checkpoint format version {version} is not supported "
                              f"(only {FORMAT_VERSION} is); retrain to write a version "
                              f"{FORMAT_VERSION} file")
    if len(buf) < _HEAD + 4 or \
            zlib.crc32(memoryview(buf)[:-4]) != int.from_bytes(buf[-4:], "little"):
        raise CheckpointError(f"{path}: CRC-32 mismatch, the file is truncated or corrupt")
    end = _HEAD + int.from_bytes(buf[8:_HEAD], "little")
    try:
        header = parse_kv(buf[_HEAD:end].decode("utf-8"), source=path)
        shapes = {k[len(ARRAY):]: get_ints(header, k) for k in header if k.startswith(ARRAY)}
    except (UnicodeDecodeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from None
    # Python ints: a product of extents can overflow int64
    sizes = [math.prod(shape) for shape in shapes.values()]
    if any(min(shape) < 0 for shape in shapes.values()) or \
            end + 8 * sum(sizes) + 4 != len(buf):
        raise CheckpointError(f"{path}: the header's array extents do not match the "
                              f"file's {len(buf)} bytes")
    arrays = {}
    for (name, shape), size in zip(shapes.items(), sizes):
        try:
            arrays[name] = np.frombuffer(buf, "<f8", size, end).reshape(shape).astype(np.float64)
        except ValueError as exc:  # an extent numpy cannot index, beside a zero one
            raise CheckpointError(f"{path}: array {name!r} has invalid extents "
                                  f"{shape} ({exc})") from None
        end += 8 * size
    return {k: v for k, v in header.items() if not k.startswith(ARRAY)}, arrays
