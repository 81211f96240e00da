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
target path.  A load reads the payload straight into its arrays, so it
holds about one copy of the arrays, not the file and a copy.
"""

from __future__ import annotations

import io
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
_CHUNK = 1 << 20  # bytes per read when a load checks the CRC of a whole file


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
    bytes, raises ``CheckpointError``.

    The payload is read straight into the arrays under a running CRC-32, so
    a load holds the arrays and the header text, not the file as well.  The
    checks and their messages come in the order of a check of the whole
    file: magic, version, CRC, header, extents, then an array numpy cannot
    shape.  So a file whose header does not declare its payload is read
    again, in chunks, for its CRC before the header's fault is named, and
    no array is returned before the trailer has matched every byte."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            # a pipe cannot be read twice, nor measured before it is read
            return _read(fh if fh.seekable() else io.BytesIO(fh.read()), path)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint ({exc})") from None


def _read(fh, path: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    head = fh.read(_HEAD)
    if head[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version = int.from_bytes(head[4:8], "little")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: checkpoint format version {version} is not supported "
                              f"(only {FORMAT_VERSION} is); retrain to write a version "
                              f"{FORMAT_VERSION} file")
    crc_error = CheckpointError(f"{path}: CRC-32 mismatch, the file is truncated or corrupt")
    if size < _HEAD + 4:
        raise crc_error
    end = _HEAD + int.from_bytes(head[8:], "little")
    text = fh.read(min(end, size) - _HEAD)
    try:
        header = parse_kv(text.decode("utf-8"), source=path)
        shapes = {k[len(ARRAY):]: get_ints(header, k) for k in header if k.startswith(ARRAY)}
    except (UnicodeDecodeError, ConfigError) as exc:
        fault = f"malformed header ({exc})"
    else:
        # Python ints: a product of extents can overflow int64
        sizes = [math.prod(shape) for shape in shapes.values()]
        fault = None
        if any(min(shape) < 0 for shape in shapes.values()) or \
                end + 8 * sum(sizes) + 4 != size:
            fault = f"the header's array extents do not match the file's {size} bytes"
    if fault is not None:
        if not _crc_holds(fh, size):
            raise crc_error
        raise CheckpointError(f"{path}: {fault}")

    # the header ends before the trailer, and the arrays fill the bytes between
    crc = zlib.crc32(text, zlib.crc32(head))
    arrays, unshaped = {}, None
    for (name, shape), count in zip(shapes.items(), sizes):
        flat = np.empty(count, "<f8")
        if fh.readinto(flat) != flat.nbytes:  # the file shrank under the read
            raise crc_error
        crc = zlib.crc32(flat, crc)
        try:
            arrays[name] = flat.reshape(shape).astype(np.float64, copy=False)
        except ValueError as exc:  # an extent numpy cannot index, beside a zero one
            if unshaped is None:
                unshaped = CheckpointError(f"{path}: array {name!r} has invalid extents "
                                           f"{shape} ({exc})")
    if crc != int.from_bytes(fh.read(4), "little"):
        raise crc_error
    if unshaped is not None:
        raise unshaped
    return {k: v for k, v in header.items() if not k.startswith(ARRAY)}, arrays


def _crc_holds(fh, size: int) -> bool:
    """Whether the CRC-32 trailer of the ``size``-byte file ``fh`` matches
    every byte before it, read again in chunks of ``_CHUNK`` bytes."""
    fh.seek(0)
    crc, left = 0, size - 4
    while left:
        chunk = fh.read(min(left, _CHUNK))
        if not chunk:
            return False
        crc = zlib.crc32(chunk, crc)
        left -= len(chunk)
    return crc == int.from_bytes(fh.read(4), "little")
