"""``load_checkpoint`` reads the payload straight into its arrays: it
refuses every file, with the same message, that a check of the whole file
in memory refuses, and it holds about one copy of the payload."""

import math
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgtnet.checkpoint import ARRAY, FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from hgtnet.errors import CheckpointError, ConfigError
from hgtnet.kvtext import get_ints, parse_kv


def whole_file_load(path):
    """The reader that holds the whole file and copies each array out of
    it, with the checks in the order the format defines: magic, version,
    CRC, header, extents, then an array numpy cannot shape."""
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
    if len(buf) < 20 or zlib.crc32(memoryview(buf)[:-4]) != int.from_bytes(buf[-4:], "little"):
        raise CheckpointError(f"{path}: CRC-32 mismatch, the file is truncated or corrupt")
    end = 16 + int.from_bytes(buf[8:16], "little")
    try:
        header = parse_kv(buf[16:end].decode("utf-8"), source=path)
        shapes = {k[len(ARRAY):]: get_ints(header, k) for k in header if k.startswith(ARRAY)}
    except (UnicodeDecodeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from None
    sizes = [math.prod(shape) for shape in shapes.values()]
    if any(min(shape) < 0 for shape in shapes.values()) or \
            end + 8 * sum(sizes) + 4 != len(buf):
        raise CheckpointError(f"{path}: the header's array extents do not match the "
                              f"file's {len(buf)} bytes")
    arrays = {}
    for (name, shape), size in zip(shapes.items(), sizes):
        try:
            arrays[name] = np.frombuffer(buf, "<f8", size, end).reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise CheckpointError(f"{path}: array {name!r} has invalid extents "
                                  f"{shape} ({exc})") from None
        end += 8 * size
    return {k: v for k, v in header.items() if not k.startswith(ARRAY)}, arrays


def _outcome(load, path):
    """What ``load`` makes of the file: its metadata and the arrays' names,
    shapes and bytes, or the type and message of what it raised."""
    try:
        metadata, arrays = load(path)
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
        return type(exc), str(exc)
    return metadata, [(n, a.shape, a.dtype, a.tobytes()) for n, a in arrays.items()]


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _valid_file(tmp_path) -> bytes:
    path = tmp_path / "valid.ckpt"
    save_checkpoint(path, {"trainer.epoch": "3", "data.class_names": "a,b"},
                    {"w": np.arange(6.0).reshape(2, 3), "b": np.array([-0.0, np.inf]),
                     "empty": np.zeros((0, 4))})
    return path.read_bytes()


_FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestSameRefusalsAsAWholeFileCheck:
    def _same(self, tmp_path, blob):
        path = tmp_path / "probe.ckpt"
        path.write_bytes(blob)
        assert _outcome(load_checkpoint, path) == _outcome(whole_file_load, path)

    def test_valid_file(self, tmp_path):
        self._same(tmp_path, _valid_file(tmp_path))

    def test_every_bit_flip_and_truncation(self, tmp_path):
        blob = _valid_file(tmp_path)
        for i in range(len(blob)):
            self._same(tmp_path, blob[:i])
            for bit in range(8):
                self._same(tmp_path, blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1:])

    # each with a correct CRC, so the later checks decide
    @pytest.mark.parametrize("header,payload", [
        (b"array.x = 2\n", b""),                     # extents past the file
        (b"array.x = 0,18446744073709551616\n", b""),  # an extent numpy cannot shape
        (b"array.x = 1\narray.y = 0,99999999999999999999\n", bytes(8)),
        (b"array.x = -1\n", b""),
        (b"\xff\xfe = 1\n", b""),                    # not UTF-8
        (b"array.x = 1,a\n", bytes(8)),
        (b"", bytes(5)),                             # a payload no header declares
    ])
    def test_headers_that_do_not_declare_the_payload(self, tmp_path, header, payload):
        body = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header + payload
        self._same(tmp_path, _with_crc(body))
        self._same(tmp_path, body + b"\0\0\0\0")     # and with a wrong CRC

    @pytest.mark.parametrize("length", [0, 3, 10 ** 6, 2 ** 64 - 1])
    def test_header_lengths_past_the_file(self, tmp_path, length):
        body = MAGIC + struct.pack("<IQ", FORMAT_VERSION, length) + b"array.x = 1\n"
        self._same(tmp_path, _with_crc(body))

    @_FUZZ
    @given(data=st.data())
    def test_byte_mutations_with_a_correct_crc(self, tmp_path, data):
        body = bytearray(_valid_file(tmp_path)[:-4])
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            pos = data.draw(st.integers(0, len(body) - 1), label="pos")
            body[pos] = data.draw(st.integers(0, 255), label="byte")
        self._same(tmp_path, _with_crc(bytes(body)))

    @_FUZZ
    @given(blob=st.binary(max_size=96))
    def test_arbitrary_bytes_after_the_magic(self, tmp_path, blob):
        self._same(tmp_path, _with_crc(MAGIC + struct.pack("<I", FORMAT_VERSION) + blob))


def test_traced_peak_of_a_load_is_the_payload_plus_1_mib(tmp_path):
    # three arrays of 4 MiB, as a model's weights and Adam's two moments;
    # reading the whole file first held the file and a copy of the arrays
    rng = np.random.default_rng(7)
    arrays = {name: rng.normal(size=(512, 1024)) for name in ("w", "m.w", "v.w")}
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, {"trainer.epoch": "1"}, arrays)
    payload = sum(a.nbytes for a in arrays.values())
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc already traces this session")
    tracemalloc.start()
    try:
        _, loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(loaded[n].tobytes() == a.tobytes() for n, a in arrays.items())
    assert peak <= payload + (1 << 20), f"{peak / 2**20:.2f} MiB for {payload / 2**20} MiB"


def test_a_checkpoint_read_from_a_pipe_loads(tmp_path):
    # a pipe can be neither measured nor read again, so it is read whole
    blob = _valid_file(tmp_path)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, blob)  # well under a pipe's buffer
        os.close(write_end)
        got = _outcome(load_checkpoint, f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert got == _outcome(whole_file_load, tmp_path / "valid.ckpt")
    assert got[1][0][0] == "w"
