"""Binary snapshot format: round trips, corruption detection, atomicity."""

import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgtnet.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from hgtnet.errors import CheckpointError


def _sample_payload():
    rng = np.random.default_rng(42)
    metadata = {
        "model.embed_dim": "128",
        "train.learning_rate": "0.0001",
        "data.class_names": "colon_aca,colon_n,lung_aca,lung_n,lung_scc",
        "note": "value with = sign and spaces",
    }
    arrays = {
        "vec": rng.normal(size=7),
        "mat": rng.normal(size=(4, 5)),
        "conv.weight": rng.normal(size=(2, 3, 3, 3)),
        "m.vec": rng.normal(size=7),
        "v.vec": np.abs(rng.normal(size=7)),
    }
    return metadata, arrays


def with_crc(body: bytes) -> bytes:
    """``body`` followed by its CRC-32 trailer, as the writer appends it."""
    return body + struct.pack("<I", zlib.crc32(body))


def _body(header: bytes, payload: bytes = b"") -> bytes:
    """A file's bytes before its trailer, around a header's text."""
    return MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header + payload


def recrc(path, edit) -> None:
    """Rewrite the file at ``path`` as ``edit`` of its bytes before the
    trailer, with a correct trailer again."""
    path.write_bytes(with_crc(edit(path.read_bytes()[:-4])))


class TestRoundTrip:
    def test_everything_survives_bitwise(self, tmp_path):
        metadata, arrays = _sample_payload()
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, metadata, arrays)
        got_metadata, got = load_checkpoint(path)
        assert got_metadata == metadata
        assert list(got) == list(arrays)
        for name, arr in arrays.items():
            assert got[name].dtype == np.float64
            assert got[name].shape == arr.shape
            assert np.array_equal(got[name], arr)
            assert got[name].flags.writeable
        assert not any(np.shares_memory(a, b) for a in got.values() for b in got.values()
                       if a is not b)

    def test_header_declares_every_array_in_payload_order(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"k": "v"}, {"b": np.zeros((2, 3)), "a": np.ones(4)})
        blob = path.read_bytes()
        assert blob[:8] == MAGIC + struct.pack("<I", FORMAT_VERSION) == b"HGTN\2\0\0\0"
        (length,) = struct.unpack_from("<Q", blob, 8)
        assert blob[16:16 + length] == b"k = v\narray.b = 2,3\narray.a = 4\n"
        assert blob[16 + length:-4] == np.zeros(6).tobytes() + np.ones(4).tobytes()
        assert blob == with_crc(blob[:-4])

    def test_empty_tables_allowed(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        save_checkpoint(path, {}, {})
        assert load_checkpoint(path) == ({}, {})

    @pytest.mark.parametrize("metadata, arrays", [
        ({}, {"x": np.array(2.25)}), ({"array.x": "3"}, {})], ids=["rank-0", "array-key"])
    def test_what_the_header_cannot_declare_is_not_written(self, tmp_path, metadata, arrays):
        with pytest.raises(ValueError, match="rank >= 1"):
            save_checkpoint(tmp_path / "s.ckpt", metadata, arrays)
        assert os.listdir(tmp_path) == []

    def test_overwrite_replaces_previous_content(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"v": "1"}, {"a": np.ones(3)})
        save_checkpoint(path, {"v": "2"}, {"b": np.zeros(2)})
        metadata, arrays = load_checkpoint(path)
        assert metadata == {"v": "2"}
        assert list(arrays) == ["b"]

    def test_no_temp_file_residue(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"k": "v"}, {"a": np.arange(4.0)})
        assert os.listdir(tmp_path) == ["snap.ckpt"]


class TestCorruption:
    def _saved(self, tmp_path):
        metadata, arrays = _sample_payload()
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, metadata, arrays)
        return path, path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path, blob = self._saved(tmp_path)
        assert blob[:4] == MAGIC
        path.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION + 1) + blob[8:])
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_1_named_with_a_hint_to_retrain(self, tmp_path):
        # the layout before the header declared the arrays: a metadata block,
        # then a parameter and a moment table, and no CRC-32 trailer
        meta = b"k = v\n"
        path = tmp_path / "v1.ckpt"
        path.write_bytes(MAGIC + struct.pack("<IQ", 1, len(meta)) + meta
                         + struct.pack("<QQ", 0, 0))
        with pytest.raises(CheckpointError, match="format version 1 .* retrain"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[:-9])
        with pytest.raises(CheckpointError, match="CRC-32 mismatch"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob + b"\x00\x01")
        with pytest.raises(CheckpointError, match="CRC-32 mismatch"):
            load_checkpoint(path)

    def test_trailing_bytes_under_a_correct_crc(self, tmp_path):
        path, blob = self._saved(tmp_path)
        recrc(path, lambda body: body + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="extents do not match"):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_non_utf8_metadata(self, tmp_path):
        # in a metadata line and in an array's name alike
        path = tmp_path / "snap.ckpt"
        for text in (b"k = v", b"array.abc"):
            save_checkpoint(path, {"k": "v"}, {"abc": np.ones(2)})
            recrc(path, lambda body: body.replace(text, text[:-1] + b"\xff"))
            with pytest.raises(CheckpointError, match="malformed header .*utf-8"):
                load_checkpoint(path)

    def test_malformed_metadata_text(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"k": "v"}, {})
        recrc(path, lambda body: body.replace(b"k = v", b"k - v"))
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(path)

    # no extents (rank 0), a non-integer, an empty one, a repeated array
    @pytest.mark.parametrize("header", [
        b"array.a\n", b"array.a = \n", b"array.a = x\n", b"array.a = 2,\n",
        b"array.a = 2\narray.a = 2\n"])
    def test_malformed_array_line(self, tmp_path, header):
        path = tmp_path / "snap.ckpt"
        path.write_bytes(with_crc(_body(header, np.ones(2).tobytes())))
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [(2**62, 4), (2**62,), (0, 2**63), (0, 2**62),
                                       (-1,), (-1, -1), (0, -1), (2, 1), (1, 1, 1, 1)])
    def test_huge_extents(self, tmp_path, shape):
        # and negative ones, and ones the empty payload does not hold
        path = tmp_path / "snap.ckpt"
        header = f"array.x = {','.join(map(str, shape))}\n".encode()
        path.write_bytes(with_crc(_body(header)))
        with pytest.raises(CheckpointError, match="extents"):
            load_checkpoint(path)


def _load_bytes(tmp_path, blob):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        return load_checkpoint(path)
    except CheckpointError:
        return None


def _is_contents(got) -> bool:
    return (isinstance(got, tuple) and len(got) == 2
            and all(isinstance(k, str) and isinstance(v, str) for k, v in got[0].items())
            and all(isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim >= 1
                    for a in got[1].values()))


_FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzz:
    """Whatever the bytes, the reader returns ``(metadata, arrays)`` or
    raises CheckpointError; any other exception fails the property.  Each
    blob carries a correct CRC-32, so the header and extent checks see it."""

    @_FUZZ
    @given(blob=st.binary(max_size=256))
    def test_arbitrary_bytes(self, tmp_path, blob):
        _load_bytes(tmp_path, with_crc(blob))

    @_FUZZ
    @given(blob=st.binary(max_size=64))
    def test_arbitrary_bytes_after_a_valid_header(self, tmp_path, blob):
        _load_bytes(tmp_path, with_crc(MAGIC + struct.pack("<I", FORMAT_VERSION) + blob))

    @_FUZZ
    @given(header=st.text(max_size=64), payload=st.binary(max_size=64))
    def test_arbitrary_header_text(self, tmp_path, header, payload):
        raw = header.encode("utf-8", "surrogatepass")
        got = _load_bytes(tmp_path, with_crc(_body(raw, payload)))
        assert got is None or _is_contents(got)

    @_FUZZ
    @given(data=st.data())
    def test_single_byte_mutations_of_a_valid_file(self, tmp_path, data):
        metadata, arrays = _sample_payload()
        save_checkpoint(tmp_path / "valid.ckpt", metadata, arrays)
        body = bytearray((tmp_path / "valid.ckpt").read_bytes()[:-4])
        pos = data.draw(st.integers(0, len(body) - 1), label="pos")
        body[pos] = data.draw(st.integers(0, 255), label="byte")
        got = _load_bytes(tmp_path, with_crc(bytes(body)))
        assert got is None or _is_contents(got)


def _small_file(tmp_path):
    path = tmp_path / "small.ckpt"
    save_checkpoint(path, {"trainer.epoch": "1", "data.class_names": "a,b"},
                    {"w": np.arange(6.0).reshape(2, 3), "m.w": np.ones((2, 3)),
                     "v.w": np.full((2, 3), 0.5)})
    return path, path.read_bytes()


def _refused(path, blob) -> bool:
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except CheckpointError:
        return True
    return False


class TestCrc:
    """The CRC-32 trailer refuses every single-bit flip and every truncation."""

    def test_every_bit_flip_and_truncation_of_a_small_file_refused(self, tmp_path):
        path, blob = _small_file(tmp_path)
        probe = tmp_path / "probe.ckpt"
        flips = [bytes(blob[:i]) + bytes([blob[i] ^ (1 << b)]) + blob[i + 1:]
                 for i in range(len(blob)) for b in range(8)]
        accepted = [n for n, mutant in enumerate(flips + [blob[:k] for k in range(len(blob))])
                    if not _refused(probe, mutant)]
        assert accepted == []
        assert not _refused(probe, blob)
