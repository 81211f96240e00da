"""Binary snapshot format: round trips, corruption detection, atomicity."""

import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgtnet.checkpoint import (FORMAT_VERSION, MAGIC, Checkpoint, load_checkpoint,
                               save_checkpoint)
from hgtnet.errors import CheckpointError


def _sample_payload():
    rng = np.random.default_rng(42)
    metadata = {
        "model.embed_dim": "128",
        "train.learning_rate": "0.0001",
        "data.class_names": "colon_aca,colon_n,lung_aca,lung_n,lung_scc",
        "note": "value with = sign and spaces",
    }
    params = {
        "scalar": np.array(3.5),
        "vec": rng.normal(size=7),
        "mat": rng.normal(size=(4, 5)),
        "conv.weight": rng.normal(size=(2, 3, 3, 3)),
    }
    moments = {
        "m.vec": rng.normal(size=7),
        "v.vec": np.abs(rng.normal(size=7)),
    }
    return metadata, params, moments


class TestRoundTrip:
    def test_everything_survives_bitwise(self, tmp_path):
        metadata, params, moments = _sample_payload()
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, metadata, params, moments)
        snap = load_checkpoint(path)
        assert snap.metadata == metadata
        assert set(snap.params) == set(params)
        assert set(snap.moments) == set(moments)
        for name, arr in params.items():
            got = snap.params[name]
            assert got.dtype == np.float64
            assert got.shape == arr.shape
            assert np.array_equal(got, arr)
        for name, arr in moments.items():
            assert np.array_equal(snap.moments[name], arr)

    def test_empty_tables_allowed(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        save_checkpoint(path, {}, {}, {})
        snap = load_checkpoint(path)
        assert snap.metadata == {} and snap.params == {} and snap.moments == {}

    def test_rank_zero_array(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, {}, {"x": np.array(2.25)}, {})
        got = load_checkpoint(path).params["x"]
        assert got.shape == () and got == 2.25

    def test_overwrite_replaces_previous_content(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"v": "1"}, {"a": np.ones(3)}, {})
        save_checkpoint(path, {"v": "2"}, {"b": np.zeros(2)}, {})
        snap = load_checkpoint(path)
        assert snap.metadata == {"v": "2"}
        assert list(snap.params) == ["b"]

    def test_no_temp_file_residue(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"k": "v"}, {"a": np.arange(4.0)}, {})
        assert os.listdir(tmp_path) == ["snap.ckpt"]


class TestCorruption:
    def _saved(self, tmp_path):
        metadata, params, moments = _sample_payload()
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, metadata, params, moments)
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

    def test_truncation(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[:-9])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob + b"\x00\x01")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises((CheckpointError, OSError)):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_non_utf8_metadata(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"k": "v"}, {}, {})
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"k = v")] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_non_utf8_entry_name(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {}, {"abc": np.ones(2)}, {})
        blob = path.read_bytes().replace(b"abc", b"a\xffc")
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_malformed_metadata_text(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"k": "v"}, {}, {})
        path.write_bytes(path.read_bytes().replace(b"k = v", b"k - v"))
        with pytest.raises(CheckpointError, match="metadata"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [(2**62, 4), (2**62,), (0, 2**63), (0, 2**62)])
    def test_huge_extents(self, tmp_path, shape):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {}, {"x": np.zeros((0, 1))}, {})
        blob = path.read_bytes()
        extents = struct.pack("<B2Q", 2, 0, 1)
        assert blob.count(extents) == 1
        header = struct.pack(f"<B{len(shape)}Q", len(shape), *shape)
        path.write_bytes(blob.replace(extents, header))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def _load_bytes(tmp_path, blob):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        return load_checkpoint(path)
    except CheckpointError:
        return None


_FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzz:
    """Whatever the bytes, the reader returns a Checkpoint or raises
    CheckpointError; any other exception fails the property."""

    @_FUZZ
    @given(blob=st.binary(max_size=256))
    def test_arbitrary_bytes(self, tmp_path, blob):
        _load_bytes(tmp_path, blob)

    @_FUZZ
    @given(blob=st.binary(max_size=64))
    def test_arbitrary_bytes_after_a_valid_header(self, tmp_path, blob):
        _load_bytes(tmp_path, MAGIC + struct.pack("<I", FORMAT_VERSION) + blob)

    @_FUZZ
    @given(data=st.data())
    def test_single_byte_mutations_of_a_valid_file(self, tmp_path, data):
        metadata, params, moments = _sample_payload()
        save_checkpoint(tmp_path / "valid.ckpt", metadata, params, moments)
        blob = bytearray((tmp_path / "valid.ckpt").read_bytes())
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        blob[pos] = data.draw(st.integers(0, 255), label="byte")
        snap = _load_bytes(tmp_path, bytes(blob))
        assert snap is None or isinstance(snap, Checkpoint)
