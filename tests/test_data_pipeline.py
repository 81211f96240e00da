import dataclasses
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import augment_reference as ref
from hgtnet import data, ppm
from hgtnet.data import (ImageSample, adjust_brightness, adjust_contrast,
                         adjust_hue, adjust_saturation, apply_policy, box_smooth3,
                         color_jitter, compute_stats, gaussian_blur, gaussian_kernel1d,
                         hflip, hsv_to_rgb, load_dataset, normalize, read_sample,
                         resize_bilinear, rgb_to_hsv, rotate, rotate90,
                         rotation_pretext_sample, sharpen, stratified_split, synth_dataset,
                         train_policy)
from hgtnet.errors import DataError, FormatError, ShapeError
from hgtnet.model import MAX_PARAMS
from hgtnet.rng import RngStream


def _sample(pixels, label=0, sid="s0"):
    return ImageSample(id=sid, pixels=np.asarray(pixels, dtype=np.float64), label=label)


def _random_image(seed, h=16, w=16):
    px = RngStream(seed=seed).uniform(h * w * 3).reshape(h, w, 3)
    return _sample(px, sid=f"img{seed}")


class TestPpm:
    def test_round_trip(self, tmp_path):
        arr = (RngStream(seed=1).uniform(6 * 5 * 3).reshape(6, 5, 3) * 255).astype(np.uint8)
        path = tmp_path / "img.ppm"
        ppm.write_ppm(path, arr)
        assert np.array_equal(ppm.read_ppm(path), arr)

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "c.ppm"
        payload = bytes(range(12))
        path.write_bytes(b"P6\n# a comment\n2 # inline\n# another\n2\n255\n" + payload)
        arr = ppm.read_ppm(path)
        assert arr.shape == (2, 2, 3)
        assert arr.reshape(-1).tolist() == list(payload)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
        with pytest.raises(FormatError, match="bad.ppm"):
            ppm.read_ppm(path)

    @pytest.mark.parametrize("lead", [b"# c\n  ", b" ", b"\n"])
    def test_magic_must_be_the_first_two_bytes(self, tmp_path, lead):
        path = tmp_path / "late.ppm"
        path.write_bytes(lead + b"P6 1 1 255\n" + bytes(3))
        with pytest.raises(FormatError, match="late.ppm"):
            ppm.read_ppm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(FormatError, match="short.ppm"):
            ppm.read_ppm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(FormatError, match="deep.ppm"):
            ppm.read_ppm(path)

    @pytest.mark.parametrize("header", [
        b"P6 1_0 1 255\n", b"P6 +1 1 255\n", b"P6 1 1 +255\n", b"P6 1 1 2_55\n",
        b"P6 1 \xd9\xa1 255\n", b"P6 1 1 255"])
    def test_header_field_syntax_enforced(self, tmp_path, header):
        path = tmp_path / "odd.ppm"
        path.write_bytes(header + bytes(30))
        with pytest.raises(FormatError, match="odd.ppm"):
            ppm.read_ppm(path)

    def test_hash_after_maxval_is_not_a_separator(self, tmp_path):
        path = tmp_path / "hash.ppm"
        path.write_bytes(b"P6 1 1 255#\nabc")
        with pytest.raises(FormatError, match="whitespace"):
            ppm.read_ppm(path)

    def test_pixel_cap_refused_before_the_payload_is_read(self, tmp_path):
        path = tmp_path / "huge.ppm"
        path.write_bytes(b"P6\n100000 100000\n255\n" + bytes(1 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="10000000000 pixels"):
                ppm.read_ppm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19  # the 1 MiB payload was never read

    def test_pixel_cap_is_the_image_cap_of_synth(self):
        assert 3 * ppm.MAX_PIXELS <= MAX_PARAMS < 3 * (ppm.MAX_PIXELS + 1)

    def test_unit_conversion_round_trip(self):
        arr = np.arange(256, dtype=np.uint8).repeat(3).reshape(-1, 1, 3)[:4]
        assert np.array_equal(ppm.from_unit(ppm.to_unit(arr)), arr)


# the P6 header grammar read_ppm accepts, written independently of its
# tokenizer: the magic as the first two bytes, blanks and "#" comments (to
# the end of the line) between the fields, ASCII decimal fields, then
# exactly one whitespace byte
_BLANK = rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*(?=\n|\Z))"
_HEADER = re.compile(rb"P6%s+([0-9]+)%s+([0-9]+)%s+([0-9]+)[ \t\n\r\x0b\x0c]"
                     % ((_BLANK,) * 3))


def _ppm_oracle(blob: bytes) -> np.ndarray | None:
    m = _HEADER.match(blob)
    if m is None:
        return None
    width, height, maxval = (int(f) for f in m.groups())
    payload = blob[m.end():m.end() + width * height * 3]
    if width == 0 or height == 0 or maxval != 255 or len(payload) != width * height * 3:
        return None
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def _read_ppm_bytes(tmp_path, blob: bytes) -> np.ndarray | None:
    path = tmp_path / "fuzz.ppm"
    path.write_bytes(blob)
    try:
        return ppm.read_ppm(path)
    except FormatError:
        return None


_FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_PPM_HEADER = b"P6\n# fuzz\n12 1\n255\n"
_VALID_PPM = _PPM_HEADER + bytes(range(36))
# bytes that mean something in a header, tried more often than the rest
_HEADER_BYTES = st.one_of(st.sampled_from(b"#+-_ \t\n0129P6"), st.integers(0, 255))


class TestPpmFuzz:
    """Whatever the bytes, read_ppm returns exactly what the header grammar
    above admits, or raises FormatError; any other exception fails."""

    def _check(self, tmp_path, blob):
        got, want = _read_ppm_bytes(tmp_path, blob), _ppm_oracle(blob)
        if want is None:
            assert got is None
        else:
            assert got is not None and np.array_equal(got, want)

    def test_oracle_accepts_the_valid_file(self):
        assert _ppm_oracle(_VALID_PPM).shape == (1, 12, 3)

    @_FUZZ
    @given(blob=st.binary(max_size=64))
    def test_arbitrary_bytes(self, tmp_path, blob):
        self._check(tmp_path, blob)

    @_FUZZ
    @given(blob=st.binary(max_size=32))
    def test_arbitrary_bytes_after_the_magic(self, tmp_path, blob):
        self._check(tmp_path, b"P6 " + blob)

    @_FUZZ
    @given(data=st.data())
    def test_single_byte_mutations_of_a_valid_header(self, tmp_path, data):
        blob = bytearray(_VALID_PPM)
        pos = data.draw(st.integers(0, len(_PPM_HEADER)), label="pos")
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="edit")
        if edit == "delete":
            del blob[pos]
        else:
            blob[pos:pos + (edit == "replace")] = [data.draw(_HEADER_BYTES, label="byte")]
        self._check(tmp_path, bytes(blob))


class TestLoadDataset:
    def _write_tree(self, root, names, files_per=2, size=4):
        rng = RngStream(seed=9)
        for name in names:
            d = root / name
            d.mkdir(parents=True)
            for i in range(files_per):
                arr = (rng.derive(name, i).uniform(size * size * 3)
                       .reshape(size, size, 3) * 255).astype(np.uint8)
                ppm.write_ppm(d / f"f{i}.ppm", arr)

    def test_labels_follow_sorted_dir_names(self, tmp_path):
        self._write_tree(tmp_path, ["zeta", "alpha", "mid"])
        samples, class_names = load_dataset(tmp_path)
        assert class_names == ["alpha", "mid", "zeta"]
        assert len(samples) == 6
        by_id = {s.id: s.label for s in samples}
        assert by_id["alpha/f0.ppm"] == 0
        assert by_id["mid/f1.ppm"] == 1
        assert by_id["zeta/f0.ppm"] == 2

    def test_lc25000_class_order(self, tmp_path):
        names = ["colon_aca", "colon_n", "lung_aca", "lung_n", "lung_scc"]
        self._write_tree(tmp_path, names, files_per=1)
        samples, class_names = load_dataset(tmp_path)
        labels = {s.id.split("/")[0]: s.label for s in samples}
        assert labels == {n: i for i, n in enumerate(names)}
        assert class_names == names

    def test_ids_unique(self, tmp_path):
        self._write_tree(tmp_path, ["a", "b"], files_per=3)
        samples, _ = load_dataset(tmp_path)
        assert len({s.id for s in samples}) == len(samples)

    def test_empty_class_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError):
            load_dataset(tmp_path)

    def test_malformed_file_named(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        (d / "broken.ppm").write_bytes(b"garbage")
        with pytest.raises(FormatError, match="broken.ppm"):
            load_dataset(tmp_path)

    def test_pixels_in_unit_range(self, tmp_path):
        self._write_tree(tmp_path, ["a"])
        for s in load_dataset(tmp_path)[0]:
            assert s.pixels.min() >= 0.0 and s.pixels.max() <= 1.0

    def test_name_that_is_not_utf8_rejected(self, tmp_path):
        # the undecodable bytes stayed in the id as surrogate escapes, and
        # writing the id to predictions.csv failed after the whole run
        self._write_tree(tmp_path, ["a", "b"])
        bad_file = (tmp_path / "a" / "f1.ppm").rename(tmp_path / "a" / os.fsdecode(b"\xff.ppm"))
        with pytest.raises(DataError, match="UTF-8"):
            read_sample(bad_file, 0)
        with pytest.raises(DataError, match="UTF-8"):
            load_dataset(tmp_path)
        bad_file.rename(tmp_path / "a" / "f1.ppm")
        (tmp_path / "b").rename(tmp_path / os.fsdecode(b"b\xfe"))
        with pytest.raises(DataError, match="UTF-8"):
            load_dataset(tmp_path)


class TestResize:
    def test_same_size_identity(self):
        img = _random_image(3)
        out = resize_bilinear(img, 16, 16)
        assert np.allclose(out.pixels, img.pixels, atol=1e-12)

    def test_constant_stays_constant(self):
        img = _sample(np.full((10, 7, 3), 0.42))
        out = resize_bilinear(img, 23, 5)
        assert np.allclose(out.pixels, 0.42, atol=1e-12)

    def test_paper_geometry(self):
        img = _sample(np.zeros((768, 768, 3)))
        out = resize_bilinear(img, 224, 224)
        assert out.pixels.shape == (224, 224, 3)

    def test_range_preserved(self):
        img = _random_image(4, 9, 13)
        out = resize_bilinear(img, 17, 6)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_downsample_averages_neighbors(self):
        # 1x2 -> 1x1 with half-pixel centers lands exactly between the two
        img = _sample(np.array([[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]]))
        out = resize_bilinear(img, 1, 1)
        assert np.allclose(out.pixels, 0.5)


class TestFlip:
    def test_zero_prob_identity(self):
        x = _random_image(5).pixels
        assert hflip(x, False) is x

    def test_forced_flip_is_involution(self):
        x = _random_image(6).pixels
        once = hflip(x, True)
        twice = hflip(once, True)
        assert not np.array_equal(once, x)
        assert np.array_equal(twice, x)

    def test_flip_rate_monte_carlo(self):
        rng = RngStream(seed=77)
        flips = sum(data._draw(rng.derive("flip", i)).flip for i in range(10_000))
        assert abs(flips / 10_000 - data.FLIP_PROB) < 0.02


class TestRotation:
    def test_zero_max_identity(self):
        x = _random_image(7).pixels
        assert rotate(x, 0.0) is x

    def test_constant_interior_preserved(self):
        out = rotate(np.full((21, 21, 3), 0.6), 13.0)
        # center region is always in-bounds
        assert np.allclose(out[8:13, 8:13], 0.6, atol=1e-12)

    def test_forced_90_matches_index_map(self):
        px = np.arange(4 * 4 * 3, dtype=np.float64).reshape(4, 4, 3) / 48.0
        out = rotate(px, 90.0)
        expected = np.zeros_like(px)
        for r in range(4):
            for c in range(4):
                expected[c, 4 - 1 - r] = px[r, c]
        assert np.allclose(out, expected, atol=1e-12)

    def test_angle_bounded_and_range_kept(self):
        x = _random_image(8).pixels
        for angle in (RngStream(seed=3).uniform(10) * 2.0 - 1.0) * 15.0:
            out = rotate(x, angle)
            assert out.shape == x.shape
            assert out.min() >= 0.0 and out.max() <= 1.0


class TestColorJitter:
    def test_brightness_identity_factor(self):
        x = _random_image(10).pixels
        assert adjust_brightness(x, 1.0) is x

    def test_brightness_scales(self):
        x = np.full((2, 2, 3), 0.4)
        assert np.allclose(adjust_brightness(x, 1.5), 0.6)
        assert np.allclose(adjust_brightness(x, 3.0), 1.0)  # clamps

    def test_saturation_zero_gives_luma_grayscale(self):
        img = _random_image(11)
        out = adjust_saturation(img.pixels, 0.0)
        gray = img.pixels @ np.array([0.299, 0.587, 0.114])
        for ch in range(3):
            assert np.allclose(out[..., ch], gray, atol=1e-12)

    def test_hsv_round_trip(self):
        px = RngStream(seed=12).uniform(8 * 8 * 3).reshape(8, 8, 3)
        back = hsv_to_rgb(*rgb_to_hsv(px))
        assert np.allclose(back, px, atol=1e-12)

    def test_hue_full_turn_identity(self):
        px = RngStream(seed=13).uniform(6 * 6 * 3).reshape(6, 6, 3)
        quarter = px
        for _ in range(4):
            quarter = adjust_hue(quarter, 0.25)
        assert np.allclose(quarter, px, atol=1e-10)

    def test_identity_pairs_return_the_input(self):
        x = _random_image(26).pixels
        assert color_jitter(x, [("hue", 0.0), ("contrast", 1.0), ("brightness", 1.0),
                                ("saturation", 1.0)]) is x

    def test_jitter_respects_range(self):
        x = _random_image(14).pixels
        rng = RngStream(seed=5)
        for i in range(10):
            out = color_jitter(x, data._draw(rng.derive("j", i)).jitter)
            assert out.min() >= 0.0 and out.max() <= 1.0


class TestSharpness:
    def test_factor_one_identity(self):
        x = _random_image(15).pixels
        assert np.array_equal(sharpen(x, 1.0), x)

    def test_constant_image_fixed_point(self):
        out = sharpen(np.full((8, 8, 3), 0.3), 2.5)
        assert np.allclose(out, 0.3, atol=1e-12)

    def test_factor_zero_equals_smoothing_oracle(self):
        img = _random_image(16, 6, 6)
        out = sharpen(img.pixels, 0.0)
        # oracle: direct 3x3 reflected-edge mean, written out by hand
        padded = np.pad(img.pixels, ((1, 1), (1, 1), (0, 0)), mode="reflect")
        oracle = np.zeros_like(img.pixels)
        for r in range(6):
            for c in range(6):
                oracle[r, c] = padded[r:r + 3, c:c + 3].mean(axis=(0, 1))
        assert np.allclose(out, oracle, atol=1e-12)

    def test_sharpness_rate_monte_carlo(self):
        # an image is sharpened with SHARPNESS_PROB, and otherwise keeps the
        # identity factor, which leaves it as it is
        rng = RngStream(seed=9)
        factors = [data._draw(rng.derive(i)).sharpness for i in range(10_000)]
        assert set(factors) == {data.SHARPNESS_FACTOR, 1.0}
        rate = factors.count(data.SHARPNESS_FACTOR) / 10_000
        assert abs(rate - data.SHARPNESS_PROB) < 0.02
        x = _random_image(17).pixels
        assert sharpen(x, 1.0) is x


class TestGaussianBlur:
    def test_sigma_floor_is_near_identity(self):
        w = gaussian_kernel1d(0.1)
        assert w[1] > 0.999
        # closed form: center/neighbor ratio is exp(1/(2 sigma^2))
        assert np.isclose(w[0] / w[1], np.exp(-1.0 / (2 * 0.01)), rtol=1e-12)

    def test_constant_unchanged(self):
        out = gaussian_blur(np.full((9, 9, 3), 0.77), 1.3)
        assert np.allclose(out, 0.77, atol=1e-12)

    def test_smooths_towards_neighborhood_mean(self):
        px = np.zeros((5, 5, 3))
        px[2, 2] = 1.0
        out = gaussian_blur(px, 2.0)
        assert out[2, 2, 0] < 1.0 and out[2, 1, 0] > 0.0
        # mass is conserved away from edges (impulse fully interior)
        assert np.isclose(out[..., 0].sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 2.0, 50.0])
    def test_impulse_reaches_one_pixel_each_way(self, sigma):
        # the blur is BLUR_KERNEL = 3 taps wide whatever its sigma
        px = np.zeros((7, 7, 3))
        px[3, 3] = 1.0
        out = gaussian_blur(px, sigma)
        assert out[2:5, 2:5].min() > 0.0
        outside = np.ones((7, 7), dtype=bool)
        outside[2:5, 2:5] = False
        assert not out[outside].any()
        assert np.isclose(out[..., 0].sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1), (4, 6)])
    def test_matches_direct_2d_oracle(self, shape):
        # oracle: the outer product of the 1-D kernel over np.pad's reflected
        # border, which repeats the lone row of a 1-pixel side
        px = RngStream(seed=20).uniform(shape[0] * shape[1] * 3).reshape(*shape, 3)
        w = gaussian_kernel1d(0.8)
        padded = np.pad(px, ((1, 1), (1, 1), (0, 0)), mode="reflect")
        oracle = np.zeros_like(px)
        for r in range(shape[0]):
            for c in range(shape[1]):
                oracle[r, c] = np.einsum("i,j,ijk->k", w, w, padded[r:r + 3, c:c + 3])
        assert np.allclose(gaussian_blur(px, 0.8), oracle, atol=1e-12)


class TestStats:
    def test_constant_dataset(self):
        samples = [_sample(np.full((4, 4, 3), 0.5), sid=f"s{i}") for i in range(3)]
        stats = compute_stats(samples)
        assert np.allclose(stats.mean, 0.5)
        assert np.allclose(stats.std, 1e-6)

    def test_two_point_dataset(self):
        samples = [_sample(np.zeros((2, 2, 3)), sid="a"), _sample(np.ones((2, 2, 3)), sid="b")]
        stats = compute_stats(samples)
        assert np.allclose(stats.mean, 0.5)
        assert np.allclose(stats.std, 0.5)

    def test_matches_direct_moment_oracle(self):
        samples = [_random_image(20 + i, 5, 7) for i in range(4)]
        stats = compute_stats(samples)
        stacked = np.concatenate([s.pixels.reshape(-1, 3) for s in samples], axis=0)
        assert np.allclose(stats.mean, stacked.mean(axis=0), atol=1e-10)
        assert np.allclose(stats.std, stacked.std(axis=0), atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            compute_stats([])

    def test_normalize_centering_and_layout(self):
        stats = data.DatasetStats(mean=np.array([0.2, 0.4, 0.6]), std=np.array([0.1, 0.2, 0.3]))
        px = np.zeros((2, 2, 3))
        px[...] = [0.2, 0.4, 0.6]
        out = normalize(px[None], stats)
        assert out.shape == (1, 3, 2, 2)
        assert np.allclose(out, 0.0)

    def test_normalize_identity_stats(self):
        stats = data.DatasetStats(mean=np.zeros(3), std=np.ones(3))
        img = _random_image(25)
        out = normalize(img.pixels[None], stats)
        assert np.allclose(out[0], img.pixels.transpose(2, 0, 1))

    def test_normalized_set_has_unit_moments(self):
        samples = [_random_image(30 + i, 6, 6) for i in range(5)]
        stats = compute_stats(samples)
        values = normalize(np.stack([s.pixels for s in samples]), stats)  # (n,3,h,w)
        per_channel = values.transpose(1, 0, 2, 3).reshape(3, -1)
        assert np.allclose(per_channel.mean(axis=1), 0.0, atol=1e-6)
        assert np.allclose(per_channel.std(axis=1), 1.0, atol=1e-6)


class TestRotationPretext:
    def test_label_zero_identity(self):
        x = _random_image(40).pixels[None]
        out, labels = rotation_pretext_sample(x, [RngStream(seed=1000)])
        if labels[0] == 0:
            assert np.array_equal(out, x)

    def test_four_quarter_turns_identity_bitwise(self):
        px = RngStream(seed=41).uniform(8 * 8 * 3).reshape(8, 8, 3)
        rotated = px
        for _ in range(4):
            rotated = rotate90(rotated, 1)
        assert rotated.tobytes() == px.tobytes()

    def test_quarter_turn_index_map(self):
        px = np.arange(3 * 3 * 3, dtype=np.float64).reshape(3, 3, 3)
        out = rotate90(px, 1)
        for r in range(3):
            for c in range(3):
                assert np.array_equal(out[c, 3 - 1 - r], px[r, c])

    def test_labels_cover_all_rotations(self):
        x = np.stack([_random_image(42).pixels] * 200)
        rng = RngStream(seed=43)
        _, labels = rotation_pretext_sample(x, [rng.derive("p", i) for i in range(200)])
        assert set(labels.tolist()) == {0, 1, 2, 3}

    def test_non_square_rejected(self):
        # seed 0 draws no turn and seed 1 a quarter turn; both refuse
        for seed in (0, 1):
            with pytest.raises(ShapeError):
                rotation_pretext_sample(np.zeros((1, 4, 6, 3)), [RngStream(seed=seed)])


class TestSynth:
    def test_balanced_counts(self):
        samples = synth_dataset(10, 16, RngStream(seed=50))
        assert len(samples) == 50
        for label in range(5):
            assert sum(s.label == label for s in samples) == 10

    def test_deterministic(self):
        a = synth_dataset(3, 16, RngStream(seed=51))
        b = synth_dataset(3, 16, RngStream(seed=51))
        for x, y in zip(a, b):
            assert x.id == y.id and x.pixels.tobytes() == y.pixels.tobytes()

    def test_range_and_shape(self):
        for s in synth_dataset(2, 20, RngStream(seed=52)):
            assert s.pixels.shape == (20, 20, 3)
            assert s.pixels.min() >= 0.0 and s.pixels.max() <= 1.0

    def test_linear_probe_separates_classes(self):
        samples = synth_dataset(20, 16, RngStream(seed=53))
        feats = np.stack([np.concatenate([s.pixels.mean(axis=(0, 1)),
                                          s.pixels.var(axis=(0, 1)), [1.0]])
                          for s in samples])
        onehot = np.zeros((len(samples), 5))
        onehot[np.arange(len(samples)), [s.label for s in samples]] = 1.0
        weights, *_ = np.linalg.lstsq(feats, onehot, rcond=None)
        acc = (np.argmax(feats @ weights, axis=1) == [s.label for s in samples]).mean()
        assert acc > 0.6


class TestSplit:
    def test_stratified_fractions(self):
        samples = synth_dataset(20, 16, RngStream(seed=60))
        train, test = stratified_split(samples, 0.1, RngStream(seed=61))
        assert len(train) == 90 and len(test) == 10
        for label in range(5):
            assert sum(s.label == label for s in test) == 2

    def test_deterministic_split(self):
        samples = synth_dataset(10, 16, RngStream(seed=62))
        t1 = stratified_split(samples, 0.2, RngStream(seed=63))
        t2 = stratified_split(samples, 0.2, RngStream(seed=63))
        assert [s.id for s in t1[1]] == [s.id for s in t2[1]]

    def test_class_of_one_sample_is_refused(self):
        samples = synth_dataset(3, 16, RngStream(seed=66))
        lone = [s for s in samples if s.label != 2 or s.id == "class2_0001"]
        with pytest.raises(DataError, match=r"class 2 .*class2_0001"):
            stratified_split(lone, 0.1, RngStream(seed=67))
        # with no test side there is nothing to split it across
        train, test = stratified_split(lone, 0.0, RngStream(seed=67))
        assert len(train) == len(lone) and test == []

    def test_no_overlap_and_complete(self):
        samples = synth_dataset(7, 16, RngStream(seed=64))
        train, test = stratified_split(samples, 0.25, RngStream(seed=65))
        ids = {s.id for s in train} | {s.id for s in test}
        assert len(ids) == len(samples)
        assert not ({s.id for s in train} & {s.id for s in test})


class TestPipeline:
    def test_train_pipeline_preserves_shape_and_range(self):
        img = _random_image(71, 20, 20)
        rng = RngStream(seed=72)
        out = apply_policy([img] * 8, train_policy(16), [rng.derive("aug", 0, i) for i in range(8)])
        assert out.shape == (8, 16, 16, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_per_sample_streams_make_order_irrelevant(self):
        imgs = [_random_image(80 + i, 12, 12) for i in range(4)]
        root = RngStream(seed=81)
        forward = apply_policy(imgs, train_policy(16), [root.derive("aug", im.id) for im in imgs])
        backward = apply_policy(imgs[::-1], train_policy(16),
                                [root.derive("aug", im.id) for im in imgs[::-1]])
        assert forward.tobytes() == backward[::-1].tobytes()

    def test_policy_is_its_output_size(self):
        assert dataclasses.asdict(train_policy(7)) == {"target_size": (7, 7)}

    def test_draws_stay_in_the_stack_ranges(self):
        rng = RngStream(seed=92)
        lo, hi = data.BLUR_SIGMA
        for i in range(2000):
            d = data._draw(rng.derive("range", i))
            assert abs(d.angle) <= data.MAX_ROTATION_DEG
            assert lo <= d.sigma < hi
            # every jitter op runs once, within its magnitude of its identity
            assert sorted(name for name, _ in d.jitter) == sorted(data._JITTER)
            for name, value in d.jitter:
                identity = 0.0 if name == "hue" else 1.0
                assert abs(value - identity) <= data._JITTER[name][1]

    def test_same_stream_bitwise_reproducible(self):
        img = _random_image(90, 18, 18)
        a = apply_policy([img], train_policy(16), [RngStream(seed=91).derive("aug", "x")])
        b = apply_policy([img], train_policy(16), [RngStream(seed=91).derive("aug", "x")])
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# transforms against the per-image reference, byte for byte
# ---------------------------------------------------------------------------

@st.composite
def _shards(draw, square=False, max_images=4):
    """1 to ``max_images`` images of 2 to 9 pixels a side.  Values sit on a
    coarse grid (or not, for levels 0), so ties in the max channel, gray
    and black pixels turn up; each image also gets one black, one gray and
    two max-tied pixels at fixed places."""
    n = draw(st.integers(1, max_images), label="images")
    h = draw(st.integers(2, 9), label="height")
    w = h if square else draw(st.integers(2, 9), label="width")
    levels = draw(st.sampled_from([0, 2, 3, 5, 256]), label="levels")
    px = RngStream(seed=draw(st.integers(0, 2**32 - 1), label="seed")) \
        .uniform(n * h * w * 3).reshape(n, h, w, 3)
    if levels:
        px = np.round(px * (levels - 1)) / (levels - 1)
    px[:, 0, 0] = 0.0                # black: maxc == 0
    px[:, 0, 1] = 0.5                # gray: delta == 0
    px[:, 1, 0] = [0.8, 0.8, 0.2]    # max tied between r and g
    px[:, 1, 1] = [0.1, 0.7, 0.7]    # max tied between g and b
    return px


def _image():
    """One (H, W, 3) image, drawn as ``_shards`` draws each of its images."""
    return _shards(max_images=1).map(lambda x: np.ascontiguousarray(x[0]))


def _param(draw, identity, values):
    """The transform's identity parameter or a drawn value."""
    return draw(st.one_of(st.just(identity), values), label="param")


_FACTORS = st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(0.0, 3.0))
_DELTAS = st.one_of(st.sampled_from([-0.5, 0.5, 1e-300]), st.floats(-0.5, 0.5))
_ANGLES = st.one_of(st.sampled_from([90.0, -180.0, 1e-9]), st.floats(-180.0, 180.0))


def _same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _matches(got, want, x, unchanged):
    """``got`` has the reference's bytes, and it is ``x`` itself exactly
    when the parameter was the identity."""
    _same_bytes(got, want)
    assert (got is x) == unchanged


class TestShardTransformsMatchReference:
    """Each transform equals the per-image reference in ``augment_reference``
    byte for byte, on one image and a parameter that may be the identity;
    ``normalize``, ``rotation_pretext_sample`` and ``apply_policy`` equal it
    stacked over several images."""

    @_FUZZ
    @given(data=st.data())
    def test_flip(self, data):
        x = data.draw(_image())
        flip = data.draw(st.booleans(), label="flip")
        want = ref.random_horizontal_flip(_sample(x), 1.0 if flip else 0.0,
                                          RngStream(seed=0)).pixels
        _matches(hflip(x, flip), want, x, not flip)

    @_FUZZ
    @given(data=st.data())
    def test_rotate(self, data):
        x = data.draw(_image())
        angle = _param(data.draw, 0.0, _ANGLES)
        _matches(rotate(x, angle), ref.rotate_by_degrees(_sample(x), angle).pixels,
                 x, angle == 0.0)

    @_FUZZ
    @given(data=st.data(), op=st.sampled_from(["brightness", "contrast", "saturation"]))
    def test_factor_jitter(self, data, op):
        x = data.draw(_image())
        factor = _param(data.draw, 1.0, _FACTORS)
        transform = {"brightness": adjust_brightness, "contrast": adjust_contrast,
                     "saturation": adjust_saturation}[op]
        _matches(transform(x, factor), getattr(ref, f"adjust_{op}")(x, factor),
                 x, factor == 1.0)

    @_FUZZ
    @given(data=st.data())
    def test_hue(self, data):
        x = data.draw(_image())
        delta = _param(data.draw, 0.0, _DELTAS)
        _matches(adjust_hue(x, delta), ref.adjust_hue(x, delta), x, delta == 0.0)

    @_FUZZ
    @given(data=st.data())
    def test_hsv_conversions(self, data):
        x = data.draw(_image())
        _same_bytes(np.stack(rgb_to_hsv(x), axis=-1), ref.rgb_to_hsv(x))
        # hue past a whole turn, at exactly 1 and below 0 wraps; saturation
        # and value anywhere in [0, 1]
        hsv = x.copy()
        hsv[..., 0] = hsv[..., 0] * data.draw(st.sampled_from([1.0, 3.0, -2.0]), label="h")
        _same_bytes(hsv_to_rgb(hsv[..., 0], hsv[..., 1], hsv[..., 2]), ref.hsv_to_rgb(hsv))

    @_FUZZ
    @given(data=st.data())
    def test_sharpness(self, data):
        x = data.draw(_image())
        factor = _param(data.draw, 1.0, _FACTORS)
        _same_bytes(box_smooth3(x), ref.box_smooth3(x))
        want = ref.random_sharpness(_sample(x), factor, 1.0, RngStream(seed=0)).pixels
        _matches(sharpen(x, factor), want, x, factor == 1.0)

    @_FUZZ
    @given(data=st.data())
    def test_blur(self, data):
        x = data.draw(_image())
        sigma = data.draw(st.floats(0.1, 5.0), label="sigma")
        _same_bytes(gaussian_blur(x, sigma), ref.gaussian_blur(_sample(x), sigma).pixels)

    @_FUZZ
    @given(data=st.data())
    def test_normalize(self, data):
        x = data.draw(_shards())
        stats = compute_stats([_sample(px) for px in x])
        _same_bytes(normalize(x, stats),
                    np.stack([ref.normalize(_sample(px), stats) for px in x]))

    @_FUZZ
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_rotation_pretext(self, data, seed):
        x = data.draw(_shards(square=True))
        streams = lambda: [RngStream(seed=seed).derive(i) for i in range(len(x))]
        out, labels = rotation_pretext_sample(x, streams())
        want = [ref.rotation_pretext_sample(_sample(px), rng)
                for px, rng in zip(x, streams())]
        _same_bytes(out, np.stack([img.pixels for img, _ in want]))
        assert labels.tolist() == [label for _, label in want]

    @_FUZZ
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_apply_policy(self, data, seed):
        n = data.draw(st.integers(1, 4), label="images")
        # odd and non-square sources, each resized to the policy's target,
        # down to 1 pixel a side, where a reflected border repeats the lone row
        samples = [_random_image(seed + i, data.draw(st.integers(3, 13), label="h"),
                                 data.draw(st.integers(3, 13), label="w"))
                   for i in range(n)]
        policy = train_policy(data.draw(st.integers(1, 10), label="target"))
        streams = lambda: [RngStream(seed=seed).derive("aug", i) for i in range(n)]
        want = np.stack([ref.apply_policy(s, policy, rng).pixels
                         for s, rng in zip(samples, streams())])
        _same_bytes(apply_policy(samples, policy, streams()), want)
