import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import augment_reference as ref
from hgtnet import data, ppm
from hgtnet.data import (AugmentPolicy, ImageSample, adjust_brightness, adjust_contrast,
                         adjust_hue, adjust_saturation, apply_policy, box_smooth3,
                         color_jitter, compute_stats, gaussian_blur, gaussian_kernel1d,
                         hflip, hsv_to_rgb, load_dataset, normalize, read_sample,
                         resize_bilinear, rgb_to_hsv, rotate, rotate90,
                         rotation_pretext_sample, sharpen, stratified_split, synth_dataset,
                         train_policy)
from hgtnet.errors import ConfigError, DataError, FormatError, ShapeError
from hgtnet.rng import RngStream


def _sample(pixels, label=0, sid="s0"):
    return ImageSample(id=sid, pixels=np.asarray(pixels, dtype=np.float64), label=label)


def _random_image(seed, h=16, w=16):
    px = RngStream(seed=seed).uniform(h * w * 3).reshape(h, w, 3)
    return _sample(px, sid=f"img{seed}")


def _shard(*images):
    """A (B, H, W, 3) shard of the images' pixels."""
    return np.stack([im.pixels for im in images])


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
        x = _shard(_random_image(5))
        assert hflip(x, [False]) is x

    def test_forced_flip_is_involution(self):
        x = _shard(_random_image(6))
        once = hflip(x, [True])
        twice = hflip(once, [True])
        assert not np.array_equal(once, x)
        assert np.array_equal(twice, x)

    def test_flip_rate_monte_carlo(self):
        img = _sample(np.zeros((2, 2, 3)))
        img.pixels[0, 0, 0] = 1.0  # asymmetric marker
        only_flip = AugmentPolicy(flip_prob=0.5, max_rotation_deg=0, jitter_brightness=0,
                                  jitter_contrast=0, jitter_saturation=0, jitter_hue=0,
                                  sharpness_prob=0, blur_kernel=1, target_size=(2, 2))
        rng = RngStream(seed=77)
        out = apply_policy([img] * 10_000, only_flip,
                           [rng.derive("flip", i) for i in range(10_000)])
        flips = (out[:, 0, 1, 0] == 1.0).sum()
        assert abs(flips / 10_000 - 0.5) < 0.02


class TestRotation:
    def test_zero_max_identity(self):
        x = _shard(_random_image(7))
        assert rotate(x, [0.0]) is x

    def test_constant_interior_preserved(self):
        out = rotate(_shard(_sample(np.full((21, 21, 3), 0.6))), [13.0])
        # center region is always in-bounds
        assert np.allclose(out[0, 8:13, 8:13], 0.6, atol=1e-12)

    def test_forced_90_matches_index_map(self):
        px = np.arange(4 * 4 * 3, dtype=np.float64).reshape(4, 4, 3) / 48.0
        out = rotate(px[None], [90.0])[0]
        expected = np.zeros_like(px)
        for r in range(4):
            for c in range(4):
                expected[c, 4 - 1 - r] = px[r, c]
        assert np.allclose(out, expected, atol=1e-12)

    def test_angle_bounded_and_range_kept(self):
        x = _shard(*[_random_image(8)] * 10)
        angles = (RngStream(seed=3).uniform(10) * 2.0 - 1.0) * 15.0
        out = rotate(x, angles)
        assert out.shape == x.shape
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestColorJitter:
    def test_all_zero_policy_identity(self):
        pol = AugmentPolicy(flip_prob=0, max_rotation_deg=0, jitter_brightness=0,
                            jitter_contrast=0, jitter_saturation=0, jitter_hue=0,
                            sharpness_factor=0, sharpness_prob=0, blur_kernel=1,
                            target_size=(16, 16))
        img = _random_image(9)
        out = apply_policy([img], pol, [RngStream(seed=4)])
        assert np.allclose(out[0], img.pixels, atol=1e-12)

    def test_brightness_identity_factor(self):
        x = _shard(_random_image(10))
        assert adjust_brightness(x, [1.0]) is x

    def test_brightness_scales(self):
        x = np.full((2, 2, 2, 3), 0.4)
        out = adjust_brightness(x, [1.5, 3.0])
        assert np.allclose(out[0], 0.6)
        assert np.allclose(out[1], 1.0)  # clamps

    def test_saturation_zero_gives_luma_grayscale(self):
        img = _random_image(11)
        out = adjust_saturation(_shard(img), [0.0])[0]
        gray = img.pixels @ np.array([0.299, 0.587, 0.114])
        for ch in range(3):
            assert np.allclose(out[..., ch], gray, atol=1e-12)

    def test_hsv_round_trip(self):
        px = RngStream(seed=12).uniform(8 * 8 * 3).reshape(8, 8, 3)
        back = hsv_to_rgb(*rgb_to_hsv(px))
        assert np.allclose(back, px, atol=1e-12)

    def test_hue_full_turn_identity(self):
        px = RngStream(seed=13).uniform(6 * 6 * 3).reshape(1, 6, 6, 3)
        quarter = px
        for _ in range(4):
            quarter = adjust_hue(quarter, [0.25])
        assert np.allclose(quarter, px, atol=1e-10)

    def test_jitter_respects_range(self):
        x = _shard(*[_random_image(14)] * 10)
        rng = RngStream(seed=5)
        jitters = [data._draw(train_policy(16), rng.derive("j", i)).jitter for i in range(10)]
        out = color_jitter(x, jitters)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestSharpness:
    def test_factor_one_identity(self):
        x = _shard(_random_image(15))
        assert np.array_equal(sharpen(x, [1.0]), x)

    def test_constant_image_fixed_point(self):
        out = sharpen(np.full((1, 8, 8, 3), 0.3), [2.5])
        assert np.allclose(out, 0.3, atol=1e-12)

    def test_factor_zero_equals_smoothing_oracle(self):
        img = _random_image(16, 6, 6)
        out = sharpen(_shard(img), [0.0])[0]
        # oracle: direct 3x3 reflected-edge mean, written out by hand
        padded = np.pad(img.pixels, ((1, 1), (1, 1), (0, 0)), mode="reflect")
        oracle = np.zeros_like(img.pixels)
        for r in range(6):
            for c in range(6):
                oracle[r, c] = padded[r:r + 3, c:c + 3].mean(axis=(0, 1))
        assert np.allclose(out, oracle, atol=1e-12)

    def test_probability_zero_skips(self):
        # a zero probability leaves every image at the identity factor
        never = AugmentPolicy(sharpness_factor=0.2, sharpness_prob=0.0)
        factors = [data._draw(never, RngStream(seed=9).derive(i)).sharpness for i in range(20)]
        assert factors == [1.0] * 20
        x = _shard(_random_image(17))
        assert sharpen(x, factors[:1]) is x


class TestGaussianBlur:
    def test_kernel_normalized_for_any_sigma(self):
        for sigma in (0.1, 0.37, 1.0, 2.0, 5.0):
            assert abs(gaussian_kernel1d(3, sigma).sum() - 1.0) < 1e-12
            assert abs(gaussian_kernel1d(7, sigma).sum() - 1.0) < 1e-12

    def test_sigma_floor_is_near_identity(self):
        w = gaussian_kernel1d(3, 0.1)
        assert w[1] > 0.999
        # closed form: center/neighbor ratio is exp(1/(2 sigma^2))
        assert np.isclose(w[0] / w[1], np.exp(-1.0 / (2 * 0.01)), rtol=1e-12)

    def test_constant_unchanged(self):
        out = gaussian_blur(np.full((1, 9, 9, 3), 0.77), 3, [1.3])
        assert np.allclose(out, 0.77, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 2.0, 50.0])
    def test_one_tap_kernel_is_bitwise_identity(self, sigma):
        # blur_kernel = 1 is how a policy turns blur off
        x = _shard(_random_image(19))
        assert gaussian_blur(x, 1, [sigma]).tobytes() == x.tobytes()

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_blur(_shard(_random_image(18)), 4, [1.0])

    def test_smooths_towards_neighborhood_mean(self):
        px = np.zeros((1, 5, 5, 3))
        px[0, 2, 2] = 1.0
        out = gaussian_blur(px, 3, [2.0])[0]
        assert out[2, 2, 0] < 1.0 and out[2, 1, 0] > 0.0
        # mass is conserved away from edges (impulse fully interior)
        assert np.isclose(out[..., 0].sum(), 1.0, atol=1e-12)


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
        out = normalize(_shard(img), stats)
        assert np.allclose(out[0], img.pixels.transpose(2, 0, 1))

    def test_normalized_set_has_unit_moments(self):
        samples = [_random_image(30 + i, 6, 6) for i in range(5)]
        stats = compute_stats(samples)
        values = normalize(_shard(*samples), stats)  # (n,3,h,w)
        per_channel = values.transpose(1, 0, 2, 3).reshape(3, -1)
        assert np.allclose(per_channel.mean(axis=1), 0.0, atol=1e-6)
        assert np.allclose(per_channel.std(axis=1), 1.0, atol=1e-6)


class TestRotationPretext:
    def test_label_zero_identity(self):
        x = _shard(_random_image(40))
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
        x = _shard(*[_random_image(42)] * 200)
        rng = RngStream(seed=43)
        _, labels = rotation_pretext_sample(x, [rng.derive("p", i) for i in range(200)])
        assert set(labels.tolist()) == {0, 1, 2, 3}

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            rotation_pretext_sample(np.zeros((1, 4, 6, 3)), [RngStream(seed=1)])


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

    def test_no_overlap_and_complete(self):
        samples = synth_dataset(7, 16, RngStream(seed=64))
        train, test = stratified_split(samples, 0.25, RngStream(seed=65))
        ids = {s.id for s in train} | {s.id for s in test}
        assert len(ids) == len(samples)
        assert not ({s.id for s in train} & {s.id for s in test})


class TestPipeline:
    def test_disabled_randomness_is_resize_only(self):
        # every transform off: no flip or sharpening, zero angle and jitter,
        # and a one-tap blur
        img = _random_image(70, 20, 20)
        policy = AugmentPolicy(flip_prob=0.0, max_rotation_deg=0.0, jitter_brightness=0.0,
                               jitter_contrast=0.0, jitter_saturation=0.0, jitter_hue=0.0,
                               sharpness_prob=0.0, blur_kernel=1, target_size=(16, 16))
        out = apply_policy([img], policy, [RngStream(seed=70)])
        direct = resize_bilinear(img, 16, 16)
        assert np.array_equal(out[0], direct.pixels)

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

    def test_same_stream_bitwise_reproducible(self):
        img = _random_image(90, 18, 18)
        a = apply_policy([img], train_policy(16), [RngStream(seed=91).derive("aug", "x")])
        b = apply_policy([img], train_policy(16), [RngStream(seed=91).derive("aug", "x")])
        assert a.tobytes() == b.tobytes()

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            train_policy(0)
        for bad in (dict(flip_prob=1.5), dict(blur_kernel=2), dict(blur_sigma=(1.0,)),
                    dict(blur_sigma=(1.0, 2.0, 3.0)), dict(blur_sigma=(2.0, 1.0)),
                    dict(blur_sigma=(0.0, 1.0))):
            with pytest.raises(ConfigError):
                AugmentPolicy(**bad)

    @pytest.mark.parametrize("name", ["max_rotation_deg", "jitter_brightness",
                                      "jitter_contrast", "jitter_saturation",
                                      "sharpness_factor"])
    @pytest.mark.parametrize("value", [float("nan"), -0.5, float("inf")])
    def test_non_negative_setting_rejects_nan_and_negatives(self, name, value):
        with pytest.raises(ConfigError, match=name):
            AugmentPolicy(**{name: value})
        AugmentPolicy(**{name: 0.0})


# ---------------------------------------------------------------------------
# shard transforms against the per-image reference, byte for byte
# ---------------------------------------------------------------------------

@st.composite
def _shards(draw, square=False):
    """1 to 4 images of 2 to 9 pixels a side.  Values sit on a coarse grid
    (or not, for levels 0), so ties in the max channel, gray and black
    pixels turn up; each image also gets one black, one gray and two
    max-tied pixels at fixed places."""
    n = draw(st.integers(1, 4), label="images")
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


def _params(draw, n, identity, values):
    """One parameter per image, each the identity or a drawn value; with a
    drawn flag, one image is forced to the identity so that a shard mixes
    skipped and transformed images."""
    out = draw(st.lists(st.one_of(st.just(identity), values), min_size=n, max_size=n),
               label="params")
    if draw(st.booleans(), label="force identity"):
        out[draw(st.integers(0, n - 1), label="at")] = identity
    return out


_FACTORS = st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(0.0, 3.0))
_DELTAS = st.one_of(st.sampled_from([-0.5, 0.5, 1e-300]), st.floats(-0.5, 0.5))
_ANGLES = st.one_of(st.sampled_from([90.0, -180.0, 1e-9]), st.floats(-180.0, 180.0))


def _per_image_ref(fn, x, params):
    return np.stack([fn(px, p) for px, p in zip(x, params)])


def _same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestShardTransformsMatchReference:
    """Each shard transform equals the per-image reference in
    ``augment_reference`` stacked over the shard, byte for byte, on shards
    that mix images the transform skips with images it changes."""

    @_FUZZ
    @given(data=st.data())
    def test_flip(self, data):
        x = data.draw(_shards())
        flips = _params(data.draw, len(x), False, st.just(True))
        want = _per_image_ref(lambda px, f: ref.random_horizontal_flip(
            _sample(px), 1.0 if f else 0.0, RngStream(seed=0)).pixels, x, flips)
        _same_bytes(hflip(x, flips), want)

    @_FUZZ
    @given(data=st.data())
    def test_rotate(self, data):
        x = data.draw(_shards())
        angles = _params(data.draw, len(x), 0.0, _ANGLES)
        want = _per_image_ref(lambda px, a: ref.rotate_by_degrees(_sample(px), a).pixels,
                              x, angles)
        _same_bytes(rotate(x, angles), want)

    @_FUZZ
    @given(data=st.data(), op=st.sampled_from(["brightness", "contrast", "saturation"]))
    def test_factor_jitter(self, data, op):
        x = data.draw(_shards())
        factors = _params(data.draw, len(x), 1.0, _FACTORS)
        shard_op = {"brightness": adjust_brightness, "contrast": adjust_contrast,
                    "saturation": adjust_saturation}[op]
        _same_bytes(shard_op(x, factors),
                    _per_image_ref(getattr(ref, f"adjust_{op}"), x, factors))

    @_FUZZ
    @given(data=st.data())
    def test_hue(self, data):
        x = data.draw(_shards())
        deltas = _params(data.draw, len(x), 0.0, _DELTAS)
        _same_bytes(adjust_hue(x, deltas), _per_image_ref(ref.adjust_hue, x, deltas))

    @_FUZZ
    @given(data=st.data())
    def test_hsv_conversions(self, data):
        x = data.draw(_shards())
        _same_bytes(np.stack(rgb_to_hsv(x), axis=-1),
                    np.stack([ref.rgb_to_hsv(px) for px in x]))
        # hue past a whole turn, at exactly 1 and below 0 wraps; saturation
        # and value anywhere in [0, 1]
        hsv = x.copy()
        hsv[..., 0] = hsv[..., 0] * data.draw(st.sampled_from([1.0, 3.0, -2.0]), label="h")
        _same_bytes(hsv_to_rgb(hsv[..., 0], hsv[..., 1], hsv[..., 2]),
                    np.stack([ref.hsv_to_rgb(px) for px in hsv]))

    @_FUZZ
    @given(data=st.data())
    def test_sharpness(self, data):
        x = data.draw(_shards())
        factors = _params(data.draw, len(x), 1.0, _FACTORS)
        _same_bytes(box_smooth3(x), np.stack([ref.box_smooth3(px) for px in x]))
        want = _per_image_ref(lambda px, f: ref.random_sharpness(
            _sample(px), f, 1.0, RngStream(seed=0)).pixels, x, factors)
        _same_bytes(sharpen(x, factors), want)

    @_FUZZ
    @given(data=st.data(), kernel=st.sampled_from([1, 3, 5, 7]))
    def test_blur(self, data, kernel):
        # 5 and 7 taps on 2-pixel sides reflect more than once
        x = data.draw(_shards())
        sigmas = data.draw(st.lists(st.floats(0.1, 5.0), min_size=len(x), max_size=len(x)),
                           label="sigmas")
        want = _per_image_ref(lambda px, s: ref.gaussian_blur(_sample(px), kernel, s).pixels,
                              x, sigmas)
        _same_bytes(gaussian_blur(x, kernel, sigmas), want)

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
        # odd and non-square sources, each resized to the policy's target
        samples = [_random_image(seed + i, data.draw(st.integers(3, 13), label="h"),
                                 data.draw(st.integers(3, 13), label="w"))
                   for i in range(n)]
        policy = AugmentPolicy(
            flip_prob=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="flip"),
            max_rotation_deg=data.draw(st.sampled_from([0.0, 15.0, 180.0]), label="rot"),
            jitter_brightness=data.draw(st.sampled_from([0.0, 0.2, 0.9]), label="b"),
            jitter_contrast=data.draw(st.sampled_from([0.0, 0.2, 0.9]), label="c"),
            jitter_saturation=data.draw(st.sampled_from([0.0, 0.2, 0.9]), label="s"),
            jitter_hue=data.draw(st.sampled_from([0.0, 0.05, 0.5]), label="hue"),
            sharpness_factor=data.draw(st.sampled_from([0.0, 0.2, 1.0, 2.0]), label="sf"),
            sharpness_prob=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="sp"),
            blur_kernel=data.draw(st.sampled_from([1, 3, 5]), label="kernel"),
            target_size=(data.draw(st.integers(2, 10), label="th"),
                         data.draw(st.integers(2, 10), label="tw")))
        streams = lambda: [RngStream(seed=seed).derive("aug", i) for i in range(n)]
        want = np.stack([ref.apply_policy(s, policy, rng).pixels
                         for s, rng in zip(samples, streams())])
        _same_bytes(apply_policy(samples, policy, streams()), want)
