import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgtnet import data, ppm
from hgtnet.data import (AugmentPolicy, ImageSample, adjust_brightness, adjust_hue,
                         adjust_saturation, apply_policy, color_jitter,
                         compute_stats, gaussian_blur, gaussian_kernel1d, hsv_to_rgb,
                         load_dataset, normalize, random_horizontal_flip, random_rotation,
                         random_sharpness, resize_bilinear, rgb_to_hsv, rotate90,
                         rotate_by_degrees, rotation_pretext_sample, stratified_split,
                         synth_dataset, train_policy)
from hgtnet.errors import ConfigError, DataError, FormatError, ShapeError
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
        samples = load_dataset(tmp_path)
        assert len(samples) == 6
        by_id = {s.id: s.label for s in samples}
        assert by_id["alpha/f0.ppm"] == 0
        assert by_id["mid/f1.ppm"] == 1
        assert by_id["zeta/f0.ppm"] == 2

    def test_lc25000_class_order(self, tmp_path):
        names = ["colon_aca", "colon_n", "lung_aca", "lung_n", "lung_scc"]
        self._write_tree(tmp_path, names, files_per=1)
        samples = load_dataset(tmp_path)
        labels = {s.id.split("/")[0]: s.label for s in samples}
        assert labels == {n: i for i, n in enumerate(names)}

    def test_ids_unique(self, tmp_path):
        self._write_tree(tmp_path, ["a", "b"], files_per=3)
        samples = load_dataset(tmp_path)
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
        for s in load_dataset(tmp_path):
            assert s.pixels.min() >= 0.0 and s.pixels.max() <= 1.0


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
        img = _random_image(5)
        assert random_horizontal_flip(img, 0.0, RngStream(seed=1)) is img

    def test_forced_flip_is_involution(self):
        img = _random_image(6)
        once = random_horizontal_flip(img, 1.0, RngStream(seed=1))
        twice = random_horizontal_flip(once, 1.0, RngStream(seed=2))
        assert not np.array_equal(once.pixels, img.pixels)
        assert np.array_equal(twice.pixels, img.pixels)

    def test_flip_rate_monte_carlo(self):
        img = _sample(np.zeros((2, 2, 3)))
        img.pixels[0, 0, 0] = 1.0  # asymmetric marker
        rng = RngStream(seed=77)
        flips = 0
        for i in range(10_000):
            out = random_horizontal_flip(img, 0.5, rng.derive("flip", i))
            flips += out.pixels[0, 1, 0] == 1.0
        assert abs(flips / 10_000 - 0.5) < 0.02


class TestRotation:
    def test_zero_max_identity(self):
        img = _random_image(7)
        assert random_rotation(img, 0.0, RngStream(seed=1)) is img

    def test_constant_interior_preserved(self):
        img = _sample(np.full((21, 21, 3), 0.6))
        out = rotate_by_degrees(img, 13.0)
        # center region is always in-bounds
        assert np.allclose(out.pixels[8:13, 8:13], 0.6, atol=1e-12)

    def test_forced_90_matches_index_map(self):
        px = np.arange(4 * 4 * 3, dtype=np.float64).reshape(4, 4, 3) / 48.0
        out = rotate_by_degrees(_sample(px), 90.0).pixels
        expected = np.zeros_like(px)
        for r in range(4):
            for c in range(4):
                expected[c, 4 - 1 - r] = px[r, c]
        assert np.allclose(out, expected, atol=1e-12)

    def test_angle_bounded_and_range_kept(self):
        img = _random_image(8)
        rng = RngStream(seed=3)
        for i in range(10):
            out = random_rotation(img, 15.0, rng.derive("r", i))
            assert out.pixels.shape == img.pixels.shape
            assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


class TestColorJitter:
    def test_all_zero_policy_identity(self):
        pol = AugmentPolicy(flip_prob=0, max_rotation_deg=0, jitter_brightness=0,
                            jitter_contrast=0, jitter_saturation=0, jitter_hue=0,
                            sharpness_factor=0, sharpness_prob=0, blur_kernel=1,
                            target_size=(16, 16))
        img = _random_image(9)
        out = color_jitter(img, pol, RngStream(seed=4))
        assert np.allclose(out.pixels, img.pixels, atol=1e-12)

    def test_brightness_identity_factor(self):
        img = _random_image(10)
        assert adjust_brightness(img.pixels, 1.0) is img.pixels

    def test_brightness_scales(self):
        px = np.full((2, 2, 3), 0.4)
        assert np.allclose(adjust_brightness(px, 1.5), 0.6)
        assert np.allclose(adjust_brightness(px, 3.0), 1.0)  # clamps

    def test_saturation_zero_gives_luma_grayscale(self):
        img = _random_image(11)
        out = adjust_saturation(img.pixels, 0.0)
        gray = img.pixels @ np.array([0.299, 0.587, 0.114])
        for ch in range(3):
            assert np.allclose(out[..., ch], gray, atol=1e-12)

    def test_hsv_round_trip(self):
        px = RngStream(seed=12).uniform(8 * 8 * 3).reshape(8, 8, 3)
        back = hsv_to_rgb(rgb_to_hsv(px))
        assert np.allclose(back, px, atol=1e-12)

    def test_hue_full_turn_identity(self):
        px = RngStream(seed=13).uniform(6 * 6 * 3).reshape(6, 6, 3)
        quarter = px
        for _ in range(4):
            quarter = adjust_hue(quarter, 0.25)
        assert np.allclose(quarter, px, atol=1e-10)

    def test_jitter_respects_range(self):
        img = _random_image(14)
        rng = RngStream(seed=5)
        for i in range(10):
            out = color_jitter(img, train_policy(16), rng.derive("j", i))
            assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


class TestSharpness:
    def test_factor_one_identity(self):
        img = _random_image(15)
        out = random_sharpness(img, 1.0, 1.0, RngStream(seed=6))
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_image_fixed_point(self):
        img = _sample(np.full((8, 8, 3), 0.3))
        out = random_sharpness(img, 2.5, 1.0, RngStream(seed=7))
        assert np.allclose(out.pixels, 0.3, atol=1e-12)

    def test_factor_zero_equals_smoothing_oracle(self):
        img = _random_image(16, 6, 6)
        out = random_sharpness(img, 0.0, 1.0, RngStream(seed=8))
        # oracle: direct 3x3 reflected-edge mean, written out by hand
        padded = np.pad(img.pixels, ((1, 1), (1, 1), (0, 0)), mode="reflect")
        oracle = np.zeros_like(img.pixels)
        for r in range(6):
            for c in range(6):
                oracle[r, c] = padded[r:r + 3, c:c + 3].mean(axis=(0, 1))
        assert np.allclose(out.pixels, oracle, atol=1e-12)

    def test_probability_zero_skips(self):
        img = _random_image(17)
        assert random_sharpness(img, 0.2, 0.0, RngStream(seed=9)) is img


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
        img = _sample(np.full((9, 9, 3), 0.77))
        out = gaussian_blur(img, 3, 1.3)
        assert np.allclose(out.pixels, 0.77, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 2.0, 50.0])
    def test_one_tap_kernel_is_bitwise_identity(self, sigma):
        # blur_kernel = 1 is how a policy turns blur off
        img = _random_image(19)
        assert gaussian_blur(img, 1, sigma).pixels.tobytes() == img.pixels.tobytes()

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_blur(_random_image(18), 4, 1.0)

    def test_smooths_towards_neighborhood_mean(self):
        px = np.zeros((5, 5, 3))
        px[2, 2] = 1.0
        out = gaussian_blur(_sample(px), 3, 2.0).pixels
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
        out = normalize(_sample(px), stats)
        assert out.shape == (3, 2, 2)
        assert np.allclose(out, 0.0)

    def test_normalize_identity_stats(self):
        stats = data.DatasetStats(mean=np.zeros(3), std=np.ones(3))
        img = _random_image(25)
        out = normalize(img, stats)
        assert np.allclose(out, img.pixels.transpose(2, 0, 1))

    def test_normalized_set_has_unit_moments(self):
        samples = [_random_image(30 + i, 6, 6) for i in range(5)]
        stats = compute_stats(samples)
        values = np.stack([normalize(s, stats) for s in samples])  # (n,3,h,w)
        per_channel = values.transpose(1, 0, 2, 3).reshape(3, -1)
        assert np.allclose(per_channel.mean(axis=1), 0.0, atol=1e-6)
        assert np.allclose(per_channel.std(axis=1), 1.0, atol=1e-6)


class TestRotationPretext:
    def test_label_zero_identity(self):
        img = _random_image(40)
        out, label = rotation_pretext_sample(img, RngStream(seed=1000))
        if label == 0:
            assert np.array_equal(out.pixels, img.pixels)

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
        img = _random_image(42)
        rng = RngStream(seed=43)
        seen = {rotation_pretext_sample(img, rng.derive("p", i))[1] for i in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_non_square_rejected(self):
        img = _sample(np.zeros((4, 6, 3)))
        with pytest.raises(ShapeError):
            rotation_pretext_sample(img, RngStream(seed=1))


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
        img = _random_image(70, 20, 20)
        out = apply_policy(img, data.train_policy(16), rng=None)
        direct = resize_bilinear(img, 16, 16)
        assert np.array_equal(out.pixels, direct.pixels)

    def test_train_pipeline_preserves_shape_and_range(self):
        img = _random_image(71, 20, 20)
        rng = RngStream(seed=72)
        for i in range(8):
            out = apply_policy(img, train_policy(16), rng.derive("aug", 0, i))
            assert out.pixels.shape == (16, 16, 3)
            assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_per_sample_streams_make_order_irrelevant(self):
        imgs = [_random_image(80 + i, 12, 12) for i in range(4)]
        root = RngStream(seed=81)
        forward = {im.id: apply_policy(im, train_policy(16), root.derive("aug", im.id)).pixels
                   for im in imgs}
        backward = {im.id: apply_policy(im, train_policy(16), root.derive("aug", im.id)).pixels
                    for im in reversed(imgs)}
        for k in forward:
            assert np.array_equal(forward[k], backward[k])

    def test_same_stream_bitwise_reproducible(self):
        img = _random_image(90, 18, 18)
        a = apply_policy(img, train_policy(16), RngStream(seed=91).derive("aug", "x"))
        b = apply_policy(img, train_policy(16), RngStream(seed=91).derive("aug", "x"))
        assert a.pixels.tobytes() == b.pixels.tobytes()

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            train_policy(0)
        for bad in (dict(flip_prob=1.5), dict(blur_kernel=2), dict(blur_sigma=(1.0,)),
                    dict(blur_sigma=(1.0, 2.0, 3.0)), dict(blur_sigma=(2.0, 1.0)),
                    dict(blur_sigma=(0.0, 1.0))):
            with pytest.raises(ConfigError):
                AugmentPolicy(**bad)
