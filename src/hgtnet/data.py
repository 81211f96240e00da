"""Dataset handling and the training augmentation stack.

Images are H x W x 3 float64 arrays in [0, 1] wrapped in ``ImageSample``.
Every augmentation returns a new sample, preserves shape, and clamps back
to [0, 1]; randomness comes exclusively from an ``RngStream`` argument, so
a pipeline is a pure function of (sample, policy, stream).  Passing
``rng=None`` to ``apply_policy`` disables every random transform, which
reduces the pipeline to resize alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ppm
from .errors import ConfigError, DataError, ShapeError
from .rng import RngStream

# ITU-R BT.601 luma weights, used for grayscale and mean-luma blends.
_LUMA = np.array([0.299, 0.587, 0.114])

STD_FLOOR = 1e-6


@dataclass
class ImageSample:
    id: str
    pixels: np.ndarray  # H x W x 3 float64 in [0, 1]
    label: int

    def with_pixels(self, pixels: np.ndarray) -> "ImageSample":
        return dataclasses.replace(self, pixels=pixels)


@dataclass(frozen=True)
class DatasetStats:
    mean: np.ndarray  # (3,)
    std: np.ndarray   # (3,), every component >= STD_FLOOR

    def __post_init__(self):
        mean, std = np.asarray(self.mean), np.asarray(self.std)
        if mean.shape != (3,) or std.shape != (3,) or not np.isfinite(mean).all() \
                or not (np.isfinite(std) & (std >= STD_FLOOR)).all():
            raise DataError(f"statistics need 3 finite means and 3 finite stds >= "
                            f"{STD_FLOOR}, got mean {mean.tolist()} and std {std.tolist()}")


@dataclass(frozen=True)
class AugmentPolicy:
    """The training stack, by default the paper's; a one-tap ``blur_kernel``
    leaves every pixel unchanged, which is how blur is turned off."""
    flip_prob: float = 0.5
    max_rotation_deg: float = 15.0
    jitter_brightness: float = 0.2
    jitter_contrast: float = 0.2
    jitter_saturation: float = 0.2
    jitter_hue: float = 0.05
    sharpness_factor: float = 0.2
    sharpness_prob: float = 0.5
    blur_kernel: int = 3
    blur_sigma: tuple[float, float] = (0.1, 2.0)
    target_size: tuple[int, int] = (224, 224)

    def __post_init__(self):
        for name in ("flip_prob", "sharpness_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        if self.max_rotation_deg < 0:
            raise ConfigError(f"max_rotation_deg must be >= 0, got {self.max_rotation_deg}")
        for name in ("jitter_brightness", "jitter_contrast", "jitter_saturation"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 <= self.jitter_hue <= 0.5:
            raise ConfigError(f"jitter_hue must be in [0, 0.5], got {self.jitter_hue}")
        if self.sharpness_factor < 0:
            raise ConfigError(f"sharpness_factor must be >= 0, got {self.sharpness_factor}")
        if self.blur_kernel % 2 == 0 or self.blur_kernel < 1:
            raise ConfigError(f"blur_kernel must be odd and positive, got {self.blur_kernel}")
        if len(self.blur_sigma) != 2 or not 0 < self.blur_sigma[0] <= self.blur_sigma[1] < np.inf:
            raise ConfigError(f"blur_sigma must be two finite, positive, ordered numbers "
                              f"'low,high', got {self.blur_sigma}")
        th, tw = self.target_size
        if th < 1 or tw < 1:
            raise ConfigError(f"target_size must be >= 1, got {self.target_size}")


def train_policy(target: int = 224) -> AugmentPolicy:
    """The training-time stack at a ``target`` x ``target`` output."""
    return AugmentPolicy(target_size=(target, target))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def load_dataset(root) -> list[ImageSample]:
    """Read ``<root>/<class_name>/*.ppm`` into samples.

    Class indices follow ascending byte order of the directory names; ids
    are ``class_name/file_name`` relative paths.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    class_dirs = sorted((d for d in root.iterdir() if d.is_dir()), key=lambda d: d.name)
    if not class_dirs:
        raise DataError(f"dataset root {root} contains no class directories")
    samples: list[ImageSample] = []
    for label, class_dir in enumerate(class_dirs):
        files = sorted(class_dir.glob("*.ppm"), key=lambda f: f.name)
        if not files:
            raise DataError(f"class directory {class_dir} contains no .ppm files")
        for path in files:
            pixels = ppm.to_unit(ppm.read_ppm(path))
            samples.append(ImageSample(id=f"{class_dir.name}/{path.name}",
                                       pixels=pixels, label=label))
    return samples


def class_names(root) -> list[str]:
    """Class directory names in label order (ascending byte order)."""
    root = Path(root)
    return sorted(d.name for d in root.iterdir() if d.is_dir())


def stratified_split(samples: list[ImageSample], test_fraction: float,
                     rng: RngStream) -> tuple[list[ImageSample], list[ImageSample]]:
    """Seeded per-class split; each class contributes ~test_fraction of its
    samples (at least 1 when the fraction is positive)."""
    if not 0.0 <= test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in [0, 1), got {test_fraction}")
    by_label: dict[int, list[ImageSample]] = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s)
    train: list[ImageSample] = []
    test: list[ImageSample] = []
    for label in sorted(by_label):
        group = sorted(by_label[label], key=lambda s: s.id)
        order = rng.derive("split", label).shuffle(list(range(len(group))))
        n_test = int(round(len(group) * test_fraction))
        if test_fraction > 0:
            n_test = max(1, min(n_test, len(group) - 1))
        picked = set(order[:n_test])
        for i, s in enumerate(group):
            (test if i in picked else train).append(s)
    return train, test


# ---------------------------------------------------------------------------
# geometric transforms
# ---------------------------------------------------------------------------

def _resize_axis(px: np.ndarray, out_len: int, axis: int) -> np.ndarray:
    in_len = px.shape[axis]
    if out_len == in_len:
        return px
    # half-pixel-center convention (corner-aligned = false)
    src = (np.arange(out_len) + 0.5) * (in_len / out_len) - 0.5
    src = np.clip(src, 0.0, in_len - 1)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, in_len - 1)
    w = src - lo
    moved = np.moveaxis(px, axis, 0)
    out = moved[lo] * (1.0 - w)[(...,) + (None,) * (px.ndim - 1)] \
        + moved[hi] * w[(...,) + (None,) * (px.ndim - 1)]
    return np.moveaxis(out, 0, axis)


def resize_bilinear(img: ImageSample, h: int, w: int) -> ImageSample:
    """Separable bilinear resize; convex weights keep values in [0, 1]."""
    if h < 1 or w < 1:
        raise ShapeError(f"resize target must be >= 1, got {h}x{w}")
    out = _resize_axis(_resize_axis(img.pixels, h, 0), w, 1)
    return img.with_pixels(np.ascontiguousarray(out))


def random_horizontal_flip(img: ImageSample, prob: float, rng: RngStream) -> ImageSample:
    if prob == 0.0 or rng.uniform() >= prob:
        return img
    return img.with_pixels(np.ascontiguousarray(img.pixels[:, ::-1, :]))


def _rotate_pixels(px: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate about the image center (positive = clockwise in row/col space),
    bilinear resampling, zero fill outside the source frame."""
    H, W = px.shape[:2]
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    theta = np.deg2rad(angle_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    yp = np.arange(H)[:, None] - cy
    xp = np.arange(W)[None, :] - cx
    src_r = yp * cos_t - xp * sin_t + cy
    src_c = yp * sin_t + xp * cos_t + cx

    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    wr = (src_r - r0)[..., None]
    wc = (src_c - c0)[..., None]

    out = np.zeros_like(px)
    for dr, dc, weight in ((0, 0, (1 - wr) * (1 - wc)), (0, 1, (1 - wr) * wc),
                           (1, 0, wr * (1 - wc)), (1, 1, wr * wc)):
        rr, cc = r0 + dr, c0 + dc
        valid = (rr >= 0) & (rr < H) & (cc >= 0) & (cc < W)
        gathered = px[np.clip(rr, 0, H - 1), np.clip(cc, 0, W - 1)]
        out += weight * np.where(valid[..., None], gathered, 0.0)
    return np.clip(out, 0.0, 1.0)


def random_rotation(img: ImageSample, max_deg: float, rng: RngStream) -> ImageSample:
    if max_deg == 0.0:
        return img
    return rotate_by_degrees(img, (rng.uniform() * 2.0 - 1.0) * max_deg)


def rotate_by_degrees(img: ImageSample, angle_deg: float) -> ImageSample:
    """Rotation by a given angle; random_rotation draws its angle and calls this."""
    if angle_deg == 0.0:
        return img
    return img.with_pixels(_rotate_pixels(img.pixels, angle_deg))


# ---------------------------------------------------------------------------
# photometric transforms
# ---------------------------------------------------------------------------

def rgb_to_hsv(px: np.ndarray) -> np.ndarray:
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    maxc = px.max(axis=-1)
    minc = px.min(axis=-1)
    delta = maxc - minc
    safe_delta = np.where(delta == 0.0, 1.0, delta)
    rc = (maxc - r) / safe_delta
    gc = (maxc - g) / safe_delta
    bc = (maxc - b) / safe_delta
    h = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(delta == 0.0, 0.0, (h / 6.0) % 1.0)
    s = np.where(maxc == 0.0, 0.0, delta / np.where(maxc == 0.0, 1.0, maxc))
    return np.stack([h, s, maxc], axis=-1)


def hsv_to_rgb(px: np.ndarray) -> np.ndarray:
    h, s, v = px[..., 0], px[..., 1], px[..., 2]
    h6 = (h % 1.0) * 6.0
    sector = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    channels = np.stack([
        np.stack([v, t, p], axis=-1), np.stack([q, v, p], axis=-1),
        np.stack([p, v, t], axis=-1), np.stack([p, q, v], axis=-1),
        np.stack([t, p, v], axis=-1), np.stack([v, p, q], axis=-1),
    ], axis=0)
    return np.take_along_axis(channels, sector[None, ..., None], axis=0)[0]


def luma(px: np.ndarray) -> np.ndarray:
    """Per-pixel grayscale value (H x W)."""
    return px @ _LUMA


def adjust_brightness(px: np.ndarray, factor: float) -> np.ndarray:
    if factor == 1.0:
        return px
    return np.clip(px * factor, 0.0, 1.0)


def adjust_contrast(px: np.ndarray, factor: float) -> np.ndarray:
    if factor == 1.0:
        return px
    anchor = luma(px).mean()
    return np.clip(anchor + factor * (px - anchor), 0.0, 1.0)


def adjust_saturation(px: np.ndarray, factor: float) -> np.ndarray:
    if factor == 1.0:
        return px
    gray = luma(px)[..., None]
    return np.clip(gray + factor * (px - gray), 0.0, 1.0)


def adjust_hue(px: np.ndarray, delta: float) -> np.ndarray:
    """Shift hue by ``delta`` turns (delta in [-0.5, 0.5])."""
    if delta == 0.0:
        return px
    hsv = rgb_to_hsv(px)
    hsv[..., 0] = (hsv[..., 0] + delta) % 1.0
    return np.clip(hsv_to_rgb(hsv), 0.0, 1.0)


def color_jitter(img: ImageSample, policy: AugmentPolicy, rng: RngStream) -> ImageSample:
    """Brightness/contrast/saturation factors from [1-f, 1+f], hue shift from
    [-f, +f] turns, applied in a randomized order; zero-magnitude transforms
    are skipped entirely."""
    px = img.pixels
    ops = rng.shuffle(["brightness", "contrast", "saturation", "hue"])
    for op in ops:
        if op == "brightness" and policy.jitter_brightness > 0:
            px = adjust_brightness(px, 1.0 + (rng.uniform() * 2.0 - 1.0) * policy.jitter_brightness)
        elif op == "contrast" and policy.jitter_contrast > 0:
            px = adjust_contrast(px, 1.0 + (rng.uniform() * 2.0 - 1.0) * policy.jitter_contrast)
        elif op == "saturation" and policy.jitter_saturation > 0:
            px = adjust_saturation(px, 1.0 + (rng.uniform() * 2.0 - 1.0) * policy.jitter_saturation)
        elif op == "hue" and policy.jitter_hue > 0:
            px = adjust_hue(px, (rng.uniform() * 2.0 - 1.0) * policy.jitter_hue)
    return img if px is img.pixels else img.with_pixels(px)


def box_smooth3(px: np.ndarray) -> np.ndarray:
    """3x3 box mean with reflected edges, the smoothing behind sharpness."""
    padded = np.pad(px, ((1, 1), (1, 1), (0, 0)), mode="reflect")
    out = np.zeros_like(px)
    for dr in range(3):
        for dc in range(3):
            out += padded[dr:dr + px.shape[0], dc:dc + px.shape[1]]
    return out / 9.0


def random_sharpness(img: ImageSample, factor: float, prob: float,
                     rng: RngStream) -> ImageSample:
    if prob == 0.0 or rng.uniform() >= prob:
        return img
    if factor == 1.0:
        return img
    blurred = box_smooth3(img.pixels)
    return img.with_pixels(np.clip(blurred + factor * (img.pixels - blurred), 0.0, 1.0))


def gaussian_kernel1d(kernel: int, sigma: float) -> np.ndarray:
    """Sampled Gaussian of odd length ``kernel``, normalized to sum 1."""
    if kernel % 2 == 0 or kernel < 1:
        raise ConfigError(f"blur kernel must be odd and positive, got {kernel}")
    if sigma <= 0:
        raise ConfigError(f"blur sigma must be positive, got {sigma}")
    half = kernel // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    w = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return w / w.sum()


def gaussian_blur(img: ImageSample, kernel: int, sigma: float) -> ImageSample:
    """Separable Gaussian smoothing with reflected edges."""
    w = gaussian_kernel1d(kernel, sigma)
    half = kernel // 2
    px = img.pixels
    padded = np.pad(px, ((half, half), (0, 0), (0, 0)), mode="reflect")
    rows = sum(w[i] * padded[i:i + px.shape[0]] for i in range(kernel))
    padded = np.pad(rows, ((0, 0), (half, half), (0, 0)), mode="reflect")
    cols = sum(w[i] * padded[:, i:i + px.shape[1]] for i in range(kernel))
    return img.with_pixels(np.clip(cols, 0.0, 1.0))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def compute_stats(train_samples: list[ImageSample]) -> DatasetStats:
    """Two-pass per-channel mean and population std over every training
    pixel; std floored at STD_FLOOR."""
    if not train_samples:
        raise DataError("cannot compute statistics of an empty training split")
    count = 0
    total = np.zeros(3)
    for s in train_samples:
        count += s.pixels.shape[0] * s.pixels.shape[1]
        total += s.pixels.sum(axis=(0, 1))
    mean = total / count
    sq = np.zeros(3)
    for s in train_samples:
        sq += ((s.pixels - mean) ** 2).sum(axis=(0, 1))
    std = np.maximum(np.sqrt(sq / count), STD_FLOOR)
    return DatasetStats(mean=mean, std=std)


def normalize(img: ImageSample, stats: DatasetStats) -> np.ndarray:
    """Standardize per channel and lay out channel-first as a 3 x H x W array."""
    px = (img.pixels - stats.mean) / stats.std
    return np.ascontiguousarray(px.transpose(2, 0, 1))


# ---------------------------------------------------------------------------
# rotation pretext
# ---------------------------------------------------------------------------

def rotate90(px: np.ndarray, k: int) -> np.ndarray:
    """Exact k x 90-degree rotation (index permutation, no resampling).

    k=1 maps source pixel (r, c) to (c, H-1-r); square inputs only.
    """
    if px.shape[0] != px.shape[1]:
        raise ShapeError(f"90-degree rotation needs a square image, got {px.shape[0]}x{px.shape[1]}")
    return np.ascontiguousarray(np.rot90(px, k=-(k % 4)))


# quarter turns, RotNet style: the rotation head predicts one of these classes
NUM_ROTATIONS = 4


def rotation_pretext_sample(img: ImageSample, rng: RngStream) -> tuple[ImageSample, int]:
    """Rotate by a uniformly drawn multiple of 90 degrees; returns the rotated
    sample and the rotation label in {0, 1, 2, 3}."""
    label = rng.randint(NUM_ROTATIONS)
    if label == 0:
        return img.with_pixels(img.pixels.copy()), 0
    return img.with_pixels(rotate90(img.pixels, label)), label


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

# class signature: base RGB color, grating cycles across the image,
# grating orientation (degrees), grating amplitude
_SYNTH_CLASSES = (
    ((0.75, 0.35, 0.35), 3.0, 0.0, 0.18),
    ((0.35, 0.75, 0.35), 6.0, 45.0, 0.22),
    ((0.35, 0.35, 0.75), 9.0, 90.0, 0.18),
    ((0.70, 0.70, 0.30), 12.0, 135.0, 0.22),
    ((0.55, 0.35, 0.70), 5.0, 20.0, 0.26),
)


def synth_dataset(num_per_class: int, size: int, rng: RngStream) -> list[ImageSample]:
    """Five texture classes: distinct base color plus an oriented sinusoidal
    grating with a random phase and mild pixel noise.  Deterministic per
    stream, balanced counts."""
    if num_per_class < 1:
        raise ConfigError(f"num_per_class must be >= 1, got {num_per_class}")
    if size < 16:
        raise ConfigError(f"size must be >= 16, got {size}")
    yy, xx = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    samples: list[ImageSample] = []
    for label, (color, cycles, orient_deg, amp) in enumerate(_SYNTH_CLASSES):
        theta = np.deg2rad(orient_deg)
        wave_axis = (np.cos(theta) * xx + np.sin(theta) * yy) / size
        for i in range(num_per_class):
            s = rng.derive("synth", label, i)
            phase = s.uniform() * 2.0 * np.pi
            grating = amp * np.sin(2.0 * np.pi * cycles * wave_axis + phase)
            noise = 0.03 * s.normal(size * size * 3).reshape(size, size, 3)
            px = np.clip(np.asarray(color) + grating[..., None] + noise, 0.0, 1.0)
            samples.append(ImageSample(id=f"class{label}_{i:04d}", pixels=px, label=label))
    return samples


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def apply_policy(img: ImageSample, policy: AugmentPolicy,
                 rng: RngStream | None) -> ImageSample:
    """Resize to the policy target, then run the random stack in order:
    flip, rotation, color jitter, sharpness, blur.  ``rng=None`` disables
    every random transform, leaving resize alone."""
    th, tw = policy.target_size
    out = resize_bilinear(img, th, tw)
    if rng is None:
        return out
    out = random_horizontal_flip(out, policy.flip_prob, rng)
    out = random_rotation(out, policy.max_rotation_deg, rng)
    out = color_jitter(out, policy, rng)
    out = random_sharpness(out, policy.sharpness_factor, policy.sharpness_prob, rng)
    lo, hi = policy.blur_sigma
    return gaussian_blur(out, policy.blur_kernel, lo + rng.uniform() * (hi - lo))
