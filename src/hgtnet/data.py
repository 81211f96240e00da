"""Dataset handling and the training augmentation stack.

Images are H x W x 3 float64 arrays in [0, 1] wrapped in ``ImageSample``.
Augmentation works on a shard: ``apply_policy`` resizes a list of samples
and stacks them into one (B, H, W, 3) array, and each transform then runs
once over that array with one parameter per image.  A transform returns a
new array (or its input, when no image changes), preserves shape and
clamps back to [0, 1].  Each image's parameters come from its own
``RngStream``, all drawn before any pixel work, and each image's pixels go
through the same arithmetic whatever shard it is in, so a shard is the
bitwise stack of its images augmented one at a time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
        for name in ("max_rotation_deg", "jitter_brightness", "jitter_contrast",
                     "jitter_saturation", "sharpness_factor"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.jitter_hue <= 0.5:
            raise ConfigError(f"jitter_hue must be in [0, 0.5], got {self.jitter_hue}")
        if self.blur_kernel % 2 == 0 or self.blur_kernel < 1:
            raise ConfigError(f"blur_kernel must be odd and positive, got {self.blur_kernel}")
        if len(self.blur_sigma) != 2 or not 0 < self.blur_sigma[0] <= self.blur_sigma[1] < np.inf:
            raise ConfigError(f"blur_sigma must be two finite, positive, ordered numbers "
                              f"'low,high', got {self.blur_sigma}")
        th, tw = self.target_size
        if th < 1 or tw < 1:
            raise ConfigError(f"target_size must be >= 1, got {self.target_size}")


def train_policy(target: int) -> AugmentPolicy:
    """The training-time stack at a ``target`` x ``target`` output."""
    return AugmentPolicy(target_size=(target, target))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def read_sample(path, label: int) -> ImageSample:
    """The PPM image at ``path`` as a sample of class ``label``.  Its id is
    ``class_name/file_name``, the image's directory and file names, which
    is what training keys the image's random streams by, and both names
    must be UTF-8, as the artifacts that list the id are."""
    path = Path(path).absolute()
    sample_id = f"{path.parent.name}/{path.name}"
    try:
        sample_id.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"{sample_id!r}: the class directory and file names of an image "
                        f"must be UTF-8") from None
    return ImageSample(id=sample_id, pixels=ppm.to_unit(ppm.read_ppm(path)), label=label)


def load_dataset(root) -> tuple[list[ImageSample], list[str]]:
    """Read ``<root>/<class_name>/*.ppm`` into samples with ``read_sample``,
    and return them with the class names in label order.

    Class indices follow ascending byte order of the directory names.
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
        samples += [read_sample(path, label) for path in files]
    return samples, [d.name for d in class_dirs]


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
# shards
# ---------------------------------------------------------------------------

def _on_changed(x: np.ndarray, params, identity, fn) -> np.ndarray:
    """``fn(images, their_params)`` on the images of shard ``x`` whose
    parameter is not ``identity``, the parameters shaped (n, 1, 1, 1) to
    broadcast over the pixels; the other images pass through as they are.
    A shard that changes throughout goes in whole, with no gather or
    scatter copy."""
    params = np.asarray(params)
    idx = np.flatnonzero(params != identity)
    if len(idx) == 0:
        return x
    if len(idx) == len(x):
        return fn(x, params.reshape(-1, 1, 1, 1))
    out = x.copy()
    out[idx] = fn(x[idx], params[idx].reshape(-1, 1, 1, 1))
    return out


def _reflect(x: np.ndarray, half: int, axis: int) -> np.ndarray:
    """``x`` with ``half`` mirrored rows added at both ends of ``axis``,
    equal to ``np.pad(..., mode="reflect")`` on that axis."""
    n = x.shape[axis]
    if half == 0:
        return x
    if n <= half:  # too short to mirror once: np.pad's own rules, on indices
        return np.take(x, np.pad(np.arange(n), half, mode="reflect"), axis=axis)
    lead = (slice(None),) * axis
    head = np.flip(x[lead + (slice(1, half + 1),)], axis)
    tail = np.flip(x[lead + (slice(n - 1 - half, n - 1),)], axis)
    return np.concatenate([head, x, tail], axis=axis)


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


def hflip(x: np.ndarray, flips) -> np.ndarray:
    """Mirror left to right the images of shard ``x`` whose ``flips`` entry
    is true."""
    return _on_changed(x, flips, False, lambda imgs, _: np.ascontiguousarray(imgs[:, :, ::-1]))


def rotate(x: np.ndarray, angles_deg) -> np.ndarray:
    """Rotate each image of shard ``x`` about its center by its angle
    (positive = clockwise in row/col space), bilinear resampling, zero fill
    outside the source frame; an angle of exactly 0 leaves the image as it
    is."""
    return _on_changed(x, angles_deg, 0.0, _rotate_images)


def _rotate_images(x: np.ndarray, angles: np.ndarray) -> np.ndarray:
    n, H, W = x.shape[:3]
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    # each image's cos and sin are numpy scalars, as when it is rotated alone:
    # numpy's vectorised cos and sin need not round the same
    thetas = [np.deg2rad(a) for a in angles.ravel()]
    cos_t = np.array([np.cos(t) for t in thetas])[:, None, None]
    sin_t = np.array([np.sin(t) for t in thetas])[:, None, None]
    yp = np.arange(H)[:, None] - cy
    xp = np.arange(W)[None, :] - cx
    src_r = yp * cos_t - xp * sin_t + cy
    src_c = yp * sin_t + xp * cos_t + cx

    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    wr = (src_r - r0)[..., None]
    wc = (src_c - c0)[..., None]

    # a tap outside the source frame is clipped onto the zero border of this
    # copy, so every tap is one flat gather
    framed = np.zeros((n, H + 2, W + 2, 3))
    framed[:, 1:-1, 1:-1] = x
    framed = framed.reshape(-1, 3)
    rows = [(np.arange(n) * (H + 2))[:, None, None] + np.clip(r0 + d, 0, H + 1)
            for d in (1, 2)]
    cols = [np.clip(c0 + d, 0, W + 1) for d in (1, 2)]
    out = np.zeros_like(x)
    for dr, dc, weight in ((0, 0, (1 - wr) * (1 - wc)), (0, 1, (1 - wr) * wc),
                           (1, 0, wr * (1 - wc)), (1, 1, wr * wc)):
        out += weight * np.take(framed, rows[dr] * (W + 2) + cols[dc], axis=0)
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# photometric transforms
# ---------------------------------------------------------------------------

def rgb_to_hsv(px: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hue (in turns), saturation and value planes of RGB pixels
    (..., 3)."""
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    # max(axis=-1) and min(axis=-1), which fold the channels in this same
    # order, as elementwise passes: reducing a length-3 axis costs ~30x more
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    delta = maxc - minc
    safe_delta = np.where(delta == 0.0, 1.0, delta)
    rc = (maxc - r) / safe_delta
    gc = (maxc - g) / safe_delta
    bc = (maxc - b) / safe_delta
    h = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(delta == 0.0, 0.0, (h / 6.0) % 1.0)
    s = np.where(maxc == 0.0, 0.0, delta / np.where(maxc == 0.0, 1.0, maxc))
    return h, s, maxc


# the channels of each hue sector, as indices into the stack [v, t, p, q]
_HSV_SECTORS = np.array([[0, 1, 2], [3, 0, 2], [2, 0, 1], [2, 3, 0], [1, 2, 0], [0, 2, 3]])


def hsv_to_rgb(h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """RGB pixels (..., 3) from hue (in turns), saturation and value planes."""
    h6 = (h % 1.0) * 6.0
    sector = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    # take_along_axis(stack, _HSV_SECTORS[sector], axis=-1), as one flat gather
    pick = np.take(_HSV_SECTORS, sector, axis=0)
    pick += np.arange(0, 4 * sector.size, 4).reshape(sector.shape + (1,))
    return np.take(np.stack([v, t, p, q], axis=-1), pick)


def luma(px: np.ndarray) -> np.ndarray:
    """Per-pixel grayscale value: (..., 3) -> (...)."""
    return px @ _LUMA


def adjust_brightness(x: np.ndarray, factors) -> np.ndarray:
    """Scale each image of shard ``x`` by its factor."""
    return _on_changed(x, factors, 1.0, lambda imgs, f: np.clip(imgs * f, 0.0, 1.0))


def _contrast(imgs, f):
    # each image's anchor is the mean luma over its own H x W
    anchor = luma(imgs).mean(axis=(1, 2))[:, None, None, None]
    return np.clip(anchor + f * (imgs - anchor), 0.0, 1.0)


def adjust_contrast(x: np.ndarray, factors) -> np.ndarray:
    """Scale each image's distance from its mean luma by its factor."""
    return _on_changed(x, factors, 1.0, _contrast)


def _saturation(imgs, f):
    gray = luma(imgs)[..., None]
    return np.clip(gray + f * (imgs - gray), 0.0, 1.0)


def adjust_saturation(x: np.ndarray, factors) -> np.ndarray:
    """Scale each pixel's distance from its own luma by its image's factor."""
    return _on_changed(x, factors, 1.0, _saturation)


def _hue(imgs, d):
    h, s, v = rgb_to_hsv(imgs)
    return np.clip(hsv_to_rgb((h + d[..., 0]) % 1.0, s, v), 0.0, 1.0)


def adjust_hue(x: np.ndarray, deltas) -> np.ndarray:
    """Shift each image's hue by its delta in turns (delta in [-0.5, 0.5])."""
    return _on_changed(x, deltas, 0.0, _hue)


# jitter op name -> (transform, the parameter that leaves an image as it is)
_JITTER = {"brightness": (adjust_brightness, 1.0), "contrast": (adjust_contrast, 1.0),
           "saturation": (adjust_saturation, 1.0), "hue": (adjust_hue, 0.0)}


def color_jitter(x: np.ndarray, jitters) -> np.ndarray:
    """``jitters[i]`` lists the (op name, parameter) pairs that image ``i``
    applies, in its order.  Each position runs as one call per op over the
    images that apply that op there."""
    for pos in range(len(_JITTER)):
        for name, (transform, identity) in _JITTER.items():
            x = transform(x, [j[pos][1] if j[pos][0] == name else identity for j in jitters])
    return x


def box_smooth3(x: np.ndarray) -> np.ndarray:
    """3x3 box mean of each image of shard ``x`` with reflected edges, the
    smoothing behind sharpness."""
    H, W = x.shape[1:3]
    padded = _reflect(_reflect(x, 1, 1), 1, 2)
    out = np.zeros_like(x)
    for dr in range(3):
        for dc in range(3):
            out += padded[:, dr:dr + H, dc:dc + W]
    return out / 9.0


def _sharpen(imgs, f):
    blurred = box_smooth3(imgs)
    return np.clip(blurred + f * (imgs - blurred), 0.0, 1.0)


def sharpen(x: np.ndarray, factors) -> np.ndarray:
    """Move each image away from its box smoothing by its factor: 0 gives
    the smoothing, 1 the image itself."""
    return _on_changed(x, factors, 1.0, _sharpen)


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


def gaussian_blur(x: np.ndarray, kernel: int, sigmas) -> np.ndarray:
    """Separable Gaussian smoothing with reflected edges, each image of shard
    ``x`` with its own sigma."""
    w = np.stack([gaussian_kernel1d(kernel, sigma) for sigma in sigmas])
    half = kernel // 2
    H, W = x.shape[1:3]
    padded = _reflect(x, half, 1)
    rows = sum(w[:, i, None, None, None] * padded[:, i:i + H] for i in range(kernel))
    padded = _reflect(rows, half, 2)
    cols = sum(w[:, i, None, None, None] * padded[:, :, i:i + W] for i in range(kernel))
    return np.clip(cols, 0.0, 1.0)


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


def normalize(x: np.ndarray, stats: DatasetStats) -> np.ndarray:
    """Standardize a (B, H, W, 3) shard per channel and lay it out
    channel-first as (B, 3, H, W)."""
    out = np.empty((x.shape[0], 3) + x.shape[1:3])
    np.subtract(x.transpose(0, 3, 1, 2), stats.mean[:, None, None], out=out)
    out /= stats.std[:, None, None]
    return out


# ---------------------------------------------------------------------------
# rotation pretext
# ---------------------------------------------------------------------------

def rotate90(px: np.ndarray, k: int) -> np.ndarray:
    """Exact k x 90-degree rotation of (..., H, W, 3) pixels (index
    permutation, no resampling).

    k=1 maps source pixel (r, c) to (c, H-1-r); square images only.
    """
    if px.shape[-3] != px.shape[-2]:
        raise ShapeError(f"90-degree rotation needs a square image, got "
                         f"{px.shape[-3]}x{px.shape[-2]}")
    return np.ascontiguousarray(np.rot90(px, k=-(k % 4), axes=(-3, -2)))


# quarter turns, RotNet style: the rotation head predicts one of these classes
NUM_ROTATIONS = 4


def rotation_pretext_sample(x: np.ndarray, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each image of shard ``x`` by a multiple of 90 degrees drawn
    uniformly from its stream; returns the rotated shard and the rotation
    labels in {0, 1, 2, 3}."""
    labels = np.array([rng.randint(NUM_ROTATIONS) for rng in rngs], dtype=np.int64)
    out = x.copy()
    for k in range(1, NUM_ROTATIONS):
        idx = np.flatnonzero(labels == k)
        if len(idx):
            out[idx] = rotate90(x[idx], k)
    return out, labels


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
# the synthetic classes' names in label order; ids are <name>_<index>
SYNTH_CLASS_NAMES = tuple(f"class{k}" for k in range(len(_SYNTH_CLASSES)))


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
            samples.append(ImageSample(f"{SYNTH_CLASS_NAMES[label]}_{i:04d}", px, label))
    return samples


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

class _Draws(NamedTuple):
    """One image's random parameters; a transform that is off, or that its
    draw turns off, holds the parameter that leaves the image as it is."""
    flip: bool
    angle: float
    jitter: list  # (op name, parameter) pairs in the image's shuffled order
    sharpness: float
    sigma: float


def _draw(policy: AugmentPolicy, rng: RngStream) -> _Draws:
    """Take one image's draws in the order its transforms run: flip,
    rotation, the jitter order, one value per enabled jitter op, sharpness,
    blur sigma.  A transform with zero probability or magnitude draws
    nothing.  No draw depends on pixel values, so all of them can be taken
    before any pixel work."""
    flip = policy.flip_prob != 0.0 and rng.uniform() < policy.flip_prob
    angle = 0.0
    if policy.max_rotation_deg != 0.0:
        angle = (rng.uniform() * 2.0 - 1.0) * policy.max_rotation_deg
    jitter = []
    for name in rng.shuffle(list(_JITTER)):
        magnitude = getattr(policy, f"jitter_{name}")
        value = _JITTER[name][1]
        if magnitude > 0:
            u = rng.uniform() * 2.0 - 1.0
            value = u * magnitude if name == "hue" else 1.0 + u * magnitude
        jitter.append((name, value))
    sharpness = 1.0
    if policy.sharpness_prob != 0.0 and rng.uniform() < policy.sharpness_prob:
        sharpness = policy.sharpness_factor
    lo, hi = policy.blur_sigma
    return _Draws(flip, angle, jitter, sharpness, lo + rng.uniform() * (hi - lo))


def apply_policy(samples: list[ImageSample], policy: AugmentPolicy,
                 rngs: list[RngStream]) -> np.ndarray:
    """Resize each sample to the policy target and stack them into a
    (B, H, W, 3) shard, then run the random stack in order: flip, rotation,
    color jitter, sharpness, blur.  ``rngs[i]`` is sample i's stream, and
    its draws alone decide what happens to that image, so an image comes out
    the same in any shard."""
    th, tw = policy.target_size
    x = np.stack([resize_bilinear(s, th, tw).pixels for s in samples])
    draws = [_draw(policy, rng) for rng in rngs]
    x = hflip(x, [d.flip for d in draws])
    x = rotate(x, [d.angle for d in draws])
    x = color_jitter(x, [d.jitter for d in draws])
    x = sharpen(x, [d.sharpness for d in draws])
    return gaussian_blur(x, policy.blur_kernel, [d.sigma for d in draws])
