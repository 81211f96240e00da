"""Dataset handling and the training augmentation stack.

Images are H x W x 3 float64 arrays in [0, 1] wrapped in ``ImageSample``.
Each transform takes one (H, W, 3) image and a scalar parameter; it
returns a new array, preserves shape and clamps back to [0, 1].  Given the
parameter that changes nothing (no flip, an angle of 0, a factor of 1, a
hue delta of 0) it returns its input object.  ``apply_policy`` draws
each image's parameters from that image's own ``RngStream``, augments the
images one at a time and stacks the views, so an image's view does not
depend on its batch.
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


# The paper's training stack, fixed by the design; the color jitter
# magnitudes sit beside their transforms in _JITTER.
FLIP_PROB = 0.5
MAX_ROTATION_DEG = 15.0
SHARPNESS_FACTOR = 0.2
SHARPNESS_PROB = 0.5
BLUR_KERNEL = 3
BLUR_SIGMA = (0.1, 2.0)


@dataclass(frozen=True)
class AugmentPolicy:
    """The training stack at an output size; the stack itself is the module
    constants above."""
    target_size: tuple[int, int]


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
    samples, and when the fraction is positive at least 1 to each side, so a
    class of one sample is refused."""
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
            if len(group) < 2:
                raise DataError(f"class {label} has one sample ({group[0].id}), which "
                                f"cannot be split between training and test")
            n_test = max(1, min(n_test, len(group) - 1))
        picked = set(order[:n_test])
        for i, s in enumerate(group):
            (test if i in picked else train).append(s)
    return train, test


def _reflect(x: np.ndarray, axis: int) -> np.ndarray:
    """``x`` with one mirrored row added at both ends of ``axis`` (the
    half-width of the 3 x 3 box and of the BLUR_KERNEL-tap blur), equal to
    ``np.pad(..., 1, mode="reflect")`` on that axis, which repeats a lone
    row."""
    n = x.shape[axis]
    head, tail = (1, n - 2) if n > 1 else (0, 0)
    lead = (slice(None),) * axis
    return np.concatenate([x[lead + (slice(head, head + 1),)], x,
                           x[lead + (slice(tail, tail + 1),)]], axis=axis)


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


def hflip(px: np.ndarray, flip: bool) -> np.ndarray:
    """Mirror the image left to right when ``flip`` is true."""
    return np.ascontiguousarray(px[:, ::-1]) if flip else px


def rotate(px: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate the image about its center by ``angle_deg`` (positive =
    clockwise in row/col space), bilinear resampling, zero fill outside the
    source frame."""
    if angle_deg == 0.0:
        return px
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

    # a tap outside the source frame is clipped onto the zero border of this
    # copy, so every tap is one flat gather
    framed = np.zeros((H + 2, W + 2, 3))
    framed[1:-1, 1:-1] = px
    framed = framed.reshape(-1, 3)
    rows = [np.clip(r0 + d, 0, H + 1) * (W + 2) for d in (1, 2)]
    cols = [np.clip(c0 + d, 0, W + 1) for d in (1, 2)]
    out = np.zeros_like(px)
    for dr, dc, weight in ((0, 0, (1 - wr) * (1 - wc)), (0, 1, (1 - wr) * wc),
                           (1, 0, wr * (1 - wc)), (1, 1, wr * wc)):
        out += weight * np.take(framed, rows[dr] + cols[dc], axis=0)
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


def adjust_brightness(px: np.ndarray, factor: float) -> np.ndarray:
    """Scale the image by ``factor``."""
    if factor == 1.0:
        return px
    return np.clip(px * factor, 0.0, 1.0)


def adjust_contrast(px: np.ndarray, factor: float) -> np.ndarray:
    """Scale the image's distance from its mean luma by ``factor``."""
    if factor == 1.0:
        return px
    anchor = luma(px).mean()
    return np.clip(anchor + factor * (px - anchor), 0.0, 1.0)


def adjust_saturation(px: np.ndarray, factor: float) -> np.ndarray:
    """Scale each pixel's distance from its own luma by ``factor``."""
    if factor == 1.0:
        return px
    gray = luma(px)[..., None]
    return np.clip(gray + factor * (px - gray), 0.0, 1.0)


def adjust_hue(px: np.ndarray, delta: float) -> np.ndarray:
    """Shift the image's hue by ``delta`` turns (delta in [-0.5, 0.5])."""
    if delta == 0.0:
        return px
    h, s, v = rgb_to_hsv(px)
    return np.clip(hsv_to_rgb((h + delta) % 1.0, s, v), 0.0, 1.0)


# jitter op name -> (transform, magnitude): a factor drawn from
# [1 - magnitude, 1 + magnitude], or for hue a shift from +-magnitude turns
_JITTER = {"brightness": (adjust_brightness, 0.2), "contrast": (adjust_contrast, 0.2),
           "saturation": (adjust_saturation, 0.2), "hue": (adjust_hue, 0.05)}


def color_jitter(px: np.ndarray, jitter) -> np.ndarray:
    """Apply the image's (op name, parameter) pairs in their order."""
    for name, value in jitter:
        px = _JITTER[name][0](px, value)
    return px


def box_smooth3(px: np.ndarray) -> np.ndarray:
    """3x3 box mean with reflected edges, the smoothing behind sharpness."""
    H, W = px.shape[:2]
    padded = _reflect(_reflect(px, 0), 1)
    out = np.zeros_like(px)
    for dr in range(3):
        for dc in range(3):
            out += padded[dr:dr + H, dc:dc + W]
    return out / 9.0


def sharpen(px: np.ndarray, factor: float) -> np.ndarray:
    """Move the image away from its box smoothing by ``factor``: 0 gives the
    smoothing, 1 the image itself."""
    if factor == 1.0:
        return px
    blurred = box_smooth3(px)
    return np.clip(blurred + factor * (px - blurred), 0.0, 1.0)


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Sampled BLUR_KERNEL-tap Gaussian, normalized to sum 1."""
    half = BLUR_KERNEL // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    w = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return w / w.sum()


def gaussian_blur(px: np.ndarray, sigma: float) -> np.ndarray:
    """Separable BLUR_KERNEL-tap Gaussian smoothing with reflected edges."""
    w = gaussian_kernel1d(sigma)
    H, W = px.shape[:2]
    padded = _reflect(px, 0)
    rows = sum(w[i] * padded[i:i + H] for i in range(BLUR_KERNEL))
    padded = _reflect(rows, 1)
    cols = sum(w[i] * padded[:, i:i + W] for i in range(BLUR_KERNEL))
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
    """Standardize a (B, H, W, 3) stack per channel and lay it out
    channel-first as (B, 3, H, W)."""
    out = np.empty((x.shape[0], 3) + x.shape[1:3])
    np.subtract(x.transpose(0, 3, 1, 2), stats.mean[:, None, None], out=out)
    out /= stats.std[:, None, None]
    return out


# ---------------------------------------------------------------------------
# rotation pretext
# ---------------------------------------------------------------------------

def rotate90(px: np.ndarray, k: int) -> np.ndarray:
    """Exact k x 90-degree rotation of an (H, W, 3) image (index
    permutation, no resampling).

    k=1 maps source pixel (r, c) to (c, H-1-r); square images only, also
    at k=0.
    """
    if px.shape[0] != px.shape[1]:
        raise ShapeError(f"90-degree rotation needs a square image, got "
                         f"{px.shape[0]}x{px.shape[1]}")
    return np.ascontiguousarray(np.rot90(px, k=-(k % 4)))


# quarter turns, RotNet style: the rotation head predicts one of these classes
NUM_ROTATIONS = 4


def rotation_pretext_sample(x: np.ndarray, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each image of the stack ``x`` by a multiple of 90 degrees
    drawn uniformly from its stream; returns the rotated stack and the
    rotation labels in {0, 1, 2, 3}."""
    labels = np.array([rng.randint(NUM_ROTATIONS) for rng in rngs], dtype=np.int64)
    return np.stack([rotate90(px, k) for px, k in zip(x, labels)]), labels


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
    """One image's random parameters; a transform that its draw turns off
    holds the parameter that leaves the image as it is."""
    flip: bool
    angle: float
    jitter: list  # (op name, parameter) pairs in the image's shuffled order
    sharpness: float
    sigma: float


def _draw(rng: RngStream) -> _Draws:
    """Take one image's draws in the order its transforms run: flip,
    rotation, the jitter order, one value per jitter op, sharpness, blur
    sigma."""
    flip = rng.uniform() < FLIP_PROB
    angle = (rng.uniform() * 2.0 - 1.0) * MAX_ROTATION_DEG
    jitter = []
    for name in rng.shuffle(list(_JITTER)):
        u = (rng.uniform() * 2.0 - 1.0) * _JITTER[name][1]
        jitter.append((name, u if name == "hue" else 1.0 + u))
    sharpness = SHARPNESS_FACTOR if rng.uniform() < SHARPNESS_PROB else 1.0
    lo, hi = BLUR_SIGMA
    return _Draws(flip, angle, jitter, sharpness, lo + rng.uniform() * (hi - lo))


def apply_policy(samples: list[ImageSample], policy: AugmentPolicy,
                 rngs: list[RngStream]) -> np.ndarray:
    """Resize each sample to the policy target, run the random stack on it
    in order (flip, rotation, color jitter, sharpness, blur) and stack the
    views into a (B, H, W, 3) array.  ``rngs[i]`` is sample i's stream, and
    its draws alone decide what happens to that image, so an image comes out
    the same in any batch."""
    th, tw = policy.target_size
    views = []
    for sample, rng in zip(samples, rngs):
        d = _draw(rng)
        px = hflip(resize_bilinear(sample, th, tw).pixels, d.flip)
        px = rotate(px, d.angle)
        px = color_jitter(px, d.jitter)
        px = sharpen(px, d.sharpness)
        views.append(gaussian_blur(px, d.sigma))
    return np.stack(views)
