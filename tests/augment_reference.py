"""The augmentation transforms one image at a time, as the package ran them
before it augmented whole shards: the reference that the tests hold the
shard transforms of ``hgtnet.data`` to, byte for byte.

Nothing in ``src/`` imports this module.  Resize and the Gaussian kernel
are not reimplemented here: the shard pipeline runs the package's own
per-image ``resize_bilinear`` and ``gaussian_kernel1d``.
"""

from __future__ import annotations

import numpy as np

from hgtnet.data import (AugmentPolicy, DatasetStats, ImageSample, gaussian_kernel1d,
                         resize_bilinear)
from hgtnet.errors import ShapeError
from hgtnet.rng import RngStream

_LUMA = np.array([0.299, 0.587, 0.114])


def random_horizontal_flip(img: ImageSample, prob: float, rng: RngStream) -> ImageSample:
    if prob == 0.0 or rng.uniform() >= prob:
        return img
    return img.with_pixels(np.ascontiguousarray(img.pixels[:, ::-1, :]))


def rotate_pixels(px: np.ndarray, angle_deg: float) -> np.ndarray:
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
    return img.with_pixels(rotate_pixels(img.pixels, angle_deg))


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
# pipeline
# ---------------------------------------------------------------------------

def apply_policy(img: ImageSample, policy: AugmentPolicy, rng: RngStream) -> ImageSample:
    """Resize to the policy target, then run the random stack in order:
    flip, rotation, color jitter, sharpness, blur."""
    th, tw = policy.target_size
    out = resize_bilinear(img, th, tw)
    out = random_horizontal_flip(out, policy.flip_prob, rng)
    out = random_rotation(out, policy.max_rotation_deg, rng)
    out = color_jitter(out, policy, rng)
    out = random_sharpness(out, policy.sharpness_factor, policy.sharpness_prob, rng)
    lo, hi = policy.blur_sigma
    return gaussian_blur(out, policy.blur_kernel, lo + rng.uniform() * (hi - lo))
