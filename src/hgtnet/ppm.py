"""Binary PPM (P6) reading and writing.

The header is ASCII: the magic ``P6`` as the first two bytes, then width,
height, and maxval separated by whitespace, with ``#`` comment lines
allowed anywhere in between; a single whitespace byte separates the maxval
from the raw RGB payload.  Only maxval 255 is supported.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FormatError


# the most pixels read_ppm accepts: 44.7 M, whose 3 channel values stay
# within model.MAX_PARAMS (2**27), the image cap of `synth --image-size`
MAX_PIXELS = 2 ** 27 // 3


def _next_token(fh, path: str) -> bytes:
    """Read the next header token, skipping whitespace and # comments; the
    byte that ends the token is left unread."""
    c = fh.peek(1)[:1]
    while c == b"#" or c.isspace():
        if c == b"#":
            fh.readline()
        else:
            fh.read(1)
        c = fh.peek(1)[:1]
    if not c:
        raise FormatError(f"{path}: truncated PPM header")
    token = bytearray()
    while c and not c.isspace() and c != b"#":
        token += fh.read(1)
        c = fh.peek(1)[:1]
    return bytes(token)


def read_ppm(path: str | os.PathLike) -> np.ndarray:
    """Load a P6 file as an H x W x 3 uint8 array.  The header is read
    first, so a file whose header names more than ``MAX_PIXELS`` pixels is
    refused before its payload is read."""
    path = os.fspath(path)
    # unreadable paths surface as OSError; FormatError is for bad content
    with open(path, "rb") as fh:
        magic = _next_token(fh, path)
        # a token that ends at byte 2 started at byte 0: nothing precedes the magic
        if magic != b"P6" or fh.tell() != 2:
            fh.seek(0)
            raise FormatError(f"{path}: not a P6 PPM (the file starts {fh.read(8)!r})")
        fields = []
        for name in ("width", "height", "maxval"):
            token = _next_token(fh, path)
            # bytes.isdigit is ASCII-only; int() alone would also take b"+1" and b"1_0"
            if not token.isdigit():
                raise FormatError(f"{path}: {name} {token[:20]!r} is not an ASCII decimal number")
            try:
                value = int(token)
            except ValueError:  # more digits than int() converts
                raise FormatError(f"{path}: {name} has {len(token)} digits") from None
            if value <= 0:
                raise FormatError(f"{path}: {name} must be positive, got {value}")
            fields.append(value)
        width, height, maxval = fields
        if maxval != 255:
            raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
        if width * height > MAX_PIXELS:
            raise FormatError(f"{path}: {width} x {height} is {width * height} pixels; "
                              f"the limit is {MAX_PIXELS}")
        if not fh.read(1).isspace():
            raise FormatError(f"{path}: maxval must be followed by one whitespace byte")
        need = width * height * 3
        payload = fh.read(need)
    if len(payload) != need:
        raise FormatError(f"{path}: payload has {len(payload)} bytes, expected {need}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path: str | os.PathLike, pixels: np.ndarray) -> None:
    """Write an H x W x 3 uint8 array as a P6 file."""
    path = os.fspath(path)
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise FormatError(f"{path}: pixels must be HxWx3, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise FormatError(f"{path}: pixels must be uint8, got {arr.dtype}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def to_unit(pixels: np.ndarray) -> np.ndarray:
    """uint8 RGB -> float64 in [0, 1]."""
    return pixels.astype(np.float64) / 255.0


def from_unit(pixels: np.ndarray) -> np.ndarray:
    """float64 in [0, 1] -> uint8 RGB with round-half-away quantization."""
    return (np.clip(pixels, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
