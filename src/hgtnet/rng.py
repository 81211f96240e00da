"""Counter-based random streams.

Every random draw in the package comes from an ``RngStream`` keyed by
``(seed, stream_id, counter)``.  The generator is stateless apart from the
counter, so two streams with the same key always produce bitwise-identical
sequences, and sub-streams derived for different samples/epochs never
interact regardless of the order they are consumed in.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SEED_SALT = 0x8BADF00DDEADBEEF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """The xor-shift-multiply rounds of ``_mix``, in place on a uint64 array
    whose entries already include ``_mix``'s ``+ _GAMMA`` step."""
    scratch = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def _absorb(h: int, token) -> int:
    """Fold one derivation token (int or str) into a running FNV-1a hash."""
    if isinstance(token, bool):  # bool is an int subclass; keep tags distinct
        data = b"b" + bytes([int(token)])
    elif isinstance(token, int):
        data = b"i" + (token & _MASK).to_bytes(8, "little")
    elif isinstance(token, str):
        data = b"s" + token.encode("utf-8")
    else:
        raise TypeError(f"cannot derive rng stream from token of type {type(token).__name__}")
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


class RngStream:
    """Reproducible counter-based random stream.

    Value-like: deriving never shares mutable state with the original, and
    the sequence depends only on (seed, stream_id); derive again to replay.
    """

    __slots__ = ("seed", "stream_id", "counter", "_key")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed & _MASK
        self.stream_id = stream_id & _MASK
        self.counter = 0
        self._key = _mix((_mix(self.seed ^ _SEED_SALT) + self.stream_id) & _MASK)

    def derive(self, *tokens) -> "RngStream":
        """New independent stream keyed by this stream's id plus the tokens."""
        h = _FNV_OFFSET ^ self.stream_id
        for token in tokens:
            h = _absorb(h, token)
        return RngStream(self.seed, _mix(h))

    def _raw(self, n: int) -> np.ndarray:
        # draw i mixes key + GAMMA * (counter + i) + GAMMA; starting the
        # range at counter + 1 folds the last GAMMA into the multiply
        start = (self.counter + 1) & _MASK
        z = np.arange(start, start + n, dtype=np.uint64)
        self.counter = (self.counter + n) & _MASK
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._key)
        return _mix_array(z)

    def uniform(self, n: int | None = None):
        """Floats in [0, 1): scalar when n is None, else a float64 array."""
        if n is None:
            value = _mix((self._key + _GAMMA * self.counter) & _MASK)
            self.counter = (self.counter + 1) & _MASK
            return (value >> 11) * 2.0**-53
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def keep_mask(self, n: int, p: float) -> np.ndarray:
        """Boolean array equal to ``uniform(n) >= p``, compared on the raw
        draws: ``(r >> 11) * 2**-53 >= p`` holds exactly when
        ``r >= ceil(p * 2**53) << 11``."""
        return self._raw(n) >= np.uint64(math.ceil(p * 2.0**53) << 11)

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal draws as a float64 array, via Box-Muller: the
        next n uniforms give u1, the n after them u2."""
        u1 = 1.0 - self.uniform(n)
        u2 = self.uniform(n)
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def randint(self, bound: int) -> int:
        """Integer uniform in [0, bound)."""
        if bound <= 0:
            raise ValueError("randint bound must be positive")
        return min(int(self.uniform() * bound), bound - 1)

    def shuffle(self, items: list) -> list:
        """Fisher-Yates shuffle of a copy; the input list is left untouched."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randint(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"
