"""Flat ``key = value`` text format shared by config files and checkpoint
metadata.  Lines starting with ``#`` (and blank lines) are ignored; values
are kept as strings, with typed accessors for the common cases and a codec
between a dataclass of numbers and its ``prefix.field`` keys.
"""

from __future__ import annotations

import dataclasses

from .errors import ConfigError


def parse_kv(text: str, source: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}: line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def render_kv(pairs: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def get_int(kv: dict[str, str], key: str) -> int:
    try:
        return int(kv[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {kv[key]!r}") from None


def get_float(kv: dict[str, str], key: str) -> float:
    try:
        return float(kv[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {kv[key]!r}") from None


def get_ints(kv: dict[str, str], key: str) -> tuple[int, ...]:
    try:
        return tuple(int(v.strip()) for v in kv[key].split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {kv[key]!r}") from None


def get_floats(kv: dict[str, str], key: str) -> tuple[float, ...]:
    try:
        return tuple(float(v.strip()) for v in kv[key].split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {kv[key]!r}") from None


def to_kv(obj, prefix: str) -> dict[str, str]:
    """One ``prefix + field name`` key per dataclass field, in field order;
    tuples are written comma-separated."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        out[prefix + f.name] = (",".join(str(v) for v in value)
                                if isinstance(value, tuple) else str(value))
    return out


_GETTERS = {int: get_int, float: get_float, (tuple, int): get_ints}


def from_kv(cls, kv: dict[str, str], prefix: str):
    """Build dataclass ``cls`` from the ``prefix + field name`` keys present
    in ``kv``; absent fields keep their defaults, other keys are ignored.
    Each value is parsed by the getter for its default's type, a tuple's by
    the type of its default's first element."""
    kind = lambda d: (tuple, type(d[0])) if isinstance(d, tuple) else type(d)
    updates = {f.name: _GETTERS[kind(f.default)](kv, prefix + f.name)
               for f in dataclasses.fields(cls) if prefix + f.name in kv}
    return cls(**updates)
