"""Run configuration: model + trainer + paths, merged from built-in
defaults, an optional flat ``key = value`` file, and command-line overrides
(strongest last).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .kvtext import from_kv, parse_kv, render_kv, to_kv
from .model import ModelConfig
from .training import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    data_root: str | None = None
    out_dir: str = "runs/latest"


def run_config_from_kv(kv: dict[str, str]) -> RunConfig:
    """Build a RunConfig from defaults overridden by the given flat keys.

    Unknown keys are rejected before any value is parsed, so typos fail
    loudly instead of silently training with a default.  The class count
    is not a key.
    """
    unknown = sorted(set(kv) - _KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out_dir = kv.get("run.out_dir", RunConfig.out_dir)
    if not out_dir:
        raise ConfigError("run.out_dir (--out) is empty; name an output directory")
    return RunConfig(model=from_kv(ModelConfig, kv, "model."),
                     train=from_kv(TrainConfig, kv, "train."),
                     data_root=kv.get("run.data_root") or None, out_dir=out_dir)


def run_config_to_kv(cfg: RunConfig) -> dict[str, str]:
    kv = {**to_kv(cfg.model, "model."), **to_kv(cfg.train, "train.")}
    del kv["model.num_classes"]
    kv["run.data_root"] = cfg.data_root or ""
    kv["run.out_dir"] = cfg.out_dir
    return kv


# the key set does not depend on the values
_KEYS = frozenset(run_config_to_kv(RunConfig(ModelConfig(), TrainConfig())))


def render_run_config(cfg: RunConfig) -> str:
    return render_kv(run_config_to_kv(cfg))


def load_run_config(path: str | None, overrides: dict[str, str]) -> RunConfig:
    """defaults < config file < overrides, as one merged key space."""
    kv: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
        kv.update(parse_kv(text, source=path))
    kv.update(overrides)
    return run_config_from_kv(kv)
