"""Run configuration: model + trainer + training augmentation + paths,
merged from built-in defaults, an optional flat ``key = value`` file, and
command-line overrides (strongest last).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .data import AugmentPolicy, train_policy
from .errors import ConfigError
from .kvtext import from_kv, get_float, get_int, parse_kv, render_kv, to_kv
from .model import ModelConfig
from .training import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    train_aug: AugmentPolicy
    data_root: str | None = None
    out_dir: str = "runs/latest"

    @property
    def seed(self) -> int:
        return self.train.seed


_POLICY_FLOAT_FIELDS = (
    "flip_prob", "max_rotation_deg", "jitter_brightness", "jitter_contrast",
    "jitter_saturation", "jitter_hue", "sharpness_factor", "sharpness_prob",
)


def _policy_to_kv(policy: AugmentPolicy, prefix: str) -> dict[str, str]:
    out = {f"{prefix}{name}": repr(getattr(policy, name))
           for name in _POLICY_FLOAT_FIELDS}
    out[f"{prefix}blur_kernel"] = str(policy.blur_kernel)
    if policy.blur_sigma_range is None:
        out[f"{prefix}blur_sigma"] = "none"
    else:
        lo, hi = policy.blur_sigma_range
        out[f"{prefix}blur_sigma"] = f"{lo!r},{hi!r}"
    return out


def _policy_from_kv(kv: dict[str, str], prefix: str,
                    base: AugmentPolicy) -> AugmentPolicy:
    updates = {}
    for name in _POLICY_FLOAT_FIELDS:
        key = f"{prefix}{name}"
        if key in kv:
            updates[name] = get_float(kv, key)
    if f"{prefix}blur_kernel" in kv:
        updates["blur_kernel"] = get_int(kv, f"{prefix}blur_kernel")
    key = f"{prefix}blur_sigma"
    if key in kv:
        raw = kv[key].strip()
        if raw.lower() == "none":
            updates["blur_sigma_range"] = None
        else:
            parts = raw.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{key} must be 'none' or 'low,high', got {raw!r}")
            try:
                updates["blur_sigma_range"] = (float(parts[0]), float(parts[1]))
            except ValueError:
                raise ConfigError(f"{key}: not a float pair: {raw!r}") from None
    return replace(base, **updates) if updates else base


def run_config_from_kv(kv: dict[str, str]) -> RunConfig:
    """Build a RunConfig from defaults overridden by the given flat keys.

    Unknown keys are rejected so typos fail loudly instead of silently
    training with a default.
    """
    model = from_kv(ModelConfig, kv, "model.")
    cfg = RunConfig(
        model=model, train=from_kv(TrainConfig, kv, "train."),
        train_aug=_policy_from_kv(kv, "aug.train.", train_policy(model.image_size)),
        data_root=kv.get("run.data_root") or None,
        out_dir=kv.get("run.out_dir", "runs/latest"))
    known = set(run_config_to_kv(cfg))
    unknown = sorted(set(kv) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return cfg


def run_config_to_kv(cfg: RunConfig) -> dict[str, str]:
    kv = {**to_kv(cfg.model, "model."), **to_kv(cfg.train, "train."),
          **_policy_to_kv(cfg.train_aug, "aug.train.")}
    kv["run.data_root"] = cfg.data_root or ""
    kv["run.out_dir"] = cfg.out_dir
    return kv


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
