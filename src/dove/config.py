"""Run configuration: dataclass, `key = value` files, canonical hashing.

Precedence when assembling a config is flag > config file > default.
The config hash covers every field and nothing else (paths are not
config), so the same experiment hashed on two machines matches.  The
config text also carries the line of the retired ``threads`` option, so
DOVECP01 checkpoints keep their bytes; the parser accepts that line and
no other value for it.
"""
from __future__ import annotations

import hashlib
import math
import typing
from dataclasses import dataclass, fields

# the values each string field may take; ``validate`` and the CLI read it
CHOICES = {"dtga_inputs": ("ff", "bb", "fb", "avg"),
           "ifa_head": ("linear", "nonlinear"),
           "iga_head": ("linear", "nonlinear")}


class ConfigError(ValueError):
    """A config file or field failed validation."""


@dataclass
class TrainConfig:
    d: int = 512
    alpha: float = 0.2
    lambda_g: float = 10.0
    lr0: float = 0.0002
    decay_factor: float = 0.7
    decay_every: int = 20
    epochs: int = 50
    batch_size: int = 100
    heads: int = 2
    seed: int = 42
    dtga_inputs: str = "fb"
    no_dtga: bool = False
    no_ifa: bool = False
    no_iga: bool = False
    ifa_head: str = "linear"
    iga_head: str = "nonlinear"
    val_fraction: float = 0.2

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.d <= 0 or self.d % 2 != 0:
            raise ConfigError(f"d must be positive and even, got {self.d}")
        if self.heads < 1 or self.d % self.heads != 0:
            raise ConfigError(f"heads must divide d: d={self.d} heads={self.heads}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.lambda_g < 0.0:
            raise ConfigError(f"lambda_g must be >= 0, got {self.lambda_g}")
        if self.lr0 <= 0.0:
            raise ConfigError(f"lr0 must be positive, got {self.lr0}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ConfigError(f"decay_factor must lie in (0, 1], got {self.decay_factor}")
        if self.decay_every < 1:
            raise ConfigError(f"decay_every must be >= 1, got {self.decay_every}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        for key, allowed in CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, "
                                  f"got {getattr(self, key)!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        return self


FIELD_TYPES: dict[str, type] = typing.get_type_hints(TrainConfig)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(field_type: type, raw: str, key: str):
    raw = raw.strip()
    if field_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse boolean {key} = {raw!r}")
    try:
        if field_type is int:
            return int(raw)
        if field_type is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r}") from None
    return raw


# removed options whose line the config text still carries, with the only
# value the line may hold, so DOVECP01 checkpoints keep their bytes
_RETIRED = {"threads": "1"}


def _render(items) -> str:
    return "\n".join(f"{key} = {value}" for key, value in sorted(items))


def _field_items(cfg: TrainConfig) -> list[tuple[str, str]]:
    return [(f.name, _format_value(getattr(cfg, f.name))) for f in fields(cfg)]


def config_to_text(cfg: TrainConfig) -> str:
    """Canonical `key = value` rendering, one field per line, sorted.

    The retired lines are included at their sorted place.
    """
    return _render(_field_items(cfg) + list(_RETIRED.items())) + "\n"


def parse_config_text(text: str) -> TrainConfig:
    """Parse `key = value` lines over the defaults.

    Unknown and repeated keys are rejected -- a typo must never silently
    fall back to a default, nor a second line silently win.
    """
    overrides, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"line {lineno}: config key {key!r} repeats "
                              f"line {first_line[key]}")
        first_line[key] = lineno
        if key in _RETIRED:
            if raw.strip() != _RETIRED[key]:
                raise ConfigError(
                    f"line {lineno}: config key {key!r} is removed; only "
                    f"'{key} = {_RETIRED[key]}' is accepted, got {raw.strip()!r}")
            continue
        if key not in FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        overrides[key] = _parse_value(FIELD_TYPES[key], raw, key)
    return TrainConfig(**overrides)


def load_config_file(path: str) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_hash(cfg: TrainConfig) -> str:
    """sha256 over the canonical lines of the fields (no retired lines)."""
    return hashlib.sha256(_render(_field_items(cfg)).encode("utf-8")).hexdigest()
