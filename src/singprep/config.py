"""Pipeline configuration: defaults, YAML file, command-line overrides.

Precedence is flags > file > defaults. Unknown file keys are rejected so a
typo never silently falls back to a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InputError, ParseError

STRATEGIES = ("average", "proportional")
# Value types accepted per field annotation; a YAML boolean is never a number.
_TYPES = {"float": (int, float), "int": int, "str": str, "str | None": (str, type(None))}


@dataclass(frozen=True)
class PipelineConfig:
    hop: float = 0.005
    melody_bank: str | None = None
    cmu_dict: str | None = None
    pinyin_map: str | None = None
    hanzi_table: str | None = None
    strategy: str = "average"
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _TYPES[f.type]):
                raise InputError(f"config: {f.name} must be {f.type}, got {value!r}")
        for name in ("hop", "workers"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InputError(f"config: {name} must be positive and finite, got {value}")
        if self.strategy not in STRATEGIES:
            raise InputError(
                f"config: strategy must be one of {', '.join(STRATEGIES)}, got {self.strategy!r}"
            )
        if self.seed < 0:
            raise InputError(f"config: seed must be nonnegative, got {self.seed}")


_FIELD_NAMES = tuple(f.name for f in fields(PipelineConfig))


def load_config_file(path) -> dict:
    """Raw settings mapping from a YAML file, keys checked against the schema."""
    import yaml  # only a run with --config pays for loading it

    with open(path, encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ParseError(f"{path}: invalid YAML: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a mapping, got {type(doc).__name__}")
    unknown = sorted(str(key) for key in doc if key not in _FIELD_NAMES)
    if unknown:
        raise InputError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return doc


def resolve_config(file_path=None, overrides: dict | None = None) -> PipelineConfig:
    """Merge defaults, an optional config file, and explicit CLI overrides."""
    settings: dict = {}
    if file_path is not None:
        settings.update(load_config_file(file_path))
    for key, value in (overrides or {}).items():
        if key not in _FIELD_NAMES:
            raise InputError(f"unknown config override {key!r}")
        if value is not None:
            settings[key] = value
    return PipelineConfig(**settings)
