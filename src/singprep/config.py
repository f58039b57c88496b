"""Pipeline configuration: defaults, YAML file, command-line overrides.

Precedence is flags > file > defaults. Unknown file keys are rejected so a
typo never silently falls back to a default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InputError, ParseError
from .jsonio import open_input

STRATEGIES = ("average", "proportional")
# Value types accepted per field annotation; a YAML boolean is never a number.
_TYPES = {"int": int, "str": str, "str | None": (str, type(None))}


@dataclass(frozen=True)
class PipelineConfig:
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
        if self.workers <= 0:
            raise InputError(f"config: workers must be positive, got {self.workers}")
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

    with open_input(path, encoding="utf-8") as fh:
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


def resolve_config(file_path, args: dict) -> PipelineConfig:
    """Defaults, then the config file at file_path if it is not None, then
    each field's value in args (the parsed command line) if it is not None."""
    settings = load_config_file(file_path) if file_path is not None else {}
    for name in _FIELD_NAMES:
        if args.get(name) is not None:
            settings[name] = args[name]
    return PipelineConfig(**settings)
