"""Melody banks: short pitch templates for pseudo-singing, loaded from JSON.

A bank is a list of templates, each a sequence of MIDI notes with relative
step lengths; choose_melody picks one reproducibly from a seed. Kept apart
from pseudo so that loading and checking a bank needs no numerical library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from importlib import resources

from .errors import InputError, ParseError
from .jsonio import list_entries, read_json

DEFAULT_BANK_RESOURCE = "melodies.json"


@dataclass(frozen=True)
class MelodyTemplate:
    """A short pitch sequence: MIDI notes with relative step lengths."""

    template_id: str
    steps: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not isinstance(self.template_id, str) or not self.template_id:
            raise InputError("melody template id must be a nonempty string, "
                             f"got {self.template_id!r}")
        if not self.steps:
            raise InputError(f"melody {self.template_id!r}: steps must be nonempty")
        total = 0.0
        for midi, length in self.steps:
            if not isinstance(midi, int) or isinstance(midi, bool) or not 0 < midi <= 127:
                raise InputError(
                    f"melody {self.template_id!r}: note {midi!r} is not a MIDI integer in 1..127"
                )
            if not 0 < length < math.inf:
                raise InputError(
                    f"melody {self.template_id!r}: step length {length!r} "
                    "must be positive and finite"
                )
            total += length
        # normalize so relative lengths sum to 1
        object.__setattr__(
            self,
            "steps",
            tuple((midi, length / total) for midi, length in self.steps),
        )


@dataclass(frozen=True)
class MelodyBank:
    templates: tuple[MelodyTemplate, ...]

    def __post_init__(self):
        seen = set()
        for t in self.templates:
            if t.template_id in seen:
                raise InputError(f"duplicate melody id {t.template_id!r}")
            seen.add(t.template_id)

    def __len__(self) -> int:
        return len(self.templates)

    def get(self, template_id: str) -> MelodyTemplate:
        for t in self.templates:
            if t.template_id == template_id:
                return t
        raise InputError(f"no melody named {template_id!r}")


def load_melody_bank(path=None) -> MelodyBank:
    """Load a melody bank from JSON; with no path, the bundled default."""
    if path is None:
        path = resources.files("singprep.data") / DEFAULT_BANK_RESOURCE
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: melody bank must be an object with a 'templates' list")
    entries = list_entries(doc, "templates", path)
    if not entries:
        raise ParseError(f"{path}: melody bank contains no templates")
    try:
        return MelodyBank(tuple(_template(entry) for entry in entries))
    except InputError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _template(entry: dict) -> MelodyTemplate:
    """One bank entry, {"id": ..., "steps": [[note, length], ...]}."""
    if "id" not in entry or "steps" not in entry:
        raise ParseError(f"malformed melody entry: {entry!r}")
    if not isinstance(entry["steps"], list):
        raise ParseError(f"melody {entry['id']!r}: steps must be a list")
    steps = []
    for step in entry["steps"]:
        if not isinstance(step, (list, tuple)) or len(step) != 2:
            raise ParseError(f"melody {entry['id']!r}: step {step!r} is not a pair")
        if isinstance(step[1], bool) or not isinstance(step[1], (int, float)):
            raise ParseError(f"melody {entry['id']!r}: step length {step[1]!r} "
                             "is not a number")
        steps.append((step[0], float(step[1])))
    return MelodyTemplate(entry["id"], tuple(steps))


def choose_melody(bank: MelodyBank, seed: int) -> MelodyTemplate:
    """Uniform pick from the bank, reproducible for a given seed."""
    if len(bank) == 0:
        raise InputError("melody bank is empty")
    return bank.templates[random.Random(seed).randrange(len(bank))]
