"""Melody banks: short pitch templates for pseudo-singing, loaded from JSON.

A bank is a list of templates, each a sequence of MIDI notes with relative
step lengths; choose_melody picks one reproducibly from a seed. Kept apart
from pseudo so that loading and checking a bank needs no numerical library.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from importlib import resources

from .errors import InputError, ParseError

DEFAULT_BANK_RESOURCE = "melodies.json"


@dataclass(frozen=True)
class MelodyTemplate:
    """A short pitch sequence: MIDI notes with relative step lengths."""

    template_id: str
    steps: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.template_id:
            raise InputError("melody template id must be nonempty")
        if not self.steps:
            raise InputError(f"melody {self.template_id!r}: steps must be nonempty")
        total = 0.0
        for midi, length in self.steps:
            if not isinstance(midi, int) or isinstance(midi, bool) or midi <= 0:
                raise InputError(
                    f"melody {self.template_id!r}: note {midi!r} is not a positive integer"
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
        text = (
            resources.files("singprep.data").joinpath(DEFAULT_BANK_RESOURCE).read_text("utf-8")
        )
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"melody bank is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("templates"), list):
        raise ParseError("melody bank must be an object with a 'templates' list")
    templates = []
    for entry in doc["templates"]:
        if not isinstance(entry, dict) or "id" not in entry or "steps" not in entry:
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
        templates.append(MelodyTemplate(str(entry["id"]), tuple(steps)))
    if not templates:
        raise ParseError("melody bank contains no templates")
    return MelodyBank(tuple(templates))


def choose_melody(bank: MelodyBank, seed: int) -> MelodyTemplate:
    """Uniform pick from the bank, reproducible for a given seed."""
    if len(bank) == 0:
        raise InputError("melody bank is empty")
    return bank.templates[random.Random(seed).randrange(len(bank))]
