"""Melody banks: short pitch templates for pseudo-singing, loaded from JSON.

A bank is a tuple of templates with distinct ids, in file order, each a
sequence of MIDI notes with relative step lengths; choose_melody picks one
reproducibly from a seed. Kept apart from pseudo so that loading and
checking a bank needs no numerical library.
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
        if total == math.inf:
            raise InputError(f"melody {self.template_id!r}: step lengths must have a finite sum")
        # normalize so relative lengths sum to 1
        object.__setattr__(
            self,
            "steps",
            tuple((midi, length / total) for midi, length in self.steps),
        )


def load_melody_bank(path=None) -> tuple[MelodyTemplate, ...]:
    """The templates of a melody bank JSON file, in file order; with no path,
    the bundled default. Each entry is checked whole before the next is read,
    so an error names the file and the first bad template."""
    if path is None:
        path = resources.files("singprep.data") / DEFAULT_BANK_RESOURCE
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: melody bank must be an object with a 'templates' list")
    entries = list_entries(doc, "templates", path)
    if not entries:
        raise ParseError(f"{path}: melody bank contains no templates")
    bank: dict[str, MelodyTemplate] = {}
    for entry in entries:
        try:
            template = _template(entry)
        except InputError as exc:
            raise ParseError(f"{path}: {exc}") from None
        if template.template_id in bank:
            raise ParseError(f"{path}: duplicate melody id {template.template_id!r}")
        bank[template.template_id] = template
    return tuple(bank.values())


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
        try:
            steps.append((step[0], float(step[1])))
        except OverflowError as exc:  # an integer beyond the float range
            raise ParseError(f"melody {entry['id']!r}: step length: {exc}") from None
    return MelodyTemplate(entry["id"], tuple(steps))


def choose_melody(bank: tuple[MelodyTemplate, ...], seed: int) -> MelodyTemplate:
    """Uniform pick from the bank, reproducible for a given seed."""
    if not bank:
        raise InputError("melody bank is empty")
    return bank[random.Random(seed).randrange(len(bank))]
