"""Phoneme-level annotation records and their JSON carrier.

One record is one utterance: metadata plus seven parallel per-phoneme arrays
(phs, is_slur, ph_dur, notes, notes_dur, lang, style). Serialization is
lossless: durations are written with full float precision, and writing a
freshly read document reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

from .errors import ParseError, ValidationError
from .jsonio import dumps_document, list_entries, loads, read_text, write_output

VOICE_PARTS = ("Bass", "Baritone", "Tenor", "Alto", "Soprano")

# Short register codes seen in singer tables, normalized onto the five parts.
VOICE_PART_ALIASES = {
    "S": "Soprano",
    "A": "Alto",
    "T": "Tenor",
    "B1": "Bass",
    "B2": "Baritone",
}


def normalize_voice_part(part: str) -> str:
    if not isinstance(part, str):
        raise ValidationError([f"voice part must be a string, got {part!r}"])
    if part in VOICE_PARTS:
        return part
    if part.upper() in VOICE_PART_ALIASES:
        return VOICE_PART_ALIASES[part.upper()]
    title = part.capitalize()
    if title in VOICE_PARTS:
        return title
    raise ValidationError([f"unknown voice part {part!r}"])


@dataclass
class AnnotationRecord:
    """One annotated utterance: its metadata and its seven parallel per-phoneme
    arrays, each field named and ordered as in the document. voice_part may be
    None for speech corpora.

    The record checks nothing itself: from_document passes every document,
    read or computed, through validate_document before it builds a record.
    """

    utt_id: str
    audio: str
    singer: str
    voice_part: str | None
    phs: list[str]
    is_slur: list[int]
    ph_dur: list[float]
    notes: list[int]
    notes_dur: list[float]
    lang: list[int]
    style: list[int]

    def __len__(self) -> int:
        """The number of events."""
        return len(self.phs)

    def to_document(self) -> dict:
        """The record's document; it holds the record's own lists."""
        return dict(vars(self))

    @classmethod
    def from_document(cls, doc: dict) -> "AnnotationRecord":
        """The record of doc; ValidationError listing every failure of validate_document."""
        validate_document(doc)
        return cls(*map(doc.__getitem__, _FIELDS))


_FIELDS = tuple(f.name for f in fields(AnnotationRecord))
_ARRAYS = _FIELDS[4:]


def validate_document(doc: dict) -> None:
    """Check an annotation document; raises ValidationError listing every failure."""
    failures: list[str] = []
    if not isinstance(doc, dict):
        raise ValidationError(["document must be a JSON object"])
    for name in _FIELDS:
        if name not in doc:
            failures.append(f"{name}: missing field")
    for name in ("utt_id", "audio", "singer"):
        if name in doc and not isinstance(doc[name], str):
            failures.append(f"{name}: must be a string")
    if not doc.get("utt_id"):
        failures.append("utt_id: must be nonempty")
    vp = doc.get("voice_part")
    if vp is not None and vp not in VOICE_PARTS:
        failures.append(f"voice_part: must be null or one of {', '.join(VOICE_PARTS)}")

    lengths = set()
    for name in _ARRAYS:
        arr = doc.get(name)
        if arr is None:
            continue
        if not isinstance(arr, list):
            failures.append(f"{name}: must be an array")
            continue
        lengths.add(len(arr))
    if len(lengths) > 1:
        failures.append(f"parallel arrays differ in length: {sorted(lengths)}")
    if lengths == {0}:
        failures.append("phs: event list must be nonempty")

    def check(name, pred, msg) -> bool:
        """Whether doc[name] is an array whose every element passes pred."""
        arr = doc.get(name)
        if not isinstance(arr, list):
            return False
        bad = [f"{name}[{i}]: {msg} (got {v!r})" for i, v in enumerate(arr) if not pred(v)]
        failures.extend(bad)
        return not bad

    is_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
    is_num = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    check("phs", lambda v: isinstance(v, str) and v != "", "must be a nonempty string")
    check("is_slur", lambda v: is_int(v) and v in (0, 1), "must be 0 or 1")
    # a float must hold each duration: json reads 1e309 as inf, which no JSON
    # writer can put back, and an integer above sys.float_info.max overflows one.
    # So must the sum of ph_dur, which adapt takes as a span.
    if (check("ph_dur", lambda v: is_num(v) and 0 < v <= sys.float_info.max,
              "must be a positive number")
            and not math.isfinite(sum(doc["ph_dur"], 0.0))):
        failures.append("ph_dur: must have a finite sum")
    check("notes", lambda v: is_int(v) and 0 <= v <= 127, "must be a MIDI integer in 0..127")
    check("notes_dur", lambda v: is_num(v) and 0 <= v <= sys.float_info.max,
          "must be a nonnegative number")
    check("lang", lambda v: is_int(v) and v in (0, 1), "must be 0 or 1")
    check("style", lambda v: is_int(v) and v in (0, 1, 2), "must be 0, 1, or 2")

    if failures:
        raise ValidationError(failures)


def write_annotation(record: AnnotationRecord, path) -> None:
    write_output(dumps_document(record.to_document()), path)


# -- manifests ---------------------------------------------------------------
# A dataset is one JSON document, {"records": [...]}, a bare list or a single
# record object, or a JSON Lines stream with one record object per line. All
# are accepted on read; the tools write the first.

def read_manifest(path) -> list[AnnotationRecord]:
    text = read_text(path)
    if not text.strip():
        return []
    try:
        doc = loads(text, path)
    except json.JSONDecodeError:
        doc = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                doc.append(loads(line, path))
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: line {lineno} is not valid JSON: {exc}") from None
    else:
        if isinstance(doc, dict) and "records" not in doc:
            doc = [doc]
    records = []
    seen: set[str] = set()
    for i, row in enumerate(list_entries(doc, "records", path)):
        try:
            record = AnnotationRecord.from_document(row)
        except ValidationError as exc:
            raise ValidationError(f"{path}: record {i}: {f}" for f in exc.failures) from None
        if record.utt_id in seen:
            raise ValidationError([f"{path}: duplicate utt_id {record.utt_id!r}"])
        seen.add(record.utt_id)
        records.append(record)
    return records


def write_manifest(records: list[AnnotationRecord], path) -> None:
    write_output(dumps_document({"records": [r.to_document() for r in records]}), path)
