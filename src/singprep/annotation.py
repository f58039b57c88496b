"""Phoneme-level annotation records and their JSON carrier.

One record is one utterance: metadata plus seven parallel per-phoneme arrays
(phs, is_slur, ph_dur, notes, notes_dur, lang, style). Serialization is
lossless: durations are written with full float precision, and writing a
freshly read document reproduces it byte for byte.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .jsonio import dumps_document, list_entries, loads, read_json, read_text, write_output
from .score import PhonemeEvent

VOICE_PARTS = ("Bass", "Baritone", "Tenor", "Alto", "Soprano")

# Short register codes seen in singer tables, normalized onto the five parts.
VOICE_PART_ALIASES = {
    "S": "Soprano",
    "A": "Alto",
    "T": "Tenor",
    "B1": "Bass",
    "B2": "Baritone",
}

_ARRAYS = ("phs", "is_slur", "ph_dur", "notes", "notes_dur", "lang", "style")
_FIELDS = ("utt_id", "audio", "singer", "voice_part", *_ARRAYS)


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
    """One annotated utterance. voice_part may be None for speech corpora.

    The record checks nothing itself: validate_document checks every
    document read, and each PhonemeEvent checks its own duration and tokens.
    """

    utterance_id: str
    audio_path: str
    events: tuple[PhonemeEvent, ...]
    singer_id: str = ""
    voice_part: str | None = None

    def to_document(self) -> dict:
        return {
            "utt_id": self.utterance_id,
            "audio": self.audio_path,
            "singer": self.singer_id,
            "voice_part": self.voice_part,
            "phs": [e.phoneme for e in self.events],
            "is_slur": [int(e.is_slur) for e in self.events],
            "ph_dur": [e.ph_dur for e in self.events],
            "notes": [e.note_midi for e in self.events],
            "notes_dur": [e.note_dur for e in self.events],
            "lang": [e.language_token for e in self.events],
            "style": [e.style_token for e in self.events],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "AnnotationRecord":
        validate_document(doc)
        events = tuple(
            PhonemeEvent(ph, dur, note, note_dur, bool(slur), lang, style)
            for ph, dur, note, note_dur, slur, lang, style in zip(
                doc["phs"], doc["ph_dur"], doc["notes"], doc["notes_dur"],
                doc["is_slur"], doc["lang"], doc["style"])
        )
        return cls(
            utterance_id=doc["utt_id"],
            audio_path=doc["audio"],
            events=events,
            singer_id=doc["singer"],
            voice_part=doc["voice_part"],
        )


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

    def check(name, pred, msg):
        arr = doc.get(name)
        if isinstance(arr, list):
            for i, v in enumerate(arr):
                if not pred(v):
                    failures.append(f"{name}[{i}]: {msg} (got {v!r})")

    is_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
    is_num = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    check("phs", lambda v: isinstance(v, str) and v != "", "must be a nonempty string")
    check("is_slur", lambda v: is_int(v) and v in (0, 1), "must be 0 or 1")
    # a float must hold each duration: json reads 1e309 as inf, which no JSON
    # writer can put back, and an integer above sys.float_info.max overflows one
    check("ph_dur", lambda v: is_num(v) and 0 < v <= sys.float_info.max,
          "must be a positive number")
    check("notes", lambda v: is_int(v) and 0 <= v <= 127, "must be a MIDI integer in 0..127")
    check("notes_dur", lambda v: is_num(v) and 0 <= v <= sys.float_info.max,
          "must be a nonnegative number")
    check("lang", lambda v: is_int(v) and v in (0, 1), "must be 0 or 1")
    check("style", lambda v: is_int(v) and v in (0, 1, 2), "must be 0, 1, or 2")

    if failures:
        raise ValidationError(failures)


def write_annotation(record: AnnotationRecord, path) -> None:
    write_output(dumps_document(record.to_document()), path)


def read_annotation(path) -> AnnotationRecord:
    return AnnotationRecord.from_document(read_json(path))


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
        if record.utterance_id in seen:
            raise ValidationError([f"{path}: duplicate utt_id {record.utterance_id!r}"])
        seen.add(record.utterance_id)
        records.append(record)
    return records


def write_manifest(records: list[AnnotationRecord], path) -> None:
    write_output(dumps_document({"records": [r.to_document() for r in records]}), path)
