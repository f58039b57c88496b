"""Score transcoding and phoneme-level duration adaptation.

Two jobs live here:

* transform_score: expand a note-per-lyric score into phoneme-level parallel
  sequences (phonemes, language tokens, note pitches, note durations), with
  slur rows re-emitting the sustained vowel of the previous unit.
* adapt_average / adapt_proportional: rewrite Pinyin initial/final annotation
  events into CMU-phoneme events, either splitting durations equally or
  distributing them by forced-alignment ratios and cutting at the original
  note boundaries.

Both adapters conserve total duration and (proportional) every note-boundary
time to within float round-off.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import TYPE_CHECKING, Iterable, Sequence

from .annotation import AnnotationRecord
from .errors import InputError, ParseError
from .jsonio import read_json
from .lexicon import (CMU_VOWELS, ENGLISH, MANDARIN, Lexicon, LyricToken, aligned_phone,
                      is_silence_label, language_of, token_phones)

if TYPE_CHECKING:  # for an annotation only: most commands that load score parse no TextGrid
    from .textgrid import AlignmentTier

log = logging.getLogger(__name__)

SPEECH, SINGING, PSEUDO_SINGING = 0, 1, 2

_LANGUAGES = {"cn": MANDARIN, "en": ENGLISH}  # score-row "lang" codes

_MIN_ALIGNED_DUR = 0.005  # one 5 ms frame: floor for aligned phone durations


def is_rest(phoneme: str, note: int) -> bool:
    """Whether an annotation event is a rest: note 0 or a silence label."""
    return note == 0 or is_silence_label(phoneme)


@dataclass(frozen=True)
class TransformedScore:
    """Phoneme-level parallel sequences; transform_score makes all four equally long."""

    phonemes: tuple[str, ...]
    language_tokens: tuple[int, ...]
    note_pitches: tuple[int, ...]
    note_durs: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.phonemes)

    def to_dict(self) -> dict:
        return {
            "phonemes": list(self.phonemes),
            "language_tokens": list(self.language_tokens),
            "note_midi": list(self.note_pitches),
            "note_dur": list(self.note_durs),
        }


def _nucleus(expansion: Sequence[str]) -> str:
    """The sustained element of an expansion: its last vowel (fallback: last phone)."""
    for ph in reversed(expansion):
        if ph in CMU_VOWELS:
            return ph
    return expansion[-1]


def _score_row(row: dict, lexicon: Lexicon) -> tuple[tuple[str, ...] | None, int, int, float]:
    """(expansion, language, note, dur) of one score row, each rule checked in
    turn. The expansion is None for a slur, whose lyric, if any, is checked
    and then ignored; a rest (silence-marker lyric) expands to the marker."""
    lyric = row.get("lyric")
    if not isinstance(lyric, (str, type(None))):
        raise InputError(f"lyric must be a string, got {lyric!r}")
    slur = row.get("slur", False)
    if not isinstance(slur, bool):
        raise InputError(f"slur must be true or false, got {slur!r}")
    language = ENGLISH
    if lyric:
        lang = row.get("lang")
        if lang not in (None, *_LANGUAGES):
            raise InputError(f"has unknown lang {lang!r}")
        language = language_of(lyric) if lang is None else _LANGUAGES[lang]
    elif not slur:
        raise InputError("has no lyric and is not a slur")
    note, dur = row.get("note"), row.get("dur")
    for key, value in (("note", note), ("dur", dur)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"{key} must be a number, got {value!r}")
    try:
        note, dur = int(note), float(dur)
    except (OverflowError, ValueError) as exc:  # an infinite or NaN note, a huge integer dur
        raise InputError(str(exc)) from None
    if not (math.isfinite(dur) and dur > 0):
        raise InputError(f"note_dur must be positive and finite, got {dur}")
    if not 0 <= note <= 127:
        raise InputError(f"note_midi must be a MIDI note in 0..127, got {note}")
    if slur:
        return None, language, note, dur
    if is_silence_label(lyric):
        return (lyric,), language, note, dur
    return token_phones(LyricToken(lyric, language), lexicon), language, note, dur


def transform_score(rows: Sequence[dict], lexicon: Lexicon) -> TransformedScore:
    """Expand score rows to phoneme level, checking each row where it is read.

    Every phoneme of a lyric carries its row's note and duration; a slur row
    re-emits the previous lyric's sustained vowel with its own note, and a
    rest leaves it none. Rows are dicts with note and dur; an error names the
    first bad row, as ``event i: ...``.
    """
    phonemes: list[str] = []
    langs: list[int] = []
    notes: list[int] = []
    ndurs: list[float] = []

    prev_expansion: tuple[str, ...] | None = None
    prev_lang = ENGLISH
    for i, row in enumerate(rows):
        try:
            expansion, lang, note, dur = _score_row(row, lexicon)
        except InputError as exc:
            raise InputError(f"event {i}: {exc}") from None
        if expansion is None:
            if prev_expansion is None:
                raise ParseError(f"event {i}: slur with no antecedent lyric")
            expansion, lang = (_nucleus(prev_expansion),), prev_lang
        elif is_silence_label(row["lyric"]):  # a rest has no vowel for a slur to hold
            prev_expansion = None
        else:
            prev_expansion, prev_lang = expansion, lang
        phonemes.extend(expansion)
        langs.extend([lang] * len(expansion))
        notes.extend([note] * len(expansion))
        ndurs.extend([dur] * len(expansion))
    return TransformedScore(tuple(phonemes), tuple(langs), tuple(notes), tuple(ndurs))


class RatioTable:
    """Duration split ratios per Pinyin unit, learned from forced alignment.

    A unit with no ratio, or one learned for another expansion, answers None;
    the consumer then does an equal split. ``misses`` counts, per unit as
    written, the events that adaptation split equally for want of a ratio.
    ``load`` is the one reader of a saved table, and ``set`` checks every
    entry, whether read or learned.
    """

    def __init__(self):
        self._weights: dict[str, tuple[tuple[str, ...], tuple[float, ...]]] = {}
        self.misses: Counter[str] = Counter()

    def __len__(self) -> int:
        """The number of units with a ratio."""
        return len(self._weights)

    def set(self, unit: str, expansion: Sequence[str], weights: Sequence[float]) -> None:
        if not (isinstance(expansion, (list, tuple))
                and all(isinstance(p, str) for p in expansion)):
            raise InputError(f"phones must be a list of strings, got {expansion!r}")
        if not (isinstance(weights, (list, tuple))
                and all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights)):
            raise InputError(f"weights must be a list of numbers, got {weights!r}")
        expansion, weights = tuple(expansion), tuple(weights)
        if len(weights) != len(expansion):
            raise InputError(f"{len(weights)} weights for {len(expansion)} phones")
        if not all(math.isfinite(w) and w > 0 for w in weights):
            raise InputError(f"weights must be finite and positive, got {list(weights)}")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"weights sum to {total}, expected 1")
        self._weights[unit.lower()] = (expansion, weights)

    def get(self, unit: str, expansion: Sequence[str]) -> tuple[float, ...] | None:
        hit = self._weights.get(unit.lower())
        if hit is None or hit[0] != tuple(expansion):
            return None
        return hit[1]

    @classmethod
    def average(cls, tables: Iterable["RatioTable"]) -> "RatioTable":
        """Corpus-level table: mean of per-utterance weights per unit."""
        sums: dict[str, tuple[tuple[str, ...], list[float], int]] = {}
        for table in tables:
            for unit, (expansion, weights) in table._weights.items():
                if unit not in sums:
                    sums[unit] = (expansion, [0.0] * len(weights), 0)
                exp, acc, n = sums[unit]
                if exp != expansion:
                    log.warning("ratio average: unit %r has conflicting expansions", unit)
                    continue
                sums[unit] = (exp, [a + w for a, w in zip(acc, weights)], n + 1)
        out = cls()
        for unit, (expansion, acc, n) in sums.items():
            if n:
                total = sum(acc)
                out.set(unit, expansion, tuple(a / total for a in acc))
        return out

    @classmethod
    def load(cls, path) -> "RatioTable":
        """A table from its file: {unit: {"phones": [...], "weights": [...]}}."""
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: ratio table must be an object of units, "
                             f"got {type(doc).__name__}")
        table = cls()
        firsts: dict[str, str] = {}
        for unit, entry in doc.items():
            first = firsts.setdefault(unit.lower(), unit)
            if first != unit:
                raise ParseError(f"{path}: ratio table unit {unit!r}: repeats unit {first!r}")
            try:
                table.set(unit, entry["phones"], entry["weights"])
            except KeyError as exc:
                raise ParseError(f"{path}: ratio table unit {unit!r}: missing {exc}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"{path}: ratio table unit {unit!r}: {exc}") from None
        return table


def _expansion_weights(
    unit: str, lexicon: Lexicon, ratios: RatioTable | None, events: int
) -> tuple[tuple[str, ...], tuple[float, ...]]:
    expansion = lexicon.expand_unit(unit)
    weights = ratios.get(unit, expansion) if ratios is not None else None
    if weights is None:
        if ratios is not None:
            ratios.misses[unit] += events
        weights = (1.0 / len(expansion),) * len(expansion)
    return expansion, weights


def _adapted(record: AnnotationRecord, phs: list[str], is_slur: list[int],
             ph_dur: list[float], src: list[int]) -> AnnotationRecord:
    """record with the events phs, is_slur and ph_dur, event k taking the note,
    note duration and tokens of input event src[k]. from_document checks the
    result, as it checks every record read."""
    doc = record.to_document()
    doc.update(phs=phs, is_slur=is_slur, ph_dur=ph_dur)
    for name in ("notes", "notes_dur", "lang", "style"):
        column = doc[name]
        doc[name] = [column[j] for j in src]
    return AnnotationRecord.from_document(doc)


def adapt_average(record: AnnotationRecord, lexicon: Lexicon) -> AnnotationRecord:
    """Replace each Pinyin-unit event by its CMU phones, duration split equally.

    Notes, slur flags, and tokens are copied onto every split phone; rests
    pass through untouched.
    """
    phs: list[str] = []
    is_slur: list[int] = []
    ph_dur: list[float] = []
    src: list[int] = []
    for i, (unit, dur, note) in enumerate(zip(record.phs, record.ph_dur, record.notes)):
        if is_rest(unit, note):
            expansion, share = (unit,), dur
        else:
            expansion = lexicon.expand_unit(unit)
            share = dur / len(expansion)
        phs.extend(expansion)
        is_slur.extend([record.is_slur[i]] * len(expansion))
        ph_dur.extend([share] * len(expansion))
        src.extend([i] * len(expansion))
    return _adapted(record, phs, is_slur, ph_dur, src)


def adapt_proportional(
    record: AnnotationRecord,
    lexicon: Lexicon,
    ratios: RatioTable | None,
) -> AnnotationRecord:
    """Replace Pinyin-unit events by CMU phones with ratio-weighted durations.

    Initials keep their total duration, distributed over their phones by
    ratio. Consecutive slur repetitions of one final are merged into a single
    span, distributed by ratio, then cut back at the original note
    boundaries; a phone straddling a boundary is emitted twice with the
    second piece slur-flagged and carrying the second note. A unit without a
    ratio is split equally and its events are counted in ``ratios.misses``.
    """
    phs, is_slur, ph_dur, src = out = ([], [], [], [])
    i = 0
    n = len(record)
    while i < n:
        unit = record.phs[i]
        if is_rest(unit, record.notes[i]):
            expansion, durs = (unit,), (record.ph_dur[i],)
        elif lexicon.is_initial(unit):
            expansion, weights = _expansion_weights(unit, lexicon, ratios, 1)
            durs = [w * record.ph_dur[i] for w in weights]
        else:  # a final: absorb consecutive slur repetitions of the same unit
            j = i + 1
            while j < n and record.is_slur[j] and record.phs[j] == unit:
                j += 1
            _adapt_final_group(record, i, j, lexicon, ratios, out)
            i = j
            continue
        phs.extend(expansion)
        is_slur.extend([record.is_slur[i]] * len(expansion))
        ph_dur.extend(durs)
        src.extend([i] * len(expansion))
        i += 1
    return _adapted(record, *out)


def _adapt_final_group(record: AnnotationRecord, start: int, stop: int, lexicon: Lexicon,
                       ratios: RatioTable | None, out: tuple[list, list, list, list]) -> None:
    """Distribute the merged final span of events start..stop-1 over its phones,
    cut it at note boundaries, and append the pieces to the columns out (phs,
    is_slur, ph_dur and src, as _adapted takes them)."""
    unit = record.phs[start]
    expansion, weights = _expansion_weights(unit, lexicon, ratios, stop - start)
    durs = record.ph_dur[start:stop]
    span = sum(durs)

    # Phone edges from cumulative weights; the last edge is the span exactly.
    edges: list[float] = []
    acc = 0.0
    for w in weights[:-1]:
        acc += w * span
        edges.append(acc)
    edges.append(span)

    # Note cut points: cumulative input durations, interior only.
    cuts: list[float] = []
    acc = 0.0
    for d in durs[:-1]:
        acc += d
        cuts.append(acc)

    tol = 1e-12 * max(span, 1.0)
    # Merge phone edges and cuts into one breakpoint list; a cut landing on a
    # phone edge (within tol) must not create a zero-length piece. The start
    # is never moved, so a span of at most tol is one piece.
    points = sorted(set(edges) | set(cuts))
    merged: list[float] = [0.0]
    for p in points:
        if p - merged[-1] > tol:
            merged.append(p)
    if len(merged) > 1 and span - merged[-1] <= tol:
        merged[-1] = span
    else:
        merged.append(span)

    phs, is_slur, ph_dur, src = out
    last_phone, last_event, first_slur = len(expansion) - 1, len(durs) - 1, record.is_slur[start]
    emitted_phone = -1
    for a, b in zip(merged, merged[1:]):
        mid = (a + b) / 2.0
        phone_idx = min(bisect_right(edges, mid), last_phone)
        event_idx = min(bisect_right(cuts, mid), last_event)
        first_piece = phone_idx != emitted_phone
        phs.append(expansion[phone_idx])
        is_slur.append(first_slur if first_piece and event_idx == 0 else int(not first_piece))
        ph_dur.append(b - a)
        src.append(start + event_idx)
        emitted_phone = phone_idx


def extract_ratios(
    alignment: AlignmentTier, expected: Sequence[tuple[str, Sequence[str]]]
) -> RatioTable:
    """Duration ratios per Pinyin unit from a forced-alignment phone tier.

    The aligned phone sequence (each label read by aligned_phone, silences
    dropped) must equal the concatenation of the expected expansions; on
    mismatch the table is empty, so every unit falls back to an even split,
    and a warning names the first phone that differs. Zero-duration aligned
    phones are floored at one frame before normalizing. A unit aligned more
    than once gets the mean of its per-occurrence weights.
    """
    table = RatioTable()
    aligned = [
        (ph, iv.end - iv.start)
        for iv in alignment.intervals
        if (ph := aligned_phone(iv.label)) is not None
    ]
    phones = [ph for ph, _ in aligned]
    concat = [ph for _, exp in expected for ph in exp]
    if phones != concat:
        pos, got, want = next((i, a, e) for i, (a, e) in
                              enumerate(zip_longest(phones, concat)) if a != e)
        log.warning("alignment mismatch on tier %r: phone %d is %r, expected %r",
                    alignment.name, pos + 1, got, want)
        return table

    per_unit: dict[str, tuple[tuple[str, ...], list[list[float]]]] = {}
    pos = 0
    for unit, exp in expected:
        exp = tuple(exp)
        durs = [max(d, _MIN_ALIGNED_DUR) for _, d in aligned[pos:pos + len(exp)]]
        pos += len(exp)
        total = sum(durs)
        weights = [d / total for d in durs]
        entry = per_unit.setdefault(unit.lower(), (exp, []))
        if entry[0] != exp:
            log.warning("unit %r seen with conflicting expansions; keeping first", unit)
            continue
        entry[1].append(weights)
    for unit, (exp, rows) in per_unit.items():
        k = len(rows)
        mean = [sum(column) / k for column in zip(*rows)]
        total = sum(mean)
        table.set(unit, exp, [m / total for m in mean])
    return table
