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


@dataclass(frozen=True)
class PhonemeEvent:
    """The unified annotation atom: one phoneme with timing, note, and tokens."""

    phoneme: str
    ph_dur: float
    note_midi: int
    note_dur: float
    is_slur: bool = False
    language_token: int = 1
    style_token: int = SINGING

    def __post_init__(self):
        if self.ph_dur <= 0:
            raise InputError(f"ph_dur must be positive, got {self.ph_dur}")
        if self.language_token not in (0, 1):
            raise InputError(f"language_token must be 0 or 1, got {self.language_token}")
        if self.style_token not in (0, 1, 2):
            raise InputError(f"style_token must be 0, 1, or 2, got {self.style_token}")

    def is_rest(self) -> bool:
        return self.note_midi == 0 or is_silence_label(self.phoneme)


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

    def to_dict(self) -> dict:
        return {
            unit: {"phones": list(exp), "weights": list(w)}
            for unit, (exp, w) in sorted(self._weights.items())
        }

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


def adapt_average(events: Sequence[PhonemeEvent], lexicon: Lexicon) -> list[PhonemeEvent]:
    """Replace each Pinyin-unit event by its CMU phones, duration split equally.

    Notes, slur flags, and tokens are copied onto every split phone; rests
    pass through untouched.
    """
    out: list[PhonemeEvent] = []
    for ev in events:
        if ev.is_rest():
            out.append(ev)
            continue
        expansion = lexicon.expand_unit(ev.phoneme)
        share = ev.ph_dur / len(expansion)
        for ph in expansion:
            out.append(PhonemeEvent(ph, share, ev.note_midi, ev.note_dur, ev.is_slur,
                                    ev.language_token, ev.style_token))
    return out


def adapt_proportional(
    events: Sequence[PhonemeEvent],
    lexicon: Lexicon,
    ratios: RatioTable | None,
) -> list[PhonemeEvent]:
    """Replace Pinyin-unit events by CMU phones with ratio-weighted durations.

    Initials keep their total duration, distributed over their phones by
    ratio. Consecutive slur repetitions of one final are merged into a single
    span, distributed by ratio, then cut back at the original note
    boundaries; a phone straddling a boundary is emitted twice with the
    second piece slur-flagged and carrying the second note. A unit without a
    ratio is split equally and its events are counted in ``ratios.misses``.
    """
    out: list[PhonemeEvent] = []
    i = 0
    n = len(events)
    while i < n:
        ev = events[i]
        if ev.is_rest():
            out.append(ev)
            i += 1
            continue
        if lexicon.is_initial(ev.phoneme):
            expansion, weights = _expansion_weights(ev.phoneme, lexicon, ratios, 1)
            for ph, w in zip(expansion, weights):
                out.append(PhonemeEvent(ph, w * ev.ph_dur, ev.note_midi, ev.note_dur,
                                        ev.is_slur, ev.language_token, ev.style_token))
            i += 1
            continue
        # Final: absorb consecutive slur repetitions of the same unit.
        group = [ev]
        j = i + 1
        while j < n and events[j].is_slur and events[j].phoneme == ev.phoneme:
            group.append(events[j])
            j += 1
        out.extend(_adapt_final_group(group, lexicon, ratios))
        i = j
    return out


def _adapt_final_group(
    group: list[PhonemeEvent], lexicon: Lexicon, ratios: RatioTable | None
) -> list[PhonemeEvent]:
    """Distribute a merged final span over its phones, then cut at note boundaries."""
    unit = group[0].phoneme
    expansion, weights = _expansion_weights(unit, lexicon, ratios, len(group))
    span = sum(e.ph_dur for e in group)

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
    for e in group[:-1]:
        acc += e.ph_dur
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

    out: list[PhonemeEvent] = []
    last_phone, last_event, first_slur = len(expansion) - 1, len(group) - 1, group[0].is_slur
    emitted_phone = -1
    for a, b in zip(merged, merged[1:]):
        mid = (a + b) / 2.0
        phone_idx = min(bisect_right(edges, mid), last_phone)
        event_idx = min(bisect_right(cuts, mid), last_event)
        src = group[event_idx]
        first_piece = phone_idx != emitted_phone
        out.append(PhonemeEvent(
            expansion[phone_idx], b - a, src.note_midi, src.note_dur,
            first_slur if first_piece and event_idx == 0 else not first_piece,
            src.language_token, src.style_token,
        ))
        emitted_phone = phone_idx
    return out


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
