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
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InputError, ParseError
from .jsonio import dumps_document, read_json
from .lexicon import CMU_VOWELS, ENGLISH, Lexicon, LyricToken, token_phones
from .textgrid import AlignmentTier

log = logging.getLogger(__name__)

# Labels that mean "no phoneme here": short pause, aspiration, silence.
SILENCE_LABELS = frozenset({"", "sp", "ap", "sil", "spn", "pau", "<sp>", "<ap>"})

SPEECH, SINGING, PSEUDO_SINGING = 0, 1, 2

_MIN_ALIGNED_DUR = 0.005  # one 5 ms frame: floor for aligned phone durations


def is_silence_label(label: str) -> bool:
    return label.lower() in SILENCE_LABELS


@dataclass(frozen=True)
class ScoreEvent:
    """One score row: a lyric unit (or slur continuation) on one note."""

    lyric_unit: LyricToken | None
    note_midi: int
    note_dur: float
    is_slur: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.note_dur) and self.note_dur > 0):
            raise InputError(f"note_dur must be positive and finite, got {self.note_dur}")
        if not 0 <= self.note_midi <= 127:
            raise InputError(f"note_midi must be a MIDI note in 0..127, got {self.note_midi}")


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
    """Phoneme-level parallel sequences; all four are equally long."""

    phonemes: tuple[str, ...]
    language_tokens: tuple[int, ...]
    note_pitches: tuple[int, ...]
    note_durs: tuple[float, ...]

    def __post_init__(self):
        n = len(self.phonemes)
        if not (len(self.language_tokens) == len(self.note_pitches) == len(self.note_durs) == n):
            raise InputError("the four sequences must have equal length")

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


def transform_score(score: Sequence[ScoreEvent], lexicon: Lexicon) -> TransformedScore:
    """Expand score rows to phoneme level.

    Every phoneme of a unit carries that unit's note and note duration; slur
    rows re-emit the previous unit's sustained vowel with the slur's note.
    Rest rows (silence-marker lyric) pass through as the marker itself.
    """
    phonemes: list[str] = []
    langs: list[int] = []
    notes: list[int] = []
    ndurs: list[float] = []

    prev_expansion: tuple[str, ...] | None = None
    prev_lang = ENGLISH
    for i, ev in enumerate(score):
        if ev.is_slur:
            if prev_expansion is None:
                raise ParseError(f"score event {i}: slur with no antecedent lyric")
            phonemes.append(_nucleus(prev_expansion))
            langs.append(prev_lang)
            notes.append(ev.note_midi)
            ndurs.append(ev.note_dur)
            continue
        if ev.lyric_unit is None:
            raise ParseError(f"score event {i}: non-slur event without a lyric unit")
        tok = ev.lyric_unit
        if is_silence_label(tok.surface):
            expansion = (tok.surface,)
        else:
            expansion = token_phones(tok, lexicon)
        phonemes.extend(expansion)
        langs.extend([tok.language] * len(expansion))
        notes.extend([ev.note_midi] * len(expansion))
        ndurs.extend([ev.note_dur] * len(expansion))
        prev_expansion = expansion
        prev_lang = tok.language
    return TransformedScore(tuple(phonemes), tuple(langs), tuple(notes), tuple(ndurs))


class RatioTable:
    """Duration split ratios per Pinyin unit, learned from forced alignment.

    A unit with no ratio, or one learned for another expansion, answers None;
    the consumer then does an equal split. ``misses`` counts, per unit as
    written, the events that adaptation split equally for want of a ratio.
    """

    def __init__(self):
        self._weights: dict[str, tuple[tuple[str, ...], tuple[float, ...]]] = {}
        self.misses: Counter[str] = Counter()

    def set(self, unit: str, expansion: Sequence[str], weights: Sequence[float]) -> None:
        expansion = tuple(expansion)
        weights = tuple(float(w) for w in weights)
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
    def from_dict(cls, doc) -> "RatioTable":
        """A table from its document: {unit: {"phones": [...], "weights": [...]}}."""
        if not isinstance(doc, dict):
            raise ParseError(f"ratio table must be an object of units, got {type(doc).__name__}")
        table = cls()
        for unit, entry in doc.items():
            try:
                table.set(unit, entry["phones"], entry["weights"])
            except KeyError as exc:
                raise ParseError(f"ratio table unit {unit!r}: missing {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ParseError(f"ratio table unit {unit!r}: {exc}") from None
        return table

    def save(self, path) -> None:
        Path(path).write_text(dumps_document(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "RatioTable":
        doc = read_json(path)
        try:
            return cls.from_dict(doc)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None


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
    # phone edge (within tol) must not create a zero-length piece.
    points = sorted(set(edges) | set(cuts))
    merged: list[float] = [0.0]
    for p in points:
        if p - merged[-1] > tol:
            merged.append(p)
    if span - merged[-1] <= tol:
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

    The aligned phone sequence (silences removed, stress stripped) must equal
    the concatenation of the expected expansions; on mismatch the table is
    empty, so every unit falls back to an even split. Zero-duration aligned
    phones are floored at one frame before normalizing. A unit aligned more
    than once gets the mean of its per-occurrence weights.
    """
    table = RatioTable()
    aligned = [
        (iv.label.upper().rstrip("012"), iv.end - iv.start)
        for iv in alignment.intervals
        if not is_silence_label(iv.label)
    ]
    concat = [ph for _, exp in expected for ph in exp]
    if [ph for ph, _ in aligned] != concat:
        log.warning(
            "alignment mismatch on tier %r: %d aligned phones vs %d expected",
            alignment.name, len(aligned), len(concat),
        )
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
