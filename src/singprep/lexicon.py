"""Shared phoneme lexicon: English words and Pinyin syllables to CMU phones.

Mixed Chinese/English lyrics are converted to one stress-free CMU phoneme
sequence plus a parallel language-token sequence (0 = English, 1 = Mandarin).
Mandarin goes hanzi -> toneless pinyin -> initial/final units -> CMU phones;
English goes through a CMUdict-format dictionary with stress digits stripped.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, TextIO

from .errors import InputError, OovError, ParseError

log = logging.getLogger(__name__)

MANDARIN = 1
ENGLISH = 0

# The 39-symbol stress-free CMU phone inventory.
CMU_PHONES = frozenset("""
    AA AE AH AO AW AY B CH D DH EH ER EY F G HH IH IY JH K L M N NG
    OW OY P R S SH T TH UH UW V W Y Z ZH
""".split())

CMU_VOWELS = frozenset(
    "AA AE AH AO AW AY EH ER EY IH IY OW OY UH UW".split()
)

# Pinyin initials ordered for longest-prefix matching: the two-letter
# initials must precede their one-letter prefixes (zh before z, etc.).
DEFAULT_INITIALS = (
    "zh", "ch", "sh",
    "b", "p", "m", "f", "d", "t", "n", "l",
    "g", "k", "h", "j", "q", "x",
    "r", "z", "c", "s", "y", "w",
)

_DATA_PACKAGE = "singprep.data"


def _strip_stress(phone: str) -> str:
    return phone.rstrip("012")


def _is_han(ch: str) -> bool:
    cp = ord(ch)
    return (
        0x4E00 <= cp <= 0x9FFF      # CJK Unified Ideographs
        or 0x3400 <= cp <= 0x4DBF   # Extension A
        or 0xF900 <= cp <= 0xFAFF   # Compatibility Ideographs
    )


def language_of(text: str) -> int:
    """MANDARIN if the text holds any Han character, else ENGLISH."""
    return MANDARIN if any(_is_han(ch) for ch in text) else ENGLISH


@dataclass(frozen=True)
class LyricToken:
    """One lyric unit: a single Han character or one English word."""

    surface: str
    language: int  # MANDARIN or ENGLISH

    def __post_init__(self):
        if self.language not in (MANDARIN, ENGLISH):
            raise InputError(f"language token must be 0 or 1, got {self.language}")
        if not self.surface:
            raise InputError("empty lyric token")


@dataclass(frozen=True)
class PhonemeSeq:
    """Parallel phoneme and language-token sequences of equal length."""

    phonemes: tuple[str, ...]
    language_tokens: tuple[int, ...]

    def __post_init__(self):
        if len(self.phonemes) != len(self.language_tokens):
            raise InputError(
                f"length mismatch: {len(self.phonemes)} phonemes vs "
                f"{len(self.language_tokens)} language tokens"
            )

    def __len__(self) -> int:
        return len(self.phonemes)


def _table_rows(source: Iterable[str], what: str, comment: str):
    """(line number, fields) for each line of a whitespace-separated table of
    at least two columns; blank lines and lines starting with comment are skipped."""
    for lineno, raw in enumerate(source, 1):
        fields = raw.split()
        if not fields or fields[0].startswith(comment):
            continue
        if len(fields) < 2:
            raise ParseError(f"{what} line {lineno}: nothing after {fields[0]!r}")
        yield lineno, fields


def _check_phones(key: str, phones: list[str], lineno: int, what: str) -> tuple[str, ...]:
    for ph in phones:
        if ph not in CMU_PHONES:
            raise ParseError(
                f"{what} line {lineno}: entry {key!r} uses unknown phoneme {ph!r}"
            )
    return tuple(phones)


@dataclass
class Lexicon:
    """Immutable after load; lookups are read-only and thread-safe.

    pinyin_entries holds both whole toneless syllables and initial/final
    units; syllable lookup falls back to initial+final composition so a
    unit-granularity table covers the full syllabary.
    """

    english_entries: dict[str, tuple[str, ...]] = field(default_factory=dict)
    pinyin_entries: dict[str, tuple[str, ...]] = field(default_factory=dict)
    hanzi_readings: dict[str, str] = field(default_factory=dict)

    # -- loading ----------------------------------------------------------

    def load_cmu_dict(self, source: Iterable[str] | TextIO) -> "Lexicon":
        """Parse CMUdict text: `WORD  PH1 PH2 ...`, comments begin with ;;;.

        Stress digits are stripped; alternate pronunciations WORD(2) are
        discarded (the first entry wins).
        """
        for lineno, parts in _table_rows(source, "cmudict", ";;;"):
            word = parts[0].upper()
            if "(" in word:  # alternate pronunciation: first entry wins
                continue
            phones = [_strip_stress(p) for p in parts[1:]]
            self.english_entries[word] = _check_phones(word, phones, lineno, "cmudict")
        return self

    def load_pinyin_map(self, source: Iterable[str] | TextIO) -> "Lexicon":
        """Parse a two-column pinyin-to-CMU table: `pinyin PH1 PH2 ...`."""
        for lineno, parts in _table_rows(source, "pinyin map", "#"):
            key = parts[0].lower()
            if key in self.pinyin_entries:
                log.warning("pinyin map line %d: duplicate key %r, last wins", lineno, key)
            phones = [_strip_stress(p) for p in parts[1:]]
            self.pinyin_entries[key] = _check_phones(key, phones, lineno, "pinyin map")
        return self

    def load_hanzi_table(self, source: Iterable[str] | TextIO) -> "Lexicon":
        """Parse a two-column `character pinyin` table (UTF-8)."""
        for lineno, parts in _table_rows(source, "hanzi table", "#"):
            if len(parts) != 2:
                raise ParseError(f"hanzi table line {lineno}: expected 2 columns: {parts!r}")
            char, pinyin = parts
            if len(char) != 1 or not _is_han(char):
                raise ParseError(f"hanzi table line {lineno}: not a Han character: {char!r}")
            self.hanzi_readings[char] = pinyin.lower()
        return self

    # -- lookups ----------------------------------------------------------

    def lookup_english(self, word: str) -> tuple[str, ...]:
        try:
            return self.english_entries[word.upper()]
        except KeyError:
            raise OovError(word, ENGLISH) from None

    def lookup_pinyin(self, syllable: str) -> tuple[str, ...]:
        """Phones for a toneless syllable; composes initial+final if the
        syllable has no direct entry."""
        syl = syllable.lower()
        hit = self.pinyin_entries.get(syl)
        if hit is not None:
            return hit
        initial, final = split_pinyin(syl)
        # Written "u" after j/q/x/y denotes the umlaut series (ü, spelled v
        # in the unit table): que = q + ve, xun = x + vn.
        if initial in ("j", "q", "x", "y") and final.startswith("u"):
            umlaut = self.pinyin_entries.get("v" + final[1:])
            if umlaut is not None:
                final_phones = umlaut
            else:
                final_phones = self.pinyin_entries.get(final)
        else:
            final_phones = self.pinyin_entries.get(final)
        if final_phones is None:
            raise OovError(syllable, MANDARIN)
        if not initial:
            return final_phones
        initial_phones = self.pinyin_entries.get(initial)
        if initial_phones is None:
            raise OovError(syllable, MANDARIN)
        return initial_phones + final_phones

    def lookup_hanzi(self, char: str) -> tuple[str, ...]:
        reading = self.hanzi_readings.get(char)
        if reading is None:
            raise OovError(char, MANDARIN)
        return self.lookup_pinyin(reading)

    def expand_unit(self, unit: str) -> tuple[str, ...]:
        """CMU expansion of one Pinyin initial or final unit."""
        phones = self.pinyin_entries.get(unit.lower())
        if phones is None:
            raise OovError(unit, MANDARIN)
        return phones

    def is_initial(self, unit: str) -> bool:
        return unit.lower() in DEFAULT_INITIALS


def split_pinyin(syllable: str) -> tuple[str, str]:
    """Split a toneless Pinyin syllable into (initial, final).

    The initial is the longest DEFAULT_INITIALS prefix (empty for zero-initial
    syllables such as "an"); the final is the nonempty remainder.
    """
    syl = syllable.lower().strip()
    if not syl:
        raise ParseError("empty pinyin syllable")
    initial = ""
    for cand in DEFAULT_INITIALS:  # two-letter initials come first
        if syl.startswith(cand):
            initial = cand
            break
    final = syl[len(initial):]
    if not final:
        raise ParseError(f"invalid pinyin syllable {syllable!r}: empty final")
    return initial, final


def segment_lyrics(text: str) -> list[LyricToken]:
    """Tokenize mixed-language lyrics.

    Each Han character becomes one Mandarin token; maximal Latin-letter runs
    become English tokens; whitespace, punctuation, and digits are dropped.
    Anything else raises.
    """
    tokens: list[LyricToken] = []
    word: list[str] = []

    def flush():
        if word:
            tokens.append(LyricToken("".join(word), ENGLISH))
            word.clear()

    for ch in text:
        if "a" <= ch.lower() <= "z":
            word.append(ch)
            continue
        flush()
        if _is_han(ch):
            tokens.append(LyricToken(ch, MANDARIN))
        elif ch.isspace() or ch.isdigit():
            continue
        else:
            cat = unicodedata.category(ch)
            if cat.startswith("P"):
                continue
            raise ParseError(f"unsupported character in lyrics: {ch!r} (category {cat})")
    flush()
    return tokens


def g2p(tokens: list[LyricToken], lexicon: Lexicon) -> PhonemeSeq:
    """Convert lyric tokens to CMU phonemes plus per-phoneme language tokens.

    Mandarin tokens may be a Han character or a bare toneless pinyin
    syllable. Out-of-vocabulary tokens raise OovError; there is no silent
    fallback.
    """
    phonemes: list[str] = []
    langs: list[int] = []
    for tok in tokens:
        phones = token_phones(tok, lexicon)
        phonemes.extend(phones)
        langs.extend([tok.language] * len(phones))
    return PhonemeSeq(tuple(phonemes), tuple(langs))


def token_phones(tok: LyricToken, lexicon: Lexicon) -> tuple[str, ...]:
    """CMU phones for a single lyric token."""
    if tok.language == ENGLISH:
        return lexicon.lookup_english(tok.surface)
    if len(tok.surface) == 1 and _is_han(tok.surface):
        return lexicon.lookup_hanzi(tok.surface)
    return lexicon.lookup_pinyin(tok.surface)


def default_lexicon() -> Lexicon:
    """Lexicon built from the bundled tables (compact CMUdict subset,
    pinyin unit table, hanzi readings)."""
    lex = Lexicon()
    data = resources.files(_DATA_PACKAGE)
    with (data / "cmudict_mini.txt").open("r", encoding="utf-8") as fh:
        lex.load_cmu_dict(fh)
    with (data / "pinyin_to_cmu.txt").open("r", encoding="utf-8") as fh:
        lex.load_pinyin_map(fh)
    with (data / "hanzi_pinyin.txt").open("r", encoding="utf-8") as fh:
        lex.load_hanzi_table(fh)
    return lex
