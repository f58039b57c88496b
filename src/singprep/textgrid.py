"""Praat TextGrid ingestion for forced-alignment output.

Reads both the long ("verbose") and short text forms, in UTF-8 or UTF-16
with BOM detection. Only interval tiers are kept; point tiers are skipped
with a warning. A minimal long-form serializer is provided so tiers survive
a parse -> serialize -> parse round trip.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import ParseError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Interval:
    start: float
    end: float
    label: str


@dataclass
class AlignmentTier:
    """One named tier of sorted, non-overlapping, positive-length intervals."""

    name: str
    intervals: list[Interval]

    def __post_init__(self):
        prev_end = None
        for iv in self.intervals:
            if iv.start >= iv.end:
                raise ParseError(
                    f"tier {self.name!r}: interval with xmin {iv.start} >= xmax {iv.end}"
                )
            if prev_end is not None and iv.start < prev_end - 1e-9:
                raise ParseError(
                    f"tier {self.name!r}: overlapping intervals at {iv.start}"
                )
            prev_end = iv.end

    @property
    def xmin(self) -> float:
        return self.intervals[0].start if self.intervals else 0.0

    @property
    def xmax(self) -> float:
        return self.intervals[-1].end if self.intervals else 0.0

    def labelled(self, drop: frozenset[str] | None = None) -> list[Interval]:
        """Intervals with nonempty labels (optionally dropping a label set)."""
        out = []
        for iv in self.intervals:
            if not iv.label.strip():
                continue
            if drop and iv.label.lower() in drop:
                continue
            out.append(iv)
        return out


# -- scanner ---------------------------------------------------------------

# A quoted string runs to the first quote that is not part of a doubled-quote
# escape: its closing quote is not followed by another. Anything else up to
# whitespace is a bare word; one that starts with a quote never closed.
# The fixed long-form keys, '=' and '[k]:' headers, each followed by
# whitespace, are skipped inside the match: float() rejects all of them, so
# they never reach Python. Every repetition starts at a non-space character
# after greedy whitespace, and the text is right-stripped, so no match
# backtracks: the scan stays linear (no atomic groups needed).
_DECOR = (r"(?:File|type|Object|class|xmin|xmax|tiers\?|size|item|intervals:?|points:?"
          r"|name|text|mark|number|time|=|\[\d*\]:?)")
_TOKEN = re.compile(r'\s*(?:' + _DECOR + r'\s+)*(?:"((?:[^"]|"")*)"(?!")|(\S+))')


def _scan(text: str) -> Iterator[tuple[str, object]]:
    """Yield typed values from TextGrid text, ignoring long-form decoration.

    Values are quoted strings (with doubled-quote escapes, possibly spanning
    lines), numbers, and the <exists>/<absent> flags. Bare words (keys,
    'item [1]:' headers, '=') are decoration in the long form and are
    skipped; the short form consists of values only, so both forms reduce to
    the same value stream.
    """
    for quoted, word in _TOKEN.findall(text.rstrip()):
        if not word:
            yield ("str", quoted.replace('""', '"'))
        elif word.startswith('"'):
            raise ParseError("unterminated string in TextGrid")
        elif word == "<exists>":
            yield ("flag", True)
        elif word == "<absent>":
            yield ("flag", False)
        else:
            try:
                yield ("num", float(word))
            except ValueError:
                continue  # long-form decoration


class _Cursor:
    """Reads typed values in order. Each 'what' is a str.format template for
    the error message, filled with args only when reading fails."""

    def __init__(self, values: list[tuple[str, object]]):
        self.values = values
        self.pos = 0

    def next(self, kind: str, what: str, *args):
        if self.pos < len(self.values):
            k, v = self.values[self.pos]
            self.pos += 1
            if k == kind:
                return v
            raise ParseError(f"TextGrid: expected {what.format(*args)}, found {k} {v!r}")
        raise ParseError(f"TextGrid: unexpected end of file while reading {what.format(*args)}")

    def time(self, what: str, *args) -> float:
        v = self.next("num", what, *args)
        if math.isfinite(v):
            return v
        raise ParseError(f"TextGrid: {what.format(*args)} must be finite, got {v}")

    def count(self, what: str, *args) -> int:
        v = self.next("num", what, *args)
        if v >= 0 and v.is_integer():
            return int(v)
        raise ParseError(f"TextGrid: {what.format(*args)} must be a nonnegative integer, got {v}")

    def peek_flag(self):
        if self.pos < len(self.values) and self.values[self.pos][0] == "flag":
            v = self.values[self.pos][1]
            self.pos += 1
            return v
        return None


def parse_textgrid(text: str) -> list[AlignmentTier]:
    """Parse TextGrid text (either form) into interval tiers.

    Times must be finite and counts nonnegative integers; a ParseError names
    the tier and interval that breaks either rule.
    """
    cur = _Cursor(list(_scan(text)))
    header = cur.next("str", "file type header")
    if header != "ooTextFile":
        raise ParseError(f"not a TextGrid: file type {header!r}")
    klass = cur.next("str", "object class")
    if klass != "TextGrid":
        raise ParseError(f"not a TextGrid: object class {klass!r}")
    cur.time("global xmin")
    cur.time("global xmax")
    has_tiers = cur.peek_flag()
    if has_tiers is False:
        return []
    ntiers = cur.count("tier count")

    tiers: list[AlignmentTier] = []
    for t in range(1, ntiers + 1):
        tclass = cur.next("str", "class of tier {}", t)
        name = cur.next("str", "name of tier {}", t)
        cur.time("xmin of tier {!r}", name)
        cur.time("xmax of tier {!r}", name)
        size = cur.count("size of tier {!r}", name)
        if tclass == "IntervalTier":
            intervals = []
            for k in range(1, size + 1):
                xmin = cur.time("tier {!r} interval {} xmin", name, k)
                xmax = cur.time("tier {!r} interval {} xmax", name, k)
                label = cur.next("str", "tier {!r} interval {} text", name, k)
                if xmin > xmax:
                    raise ParseError(
                        f"tier {name!r}: interval {k} has xmin {xmin} > xmax {xmax}"
                    )
                intervals.append(Interval(xmin, xmax, label))
            tiers.append(AlignmentTier(name, intervals))
        elif tclass == "TextTier":
            for k in range(1, size + 1):
                cur.time("point tier {!r} point {} time", name, k)
                cur.next("str", "point tier {!r} point {} mark", name, k)
            log.warning("skipping point tier %r (%d points)", name, size)
        else:
            raise ParseError(f"tier {name!r}: unknown tier class {tclass!r}")
    return tiers


def read_textgrid(path) -> list[AlignmentTier]:
    """Read a TextGrid file, detecting UTF-8/UTF-16 byte-order marks.

    A ParseError names the file."""
    raw = Path(path).read_bytes()
    if raw.startswith(b"\xff\xfe") or raw.startswith(b"\xfe\xff"):
        encoding = "utf-16"
    elif raw.startswith(b"\xef\xbb\xbf"):
        encoding = "utf-8-sig"
    else:
        encoding = "utf-8"
    try:
        return parse_textgrid(raw.decode(encoding))
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _fmt(x: float) -> str:
    # repr keeps full precision so parse -> serialize -> parse is a fixed point
    return repr(float(x))


def serialize_textgrid(tiers: list[AlignmentTier]) -> str:
    """Long-form TextGrid text for a list of interval tiers."""
    xmin = min((t.xmin for t in tiers), default=0.0)
    xmax = max((t.xmax for t in tiers), default=0.0)
    out = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        f"xmin = {_fmt(xmin)}",
        f"xmax = {_fmt(xmax)}",
        "tiers? <exists>",
        f"size = {len(tiers)}",
        "item []:",
    ]
    for t, tier in enumerate(tiers, 1):
        q = tier.name.replace('"', '""')
        out += [
            f"    item [{t}]:",
            '        class = "IntervalTier"',
            f'        name = "{q}"',
            f"        xmin = {_fmt(tier.xmin)}",
            f"        xmax = {_fmt(tier.xmax)}",
            f"        intervals: size = {len(tier.intervals)}",
        ]
        for k, iv in enumerate(tier.intervals, 1):
            label = iv.label.replace('"', '""')
            out += [
                f"        intervals [{k}]:",
                f"            xmin = {_fmt(iv.start)}",
                f"            xmax = {_fmt(iv.end)}",
                f'            text = "{label}"',
            ]
    return "\n".join(out) + "\n"


def write_textgrid(tiers: list[AlignmentTier], path) -> None:
    Path(path).write_text(serialize_textgrid(tiers), encoding="utf-8")
