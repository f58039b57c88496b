"""Praat TextGrid ingestion for forced-alignment output.

Reads both the long ("verbose") and short text forms, in UTF-8 or UTF-16
with BOM detection. Only interval tiers are kept; point tiers are skipped
with a warning. A minimal long-form serializer is provided so tiers survive
a parse -> serialize -> parse round trip.
"""

from __future__ import annotations

import logging
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
_TOKEN = re.compile(r'"((?:[^"]|"")*)"(?!")|(\S+)')


def _scan(text: str) -> Iterator[tuple[str, object]]:
    """Yield typed values from TextGrid text, ignoring long-form decoration.

    Values are quoted strings (with doubled-quote escapes, possibly spanning
    lines), numbers, and the <exists>/<absent> flags. Bare words (keys,
    'item [1]:' headers, '=') are decoration in the long form and are
    skipped; the short form consists of values only, so both forms reduce to
    the same value stream.
    """
    for quoted, word in _TOKEN.findall(text):
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
    def __init__(self, values: list[tuple[str, object]]):
        self.values = values
        self.pos = 0

    def next(self, kind: str, what: str):
        if self.pos < len(self.values):
            k, v = self.values[self.pos]
            self.pos += 1
            if k == kind:
                return v
            raise ParseError(f"TextGrid: expected {what}, found {k} {v!r}")
        raise ParseError(f"TextGrid: unexpected end of file while reading {what}")

    def peek_flag(self):
        if self.pos < len(self.values) and self.values[self.pos][0] == "flag":
            v = self.values[self.pos][1]
            self.pos += 1
            return v
        return None


def parse_textgrid(text: str) -> list[AlignmentTier]:
    """Parse TextGrid text (either form) into interval tiers."""
    cur = _Cursor(list(_scan(text)))
    header = cur.next("str", "file type header")
    if header != "ooTextFile":
        raise ParseError(f"not a TextGrid: file type {header!r}")
    klass = cur.next("str", "object class")
    if klass != "TextGrid":
        raise ParseError(f"not a TextGrid: object class {klass!r}")
    cur.next("num", "global xmin")
    cur.next("num", "global xmax")
    has_tiers = cur.peek_flag()
    if has_tiers is False:
        return []
    ntiers = int(cur.next("num", "tier count"))

    tiers: list[AlignmentTier] = []
    for t in range(ntiers):
        tclass = cur.next("str", f"class of tier {t + 1}")
        name = cur.next("str", f"name of tier {t + 1}")
        cur.next("num", f"xmin of tier {name!r}")
        cur.next("num", f"xmax of tier {name!r}")
        size = int(cur.next("num", f"size of tier {name!r}"))
        if tclass == "IntervalTier":
            intervals = []
            for k in range(size):
                xmin = cur.next("num", f"tier {name!r} interval {k + 1} xmin")
                xmax = cur.next("num", f"tier {name!r} interval {k + 1} xmax")
                label = cur.next("str", f"tier {name!r} interval {k + 1} text")
                if xmin > xmax:
                    raise ParseError(
                        f"tier {name!r}: interval {k + 1} has xmin {xmin} > xmax {xmax}"
                    )
                intervals.append(Interval(float(xmin), float(xmax), label))
            tiers.append(AlignmentTier(name, intervals))
        elif tclass == "TextTier":
            for k in range(size):
                cur.next("num", f"point tier {name!r} point {k + 1} time")
                cur.next("str", f"point tier {name!r} point {k + 1} mark")
            log.warning("skipping point tier %r (%d points)", name, size)
        else:
            raise ParseError(f"tier {name!r}: unknown tier class {tclass!r}")
    return tiers


def read_textgrid(path) -> list[AlignmentTier]:
    """Read a TextGrid file, detecting UTF-8/UTF-16 byte-order marks."""
    raw = Path(path).read_bytes()
    if raw.startswith(b"\xff\xfe") or raw.startswith(b"\xfe\xff"):
        text = raw.decode("utf-16")
    elif raw.startswith(b"\xef\xbb\xbf"):
        text = raw.decode("utf-8-sig")
    else:
        text = raw.decode("utf-8")
    return parse_textgrid(text)


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
