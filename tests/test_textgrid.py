import re
import time

import pytest
from hypothesis import given, strategies as st

from singprep.errors import ParseError
from singprep.textgrid import (AlignmentTier, Interval, _scan, parse_textgrid, read_textgrid,
                               serialize_textgrid, write_textgrid)

from oracles import textgrid_scan_oracle

LONG_FORM = '''File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1.5
tiers? <exists>
size = 2
item []:
    item [1]:
        class = "IntervalTier"
        name = "words"
        xmin = 0
        xmax = 1.5
        intervals: size = 2
        intervals [1]:
            xmin = 0
            xmax = 0.8
            text = "song"
        intervals [2]:
            xmin = 0.8
            xmax = 1.5
            text = ""
    item [2]:
        class = "IntervalTier"
        name = "phones"
        xmin = 0
        xmax = 1.5
        intervals: size = 3
        intervals [1]:
            xmin = 0
            xmax = 0.2
            text = "S"
        intervals [2]:
            xmin = 0.2
            xmax = 0.8
            text = "AO"
        intervals [3]:
            xmin = 0.8
            xmax = 1.5
            text = "sil"
'''

SHORT_FORM = '''File type = "ooTextFile"
Object class = "TextGrid"

0
1.5
<exists>
1
"IntervalTier"
"phones"
0
1.5
2
0
0.9
"AO"
0.9
1.5
"NG"
'''


class TestParsing:
    def test_long_form(self):
        tiers = parse_textgrid(LONG_FORM)
        assert [t.name for t in tiers] == ["words", "phones"]
        assert tiers[0].intervals[0] == Interval(0.0, 0.8, "song")
        assert len(tiers[1].intervals) == 3

    def test_short_form(self):
        tiers = parse_textgrid(SHORT_FORM)
        assert tiers[0].name == "phones"
        assert tiers[0].intervals == [
            Interval(0.0, 0.9, "AO"), Interval(0.9, 1.5, "NG")]

    def test_forms_agree(self):
        long_phones = parse_textgrid(LONG_FORM)[1]
        # same tier rewritten in short form
        short = parse_textgrid(SHORT_FORM.replace(
            '0\n0.9\n"AO"\n0.9\n1.5\n"NG"',
            '0\n0.2\n"S"\n0.2\n0.8\n"AO"\n0.8\n1.5\n"sil"').replace("\n2\n0\n", "\n3\n0\n"))
        assert short[0].intervals == long_phones.intervals

    def test_quoted_label_with_spaces(self):
        text = SHORT_FORM.replace('"AO"', '"AO R"')
        tiers = parse_textgrid(text)
        assert tiers[0].intervals[0].label == "AO R"

    @pytest.mark.parametrize("quoted, label", [
        ('"say ""ah"""', 'say "ah"'),
        ('""""', '"'),
        ('"two\nlines"', "two\nlines"),
    ])
    def test_quoted_label_escapes(self, quoted, label):
        tiers = parse_textgrid(SHORT_FORM.replace('"AO"', quoted))
        assert tiers[0].intervals[0].label == label

    def test_unterminated_string_after_escape(self):
        with pytest.raises(ParseError, match="unterminated string"):
            parse_textgrid(SHORT_FORM.replace('"NG"\n', '"N""G\n'))

    def test_point_tier_skipped(self):
        text = SHORT_FORM + '"TextTier"\n"clicks"\n0\n1.5\n1\n0.5\n"x"\n'
        text = text.replace("<exists>\n1\n", "<exists>\n2\n")
        tiers = parse_textgrid(text)
        assert [t.name for t in tiers] == ["phones"]

    def test_no_tiers(self):
        text = 'File type = "ooTextFile"\nObject class = "TextGrid"\n\n0\n1\ntiers? <absent>\n'
        assert parse_textgrid(text) == []

    def test_not_a_textgrid(self):
        with pytest.raises(ParseError):
            parse_textgrid('File type = "ooTextFile"\nObject class = "Pitch"\n0\n1\n')

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse_textgrid(SHORT_FORM[: len(SHORT_FORM) // 2])

    def test_overlap_rejected(self):
        text = SHORT_FORM.replace("0.9\n1.5", "0.7\n1.5", 1)
        with pytest.raises(ParseError):
            parse_textgrid(text)


class TestNumbers:
    """Times must be finite and counts nonnegative integers."""

    @pytest.mark.parametrize("old, new, message", [
        ("<exists>\n1\n", "<exists>\nnan\n", "tier count must be a nonnegative integer, got nan"),
        ("<exists>\n1\n", "<exists>\ninf\n", "tier count must be a nonnegative integer, got inf"),
        ("<exists>\n1\n", "<exists>\n-1\n", "tier count must be a nonnegative integer, got -1.0"),
        ("<exists>\n1\n", "<exists>\n1.5\n", "tier count must be a nonnegative integer, got 1.5"),
        ('"phones"\n0\n1.5\n2\n', '"phones"\n0\n1.5\nnan\n',
         "size of tier 'phones' must be a nonnegative integer, got nan"),
        ('"phones"\n0\n1.5\n2\n', '"phones"\n0\n1.5\ninf\n',
         "size of tier 'phones' must be a nonnegative integer, got inf"),
        ('"phones"\n0\n1.5\n', '"phones"\n0\nInfinity\n',
         "xmax of tier 'phones' must be finite, got inf"),
        ('0.9\n1.5\n"NG"', '0.9\nnan\n"NG"', "tier 'phones' interval 2 xmax must be finite, got nan"),
        ('"AO"\n0.9', '"AO"\n-inf', "tier 'phones' interval 2 xmin must be finite, got -inf"),
        ("TextGrid\"\n\n0\n", "TextGrid\"\n\nnan\n", "global xmin must be finite, got nan"),
    ], ids=["count-nan", "count-inf", "count-negative", "count-fraction", "size-nan", "size-inf",
            "tier-xmax-inf", "interval-xmax-nan", "interval-xmin-inf", "global-xmin-nan"])
    def test_rejected_naming_the_field(self, old, new, message):
        assert old in SHORT_FORM
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_textgrid(SHORT_FORM.replace(old, new, 1))

    def test_tier_names_are_not_format_templates(self):
        text = SHORT_FORM.replace('"phones"', '"{0} %s {}"').replace("0.9\n1.5\n", "0.9\nnan\n")
        with pytest.raises(ParseError, match=re.escape("tier '{0} %s {}' interval 2 xmax")):
            parse_textgrid(text)

    def test_integral_float_counts_accepted(self):
        tiers = parse_textgrid(SHORT_FORM.replace("<exists>\n1\n", "<exists>\n1.0\n"))
        assert [t.name for t in tiers] == ["phones"]

    def test_read_names_the_file(self, tmp_path):
        p = tmp_path / "cut.TextGrid"
        p.write_text(LONG_FORM[: len(LONG_FORM) // 2], encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: TextGrid: unexpected end"):
            read_textgrid(p)


def _tokens(scan, text):
    try:
        return list(scan(text))
    except ParseError as exc:
        return str(exc)


# Long-form decoration, words float() takes in unusual spellings, near misses
# of decoration, quotes, and Unicode whitespace (no-break, file separator, em).
_WORDS = ["File", "type", "Object", "class", "xmin", "xmax", "tiers?", "size", "item",
          "intervals", "intervals:", "points", "points:", "name", "text", "mark", "number",
          "time", "=", "[]", "[]:", "[1]:", "[١٢]:", "[x]:", "tiers", "sizes", "xmin=", "=1",
          "foo", "<exists>", "<absent>", "nan", "-inf", "Infinity", "1_0", "١٢", "0.5", "7",
          '"', '""', '"a"', '"a b"', '"a""b"', '"x\ny"', 'a"b"', '"open']
_SPACES = ["", " ", "  ", "\n", "\r\n", "\t", "\xa0", "\x1c", "\u2003"]


@given(st.one_of(
    st.text(alphabet='"a1 \n\xa0\x1c<>', max_size=16),
    st.lists(st.tuples(st.sampled_from(_SPACES), st.sampled_from(_WORDS)), max_size=12)
      .map(lambda parts: "".join(space + word for space, word in parts)),
))
def test_scan_matches_frozen_lexer(text):
    # repr, so that NaN equals NaN and -0.0 differs from 0.0
    assert repr(_tokens(_scan, text)) == repr(_tokens(textgrid_scan_oracle, text))


@pytest.mark.parametrize("text", [
    " " * 200_000,
    "= " * 100_000,
    "= " * 100_000 + '"open',
    "\xa0\n" * 100_000 + "1",
    "xmin = " * 50_000 + "1 " * 50_000,
], ids=["spaces", "equals", "equals-then-open-quote", "unicode-spaces", "keys-then-numbers"])
def test_scan_is_linear_in_whitespace_and_decoration(text):
    # A backtracking pattern takes minutes on these; the scan takes milliseconds.
    start = time.perf_counter()
    _tokens(_scan, text)
    assert time.perf_counter() - start < 5.0


class TestEncodings:
    def test_utf8_bom(self, tmp_path):
        p = tmp_path / "bom.TextGrid"
        p.write_bytes(b"\xef\xbb\xbf" + LONG_FORM.encode("utf-8"))
        tiers = read_textgrid(p)
        assert tiers[0].name == "words"

    def test_utf16(self, tmp_path):
        p = tmp_path / "u16.TextGrid"
        p.write_bytes(LONG_FORM.encode("utf-16"))
        tiers = read_textgrid(p)
        assert tiers[0].name == "words"

    def test_plain_utf8(self, tmp_path):
        p = tmp_path / "plain.TextGrid"
        p.write_text(LONG_FORM, encoding="utf-8")
        assert len(read_textgrid(p)) == 2


class TestRoundTrip:
    def test_parse_serialize_parse_fixed_point(self):
        tiers = parse_textgrid(LONG_FORM)
        text = serialize_textgrid(tiers)
        again = parse_textgrid(text)
        assert again == tiers
        assert serialize_textgrid(again) == text

    def test_write_read_file(self, tmp_path):
        tiers = parse_textgrid(LONG_FORM)
        p = tmp_path / "out.TextGrid"
        write_textgrid(tiers, p)
        assert read_textgrid(p) == tiers

    def test_non_ascii_labels_survive(self):
        tier = AlignmentTier("words", [Interval(0.0, 1.0, "我")])
        assert parse_textgrid(serialize_textgrid([tier]))[0].intervals[0].label == "我"


class TestTierValidation:
    def test_zero_length_interval_rejected(self):
        with pytest.raises(ParseError):
            AlignmentTier("t", [Interval(0.5, 0.5, "x")])

    def test_overlapping_rejected(self):
        with pytest.raises(ParseError):
            AlignmentTier("t", [Interval(0.0, 0.6, "a"), Interval(0.5, 1.0, "b")])

    @pytest.mark.parametrize("times, message", [
        ("0.9\n0.7", "interval 2 has xmin 0.9 >= xmax 0.7"),
        ("0.9\n0.9", "interval 2 has xmin 0.9 >= xmax 0.9"),
        ("0.8\n1.5", "interval 2 starts at 0.8, before interval 1 ends at 0.9"),
    ], ids=["reversed", "zero-length", "overlapping"])
    def test_order_error_names_the_interval(self, times, message):
        text = SHORT_FORM.replace('0.9\n1.5\n"NG"', times + '\n"NG"')
        with pytest.raises(ParseError, match=re.escape(f"tier 'phones': {message}")):
            parse_textgrid(text)

    def test_xmin_xmax(self):
        tier = AlignmentTier("t", [Interval(0.2, 0.5, "a"), Interval(0.5, 0.9, "b")])
        assert (tier.xmin, tier.xmax) == (0.2, 0.9)
