import pytest
from hypothesis import given, strategies as st

from singprep import ParseError, parse_textgrid, read_textgrid, serialize_textgrid
from singprep.textgrid import AlignmentTier, Interval, _scan, write_textgrid

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


def _tokens(scan, text):
    try:
        return list(scan(text))
    except ParseError as exc:
        return str(exc)


@given(st.text(alphabet='"a1 \n\xa0\x1c<>', max_size=16))
def test_scan_matches_frozen_lexer(text):
    assert _tokens(_scan, text) == _tokens(textgrid_scan_oracle, text)


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

    def test_labelled_drops_empty_and_silence(self):
        tier = AlignmentTier("t", [
            Interval(0.0, 0.1, ""), Interval(0.1, 0.2, "S"),
            Interval(0.2, 0.3, "sil"), Interval(0.3, 0.4, "AO"),
        ])
        assert [iv.label for iv in tier.labelled()] == ["S", "sil", "AO"]
        assert [iv.label for iv in tier.labelled(frozenset({"sil"}))] == ["S", "AO"]

    def test_xmin_xmax(self):
        tier = AlignmentTier("t", [Interval(0.2, 0.5, "a"), Interval(0.5, 0.9, "b")])
        assert (tier.xmin, tier.xmax) == (0.2, 0.9)
