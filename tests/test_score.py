import logging
import math

import pytest
from hypothesis import given, settings, strategies as st

from singprep import (
    AnnotationRecord,
    MANDARIN,
    ENGLISH,
    LyricToken,
    ParseError,
    PhonemeEvent,
    RatioTable,
    ScoreEvent,
    adapt_average,
    adapt_proportional,
    default_lexicon,
    extract_ratios,
    transform_score,
    validate_document,
)
from singprep.textgrid import AlignmentTier, Interval


def round4(x: float) -> float:
    """Round half away from zero to 4 decimals (table presentation)."""
    return math.floor(abs(x) * 1e4 + 0.5) / 1e4 * (1 if x >= 0 else -1)


def cun_events():
    """The affricate+final syllable with a slurred second note."""
    return [
        PhonemeEvent("c", 0.18, 60, 0.425, language_token=1, style_token=1),
        PhonemeEvent("uen", 0.245, 60, 0.425, language_token=1, style_token=1),
        PhonemeEvent("uen", 0.295, 62, 0.295, is_slur=True,
                     language_token=1, style_token=1),
    ]


def cun_ratios():
    rt = RatioTable()
    rt.set("c", ("T", "S"), (0.2, 0.8))
    rt.set("uen", ("UW", "AH", "N"), (1 / 3, 1 / 3, 1 / 3))
    return rt


class TestTransformScore:
    def test_single_pinyin_event(self, lexicon):
        out = transform_score(
            [ScoreEvent(LyricToken("wo", MANDARIN), 60, 0.5)], lexicon)
        assert list(out.phonemes) == ["W", "AO"]
        assert list(out.note_pitches) == [60, 60]
        assert list(out.note_durs) == [0.5, 0.5]
        assert list(out.language_tokens) == [1, 1]

    def test_empty_score(self, lexicon):
        out = transform_score([], lexicon)
        assert out.phonemes == ()

    def test_slur_reemits_nucleus_with_new_note(self, lexicon):
        out = transform_score(
            [ScoreEvent(LyricToken("wo", MANDARIN), 60, 0.5),
             ScoreEvent(None, 62, 0.3, is_slur=True)], lexicon)
        assert list(out.phonemes) == ["W", "AO", "AO"]
        assert list(out.note_pitches) == [60, 60, 62]
        assert list(out.note_durs) == [0.5, 0.5, 0.3]

    def test_slur_after_english_word(self, lexicon):
        out = transform_score(
            [ScoreEvent(LyricToken("cat", ENGLISH), 64, 0.4),
             ScoreEvent(None, 66, 0.2, is_slur=True)], lexicon)
        assert list(out.phonemes) == ["K", "AE", "T", "AE"]
        assert list(out.language_tokens) == [0, 0, 0, 0]

    def test_rest_passes_through(self, lexicon):
        out = transform_score(
            [ScoreEvent(LyricToken("sp", ENGLISH), 0, 0.2)], lexicon)
        assert list(out.phonemes) == ["sp"]
        assert list(out.note_pitches) == [0]

    def test_slur_without_antecedent_rejected(self, lexicon):
        with pytest.raises(ParseError):
            transform_score([ScoreEvent(None, 60, 0.5, is_slur=True)], lexicon)

    def test_lists_equal_length(self, lexicon):
        out = transform_score(
            [ScoreEvent(LyricToken("nuan", MANDARIN), 58, 0.7),
             ScoreEvent(None, 61, 0.1, is_slur=True),
             ScoreEvent(LyricToken("story", ENGLISH), 63, 0.5)], lexicon)
        n = len(out.phonemes)
        assert n == len(out.language_tokens) == len(out.note_pitches) \
            == len(out.note_durs)


class TestAdaptAverage:
    def test_equal_split_with_slur(self, lexicon):
        out = adapt_average(cun_events(), lexicon)
        got = [(e.phoneme, round4(e.ph_dur), e.is_slur) for e in out]
        assert got == [
            ("T", 0.09, False), ("S", 0.09, False),
            ("UW", 0.0817, False), ("AH", 0.0817, False), ("N", 0.0817, False),
            ("UW", 0.0983, True), ("AH", 0.0983, True), ("N", 0.0983, True),
        ]

    def test_notes_duplicated_per_phone(self, lexicon):
        out = adapt_average(cun_events(), lexicon)
        assert [e.note_midi for e in out] == [60, 60, 60, 60, 60, 62, 62, 62]
        assert [e.note_dur for e in out][:2] == [0.425, 0.425]

    def test_single_phone_unit_identity(self, lexicon):
        out = adapt_average(
            [PhonemeEvent("a", 0.3, 59, 0.3, language_token=1)], lexicon)
        assert [(e.phoneme, e.ph_dur) for e in out] == [("AA", 0.3)]

    def test_two_phone_final_split(self, lexicon):
        out = adapt_average(
            [PhonemeEvent("ang", 0.35, 59, 0.35, language_token=1)], lexicon)
        assert [(e.phoneme, e.ph_dur) for e in out] == [("AE", 0.175), ("NG", 0.175)]

    def test_duration_conserved(self, lexicon):
        events = cun_events()
        out = adapt_average(events, lexicon)
        assert sum(e.ph_dur for e in out) == pytest.approx(
            sum(e.ph_dur for e in events), rel=1e-12)

    def test_rest_untouched(self, lexicon):
        rest = PhonemeEvent("sp", 0.2, 0, 0.2, language_token=1)
        out = adapt_average([rest], lexicon)
        assert out == [rest]


class TestAdaptProportional:
    def test_table_with_boundary_cut(self, lexicon):
        out = adapt_proportional(cun_events(), lexicon, cun_ratios())
        got = [(e.phoneme, round4(e.ph_dur), e.note_midi, e.is_slur) for e in out]
        assert got == [
            ("T", 0.036, 60, False),
            ("S", 0.144, 60, False),
            ("UW", 0.18, 60, False),
            ("AH", 0.065, 60, False),
            ("AH", 0.115, 62, True),
            ("N", 0.18, 62, False),
        ]

    def test_note_boundaries_conserved(self, lexicon):
        events = cun_events()
        out = adapt_proportional(events, lexicon, cun_ratios())
        def boundaries(evs):
            pts, t = [], 0.0
            prev = None
            for e in evs:
                if prev is not None and (e.note_midi != prev or e.is_slur):
                    pts.append(round(t, 9))
                prev = e.note_midi
                t += e.ph_dur
            return pts
        assert boundaries(out) == boundaries(events)

    def test_equal_ratio_no_slur_matches_average(self, lexicon):
        events = [
            PhonemeEvent("c", 0.18, 60, 0.18, language_token=1),
            PhonemeEvent("ang", 0.4, 61, 0.4, language_token=1),
        ]
        rt = RatioTable()
        rt.set("c", ("T", "S"), (0.5, 0.5))
        rt.set("ang", ("AE", "NG"), (0.5, 0.5))
        assert adapt_proportional(events, lexicon, rt) == adapt_average(events, lexicon)

    def test_boundary_on_phone_edge_no_split(self, lexicon):
        # UW spans exactly the first note: no phoneme straddles the cut
        events = [
            PhonemeEvent("uen", 0.1, 60, 0.1, language_token=1),
            PhonemeEvent("uen", 0.2, 62, 0.2, is_slur=True, language_token=1),
        ]
        rt = RatioTable()
        rt.set("uen", ("UW", "AH", "N"), (1 / 3, 1 / 3, 1 / 3))
        out = adapt_proportional(events, lexicon, rt)
        assert len(out) == 3
        assert [e.phoneme for e in out] == ["UW", "AH", "N"]

    def test_missing_ratio_falls_back_to_equal(self, lexicon, caplog):
        events = [PhonemeEvent("ang", 0.4, 61, 0.4, language_token=1)]
        with caplog.at_level(logging.WARNING):
            out = adapt_proportional(events, lexicon, RatioTable())
        assert [round4(e.ph_dur) for e in out] == [0.2, 0.2]

    def test_rest_untouched(self, lexicon):
        rest = PhonemeEvent("sp", 0.2, 0, 0.2, language_token=1)
        assert adapt_proportional([rest], lexicon, cun_ratios()) == [rest]


class TestExtractRatios:
    def test_weights_from_aligned_durations(self):
        tier = AlignmentTier("phones", (
            Interval(0.0, 0.04, "T"), Interval(0.04, 0.2, "S"),
        ))
        rt = extract_ratios(tier, [("c", ("T", "S"))])
        assert rt.get("c", ("T", "S")) == pytest.approx((0.2, 0.8))

    def test_single_phone_unit(self):
        tier = AlignmentTier("phones", (Interval(0.0, 0.3, "AA"),))
        rt = extract_ratios(tier, [("a", ("AA",))])
        assert rt.get("a", ("AA",)) == pytest.approx((1.0,))

    def test_silence_labels_skipped(self):
        tier = AlignmentTier("phones", (
            Interval(0.0, 0.1, "sil"),
            Interval(0.1, 0.14, "T"), Interval(0.14, 0.3, "S"),
            Interval(0.3, 0.4, "sp"),
        ))
        rt = extract_ratios(tier, [("c", ("T", "S"))])
        assert rt.get("c", ("T", "S")) == pytest.approx((0.2, 0.8))

    def test_mismatch_marks_fallback(self):
        tier = AlignmentTier("phones", (Interval(0.0, 0.2, "K"),))
        rt = extract_ratios(tier, [("c", ("T", "S"))])
        assert rt.get("c", ("T", "S")) is None

    def test_zero_duration_floored(self):
        tier = AlignmentTier("phones", (
            Interval(0.0, 0.0004, "T"), Interval(0.0004, 0.2, "S"),
        ))
        rt = extract_ratios(tier, [("c", ("T", "S"))])
        weights = rt.get("c", ("T", "S"))
        assert weights is not None and weights[0] > 0


class TestRatioTable:
    def test_save_load_round_trip(self, tmp_path):
        rt = cun_ratios()
        rt.save(tmp_path / "r.json")
        back = RatioTable.load(tmp_path / "r.json")
        assert back.get("c", ("T", "S")) == rt.get("c", ("T", "S"))
        assert back.get("uen", ("UW", "AH", "N")) == rt.get("uen", ("UW", "AH", "N"))

    def test_average_of_tables(self):
        a, b = RatioTable(), RatioTable()
        a.set("c", ("T", "S"), (0.2, 0.8))
        b.set("c", ("T", "S"), (0.4, 0.6))
        avg = RatioTable.average([a, b])
        assert avg.get("c", ("T", "S")) == pytest.approx((0.3, 0.7))

    def test_weights_must_sum_to_one(self):
        rt = RatioTable()
        with pytest.raises(ValueError):
            rt.set("c", ("T", "S"), (0.5, 0.6))

    def test_expansion_mismatch_returns_none(self):
        rt = cun_ratios()
        assert rt.get("c", ("T", "Z")) is None


UNITS = ["a", "ang", "uen", "c", "zh", "iou", "uei"]


@st.composite
def pinyin_annotation(draw):
    """Random syllable sequence with optional trailing slur per final."""
    events = []
    n = draw(st.integers(min_value=1, max_value=8))
    note = 52
    for _ in range(n):
        unit = draw(st.sampled_from(UNITS))
        dur = draw(st.floats(min_value=0.02, max_value=1.0,
                             allow_nan=False, allow_infinity=False))
        note += draw(st.integers(min_value=-3, max_value=3))
        events.append(PhonemeEvent(unit, dur, note, dur, language_token=1))
        if unit not in ("c", "zh") and draw(st.booleans()):
            sdur = draw(st.floats(min_value=0.02, max_value=0.6,
                                  allow_nan=False, allow_infinity=False))
            events.append(PhonemeEvent(unit, sdur, note + 2, sdur,
                                       is_slur=True, language_token=1))
    return events


@settings(max_examples=150, deadline=None)
@given(pinyin_annotation())
def test_duration_conserved_both_strategies(events):
    lexicon = default_lexicon()
    total = sum(e.ph_dur for e in events)
    for out in (adapt_average(events, lexicon),
                adapt_proportional(events, lexicon, cun_ratios())):
        assert sum(e.ph_dur for e in out) == pytest.approx(total, rel=1e-9)
        validate_document(AnnotationRecord("u", "u.wav", tuple(out)).to_document())


@settings(max_examples=150, deadline=None)
@given(pinyin_annotation())
def test_note_boundary_times_conserved(events):
    lexicon = default_lexicon()

    def cuts(evs):
        pts, t = set(), 0.0
        for e in evs:
            t += e.ph_dur
            pts.add(round(t, 9))
        return pts

    def note_change_points(evs):
        pts, t = set(), 0.0
        prev_note = None
        for e in evs:
            if prev_note is not None and (e.note_midi != prev_note or e.is_slur):
                pts.add(round(t, 9))
            prev_note = e.note_midi
            t += e.ph_dur
        return pts

    out = adapt_proportional(events, lexicon, cun_ratios())
    assert note_change_points(events) <= cuts(out)
