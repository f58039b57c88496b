import logging
import math

import pytest
from hypothesis import given, settings, strategies as st

from singprep.annotation import AnnotationRecord, validate_document
from singprep.errors import InputError, ParseError, ValidationError
from singprep.jsonio import dumps_document, write_output
from singprep.lexicon import default_lexicon
from singprep.score import (RatioTable, adapt_average, adapt_proportional, extract_ratios,
                            transform_score)
from singprep.textgrid import AlignmentTier, Interval


def round4(x: float) -> float:
    """Round half away from zero to 4 decimals (table presentation)."""
    return math.floor(abs(x) * 1e4 + 0.5) / 1e4 * (1 if x >= 0 else -1)


def record(*events):
    """A record of (phoneme, ph_dur, note, note_dur[, is_slur]) events, Mandarin and style 1."""
    phs, ph_dur, notes, notes_dur, is_slur = map(list, zip(*((*e, False)[:5] for e in events)))
    n = len(events)
    return AnnotationRecord("u", "u.wav", "", None, phs, [int(s) for s in is_slur], ph_dur,
                            notes, notes_dur, [1] * n, [1] * n)


def events(rec):
    """The (phoneme, ph_dur, note, note_dur, is_slur) rows of a record."""
    return list(zip(rec.phs, rec.ph_dur, rec.notes, rec.notes_dur, rec.is_slur))


def cun_events():
    """The affricate+final syllable with a slurred second note."""
    return record(("c", 0.18, 60, 0.425), ("uen", 0.245, 60, 0.425),
                  ("uen", 0.295, 62, 0.295, True))


def cun_ratios():
    rt = RatioTable()
    rt.set("c", ("T", "S"), (0.2, 0.8))
    rt.set("uen", ("UW", "AH", "N"), (1 / 3, 1 / 3, 1 / 3))
    return rt


class TestTransformScore:
    def test_single_pinyin_event(self, lexicon):
        out = transform_score(
            [{"lyric": "wo", "lang": "cn", "note": 60, "dur": 0.5}], lexicon)
        assert list(out.phonemes) == ["W", "AO"]
        assert list(out.note_pitches) == [60, 60]
        assert list(out.note_durs) == [0.5, 0.5]
        assert list(out.language_tokens) == [1, 1]

    def test_empty_score(self, lexicon):
        out = transform_score([], lexicon)
        assert out.phonemes == ()

    def test_slur_reemits_nucleus_with_new_note(self, lexicon):
        out = transform_score(
            [{"lyric": "wo", "lang": "cn", "note": 60, "dur": 0.5},
             {"note": 62, "dur": 0.3, "slur": True}], lexicon)
        assert list(out.phonemes) == ["W", "AO", "AO"]
        assert list(out.note_pitches) == [60, 60, 62]
        assert list(out.note_durs) == [0.5, 0.5, 0.3]

    def test_slur_after_english_word(self, lexicon):
        out = transform_score(
            [{"lyric": "cat", "lang": "en", "note": 64, "dur": 0.4},
             {"note": 66, "dur": 0.2, "slur": True}], lexicon)
        assert list(out.phonemes) == ["K", "AE", "T", "AE"]
        assert list(out.language_tokens) == [0, 0, 0, 0]

    def test_rest_passes_through(self, lexicon):
        out = transform_score(
            [{"lyric": "sp", "lang": "en", "note": 0, "dur": 0.2}], lexicon)
        assert list(out.phonemes) == ["sp"]
        assert list(out.note_pitches) == [0]

    def test_slur_without_antecedent_rejected(self, lexicon):
        with pytest.raises(ParseError):
            transform_score([{"note": 60, "dur": 0.5, "slur": True}], lexicon)

    def test_slur_after_a_rest_rejected(self, lexicon):
        # a rest has no vowel to hold, so its marker is no antecedent
        with pytest.raises(ParseError, match="^event 1: slur with no antecedent lyric$"):
            transform_score([{"lyric": "sp", "note": 0, "dur": 0.5},
                             {"note": 62, "dur": 0.5, "slur": True}], lexicon)

    def test_absent_field_reads_as_null_in_its_own_row(self, lexicon):
        rows = [{"lyric": "cat", "note": 60, "dur": 0.5}, {"lyric": "cat", "dur": 0.5}]
        with pytest.raises(InputError, match="^event 1: note must be a number, got None$"):
            transform_score(rows, lexicon)
        rows[0]["lyric"] = "zzyzx"  # an earlier row's fault is reported first
        with pytest.raises(InputError, match="^event 0: out-of-vocabulary English token"):
            transform_score(rows, lexicon)

    def test_slur_with_a_lyric_reemits_the_nucleus_and_checks_its_lang(self, lexicon):
        rows = [{"lyric": "wo", "lang": "cn", "note": 60, "dur": 0.5},
                {"lyric": "cat", "note": 62, "dur": 0.3, "slur": True}]
        out = transform_score(rows, lexicon)
        assert list(out.phonemes) == ["W", "AO", "AO"]
        assert list(out.language_tokens) == [1, 1, 1]
        rows[1]["lang"] = "fr"
        with pytest.raises(InputError, match="^event 1: has unknown lang 'fr'$"):
            transform_score(rows, lexicon)

    def test_lists_equal_length(self, lexicon):
        out = transform_score(
            [{"lyric": "nuan", "lang": "cn", "note": 58, "dur": 0.7},
             {"note": 61, "dur": 0.1, "slur": True},
             {"lyric": "story", "lang": "en", "note": 63, "dur": 0.5}], lexicon)
        n = len(out.phonemes)
        assert n == len(out.language_tokens) == len(out.note_pitches) \
            == len(out.note_durs)


class TestAdaptAverage:
    def test_equal_split_with_slur(self, lexicon):
        out = adapt_average(cun_events(), lexicon)
        got = [(ph, round4(dur), slur) for ph, dur, _, _, slur in events(out)]
        assert got == [
            ("T", 0.09, False), ("S", 0.09, False),
            ("UW", 0.0817, False), ("AH", 0.0817, False), ("N", 0.0817, False),
            ("UW", 0.0983, True), ("AH", 0.0983, True), ("N", 0.0983, True),
        ]

    def test_notes_duplicated_per_phone(self, lexicon):
        out = adapt_average(cun_events(), lexicon)
        assert out.notes == [60, 60, 60, 60, 60, 62, 62, 62]
        assert out.notes_dur[:2] == [0.425, 0.425]

    def test_single_phone_unit_identity(self, lexicon):
        out = adapt_average(record(("a", 0.3, 59, 0.3)), lexicon)
        assert list(zip(out.phs, out.ph_dur)) == [("AA", 0.3)]

    def test_two_phone_final_split(self, lexicon):
        out = adapt_average(record(("ang", 0.35, 59, 0.35)), lexicon)
        assert list(zip(out.phs, out.ph_dur)) == [("AE", 0.175), ("NG", 0.175)]

    def test_duration_conserved(self, lexicon):
        rec = cun_events()
        out = adapt_average(rec, lexicon)
        assert sum(out.ph_dur) == pytest.approx(sum(rec.ph_dur), rel=1e-12)

    def test_rest_untouched(self, lexicon):
        rest = record(("sp", 0.2, 0, 0.2))
        out = adapt_average(rest, lexicon)
        assert out == rest


class TestAdaptProportional:
    def test_table_with_boundary_cut(self, lexicon):
        out = adapt_proportional(cun_events(), lexicon, cun_ratios())
        got = [(ph, round4(dur), note, slur) for ph, dur, note, _, slur in events(out)]
        assert got == [
            ("T", 0.036, 60, False),
            ("S", 0.144, 60, False),
            ("UW", 0.18, 60, False),
            ("AH", 0.065, 60, False),
            ("AH", 0.115, 62, True),
            ("N", 0.18, 62, False),
        ]

    def test_note_boundaries_conserved(self, lexicon):
        rec = cun_events()
        out = adapt_proportional(rec, lexicon, cun_ratios())
        def boundaries(rec):
            pts, t = [], 0.0
            prev = None
            for _, dur, note, _, slur in events(rec):
                if prev is not None and (note != prev or slur):
                    pts.append(round(t, 9))
                prev = note
                t += dur
            return pts
        assert boundaries(out) == boundaries(rec)

    def test_equal_ratio_no_slur_matches_average(self, lexicon):
        rec = record(("c", 0.18, 60, 0.18), ("ang", 0.4, 61, 0.4))
        rt = RatioTable()
        rt.set("c", ("T", "S"), (0.5, 0.5))
        rt.set("ang", ("AE", "NG"), (0.5, 0.5))
        assert adapt_proportional(rec, lexicon, rt) == adapt_average(rec, lexicon)

    def test_boundary_on_phone_edge_no_split(self, lexicon):
        # UW spans exactly the first note: no phoneme straddles the cut
        rec = record(("uen", 0.1, 60, 0.1), ("uen", 0.2, 62, 0.2, True))
        rt = RatioTable()
        rt.set("uen", ("UW", "AH", "N"), (1 / 3, 1 / 3, 1 / 3))
        out = adapt_proportional(rec, lexicon, rt)
        assert len(out) == 3
        assert out.phs == ["UW", "AH", "N"]

    def test_missing_ratio_falls_back_to_equal(self, lexicon, caplog):
        rec = record(("ang", 0.4, 61, 0.4))
        with caplog.at_level(logging.WARNING):
            out = adapt_proportional(rec, lexicon, RatioTable())
        assert [round4(dur) for dur in out.ph_dur] == [0.2, 0.2]

    def test_rest_untouched(self, lexicon):
        rest = record(("sp", 0.2, 0, 0.2))
        assert adapt_proportional(rest, lexicon, cun_ratios()) == rest

    def test_final_within_the_tolerance_is_kept(self, lexicon):
        # a final group of 2e-13 s has no breakpoint above the tolerance: one piece
        rec = record(("c", 0.1, 60, 0.1), ("un", 1e-13, 62, 1e-13),
                     ("un", 1e-13, 64, 1e-13, True))
        out = adapt_proportional(rec, lexicon, cun_ratios())
        assert out.phs[:2] == ["T", "S"] and len(out) == 3
        assert out.phs[2] in lexicon.expand_unit("un")
        assert out.ph_dur[2] == 1e-13 + 1e-13
        assert sum(out.ph_dur) == pytest.approx(0.1 + 2e-13, rel=1e-15)


@pytest.mark.parametrize("adapt", [
    lambda rec, lexicon: adapt_average(rec, lexicon),
    lambda rec, lexicon: adapt_proportional(rec, lexicon, RatioTable()),
], ids=["average", "proportional"])
def test_adapted_record_is_validated(adapt, lexicon):
    # the least float split in two rounds to 0.0, which no record may hold
    with pytest.raises(ValidationError) as err:
        adapt(record(("c", 5e-324, 60, 0.3), ("ang", 0.3, 60, 0.3)), lexicon)
    assert err.value.failures == [f"ph_dur[{i}]: must be a positive number (got 0.0)"
                                  for i in (0, 1)]


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

    @pytest.mark.parametrize("labels, message", [
        (["T", "Z"], "phone 2 is 'Z', expected 'S'"),
        (["T"], "phone 2 is None, expected 'S'"),
        (["T", "S", "AH"], "phone 3 is 'AH', expected None"),
    ], ids=["same-count", "short", "long"])
    def test_mismatch_warning_names_the_first_differing_phone(self, labels, message, caplog):
        tier = AlignmentTier("phones", [Interval(i / 10, (i + 1) / 10, label)
                                        for i, label in enumerate(["sil", *labels])])
        with caplog.at_level(logging.WARNING, logger="singprep.score"):
            extract_ratios(tier, [("c", ("T", "S"))])
        assert caplog.messages == [f"alignment mismatch on tier 'phones': {message}"]

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
        write_output(dumps_document({
            "c": {"phones": ["T", "S"], "weights": [0.2, 0.8]},
            "uen": {"phones": ["UW", "AH", "N"], "weights": [1 / 3, 1 / 3, 1 / 3]},
        }), tmp_path / "r.json")
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
        events.append((unit, dur, note, dur))
        if unit not in ("c", "zh") and draw(st.booleans()):
            sdur = draw(st.floats(min_value=0.02, max_value=0.6,
                                  allow_nan=False, allow_infinity=False))
            events.append((unit, sdur, note + 2, sdur, True))
    return record(*events)


@settings(max_examples=150, deadline=None)
@given(pinyin_annotation())
def test_duration_conserved_both_strategies(rec):
    lexicon = default_lexicon()
    total = sum(rec.ph_dur)
    for out in (adapt_average(rec, lexicon),
                adapt_proportional(rec, lexicon, cun_ratios())):
        assert sum(out.ph_dur) == pytest.approx(total, rel=1e-9)
        validate_document(out.to_document())


@settings(max_examples=150, deadline=None)
@given(pinyin_annotation())
def test_note_boundary_times_conserved(rec):
    lexicon = default_lexicon()

    def cuts(rec):
        pts, t = set(), 0.0
        for dur in rec.ph_dur:
            t += dur
            pts.add(round(t, 9))
        return pts

    def note_change_points(rec):
        pts, t = set(), 0.0
        prev_note = None
        for _, dur, note, _, slur in events(rec):
            if prev_note is not None and (note != prev_note or slur):
                pts.add(round(t, 9))
            prev_note = note
            t += dur
        return pts

    out = adapt_proportional(rec, lexicon, cun_ratios())
    assert note_change_points(rec) <= cuts(out)
