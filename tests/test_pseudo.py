import json

import numpy as np
import pytest

from singprep.dsp.audio import Waveform
from singprep.dsp.pitch import extract_f0, hz_from_midi
from singprep.errors import InputError, ValidationError
from singprep.melody import MelodyTemplate, choose_melody, load_melody_bank
from singprep.pseudo import _speech_phone_events, make_pseudo_singing, render_melody
from singprep.score import PSEUDO_SINGING, extract_ratios
from singprep.textgrid import AlignmentTier, Interval

from helpers import SR, speech_clip


def _melody(bank, template_id: str) -> MelodyTemplate:
    return next(t for t in bank if t.template_id == template_id)


class TestMelodyTemplate:
    def test_step_lengths_normalized(self):
        t = MelodyTemplate("t", ((60, 2.0), (62, 2.0)))
        assert t.steps == ((60, 0.5), (62, 0.5))

    def test_empty_steps_rejected(self):
        with pytest.raises(InputError):
            MelodyTemplate("t", ())

    def test_noninteger_midi_rejected(self):
        with pytest.raises(InputError):
            MelodyTemplate("t", ((60.5, 1.0),))

    def test_nonpositive_midi_rejected(self):
        with pytest.raises(InputError):
            MelodyTemplate("t", ((0, 1.0),))

    def test_note_above_midi_range_rejected(self):
        MelodyTemplate("t", ((127, 1.0),))
        with pytest.raises(InputError, match="'t': note 128 is not a MIDI integer in 1..127"):
            MelodyTemplate("t", ((60, 1.0), (128, 1.0)))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(InputError):
            MelodyTemplate("t", ((60, 0.0),))

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_nonfinite_length_rejected(self, length):
        with pytest.raises(InputError, match="positive and finite"):
            MelodyTemplate("t", ((60, 1.0), (62, length)))

    def test_lengths_whose_sum_overflows_rejected(self):
        # each length is finite, but their sum is not: normalized, both would read 0.0
        with pytest.raises(InputError, match="'t': step lengths must have a finite sum"):
            MelodyTemplate("t", ((60, 1e308), (72, 1e308)))


class TestMelodyBank:
    def test_builtin_bank_has_ten_melodies(self, bank):
        assert len(bank) == 10

    def test_ids_unique(self, bank):
        ids = [t.template_id for t in bank]
        assert len(set(ids)) == len(ids)

    def test_duplicate_ids_rejected(self, tmp_path):
        # the repeat is reported where it is read, before the bad note after it
        p = tmp_path / "b.json"
        p.write_text(json.dumps({"templates": [
            {"id": "a", "steps": [[60, 1]]}, {"id": "a", "steps": [[62, 1]]},
            {"id": "c", "steps": [[200, 1]]}]}))
        with pytest.raises(InputError) as err:
            load_melody_bank(p)
        assert str(err.value) == f"{p}: duplicate melody id 'a'"

    def test_custom_bank_file(self, tmp_path):
        doc = {"templates": [
            {"id": "solo", "steps": [[60, 1.0], [64, 1.0]]},
        ]}
        p = tmp_path / "bank.json"
        p.write_text(json.dumps(doc))
        assert load_melody_bank(p) == (MelodyTemplate("solo", ((60, 0.5), (64, 0.5))),)

    def test_malformed_bank_rejected(self, tmp_path):
        p = tmp_path / "bank.json"
        p.write_text(json.dumps({"templates": []}))
        with pytest.raises(InputError):
            load_melody_bank(p)

    @pytest.mark.parametrize("text", [
        "{not json", "[]", '{"templates": [3]}', '{"templates": [{"id": "a"}]}',
        '{"templates": [{"id": "a", "steps": [[200, 1]]}]}',
    ])
    def test_bank_errors_name_the_file(self, tmp_path, text):
        p = tmp_path / "bank.json"
        p.write_text(text)
        with pytest.raises(InputError) as err:
            load_melody_bank(p)
        assert str(err.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("steps, message", [
        ([[60, "1"]], "step length '1' is not a number"),
        ([[60, None]], "step length None is not a number"),
        ([[60, True]], "step length True is not a number"),
        ([[60, 10 ** 400]], "'a': step length: int too large to convert to float"),
        (7, "steps must be a list"),
    ])
    def test_malformed_steps_named(self, tmp_path, steps, message):
        p = tmp_path / "bank.json"
        p.write_text(json.dumps({"templates": [{"id": "a", "steps": steps}]}))
        with pytest.raises(InputError, match=message):
            load_melody_bank(p)


class TestChooseMelody:
    def test_deterministic_per_seed(self, bank):
        assert choose_melody(bank, 42).template_id \
            == choose_melody(bank, 42).template_id

    def test_empty_bank_rejected(self):
        with pytest.raises(InputError, match="melody bank is empty"):
            choose_melody((), 0)

    def test_seed_varies_choice(self, bank):
        picks = {choose_melody(bank, s).template_id for s in range(50)}
        assert len(picks) > 3

    def test_roughly_uniform_over_seeds(self, bank):
        counts = {}
        n = 10_000
        for s in range(n):
            tid = choose_melody(bank, s).template_id
            counts[tid] = counts.get(tid, 0) + 1
        assert set(counts) == {t.template_id for t in bank}
        expected = n / len(bank)
        for c in counts.values():
            assert abs(c - expected) < 5 * np.sqrt(expected)


class TestRenderMelody:
    def test_remainder_goes_to_last_step(self):
        t = MelodyTemplate("t", ((60, 1.0), (62, 1.0), (64, 1.0)))
        c = render_melody(t, 100)
        lengths = [
            np.sum(c.values == hz_from_midi(m)) for m in (60, 62, 64)]
        assert lengths == [33, 33, 34]

    def test_exact_division(self):
        t = MelodyTemplate("t", ((60, 1.0), (62, 1.0)))
        c = render_melody(t, 10)
        assert np.sum(c.values == hz_from_midi(60)) == 5

    def test_total_frames(self):
        t = MelodyTemplate("t", ((60, 0.3), (67, 0.7)))
        assert len(render_melody(t, 123).values) == 123

    def test_single_frame(self):
        t = MelodyTemplate("t", ((60, 1.0), (62, 1.0)))
        c = render_melody(t, 1)
        assert len(c.values) == 1

    def test_all_values_voiced(self):
        t = MelodyTemplate("t", ((60, 1.0),))
        assert np.all(render_melody(t, 50).values > 0)

    def test_zero_frames_rejected(self):
        with pytest.raises(InputError):
            render_melody(MelodyTemplate("t", ((60, 1.0),)), 0)


class TestMakePseudoSinging:
    def test_phone_sequence_from_alignment(self, clip, bank):
        wave, words, phones = clip
        _, rec = make_pseudo_singing(wave, words, phones, _melody(bank, "scale_up"), 3, "u1")
        assert rec.phs == ["S", "AO", "NG", "F", "AE", "N"]

    def test_latin_words_tokenized_english(self, clip, bank):
        wave, words, phones = clip
        _, rec = make_pseudo_singing(wave, words, phones, _melody(bank, "scale_up"), 3, "u1")
        assert set(rec.lang) == {0}

    def test_han_word_tokenized_mandarin(self, clip, bank):
        wave, _, phones = clip
        words = AlignmentTier("words", (
            Interval(0.0, 0.95, "我"), Interval(0.95, 1.8, "fan")))
        _, rec = make_pseudo_singing(wave, words, phones, _melody(bank, "scale_up"), 3, "u1")
        langs = dict(zip(rec.phs, rec.lang))
        assert langs["AO"] == 1 and langs["AE"] == 0

    def test_phone_outside_words_rejected(self, clip, bank):
        wave, _, phones = clip
        words = AlignmentTier("words", (Interval(0.0, 0.5, "song"),))
        with pytest.raises(InputError, match="outside"):
            make_pseudo_singing(wave, words, phones, _melody(bank, "scale_up"), 3, "u1")

    def test_unknown_phone_label_rejected(self, clip, bank):
        wave, words, _ = clip
        phones = AlignmentTier("phones", (Interval(0.2, 0.5, "QQ"),))
        with pytest.raises(InputError, match="not a recognized phone"):
            make_pseudo_singing(wave, words, phones, _melody(bank, "scale_up"), 3, "u1")

    def test_output_length_matches_input(self, clip, bank):
        wave, words, phones = clip
        out, _ = make_pseudo_singing(wave, words, phones,
                                     _melody(bank, "scale_up"), 3, "u1")
        assert len(out) == len(wave)

    def test_style_token_pseudo_everywhere(self, clip, bank):
        wave, words, phones = clip
        _, rec = make_pseudo_singing(wave, words, phones,
                                     _melody(bank, "cadence"), 3, "u1")
        assert set(rec.style) == {PSEUDO_SINGING}

    def test_durations_preserved_from_alignment(self, clip, bank):
        wave, words, phones = clip
        _, rec = make_pseudo_singing(wave, words, phones,
                                     _melody(bank, "held_low"), 3, "u1")
        assert sum(rec.ph_dur) == pytest.approx(1.4, abs=1e-9)

    def test_notes_follow_melody_steps_at_midpoints(self, clip, bank):
        wave, words, phones = clip
        _, rec = make_pseudo_singing(wave, words, phones,
                                     _melody(bank, "scale_up"), 3, "u1")
        notes = dict(zip(rec.phs, rec.notes))
        # scale_up: 8 equal steps over 1.8 s (0.225 s each); phone midpoints
        # AO 0.50s, NG 0.775s, F 1.025s, AE 1.30s land strictly inside
        # steps 2, 3, 4, 5
        assert notes["AO"] == 61
        assert notes["NG"] == 62
        assert notes["F"] == 64
        assert notes["AE"] == 66
        # S and N midpoints sit exactly on step boundaries; either neighbour
        # is a faithful reading
        assert notes["S"] in (57, 59)
        assert notes["N"] in (68, 69)

    def test_note_dur_is_step_span(self, clip, bank):
        wave, words, phones = clip
        _, rec = make_pseudo_singing(wave, words, phones,
                                     _melody(bank, "scale_up"), 3, "u1")
        assert all(d == pytest.approx(0.225) for d in rec.notes_dur)

    def test_deterministic_for_seed(self, clip, bank):
        wave, words, phones = clip
        out1, rec1 = make_pseudo_singing(wave, words, phones,
                                         _melody(bank, "hill"), 9, "u1")
        out2, rec2 = make_pseudo_singing(wave, words, phones,
                                         _melody(bank, "hill"), 9, "u1")
        assert np.array_equal(out1.samples, out2.samples)
        assert rec1 == rec2

    def test_rendered_pitch_tracks_melody(self, clip, bank):
        wave, words, phones = clip
        melody = _melody(bank, "held_low")
        out, _ = make_pseudo_singing(wave, words, phones, melody, 3, "u1")
        target = render_melody(melody, len(extract_f0(wave).values))
        back = extract_f0(out)
        n = min(len(back.values), len(target.values))
        co = (back.values[:n] > 0)
        cents = 100 * 12 * np.abs(
            np.log2(back.values[:n][co] / target.values[:n][co]))
        assert (cents <= 50).mean() >= 0.85

    def test_unvoiced_source_frames_stay_unvoiced(self, clip, bank):
        wave, words, phones = clip
        out, _ = make_pseudo_singing(wave, words, phones,
                                     _melody(bank, "held_high"), 3, "u1")
        src = extract_f0(wave)
        back = extract_f0(out)
        # the leading silence must not acquire melody pitch
        lead = slice(0, 20)
        assert np.all(src.values[lead] == 0)
        assert np.all(back.values[lead] == 0)

    def test_alignment_audio_span_mismatch_rejected(self, bank):
        words = AlignmentTier("words", (Interval(0.0, 3.0, "song"),))
        phones = AlignmentTier("phones", (Interval(0.0, 3.0, "AO"),))
        wave = Waveform(np.zeros(SR), SR)
        with pytest.raises(InputError, match="span"):
            make_pseudo_singing(wave, words, phones,
                                _melody(bank, "scale_up"), 3, "u1")

    def test_silence_only_alignment_rejected(self, clip, bank):
        wave, _, _ = clip
        words = AlignmentTier("words", (Interval(0.0, 1.8, ""),))
        phones = AlignmentTier("phones", (Interval(0.0, 1.8, "sil"),))
        with pytest.raises(ValidationError):
            make_pseudo_singing(wave, words, phones,
                                _melody(bank, "scale_up"), 3, "u1")

    def test_record_identity_fields(self, clip, bank):
        wave, words, phones = clip
        _, rec = make_pseudo_singing(wave, words, phones, _melody(bank, "hill"),
                                     3, "utt9", audio_path="x/utt9.wav",
                                     singer_id="spk1")
        assert rec.utt_id == "utt9"
        assert rec.audio == "x/utt9.wav"
        assert rec.singer == "spk1"
        assert rec.voice_part is None


@pytest.mark.parametrize("label, phones", [
    ("sil", ["T", "S"]), ("", ["T", "S"]), (" ", ["T", "S"]), (" sp", ["T", "S"]),
    ("SP", ["T", "S"]), ("AE1", ["T", "AE", "S"]), ("ae1 ", ["T", "AE", "S"]),
    ("AE12", ["T", "AE", "S"]),
])
def test_pseudo_and_adapt_read_a_phone_tier_alike(label, phones):
    tier = AlignmentTier("phones", (
        Interval(0.0, 0.1, "T"), Interval(0.1, 0.2, label), Interval(0.2, 0.3, "S")))
    words = AlignmentTier("words", (Interval(0.0, 0.3, "tas"),))
    assert [ph for _, ph, _ in _speech_phone_events(words, tier)] == phones
    # extract_ratios fills the table only when it reads exactly these phones
    assert extract_ratios(tier, [("u", phones)]).get("u", phones) is not None
