"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS/FAIL line to the terminal (bypassing capture)
so a run gives a ten-line scorecard.
"""

import json
import math
import random
from contextlib import contextmanager
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest

from singprep.cli import main
from singprep.dsp.pitch import extract_f0, midi_from_hz
from singprep.dsp.vocoder import analyze, synthesize
from singprep.lexicon import default_lexicon, g2p, segment_lyrics
from singprep.melody import load_melody_bank
from singprep.metrics import McepFrames, evaluate_pair, f0_rmse, mcd_from_frames, wer
from singprep.pseudo import make_pseudo_singing, render_melody
from singprep.annotation import AnnotationRecord
from singprep.score import RatioTable, adapt_average, adapt_proportional
from singprep.svc import PITCH_SHIFT_TABLE

from helpers import SR, sine, speech_clip, write_clip_files
from oracles import wer_oracle


@contextmanager
def scored(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL  {name}")
        raise
    with capsys.disabled():
        print(f"PASS  {name}")


def round4(x: float) -> float:
    return float(Decimal(repr(x)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


PINYIN_GOLDENS = {
    "rang": ("R", "AE", "NG"),
    "wo": ("W", "AO"),
    "nuan": ("N", "UW", "AE", "N"),
    "yang": ("Y", "AE", "NG"),
    "zhui": ("JH", "UW", "IY"),
}
ENGLISH_GOLDENS = {
    "cat": ("K", "AE", "T"),
    "fan": ("F", "AE", "N"),
    "song": ("S", "AO", "NG"),
    "total": ("T", "OW", "T", "AH", "L"),
    "story": ("S", "T", "AO", "R", "IY"),
}


def test_01_unit_goldens(capsys, lexicon):
    with scored(capsys, "pinyin and english lexicon goldens"):
        for syllable, phones in PINYIN_GOLDENS.items():
            assert tuple(lexicon.lookup_pinyin(syllable)) == phones, syllable
        for word, phones in ENGLISH_GOLDENS.items():
            assert tuple(lexicon.lookup_english(word)) == phones, word


def test_02_mixed_language_line(capsys, lexicon):
    with scored(capsys, "mixed-language phoneme and token sequence"):
        seq = g2p(segment_lyrics("我和你 from one world"), lexicon)
        assert list(seq.phonemes) == [
            "W", "AO", "HH", "ER", "N", "IY",
            "F", "R", "AH", "M", "W", "AH", "N", "W", "ER", "L", "D",
        ]
        assert list(seq.language_tokens) == [1] * 6 + [0] * 11


def mandarin_record(phs, ph_dur, notes, notes_dur, is_slur):
    """A singing record of Mandarin events."""
    n = len(phs)
    return AnnotationRecord("u", "u.wav", "", None, phs, is_slur, ph_dur, notes, notes_dur,
                            [1] * n, [1] * n)


def cun_events():
    return mandarin_record(["c", "uen", "uen"], [0.18, 0.245, 0.295], [60, 60, 62],
                           [0.425, 0.425, 0.295], [0, 0, 1])


def test_03_duration_split_columns(capsys, lexicon):
    with scored(capsys, "unit-splitting strategies reproduce reference columns"):
        out = adapt_average(cun_events(), lexicon)
        assert out.phs == ["T", "S", "UW", "AH", "N",
                           "UW", "AH", "N"]
        assert [round4(d) for d in out.ph_dur] == [
            0.09, 0.09, 0.0817, 0.0817, 0.0817, 0.0983, 0.0983, 0.0983]

        ratios = RatioTable()
        ratios.set("c", ("T", "S"), (0.2, 0.8))
        ratios.set("uen", ("UW", "AH", "N"), (1 / 3, 1 / 3, 1 / 3))
        out = adapt_proportional(cun_events(), lexicon, ratios)
        assert out.phs == ["T", "S", "UW", "AH", "AH", "N"]
        assert [round4(d) for d in out.ph_dur] == [
            0.036, 0.144, 0.18, 0.065, 0.115, 0.18]
        assert out.notes == [60, 60, 60, 60, 62, 62]


def random_annotation(rng):
    finals = ("a", "ang", "uen", "iou", "uei")
    events = []  # (phoneme, ph_dur, note, note_dur, is_slur)
    for _ in range(rng.randint(1, 8)):
        note = rng.randint(50, 70)
        if rng.random() < 0.5:
            events.append((rng.choice(("c", "zh")), rng.uniform(0.03, 0.2), note, 0.4, 0))
        final = rng.choice(finals)
        events.append((final, rng.uniform(0.05, 0.5), note, 0.4, 0))
        if rng.random() < 0.3:
            events.append((final, rng.uniform(0.05, 0.5), note + 2, 0.3, 1))
    return mandarin_record(*map(list, zip(*events)))


def test_04_duration_conservation(capsys, lexicon):
    with scored(capsys, "duration conserved over 1000 random annotations"):
        rng = random.Random(20260816)
        ratios = RatioTable()
        ratios.set("c", ("T", "S"), (0.2, 0.8))
        ratios.set("uen", ("UW", "AH", "N"), (0.25, 0.35, 0.40))
        for _ in range(1000):
            rec = random_annotation(rng)
            before = sum(rec.ph_dur)
            for out in (adapt_average(rec, lexicon),
                        adapt_proportional(rec, lexicon, ratios)):
                after = sum(out.ph_dur)
                assert abs(after - before) <= 1e-9 * before


EXPECTED_SHIFTS = {
    "Bass": (0, 4, 8, 12, 12),
    "Baritone": (-4, 0, 4, 8, 8),
    "Tenor": (-8, -4, 0, 4, 8),
    "Alto": (-12, -8, -4, 0, 4),
    "Soprano": (-12, -8, -8, -4, 0),
}
PARTS = ("Bass", "Baritone", "Tenor", "Alto", "Soprano")


def test_05_pitch_shift_matrix(capsys):
    with scored(capsys, "voice-part transposition matrix and antisymmetry"):
        for src, row in EXPECTED_SHIFTS.items():
            for dst, expected in zip(PARTS, row):
                assert PITCH_SHIFT_TABLE[src, dst] == expected, (src, dst)
        for src in PARTS:
            for dst in PARTS:
                assert PITCH_SHIFT_TABLE[src, dst] == -PITCH_SHIFT_TABLE[dst, src]


def test_06_pitch_tracker(capsys):
    with scored(capsys, "pitch tracking, midi conversion"):
        contour = extract_f0(sine(220.0, 1.0))
        interior = contour.values[10:-10]
        voiced = interior[interior > 0]
        assert len(voiced) >= 0.95 * len(interior)
        within = np.abs(voiced - 220.0) <= 0.01 * 220.0
        assert within.mean() >= 0.95

        assert midi_from_hz(440.0) == 69


def test_07_vocoder_round_trip(capsys, clip):
    with scored(capsys, "vocoder round trip pitch and voicing fidelity"):
        wave, _, _ = clip
        rendered = synthesize(analyze(wave))
        src = extract_f0(wave)
        back = extract_f0(rendered)
        n = min(len(src.values), len(back.values))
        a, b = src.values[:n], back.values[:n]
        agree = (a > 0) == (b > 0)
        assert agree.mean() >= 0.90
        co = (a > 0) & (b > 0)
        cents = 1200.0 * np.abs(np.log2(b[co] / a[co]))
        assert np.median(cents) <= 20.0


def test_08_pseudo_singing_melodies(capsys, clip, bank):
    with scored(capsys, "every builtin melody renders on pitch with "
                        "singing-style annotation"):
        wave, words, phones = clip
        assert len(bank) == 10
        n_frames = len(extract_f0(wave).values)
        for melody in bank:
            out, rec = make_pseudo_singing(wave, words, phones, melody, 3, "u1")
            assert set(rec.style) == {2}
            assert sum(rec.ph_dur) == pytest.approx(1.4, abs=1e-6)
            target = render_melody(melody, n_frames)
            back = extract_f0(out)
            n = min(len(back.values), len(target.values))
            co = back.values[:n] > 0
            cents = 1200.0 * np.abs(
                np.log2(back.values[:n][co] / target.values[:n][co]))
            assert (cents <= 50.0).mean() >= 0.85, melody.template_id


def test_09_metric_correctness(capsys, clip):
    with scored(capsys, "edit distance, spectral distortion, pitch error "
                        "and identity metrics"):
        rng = random.Random(99)
        vocab = ["a", "b", "c", "d"]
        for _ in range(500):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            assert wer(ref, hyp) == pytest.approx(wer_oracle(ref, hyp))

        frame_rng = np.random.default_rng(7)
        base = frame_rng.standard_normal((60, 13))
        offset = frame_rng.standard_normal(13) * 0.25
        path = [(i, i) for i in range(60)]
        got = mcd_from_frames(McepFrames(base),
                              McepFrames(base + offset), path)
        expected = (10.0 / math.log(10)) * math.sqrt(2.0 * float(offset @ offset))
        assert abs(got - expected) <= 1e-6

        from singprep.dsp.pitch import F0Contour
        ref_c = F0Contour(np.full(80, 220.0))
        hyp_c = F0Contour(np.full(80, 440.0))
        assert abs(f0_rmse(ref_c, hyp_c, [(i, i) for i in range(80)])
                   - math.log(2)) <= 1e-9

        wave, _, _ = clip
        emb = np.array([0.3, -1.2, 0.8])
        out = evaluate_pair(wave, wave, ["song", "fan"], ["song", "fan"],
                            emb, emb)
        assert out["mcd_db"] == 0.0
        assert out["f0_rmse"] == 0.0
        assert out["vuv_e"] == 0.0
        assert out["semitone_accuracy"] == 1.0
        assert out["wer"] == 0.0
        assert out["sim"] == pytest.approx(1.0, abs=1e-12)


def test_10_pipeline_determinism(capsys, tmp_path):
    with scored(capsys, "pseudo-singing pipeline byte-identical across "
                        "reruns and worker counts"):
        wav, tg = write_clip_files(tmp_path, utt_id="clip")
        wav2, tg2 = write_clip_files(tmp_path, utt_id="clip2")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"utterances": [
            {"utt_id": "clip", "audio": str(wav), "textgrid": str(tg)},
            {"utt_id": "clip2", "audio": str(wav2), "textgrid": str(tg2)},
        ]}), encoding="utf-8")

        trees = {}
        for label, workers in (("first", 1), ("again", 1), ("parallel", 4)):
            out_dir = tmp_path / label
            assert main(["pseudo", "--manifest", str(manifest),
                         "--workers", str(workers),
                         "--output-dir", str(out_dir)]) == 0
            trees[label] = {p.name: p.read_bytes()
                            for p in sorted(out_dir.iterdir())}
        assert trees["first"] == trees["again"]
        assert trees["first"] == trees["parallel"]
