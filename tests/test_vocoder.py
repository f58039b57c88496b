import dataclasses

import numpy as np
import pytest
from scipy.signal import find_peaks, lfilter

from singprep import InputError
from singprep.dsp import (
    F0Contour,
    Waveform,
    analyze,
    band_edges,
    extract_f0,
    load_analysis,
    midi_from_hz,
    replace_f0,
    save_analysis,
    synthesize,
)

from helpers import SR, pulse_train, sine, speech_clip


def formant_fixture():
    """Constant 150 Hz excitation through resonators sitting ON harmonics.

    At f0 = 150 the harmonics sample the filter response exactly at
    600/1350/2850 Hz, so peak positions are recoverable to FFT-bin accuracy.
    Off-harmonic formants are invisible between harmonics and cannot be
    asserted this tightly by any pitch-adaptive envelope estimator.
    """
    x = pulse_train(np.full(SR, 150.0))
    for f, bw in [(600, 110), (1350, 150), (2850, 220)]:
        r = np.exp(-np.pi * bw / SR)
        th = 2 * np.pi * f / SR
        x = lfilter([1 - r], [1, -2 * r * np.cos(th), r * r], x)
    return Waveform(0.7 * x / np.abs(x).max(), SR)


class TestBandEdges:
    def test_five_log_bands_at_24k(self):
        assert band_edges(24000) == (0.0, 750.0, 1500.0, 3000.0, 6000.0, 12000.0)

    def test_top_edge_is_nyquist(self):
        assert band_edges(16000)[-1] == 8000.0


class TestAnalyze:
    def test_stream_shapes_agree(self):
        res = analyze(sine(220.0, 0.5))
        n = len(res.f0.values)
        assert res.envelope.shape == (n, res.fft_size // 2 + 1)
        assert res.aperiodicity.shape == (n, len(res.edges) - 1)

    def test_envelope_positive(self):
        res = analyze(sine(220.0, 0.5))
        assert np.all(res.envelope > 0)

    def test_aperiodicity_in_unit_range(self):
        wave, _, _ = speech_clip()
        res = analyze(wave)
        assert res.aperiodicity.min() >= 0.0
        assert res.aperiodicity.max() <= 1.0

    def test_unvoiced_frames_fully_aperiodic(self):
        res = analyze(Waveform(np.zeros(SR // 2), SR))
        assert np.all(res.f0.values == 0)
        assert np.all(res.aperiodicity == 1.0)

    def test_noise_fully_aperiodic(self):
        rng = np.random.default_rng(7)
        res = analyze(Waveform(0.3 * rng.standard_normal(SR), SR))
        assert res.aperiodicity.mean() >= 0.99

    def test_tone_low_band_periodic(self):
        res = analyze(sine(220.0, 1.0))
        voiced = res.f0.values > 0
        assert res.aperiodicity[voiced, 0].mean() <= 0.1

    def test_formant_peaks_within_one_bin(self):
        res = analyze(formant_fixture())
        bin_hz = SR / res.fft_size
        lo = int(4000 / bin_hz)
        targets = np.array([600.0, 1350.0, 2850.0])
        voiced = np.flatnonzero(res.f0.values > 0)[10:-10]
        assert len(voiced) > 100
        for i in voiced:
            level_db = 10 * np.log10(res.envelope[i][:lo])
            peaks, _ = find_peaks(level_db, prominence=3.0)
            assert len(peaks) == 3
            got = np.sort(peaks) * bin_hz
            assert np.abs(got - targets).max() <= bin_hz


class TestReplaceF0:
    def test_other_streams_untouched(self):
        res = analyze(sine(220.0, 0.5))
        target = F0Contour(np.full_like(res.f0.values, 330.0), res.f0.hop)
        out = replace_f0(res, target)
        assert np.array_equal(out.envelope, res.envelope)
        assert np.array_equal(out.aperiodicity, res.aperiodicity)
        assert np.all(out.f0.values == 330.0)

    def test_original_not_mutated(self):
        res = analyze(sine(220.0, 0.5))
        before = res.f0.values.copy()
        replace_f0(res, F0Contour(np.full_like(before, 330.0), res.f0.hop))
        assert np.array_equal(res.f0.values, before)

    def test_frame_count_mismatch_rejected(self):
        res = analyze(sine(220.0, 0.5))
        with pytest.raises(InputError):
            replace_f0(res, F0Contour(np.full(3, 220.0), res.f0.hop))


class TestSynthesize:
    def test_length_is_frames_times_hop(self):
        res = analyze(sine(220.0, 0.5))
        out = synthesize(res, rng=np.random.default_rng(0))
        assert len(out) == len(res.f0.values) * int(round(res.f0.hop * SR))

    def test_deterministic_under_seeded_rng(self):
        res = analyze(sine(220.0, 0.5))
        a = synthesize(res, rng=np.random.default_rng(1))
        b = synthesize(res, rng=np.random.default_rng(1))
        assert np.array_equal(a.samples, b.samples)

    def test_output_within_unit_range(self):
        wave, _, _ = speech_clip()
        out = synthesize(analyze(wave), rng=np.random.default_rng(0))
        assert np.abs(out.samples).max() <= 1.0

    def test_tone_round_trip_pitch(self):
        res = analyze(sine(220.0, 1.0))
        out = synthesize(res, rng=np.random.default_rng(0))
        back = extract_f0(out)
        voiced = back.values[back.values > 0]
        cents = 100 * 12 * np.abs(np.log2(voiced / 220.0))
        assert np.median(cents) <= 5.0

    def test_speech_round_trip_f0_and_voicing(self):
        wave, _, _ = speech_clip()
        res = analyze(wave)
        out = synthesize(res, rng=np.random.default_rng(0))
        back = extract_f0(out)
        src = res.f0.values
        groundtruth_voiced = src > 0
        n = min(len(src), len(back.values))
        co = groundtruth_voiced[:n] & (back.values[:n] > 0)
        cents = 100 * np.abs(
            12 * np.log2(back.values[:n][co] / src[:n][co]))
        assert np.median(cents) <= 20.0
        agree = (groundtruth_voiced[:n] == (back.values[:n] > 0)).mean()
        assert agree >= 0.90

    @pytest.mark.parametrize("target_hz", [190.0, 300.0])
    def test_shifted_f0_renders_at_target(self, target_hz):
        # broadband source: narrow-envelope signals (a bare sine) leave no
        # energy for harmonics at the shifted pitch and cannot be re-tracked
        res = analyze(formant_fixture())
        shifted = F0Contour(
            np.where(res.f0.values > 0, target_hz, 0.0), res.f0.hop)
        out = synthesize(replace_f0(res, shifted), rng=np.random.default_rng(0))
        back = extract_f0(out)
        voiced = back.values[back.values > 0]
        offset = midi_from_hz(float(np.median(voiced))) - midi_from_hz(target_hz)
        assert abs(offset) < 0.2


class TestContainer:
    def test_save_load_round_trip_exact(self, tmp_path):
        wave, _, _ = speech_clip()
        res = analyze(wave)
        p = tmp_path / "a.sfa"
        save_analysis(res, p)
        back = load_analysis(p)
        assert np.array_equal(back.f0.values, res.f0.values)
        assert back.f0.hop == res.f0.hop
        assert np.array_equal(back.envelope, res.envelope)
        assert np.array_equal(back.aperiodicity, res.aperiodicity)
        assert back.sample_rate == res.sample_rate
        assert back.fft_size == res.fft_size
        assert back.edges == res.edges

    def test_bad_magic_rejected(self, tmp_path):
        res = analyze(sine(220.0, 0.3))
        p = tmp_path / "a.sfa"
        save_analysis(res, p)
        data = bytearray(p.read_bytes())
        data[0] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(InputError):
            load_analysis(p)

    def test_truncated_rejected(self, tmp_path):
        res = analyze(sine(220.0, 0.3))
        p = tmp_path / "a.sfa"
        save_analysis(res, p)
        p.write_bytes(p.read_bytes()[:40])
        with pytest.raises(InputError):
            load_analysis(p)

    def test_synthesis_from_loaded_analysis_identical(self, tmp_path):
        res = analyze(sine(220.0, 0.3))
        p = tmp_path / "a.sfa"
        save_analysis(res, p)
        a = synthesize(res, rng=np.random.default_rng(3))
        b = synthesize(load_analysis(p), rng=np.random.default_rng(3))
        assert np.array_equal(a.samples, b.samples)


class TestAnalysisResultValidation:
    def test_envelope_frame_mismatch_rejected(self):
        res = analyze(sine(220.0, 0.3))
        with pytest.raises(InputError):
            dataclasses.replace(res, f0=F0Contour(np.zeros(0), res.f0.hop))

    def test_aperiodicity_range_enforced(self):
        res = analyze(sine(220.0, 0.3))
        bad = res.aperiodicity.copy()
        bad[0, 0] = 1.5
        with pytest.raises(InputError):
            dataclasses.replace(res, aperiodicity=bad)
