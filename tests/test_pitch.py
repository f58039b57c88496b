import numpy as np
import pytest

from singprep import InputError
from singprep.dsp.pitch import next_fast_len, periodic_hann
from singprep.dsp import (
    F0Contour,
    Waveform,
    extract_f0,
    frame_count,
    hz_from_midi,
    midi_from_hz,
    nearest_midi,
    transpose_f0,
)

from helpers import SR, sine, voiced_segment


def interior(values: np.ndarray, margin: int = 10) -> np.ndarray:
    return values[margin:-margin]


class TestMidiConversions:
    def test_a4_is_midi_69(self):
        assert midi_from_hz(440.0) == pytest.approx(69.0)

    def test_inverse_round_trip(self):
        for m in (40.0, 57.0, 69.0, 81.5):
            assert midi_from_hz(hz_from_midi(m)) == pytest.approx(m, abs=1e-9)

    def test_octave_is_twelve(self):
        assert midi_from_hz(880.0) - midi_from_hz(440.0) == pytest.approx(12.0)

    def test_nearest_midi_rounds_half_up(self):
        assert nearest_midi(hz_from_midi(60.5)) == 61
        assert nearest_midi(440.0) == 69

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(InputError):
            midi_from_hz(0.0)


class TestExtractF0:
    def test_pure_tone_tracked_within_1pct(self):
        contour = extract_f0(sine(220.0, 1.0))
        vals = interior(contour.values)
        voiced = vals[vals > 0]
        assert len(voiced) / len(vals) >= 0.95
        good = np.abs(voiced - 220.0) / 220.0 <= 0.01
        assert good.mean() >= 0.95

    def test_low_tone_tracked(self):
        contour = extract_f0(sine(80.0, 1.0))
        voiced = interior(contour.values)
        voiced = voiced[voiced > 0]
        assert np.median(np.abs(voiced - 80.0)) / 80.0 <= 0.01

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(5)
        contour = extract_f0(Waveform(0.3 * rng.standard_normal(SR), SR))
        assert (contour.values == 0).mean() >= 0.90

    def test_silence_all_unvoiced(self):
        contour = extract_f0(Waveform(np.zeros(SR), SR))
        assert np.all(contour.values == 0)

    def test_speech_like_segment_follows_glide(self):
        seg = voiced_segment(0.5, 150.0, 180.0, [(600, 90), (1700, 160)], seed=2)
        contour = extract_f0(Waveform(seg, SR))
        vals = contour.values
        third = len(vals) // 3
        first, last = vals[:third], vals[-third:]
        assert np.median(first[first > 0]) < np.median(last[last > 0])

    def test_hop_controls_frame_count(self):
        w = sine(220.0, 1.0)
        c5 = extract_f0(w, hop=0.005)
        c10 = extract_f0(w, hop=0.010)
        assert len(c5.values) == pytest.approx(2 * len(c10.values), abs=2)

    def test_too_short_input_rejected(self):
        with pytest.raises(InputError):
            extract_f0(Waveform(np.zeros(100), SR))

    def test_fmax_respected(self):
        contour = extract_f0(sine(220.0, 0.5))
        assert contour.values.max() <= 1047.0


class TestTransposeF0:
    def test_octave_up_doubles_voiced_exactly(self):
        c = F0Contour(np.array([220.0, 0.0, 330.0]), 0.005)
        out = transpose_f0(c, 12)
        assert np.array_equal(out.values, [440.0, 0.0, 660.0])

    def test_unvoiced_frames_stay_zero(self):
        c = F0Contour(np.zeros(10), 0.005)
        assert np.all(transpose_f0(c, 7).values == 0)

    def test_down_then_up_is_identity(self):
        c = F0Contour(np.array([220.0, 247.0, 0.0]), 0.005)
        out = transpose_f0(transpose_f0(c, -5), 5)
        assert out.values == pytest.approx(c.values)

    def test_clamp_at_max_hz(self, caplog):
        c = F0Contour(np.array([880.0]), 0.005)
        out = transpose_f0(c, 12, max_hz=1000.0)
        assert out.values[0] == 1000.0

    def test_fractional_semitones(self):
        c = F0Contour(np.array([440.0]), 0.005)
        assert transpose_f0(c, 1.0).values[0] == pytest.approx(440 * 2 ** (1 / 12))


class TestContainers:
    def test_voiced_mask(self):
        c = F0Contour(np.array([0.0, 220.0, 0.0]), 0.005)
        assert list(c.voiced) == [False, True, False]

    def test_frame_count_matches_extractor(self):
        w = sine(220.0, 0.73)
        c = extract_f0(w, hop=0.005)
        assert len(c.values) == frame_count(len(w), int(0.005 * SR))

    def test_negative_values_rejected(self):
        with pytest.raises(InputError):
            F0Contour(np.array([-1.0]), 0.005)

    @pytest.mark.parametrize("hop", [0.0, -0.005, float("nan"), float("inf")])
    def test_nonpositive_or_non_finite_hop_rejected(self, hop):
        with pytest.raises(InputError, match="hop"):
            F0Contour(np.zeros(3), hop)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1024, 1200, 2048])
def test_periodic_hann_equals_scipy(n):
    from scipy.signal.windows import hann

    assert np.array_equal(periodic_hann(n), hann(n, sym=False))


def test_next_fast_len_equals_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    assert [next_fast_len(n) for n in range(1, 20001)] == [
        scipy_next_fast_len(n) for n in range(1, 20001)]


# (transform length, input width) of every FFT the code runs: extract_f0's
# cross-correlation at 16, 22.05, 24, 44.1 and 48 kHz (frames of width 2w and
# w, zero-padded to next_fast_len(3w)), the vocoder at DEFAULT_FFT and twice
# it, and mcep's 50 ms window at 24 kHz
_FFT_SHAPES = [(750, 494), (750, 247), (1024, 680), (1024, 340), (1120, 740), (1120, 370),
               (2048, 1358), (2048, 679), (2240, 1478), (2240, 739),
               (1024, 1024), (2048, 1024), (1200, 1200)]


@pytest.mark.parametrize("nfft, width", _FFT_SHAPES)
def test_numpy_fft_equals_scipy_fft(nfft, width):
    import scipy.fft

    frames = np.random.default_rng(nfft + width).standard_normal((37, width))
    spec = np.fft.rfft(frames, nfft, axis=1)
    assert np.array_equal(spec, scipy.fft.rfft(frames, nfft, axis=1))
    assert np.array_equal(np.fft.rfft(frames[0], nfft), scipy.fft.rfft(frames[0], nfft))
    assert np.array_equal(np.fft.irfft(spec, nfft, axis=1), scipy.fft.irfft(spec, nfft, axis=1))
    assert np.array_equal(np.fft.irfft(spec[0], nfft), scipy.fft.irfft(spec[0], nfft))
