import math

import numpy as np
import pytest

from singprep.dsp import pitch
from singprep.dsp.audio import Waveform
from singprep.dsp.pitch import (DEFAULT_FMIN, F0Contour, extract_f0, frame_count, hz_from_midi,
                                midi_from_hz, nearest_midi, next_fast_len, periodic_hann)
from singprep.errors import InputError

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


class TestContainers:
    def test_voiced_mask(self):
        c = F0Contour(np.array([0.0, 220.0, 0.0]))
        assert list(c.voiced) == [False, True, False]

    def test_frame_count_matches_extractor(self):
        w = sine(220.0, 0.73)
        c = extract_f0(w, hop=0.005)
        assert len(c.values) == frame_count(len(w), int(0.005 * SR))

    def test_negative_values_rejected(self):
        with pytest.raises(InputError):
            F0Contour(np.array([-1.0]))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1024, 1200, 2048])
def test_periodic_hann_equals_scipy(n):
    from scipy.signal.windows import hann

    assert np.array_equal(periodic_hann(n), hann(n, sym=False))


def test_next_fast_len_equals_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    assert [next_fast_len(n) for n in range(1, 20001)] == [
        scipy_next_fast_len(n) for n in range(1, 20001)]


PITCH_RATES = (16000, 22050, 24000, 44100, 48000)


def pitch_fft_shapes(sr: int, windows: int) -> list[tuple[int, int]]:
    """extract_f0's cross-correlation FFTs at sr: frames of width 2w and w,
    zero-padded to next_fast_len(windows * w) for a w-sample window."""
    w = math.ceil(sr / DEFAULT_FMIN)
    nfft = next_fast_len(windows * w)
    return [(nfft, 2 * w), (nfft, w)]


# (transform length, input width) of every FFT the code runs: extract_f0's
# cross-correlation at PITCH_RATES (next_fast_len(2w) points), the vocoder at
# DEFAULT_FFT and twice it, and mcep's 50 ms window at 24 kHz; and the 3w
# sizes at which extract_f0 correlated before, which the oracle still runs
# to bound the difference
_PITCH_SHAPES = [shape for sr in PITCH_RATES for shape in pitch_fft_shapes(sr, 2)]
_OLD_PITCH_SHAPES = [shape for sr in PITCH_RATES for shape in pitch_fft_shapes(sr, 3)]
_FFT_SHAPES = [*_PITCH_SHAPES, *_OLD_PITCH_SHAPES, (1024, 1024), (2048, 1024), (1200, 1200)]


def test_pitch_fft_shapes_are_the_ones_extract_f0_runs(monkeypatch):
    assert _PITCH_SHAPES == [(495, 494), (495, 247), (686, 680), (686, 340), (750, 740),
                             (750, 370), (1372, 1358), (1372, 679), (1485, 1478), (1485, 739)]
    seen = set()

    def spy(a, n=None, axis=-1, norm=None, out=None):
        seen.add((n, a.shape[axis]))
        return np.fft.rfft(a, n, axis=axis, norm=norm, out=out)

    monkeypatch.setattr(pitch, "rfft", spy)
    for sr in PITCH_RATES:
        extract_f0(sine(220.0, 0.2, sr=sr))
    assert seen == set(_PITCH_SHAPES)


@pytest.mark.parametrize("nfft, width", _FFT_SHAPES)
def test_numpy_fft_equals_scipy_fft(nfft, width):
    import scipy.fft

    frames = np.random.default_rng(nfft + width).standard_normal((37, width))
    spec = np.fft.rfft(frames, nfft, axis=1)
    assert np.array_equal(spec, scipy.fft.rfft(frames, nfft, axis=1))
    assert np.array_equal(np.fft.rfft(frames[0], nfft), scipy.fft.rfft(frames[0], nfft))
    assert np.array_equal(np.fft.irfft(spec, nfft, axis=1), scipy.fft.irfft(spec, nfft, axis=1))
    assert np.array_equal(np.fft.irfft(spec[0], nfft), scipy.fft.irfft(spec[0], nfft))
