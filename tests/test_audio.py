import math
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singprep.dsp.audio import Waveform, read_wav, resample, write_wav
from singprep.errors import InputError

from helpers import sine


class TestWaveform:
    def test_duration(self):
        assert Waveform(np.zeros(24000), 24000).duration == pytest.approx(1.0)

    def test_len(self):
        assert len(Waveform(np.zeros(100), 8000)) == 100


class TestWavRoundTrip:
    def test_pcm_values_bit_identical(self, tmp_path):
        # quantized values survive a write/read/write/read cycle unchanged
        rng = np.random.default_rng(3)
        wave_in = Waveform(rng.uniform(-0.9, 0.9, 4000), 24000)
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(wave_in, p1)
        first = read_wav(p1)
        write_wav(first, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(first.samples, read_wav(p2).samples)

    def test_sample_rate_preserved(self, tmp_path):
        write_wav(sine(220, 0.1, sr=16000), tmp_path / "t.wav")
        assert read_wav(tmp_path / "t.wav").sample_rate == 16000

    def test_out_of_range_clipped(self, tmp_path):
        write_wav(Waveform(np.array([2.0, -2.0]), 8000), tmp_path / "c.wav")
        back = read_wav(tmp_path / "c.wav")
        assert back.samples.max() <= 1.0 and back.samples.min() >= -1.0


class TestReadErrors:
    def test_not_riff(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"garbage data here")
        with pytest.raises(InputError, match="WAV"):
            read_wav(p)

    def test_wrong_sample_width(self, tmp_path):
        p = tmp_path / "w8.wav"
        with wave.open(str(p), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(8000)
            fh.writeframes(bytes(100))
        with pytest.raises(InputError, match="16-bit"):
            read_wav(p)

    def test_stereo_is_downmixed(self, tmp_path):
        p = tmp_path / "st.wav"
        with wave.open(str(p), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(struct.pack("<4h", 100, 300, -100, -300))
        mixed = read_wav(p)
        assert mixed.samples == pytest.approx(np.array([200, -200]) / 32768.0)


class TestResample:
    def test_identity_rate(self):
        w = sine(220, 0.1)
        assert resample(w, w.sample_rate) is w

    def test_length_scales(self):
        w = sine(220, 0.5, sr=48000)
        out = resample(w, 24000)
        assert len(out) == len(w) // 2
        assert out.sample_rate == 24000

    def test_tone_survives(self):
        # dominant FFT bin stays at 440 Hz across 44100 -> 24000
        w = sine(440, 1.0, sr=44100)
        out = resample(w, 24000)
        spec = np.abs(np.fft.rfft(out.samples * np.hanning(len(out))))
        peak_hz = np.argmax(spec) * 24000 / len(out)
        assert peak_hz == pytest.approx(440, abs=2.0)

    def test_bad_target_rate(self):
        with pytest.raises(InputError):
            resample(sine(220, 0.1), 0)


def resample_poly_oracle(x: np.ndarray, rate: int, target: int) -> np.ndarray:
    """scipy.signal.resample_poly at its defaults, clipped as resample clips."""
    from scipy.signal import resample_poly

    g = math.gcd(rate, target)
    return np.clip(resample_poly(x, target // g, rate // g), -1.0, 1.0)


class TestResampleMatchesScipy:
    # from 1 sample (shorter than any filter) to 20 s
    @pytest.mark.parametrize("seconds", [None, 0.001, 0.05, 0.3, 1.7, 20.0])
    @pytest.mark.parametrize("rate, target", [(22050, 24000), (16000, 24000), (44100, 24000),
                                              (48000, 24000), (24000, 16000)])
    def test_common_rates(self, rate, target, seconds):
        n = 1 if seconds is None else int(seconds * rate)
        x = np.random.default_rng(n).uniform(-0.9, 0.9, n)
        out = resample(Waveform(x, rate), target).samples
        expected = resample_poly_oracle(x, rate, target)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(up=st.integers(1, 60), down=st.integers(1, 60), n=st.integers(1, 3000),
           seed=st.integers(0, 2**32 - 1))
    def test_coprime_rate_pairs(self, up, down, n, seed):
        g = math.gcd(up, down)
        up, down = up // g, down // g
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        out = resample(Waveform(x, down), up).samples
        expected = resample_poly_oracle(x, down, up)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12
