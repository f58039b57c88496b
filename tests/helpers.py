"""Deterministic audio fixtures shared across the test suite.

Everything is synthesized in code (seeded) so no binary fixtures live in the
repository and the CLI determinism tests see identical inputs on every run.
The speech-like clip is a source-filter construction: a fractional-position
pulse train (glottal source) through a lowpass tilt and resonators for voiced
segments, filtered noise for fricatives.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from singprep.dsp.audio import Waveform, write_wav
from singprep.textgrid import AlignmentTier, Interval, write_textgrid

SR = 24000


def sine(freq: float, dur: float, sr: int = SR, amp: float = 0.5) -> Waveform:
    t = np.arange(int(round(dur * sr))) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


def _reson(f: float, bw: float, sr: int = SR):
    r = np.exp(-np.pi * bw / sr)
    th = 2 * np.pi * f / sr
    return np.array([1.0 - r]), np.array([1.0, -2 * r * np.cos(th), r * r])


def pulse_train(f0: np.ndarray, sr: int = SR) -> np.ndarray:
    """Impulse train with fractional pulse positions (linear two-sample split).

    Quantizing pulse times to whole samples adds timing jitter that
    decorrelates the signal through narrow resonances, so tests built on it
    would probe the jitter, not the code under test.
    """
    n = len(f0)
    phase = np.cumsum(f0 / sr)
    ticks = np.floor(phase)
    fired = np.flatnonzero(np.diff(np.concatenate([[0.0], ticks])) >= 1.0)
    x = np.zeros(n + 1)
    for i in fired:
        prev = phase[i - 1] if i else 0.0
        frac = (ticks[i] - prev) / (phase[i] - prev + 1e-300)
        pos = max(i - 1 + frac, 0.0)
        j = int(np.floor(pos))
        f = pos - j
        x[j] += 1.0 - f
        x[min(j + 1, n)] += f
    return x[:n]


def voiced_segment(dur, f0_start, f0_end, formants, sr=SR, seed=0) -> np.ndarray:
    n = int(round(dur * sr))
    f0 = np.linspace(f0_start, f0_end, n)
    x = pulse_train(f0, sr)
    # two one-pole lowpasses: glottal spectral tilt
    a = np.exp(-2 * np.pi * 600 / sr)
    x = lfilter([1 - a], [1, -a], x)
    x = lfilter([1 - a], [1, -a], x)
    for f, bw in formants:
        b, a2 = _reson(f, bw, sr)
        x = lfilter(b, a2, x)
    rng = np.random.default_rng(seed)
    x = x + 0.002 * np.abs(x).max() * rng.standard_normal(n)
    return x / (np.abs(x).max() + 1e-9)


def fricative(dur, formants, sr=SR, seed=1) -> np.ndarray:
    n = int(round(dur * sr))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n).astype(float)
    for f, bw in formants:
        b, a = _reson(f, bw, sr)
        x = lfilter(b, a, x)
    return 0.35 * x / (np.abs(x).max() + 1e-9)


def silence(dur, sr=SR) -> np.ndarray:
    return np.zeros(int(round(dur * sr)))


def speech_clip():
    """1.8 s bilingual-corpus-shaped clip: 'song fan', aligned at phone level.

    Returns (Waveform, word_tier, phone_tier). Aligned speech spans
    0.15..1.65 s (1.4 s). Word pitch medians sit near MIDI 49 (song)
    and 51 (fan).
    """
    segs = [
        ("", silence(0.15)),
        ("S", fricative(0.15, [(5200, 2400)], seed=11)),
        ("AO", 0.85 * voiced_segment(0.40, 132.0, 148.0,
                                     [(600, 90), (900, 120), (2600, 180)], seed=12)),
        ("NG", 0.55 * voiced_segment(0.15, 148.0, 140.0,
                                     [(280, 70), (2300, 250)], seed=13)),
        ("", silence(0.10)),
        ("F", fricative(0.15, [(4300, 3000)], seed=14)),
        ("AE", 0.85 * voiced_segment(0.40, 168.0, 152.0,
                                     [(780, 110), (1700, 160), (2500, 200)], seed=15)),
        ("N", 0.55 * voiced_segment(0.15, 150.0, 142.0,
                                    [(300, 80), (2200, 240)], seed=16)),
        ("", silence(0.15)),
    ]
    x = np.concatenate([s for _, s in segs])
    t = 0.0
    phones = []
    for label, s in segs:
        d = len(s) / SR
        phones.append(Interval(t, t + d, label))
        t += d
    words = [
        Interval(0.0, 0.15, ""),
        Interval(0.15, 0.85, "song"),
        Interval(0.85, 0.95, ""),
        Interval(0.95, 1.65, "fan"),
        Interval(1.65, 1.8, ""),
    ]
    return (
        Waveform(x.astype(np.float64), SR),
        AlignmentTier("words", tuple(words)),
        AlignmentTier("phones", tuple(phones)),
    )


def write_clip_files(directory, utt_id="clip"):
    """Write the speech clip as WAV + TextGrid; returns (wav_path, tg_path)."""
    wave, words, phones = speech_clip()
    wav_path = directory / f"{utt_id}.wav"
    tg_path = directory / f"{utt_id}.TextGrid"
    write_wav(wave, wav_path)
    write_textgrid([words, phones], tg_path)
    return wav_path, tg_path
