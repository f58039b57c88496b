"""F0 estimation and pitch arithmetic.

The estimator is a normalized-difference autocorrelation method: per frame,
the cumulative-mean-normalized difference function is searched for the first
dip under a voicing threshold, refined by parabolic interpolation. Frames
with no dip under the threshold (or with negligible energy) are unvoiced and
carry the value 0.0.

The search runs as array code over fixed blocks of _BLOCK frames in buffers
allocated once per call, so the difference-function intermediates take the
same memory for any clip length and stay in cache. The cross-correlation runs
at next_fast_len(2w) points for a w-sample integration window: the smallest
size at which the circular correlation does not wrap for lags 0..w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InputError
from .audio import Waveform

DEFAULT_HOP = 0.005
DEFAULT_FMIN = 65.0
DEFAULT_FMAX = 1047.0
DEFAULT_THRESHOLD = 0.35

_SILENCE_POWER = 1e-10  # mean-square floor below which a frame is silent
_SELECT_THRESHOLD = 0.1  # strict dip level for period-candidate selection
_BLOCK = 128  # frames per array pass (a multiple of 32): the block buffers stay in cache


@dataclass(frozen=True)
class F0Contour:
    """Frame-rate pitch track; value 0.0 marks an unvoiced frame."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise InputError("F0 contour must be 1-D")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise InputError("F0 values must be finite and nonnegative")

    def __len__(self) -> int:
        return self.values.size

    @property
    def voiced(self) -> np.ndarray:
        return self.values > 0.0


def frame_count(n_samples: int, hop_samples: int) -> int:
    """Frames with centers at i*hop inside the signal."""
    return 1 + (n_samples - 1) // hop_samples


def centered_frames(x: np.ndarray, n: int, hop: int, width: int) -> np.ndarray:
    """n reflect-padded windows, window i starting width//2 before sample i*hop."""
    half = width // 2
    padded = np.pad(x, (half, width - half), mode="reflect")
    return sliding_window_view(padded, width)[::hop][:n]


def next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n (only factors 2, 3, 5, 7, 11): an
    FFT size pocketfft handles fast, equal to scipy.fft.next_fast_len(n)."""
    size = max(n, 1)
    while True:
        rest = size
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


def periodic_hann(n: int) -> np.ndarray:
    """The n-point periodic Hann window, bit-identical to scipy's hann(n, sym=False)."""
    if n <= 1:
        return np.ones(n)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]


def extract_f0(waveform: Waveform, hop: float = DEFAULT_HOP) -> F0Contour:
    """Estimate the F0 contour of a mono waveform in DEFAULT_FMIN..DEFAULT_FMAX Hz.

    Requires sample_rate >= 4*DEFAULT_FMAX and at least two analysis windows
    of audio (the integration window is one maximum pitch period).
    """
    sr = waveform.sample_rate
    if sr < 4 * DEFAULT_FMAX:
        raise InputError(
            f"sample rate {sr} too low for fmax {DEFAULT_FMAX} (need >= {4 * DEFAULT_FMAX:.0f})"
        )
    x = waveform.samples
    lag_min = max(2, int(sr / DEFAULT_FMAX))
    lag_max = int(math.ceil(sr / DEFAULT_FMIN))
    w = lag_max  # integration window: one maximum period
    if x.size < 2 * w:
        raise InputError(
            f"waveform too short for F0 analysis: {x.size} samples < two "
            f"{w}-sample windows"
        )
    hop_samples = max(1, int(round(hop * sr)))
    n = frame_count(x.size, hop_samples)
    all_frames = centered_frames(x, n, hop_samples, 2 * w)
    # a circular correlation of at least 2w points does not wrap for lags 0..w
    nfft = next_fast_len(2 * w)
    taus = np.arange(1, w + 1, dtype=np.float64)
    values = np.zeros(n)
    # one set of block buffers per call, filled in place block after block
    rows_max = min(_BLOCK, n)
    spec_full_buf = np.empty((rows_max, nfft // 2 + 1), dtype=np.complex128)
    spec_half_buf = np.empty_like(spec_full_buf)
    cross_buf = np.empty((rows_max, nfft))
    csq_buf = np.zeros((rows_max, 2 * w + 1))
    diff_buf = np.empty((rows_max, w + 1))
    cum_buf = np.empty((rows_max, w))
    cmndf_buf = np.ones((rows_max, w + 1))
    for b0 in range(0, n, _BLOCK):
        frames = all_frames[b0:b0 + _BLOCK]
        k = len(frames)
        rows = np.arange(k)

        # difference function d(tau) = sum_j (x_j - x_{j+tau})^2 for tau in
        # 0..w, via energies plus an FFT cross-correlation. Under FMA the
        # complex product rounds by operand order: the conjugate is the first
        # factor, and the product overwrites it.
        spec_full = rfft(frames, nfft, axis=1, out=spec_full_buf[:k])
        spec_half = rfft(frames[:, :w], nfft, axis=1, out=spec_half_buf[:k])
        np.conjugate(spec_half, out=spec_half)
        np.multiply(spec_half, spec_full, out=spec_half)
        cross = irfft(spec_half, nfft, axis=1, out=cross_buf[:k])[:, :w + 1]
        csq = csq_buf[:k]  # column 0 stays 0: csq[:, j] is the energy of x_0..x_{j-1}
        np.multiply(frames, frames, out=csq[:, 1:])
        np.cumsum(csq[:, 1:], axis=1, out=csq[:, 1:])
        e_fixed = csq[:, w]
        # (e_fixed + e_slide) - 2 * cross, in that order of rounding
        diff = np.subtract(csq[:, w:2 * w + 1], csq[:, 0:w + 1], out=diff_buf[:k])
        diff += e_fixed[:, None]
        cross *= 2.0
        diff -= cross
        np.maximum(diff, 0.0, out=diff)

        # cumulative-mean normalization
        cum = np.cumsum(diff[:, 1:], axis=1, out=cum_buf[:k])
        cmndf = cmndf_buf[:k]
        norm = cmndf[:, 1:]
        np.multiply(diff[:, 1:], taus, out=norm)
        positive = cum > 0
        np.divide(norm, cum, out=norm, where=positive)
        np.copyto(norm, 1.0, where=~positive)

        # local minima of the searched lag range; silent frames have none
        seg = cmndf[:, lag_min:lag_max + 1]
        inner = seg[:, 1:-1]
        is_min = (inner <= seg[:, :-2]) & (inner <= seg[:, 2:])
        is_min &= (e_fixed / w >= _SILENCE_POWER)[:, None]
        # smallest lag dipping under the strict selection threshold wins;
        # otherwise the global minimum, preferring shorter lags on near-ties
        # so a subharmonic never shadows the true period
        strict = is_min & (inner < _SELECT_THRESHOLD)
        lowest = np.min(np.where(is_min, inner, np.inf), axis=1)
        near = is_min & (inner <= lowest[:, None] + 0.02)
        pick = np.where(strict.any(axis=1), strict.argmax(axis=1), near.argmax(axis=1))
        tau = lag_min + 1 + pick  # at most lag_max - 1, so tau + 1 <= w
        a, b, c = cmndf[rows, tau - 1], cmndf[rows, tau], cmndf[rows, tau + 1]
        voiced = is_min.any(axis=1) & (b < DEFAULT_THRESHOLD)

        # parabolic refinement on the normalized difference
        denom = a - 2.0 * b + c
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.clip(np.where(denom > 0, 0.5 * (a - c) / denom, 0.0), -0.5, 0.5)
        f0 = np.minimum(np.maximum(sr / (tau + delta), DEFAULT_FMIN), DEFAULT_FMAX)
        values[b0:b0 + _BLOCK] = np.where(voiced, f0, 0.0)
    return F0Contour(values)


def midi_from_hz(f: float) -> float:
    """MIDI note number for a frequency: 69 + 12*log2(f/440)."""
    if f <= 0:
        raise InputError(f"frequency must be positive, got {f}")
    return 69.0 + 12.0 * math.log2(f / 440.0)


def hz_from_midi(m: float) -> float:
    return 440.0 * 2.0 ** ((m - 69.0) / 12.0)


def nearest_midi(f: float) -> int:
    """Nearest integer MIDI note (half steps round up)."""
    return int(math.floor(midi_from_hz(f) + 0.5))

