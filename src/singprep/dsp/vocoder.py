"""Source-filter analysis and synthesis.

Analysis produces, per 5 ms frame: F0, a cepstrally smoothed harmonic
spectral envelope (linear power at a fixed FFT size), and aperiodicity
ratios in a few logarithmic bands (1 = noise, 0 = fully periodic).
Synthesis drives the envelope filter with a pulse train plus noise mixed by
the band aperiodicity, using weighted overlap-add.

Both run as array code over fixed blocks of _BLOCK frames. Beyond the
per-frame results themselves (the envelope and aperiodicity arrays, the
excitation and the output signal), memory holds one block of intermediates,
so it no longer grows with the frame count through per-frame spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InputError
from .audio import Waveform
from .pitch import (
    DEFAULT_HOP,
    F0Contour,
    centered_frames,
    extract_f0,
    frame_count,
    periodic_hann,
)

DEFAULT_FFT = 1024
DEFAULT_BANDS = 5

_BLOCK = 512  # frames per array pass; bounds the per-call intermediates
_ENVELOPE_FLOOR = 1e-20
_UNVOICED_SMOOTH_HZ = 120.0  # lifter cutoff stand-in where no pitch exists


def band_edges(sample_rate: int) -> tuple[float, ...]:
    """Edges of DEFAULT_BANDS octave-spaced bands from 0 to Nyquist."""
    nyq = sample_rate / 2.0
    edges = [0.0] + [nyq / 2.0 ** (DEFAULT_BANDS - 1 - k) for k in range(DEFAULT_BANDS)]
    return tuple(edges)


@dataclass(frozen=True)
class AnalysisResult:
    """Aligned per-frame streams on the fixed grid (DEFAULT_HOP frames,
    DEFAULT_FFT spectra, band_edges bands): F0, spectral envelope, band
    aperiodicity."""

    f0: F0Contour
    envelope: np.ndarray      # (n_frames, DEFAULT_FFT // 2 + 1), linear power
    aperiodicity: np.ndarray  # (n_frames, DEFAULT_BANDS), each in [0, 1]
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return len(self.f0)


def analyze(waveform: Waveform) -> AnalysisResult:
    """Full source-filter analysis at the DEFAULT_HOP frame hop and DEFAULT_FFT size.

    The envelope is the short-time power spectrum smoothed by cepstral
    liftering below the pitch period, which strips harmonic ripple and keeps
    formant structure. Aperiodicity per band is 1 minus the band-limited
    normalized autocorrelation at the pitch period (window-corrected);
    unvoiced frames are fully aperiodic.
    """
    sr = waveform.sample_rate
    f0 = extract_f0(waveform, DEFAULT_HOP)
    hop_samples = max(1, int(round(DEFAULT_HOP * sr)))
    n = frame_count(len(waveform), hop_samples)

    win = periodic_hann(DEFAULT_FFT)
    wsum2 = float(np.sum(win * win))
    all_frames = centered_frames(waveform.samples, n, hop_samples, DEFAULT_FFT)
    pitch = np.where(f0.voiced, f0.values, _UNVOICED_SMOOTH_HZ)
    # rectangular smoothing over one harmonic spacing fills the comb valleys,
    # otherwise the liftered envelope sags between harmonics and its formant
    # peaks drift
    widths = np.rint(pitch / (sr / DEFAULT_FFT)).astype(int)
    cutoff = np.minimum(0.7 * sr / pitch, DEFAULT_FFT // 2 - 1).astype(int)
    q = np.arange(DEFAULT_FFT)

    # band autocorrelation at lag tau of a power spectrum P over the zero-padded
    # FFT: sum_j weight_j * P_j * cos(2 pi j tau / N) over the band's bins,
    # with irfft's weights (1 at DC, 2 elsewhere, over N). Band b holds bins
    # starts[b] up to the next start; the top band stops below Nyquist, and
    # every band spans at least 64 bins.
    edges = band_edges(sr)
    pad_fft = 2 * DEFAULT_FFT  # zero padding makes the autocorrelation linear
    bins = np.arange(pad_fft // 2)
    starts = np.searchsorted(bins * sr / pad_fft, edges[:-1])
    weight = np.where(bins == 0, 1.0, 2.0) / pad_fft
    cos_table = np.cos(2.0 * np.pi * np.arange(pad_fft) / pad_fft)
    win_acf = irfft(np.abs(rfft(win, pad_fft)) ** 2, pad_fft)
    voiced_idx = np.flatnonzero(f0.voiced)
    lags = sr / f0.values[voiced_idx]  # fractional pitch-period lags
    lag0 = np.floor(lags).astype(int)
    r0 = np.empty((voiced_idx.size, DEFAULT_BANDS))
    r_lo = np.empty_like(r0)
    r_hi = np.empty_like(r0)

    envelope = np.empty((n, DEFAULT_FFT // 2 + 1))
    for b0 in range(0, n, _BLOCK):
        b1 = min(b0 + _BLOCK, n)
        frames = all_frames[b0:b1] * win

        # --- smoothed envelope ---
        spec = np.abs(rfft(frames, DEFAULT_FFT, axis=1)) ** 2 / wsum2
        spec = np.maximum(spec, _ENVELOPE_FLOOR)
        k_blk = widths[b0:b1]
        for k in np.unique(k_blk[k_blk > 1]):
            rows = np.flatnonzero(k_blk == k)
            padded = np.pad(spec[rows], ((0, 0), (k // 2, (k - 1) // 2)), mode="reflect")
            spec[rows] = sliding_window_view(padded, k, axis=1) @ np.full(k, 1.0 / k)
        spec = np.maximum(spec, _ENVELOPE_FLOOR)
        cepstrum = irfft(np.log(spec), DEFAULT_FFT, axis=1)
        cut = cutoff[b0:b1, None]
        keep = (q[None, :] <= cut) | (q[None, :] >= DEFAULT_FFT - cut)
        lifted = rfft(np.where(keep, cepstrum, 0.0), DEFAULT_FFT, axis=1).real
        envelope[b0:b1] = np.maximum(np.exp(lifted), _ENVELOPE_FLOOR)

        # --- band autocorrelation of the voiced frames at lags 0, lag0, lag0+1 ---
        v0, v1 = np.searchsorted(voiced_idx, [b0, b1])
        if v1 > v0:
            voiced_frames = frames[voiced_idx[v0:v1] - b0]
            power = np.abs(rfft(voiced_frames, pad_fft, axis=1)[:, :pad_fft // 2]) ** 2 * weight
            tau = lag0[v0:v1, None]
            r0[v0:v1] = np.add.reduceat(power, starts, axis=1)
            for r_lag, lag in ((r_lo, tau), (r_hi, tau + 1)):
                r_lag[v0:v1] = np.add.reduceat(
                    power * cos_table[bins * lag % pad_fft], starts, axis=1)

    # the silence floor of each band is relative to its loudest voiced frame
    # in the clip, so periodicity waits for the last block
    frac = (lags - lag0)[:, None]
    r_tau = r_lo + frac * (r_hi - r_lo)
    wc0 = win_acf[lag0] + frac[:, 0] * (win_acf[lag0 + 1] - win_acf[lag0])
    # window-corrected periodicity: a perfectly periodic band scores 1
    corr = np.where(wc0 > 0, win_acf[0] / wc0, 0.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(r0 > 1e-12 * np.max(r0, axis=0, initial=0.0) + 1e-300,
                       r_tau / r0 * corr, 0.0)
    ap = np.ones((n, DEFAULT_BANDS))
    ap[voiced_idx] = np.clip(1.0 - rho, 0.0, 1.0)
    return AnalysisResult(f0, envelope, ap, sr)


def _pulse_train(f0: np.ndarray, hop: int, sr: int) -> np.ndarray:
    """Pulse excitation with unit average power at sample rate sr for a
    frame-rate F0 track: impulses of height sqrt(period), placed at their
    exact fractional crossing times by linear splitting so sample
    quantization never jitters the period."""
    length = f0.size * hop
    f0_samp = np.repeat(f0, hop)[:length]
    voiced = f0_samp > 0
    phase = np.cumsum(np.where(voiced, f0_samp, 0.0) / sr)
    ticks = np.floor(phase)
    fired = np.diff(np.concatenate([[0.0], ticks])) >= 1.0
    fired &= voiced
    pulses = np.zeros(length + 1)
    idx = np.flatnonzero(fired)
    if idx.size:
        prev_phase = np.where(idx > 0, phase[np.maximum(idx - 1, 0)], 0.0)
        frac_t = (ticks[idx] - prev_phase) / np.maximum(phase[idx] - prev_phase, 1e-300)
        pos = idx - 1 + np.clip(frac_t, 0.0, 1.0)
        j = np.clip(np.floor(pos).astype(int), 0, length - 1)
        f = np.clip(pos - j, 0.0, 1.0)
        amp = np.sqrt(sr / f0_samp[idx])
        np.add.at(pulses, j, amp * (1.0 - f))
        np.add.at(pulses, j + 1, amp * f)
    return pulses[:length]


def synthesize(analysis: AnalysisResult, rng: np.random.Generator | None = None) -> Waveform:
    """Render audio from an analysis: filtered pulse train plus shaped noise.

    Deterministic for a given rng seed (the noise source is the only
    randomness). Output length is n_frames * DEFAULT_HOP within one frame.
    """
    if analysis.n_frames == 0:
        raise InputError("cannot synthesize from a zero-frame analysis")
    sr = analysis.sample_rate
    rng = np.random.default_rng(0) if rng is None else rng
    n = analysis.n_frames
    hop = max(1, int(round(DEFAULT_HOP * sr)))
    length = n * hop

    pulses = _pulse_train(analysis.f0.values, hop, sr)
    noise = rng.standard_normal(length)

    win = periodic_hann(DEFAULT_FFT)
    freqs = np.arange(DEFAULT_FFT // 2 + 1) * sr / DEFAULT_FFT
    # band of each bin; bins at or above the top edge take the top band
    band_of_bin = np.minimum(np.searchsorted(band_edges(sr), freqs, side="right") - 1,
                             DEFAULT_BANDS - 1)
    half = DEFAULT_FFT // 2
    pulse_frames = centered_frames(pulses, n, hop, DEFAULT_FFT)
    noise_frames = centered_frames(noise, n, hop, DEFAULT_FFT)

    # weighted overlap-add in hop-sized chunks: frame i puts its chunk c at
    # output chunk i + c. Adding chunk offsets in descending order adds each
    # output sample's frames in ascending frame order, block after block.
    n_chunks = -(-DEFAULT_FFT // hop)
    span = n_chunks * hop
    out = np.zeros((n + n_chunks, hop))
    norm = np.zeros((n + n_chunks, hop))
    win_sq = np.pad(win * win, (0, span - DEFAULT_FFT)).reshape(n_chunks, hop)
    for c in range(n_chunks - 1, -1, -1):
        norm[c:c + n] += win_sq[c]
    for b0 in range(0, n, _BLOCK):
        b1 = min(b0 + _BLOCK, n)
        spec_p = rfft(pulse_frames[b0:b1] * win, DEFAULT_FFT, axis=1)
        spec_n = rfft(noise_frames[b0:b1] * win, DEFAULT_FFT, axis=1)
        amp = np.sqrt(analysis.envelope[b0:b1])
        ap_bins = analysis.aperiodicity[b0:b1][:, band_of_bin]
        shaped = spec_p * amp * np.sqrt(1.0 - ap_bins) + spec_n * amp * np.sqrt(ap_bins)
        segs = np.zeros((b1 - b0, span))
        segs[:, :DEFAULT_FFT] = irfft(shaped, DEFAULT_FFT, axis=1) * win
        segs = segs.reshape(b1 - b0, n_chunks, hop)
        for c in range(n_chunks - 1, -1, -1):
            out[b0 + c:b1 + c] += segs[:, c]
    out = out.reshape(-1)
    norm = norm.reshape(-1)
    y = out[half:half + length] / np.maximum(norm[half:half + length], 1e-8)

    peak = float(np.max(np.abs(y))) if y.size else 0.0
    if peak > 1.0:
        y = y * (0.99 / peak)
    return Waveform(y, sr)
