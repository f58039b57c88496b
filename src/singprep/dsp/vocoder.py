"""Source-filter analysis and synthesis.

Analysis produces, per 5 ms frame: F0, a cepstrally smoothed harmonic
spectral envelope (linear power at a fixed FFT size), and aperiodicity
ratios in a few logarithmic bands (1 = noise, 0 = fully periodic).
Synthesis drives the envelope filter with a pulse train plus noise mixed by
the band aperiodicity, using weighted overlap-add.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

import numpy as np
from numpy.fft import irfft, rfft

from ..errors import InputError
from .audio import Waveform
from .pitch import DEFAULT_HOP, F0Contour, centered_frames, extract_f0, frame_count, periodic_hann

DEFAULT_FFT = 1024
DEFAULT_BANDS = 5

_ENVELOPE_FLOOR = 1e-20
_UNVOICED_SMOOTH_HZ = 120.0  # lifter cutoff stand-in where no pitch exists


def band_edges(sample_rate: int) -> tuple[float, ...]:
    """Edges of DEFAULT_BANDS octave-spaced bands from 0 to Nyquist."""
    nyq = sample_rate / 2.0
    edges = [0.0] + [nyq / 2.0 ** (DEFAULT_BANDS - 1 - k) for k in range(DEFAULT_BANDS)]
    return tuple(edges)


@dataclass(frozen=True)
class AnalysisResult:
    """Aligned per-frame streams: F0, spectral envelope, band aperiodicity."""

    f0: F0Contour
    envelope: np.ndarray      # (n_frames, fft_size // 2 + 1), linear power
    aperiodicity: np.ndarray  # (n_frames, n_bands), each in [0, 1]
    sample_rate: int
    fft_size: int
    edges: tuple[float, ...]

    def __post_init__(self):
        env = np.asarray(self.envelope, dtype=np.float64)
        ap = np.asarray(self.aperiodicity, dtype=np.float64)
        object.__setattr__(self, "envelope", env)
        object.__setattr__(self, "aperiodicity", ap)
        n = len(self.f0)
        if env.shape != (n, self.fft_size // 2 + 1):
            raise InputError(f"envelope shape {env.shape} does not match {n} frames")
        if ap.shape != (n, len(self.edges) - 1):
            raise InputError(f"aperiodicity shape {ap.shape} does not match {n} frames")
        if n and (not np.all(env > 0) or not np.all(np.isfinite(env))):
            raise InputError("envelope values must be positive and finite")
        if n and (np.any(ap < 0) or np.any(ap > 1)):
            raise InputError("aperiodicity must lie in [0, 1]")

    @property
    def n_frames(self) -> int:
        return len(self.f0)


def analyze(waveform: Waveform, hop: float = DEFAULT_HOP) -> AnalysisResult:
    """Full source-filter analysis at a fixed frame hop and DEFAULT_FFT size.

    The envelope is the short-time power spectrum smoothed by cepstral
    liftering below the pitch period, which strips harmonic ripple and keeps
    formant structure. Aperiodicity per band is 1 minus the band-limited
    normalized autocorrelation at the pitch period (window-corrected);
    unvoiced frames are fully aperiodic.
    """
    sr = waveform.sample_rate
    f0 = extract_f0(waveform, hop=hop)
    hop_samples = max(1, int(round(hop * sr)))
    n = frame_count(len(waveform), hop_samples)
    if n != len(f0):
        raise InputError("frame count mismatch between F0 and spectral analysis")

    win = periodic_hann(DEFAULT_FFT)
    wsum2 = float(np.sum(win * win))
    frames = centered_frames(waveform.samples, n, hop_samples, DEFAULT_FFT) * win

    # --- smoothed envelope ---
    spec = np.abs(rfft(frames, DEFAULT_FFT, axis=1)) ** 2 / wsum2
    spec = np.maximum(spec, _ENVELOPE_FLOOR)
    pitch = np.where(f0.voiced, f0.values, _UNVOICED_SMOOTH_HZ)
    # rectangular smoothing over one harmonic spacing fills the comb valleys,
    # otherwise the liftered envelope sags between harmonics and its formant
    # peaks drift
    bin_hz = sr / DEFAULT_FFT
    for i in range(n):
        k = int(round(pitch[i] / bin_hz))
        if k > 1:
            row = np.pad(spec[i], (k, k), mode="reflect")
            spec[i] = np.convolve(row, np.full(k, 1.0 / k), mode="same")[k:-k]
    spec = np.maximum(spec, _ENVELOPE_FLOOR)
    cepstrum = irfft(np.log(spec), DEFAULT_FFT, axis=1)
    cutoff = np.minimum(0.7 * sr / pitch, DEFAULT_FFT // 2 - 1).astype(int)
    q = np.arange(DEFAULT_FFT)
    keep = (q[None, :] <= cutoff[:, None]) | (q[None, :] >= DEFAULT_FFT - cutoff[:, None])
    envelope = np.exp(rfft(np.where(keep, cepstrum, 0.0), DEFAULT_FFT, axis=1).real)
    envelope = np.maximum(envelope, _ENVELOPE_FLOOR)

    # --- band aperiodicity ---
    edges = band_edges(sr)
    pad_fft = 2 * DEFAULT_FFT  # zero padding makes the FFT autocorrelation linear
    padded_spec = np.abs(rfft(frames, pad_fft, axis=1)) ** 2
    freqs = np.arange(pad_fft // 2 + 1) * sr / pad_fft
    win_acf = irfft(np.abs(rfft(win, pad_fft)) ** 2, pad_fft)

    ap = np.ones((n, DEFAULT_BANDS))
    voiced_idx = np.flatnonzero(f0.voiced)
    if voiced_idx.size:
        lags = sr / f0.values[voiced_idx]  # fractional pitch-period lags
        lag0 = np.floor(lags).astype(int)
        frac = lags - lag0
        wc0 = win_acf[lag0] + frac * (win_acf[lag0 + 1] - win_acf[lag0])
        for b in range(DEFAULT_BANDS):
            in_band = (freqs >= edges[b]) & (freqs < edges[b + 1])
            if not np.any(in_band):
                continue
            band_spec = np.where(in_band[None, :], padded_spec[voiced_idx], 0.0)
            acf = irfft(band_spec, pad_fft, axis=1)
            r0 = acf[:, 0]
            rows = np.arange(voiced_idx.size)
            r_tau = acf[rows, lag0] + frac * (acf[rows, lag0 + 1] - acf[rows, lag0])
            # window-corrected periodicity: a perfectly periodic band scores 1
            corr = np.where(wc0 > 0, win_acf[0] / wc0, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                rho = np.where(r0 > 1e-12 * np.max(r0, initial=0.0) + 1e-300,
                               r_tau / r0 * corr, 0.0)
            ap[voiced_idx, b] = np.clip(1.0 - rho, 0.0, 1.0)
    return AnalysisResult(f0, envelope, ap, sr, DEFAULT_FFT, edges)


def replace_f0(analysis: AnalysisResult, target: F0Contour) -> AnalysisResult:
    """Swap in a new F0 contour; envelope and aperiodicity stay untouched."""
    if len(target) != analysis.n_frames:
        raise InputError(
            f"replacement contour has {len(target)} frames, analysis has {analysis.n_frames}"
        )
    if abs(target.hop - analysis.f0.hop) > 1e-12:
        raise InputError("replacement contour must use the analysis hop")
    return dc_replace(analysis, f0=target)


def _ap_per_bin(ap_row: np.ndarray, freqs: np.ndarray, edges: tuple[float, ...]) -> np.ndarray:
    out = np.empty_like(freqs)
    for b in range(len(edges) - 1):
        mask = (freqs >= edges[b]) & (freqs < edges[b + 1])
        out[mask] = ap_row[b]
    out[freqs >= edges[-1]] = ap_row[-1]
    return out


def synthesize(analysis: AnalysisResult, rng: np.random.Generator | None = None) -> Waveform:
    """Render audio from an analysis: filtered pulse train plus shaped noise.

    Deterministic for a given rng seed (the noise source is the only
    randomness). Output length is n_frames * hop within one frame.
    """
    if analysis.n_frames == 0:
        raise InputError("cannot synthesize from a zero-frame analysis")
    sr = analysis.sample_rate
    rng = np.random.default_rng(0) if rng is None else rng
    n = analysis.n_frames
    fft_size = analysis.fft_size
    hop = max(1, int(round(analysis.f0.hop * sr)))
    length = n * hop

    f0_samp = np.repeat(analysis.f0.values, hop)[:length]
    voiced = f0_samp > 0

    # pulse excitation with unit average power: impulses of height sqrt(period),
    # placed at their exact fractional crossing times by linear splitting so
    # sample quantization never jitters the period
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
    pulses = pulses[:length]
    noise = rng.standard_normal(length)

    win = periodic_hann(fft_size)
    freqs = np.arange(fft_size // 2 + 1) * sr / fft_size
    amp = np.sqrt(analysis.envelope)
    half = fft_size // 2

    pulse_frames = centered_frames(pulses, n, hop, fft_size) * win
    noise_frames = centered_frames(noise, n, hop, fft_size) * win
    spec_p = rfft(pulse_frames, fft_size, axis=1)
    spec_n = rfft(noise_frames, fft_size, axis=1)

    out = np.zeros(length + fft_size)
    norm = np.zeros(length + fft_size)
    win_sq = win * win
    for i in range(n):
        ap_bins = _ap_per_bin(analysis.aperiodicity[i], freqs, analysis.edges)
        shaped = spec_p[i] * amp[i] * np.sqrt(1.0 - ap_bins) \
            + spec_n[i] * amp[i] * np.sqrt(ap_bins)
        seg = irfft(shaped, fft_size)
        start = i * hop
        out[start:start + fft_size] += seg * win
        norm[start:start + fft_size] += win_sq
    y = out[half:half + length] / np.maximum(norm[half:half + length], 1e-8)

    peak = float(np.max(np.abs(y))) if y.size else 0.0
    if peak > 1.0:
        y = y * (0.99 / peak)
    return Waveform(y, sr)


# -- binary container --------------------------------------------------------
# Little-endian layout: magic "SFA1", u16 version, u16 reserved, u32 n_frames,
# u32 n_bins, u32 n_bands, u32 sample_rate, u32 fft_size, f64 hop, then the
# arrays as float64: f0[n], envelope[n*n_bins], aperiodicity[n*n_bands],
# band_edges[n_bands+1].

_MAGIC = b"SFA1"
_HEADER = struct.Struct("<4sHHIIIIId")
_VERSION = 1


def save_analysis(analysis: AnalysisResult, path) -> None:
    n = analysis.n_frames
    n_bins = analysis.fft_size // 2 + 1
    n_bands = len(analysis.edges) - 1
    header = _HEADER.pack(
        _MAGIC, _VERSION, 0, n, n_bins, n_bands,
        analysis.sample_rate, analysis.fft_size, analysis.f0.hop,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(analysis.f0.values.astype("<f8").tobytes())
        fh.write(analysis.envelope.astype("<f8").tobytes())
        fh.write(analysis.aperiodicity.astype("<f8").tobytes())
        fh.write(np.asarray(analysis.edges, dtype="<f8").tobytes())


def load_analysis(path) -> AnalysisResult:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise InputError(f"{path}: truncated analysis container")
    magic, version, _, n, n_bins, n_bands, sr, fft_size, hop = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise InputError(f"{path}: not an analysis container")
    if version != _VERSION:
        raise InputError(f"{path}: unsupported container version {version}")
    need = _HEADER.size + 8 * (n + n * n_bins + n * n_bands + n_bands + 1)
    if len(raw) != need:
        raise InputError(f"{path}: container size {len(raw)} != expected {need}")
    off = _HEADER.size
    f0 = np.frombuffer(raw, "<f8", n, off).copy()
    off += 8 * n
    env = np.frombuffer(raw, "<f8", n * n_bins, off).reshape(n, n_bins).copy()
    off += 8 * n * n_bins
    ap = np.frombuffer(raw, "<f8", n * n_bands, off).reshape(n, n_bands).copy()
    off += 8 * n * n_bands
    edges = tuple(np.frombuffer(raw, "<f8", n_bands + 1, off))
    return AnalysisResult(F0Contour(f0, hop), env, ap, sr, fft_size, edges)
