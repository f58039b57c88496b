"""Independent reference implementations.

Brute-force oracles deliberately avoid the dynamic-programming formulations
used by the package so agreement is evidence, not tautology. They are
exponential or memoized-recursive and only usable on tiny inputs.

Frozen oracles are verbatim copies of scalar package functions as they stood
before those were vectorized. The vectorized code must agree with them
exactly (identical outputs, ``==`` not approx), on any input size, with one
exception: ``analyze`` sums its smoothing windows and band autocorrelations
in a different order, so its envelope agrees within 1e-9 relative error and
its aperiodicity within 1e-9 absolute error (its F0 is still identical).
``extract_f0_oracle`` follows the package's cross-correlation: an FFT of
next_fast_len(2w) points whose complex product takes the conjugate as its
first factor; with ``fft_windows=3`` it gives the F0 of the earlier 3w size.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.fft import irfft, rfft

from singprep.dsp.audio import Waveform
from singprep.dsp.pitch import (
    _SELECT_THRESHOLD,
    _SILENCE_POWER,
    DEFAULT_FMAX,
    DEFAULT_FMIN,
    DEFAULT_HOP,
    DEFAULT_THRESHOLD,
    F0Contour,
    centered_frames,
    frame_count,
    next_fast_len,
    periodic_hann,
)
from singprep.dsp.vocoder import (
    _ENVELOPE_FLOOR,
    _UNVOICED_SMOOTH_HZ,
    DEFAULT_BANDS,
    DEFAULT_FFT,
    AnalysisResult,
    band_edges,
)
from singprep.errors import InputError, ParseError


def wer_oracle(ref: list[str], hyp: list[str]) -> float | None:
    """Edit distance by recursive case analysis over the last token."""
    if not ref:
        return None
    ref_t = tuple(ref)
    hyp_t = tuple(hyp)

    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        sub = dist(i - 1, j - 1) + (ref_t[i - 1] != hyp_t[j - 1])
        dele = dist(i - 1, j) + 1
        ins = dist(i, j - 1) + 1
        return min(sub, dele, ins)

    return dist(len(ref_t), len(hyp_t)) / len(ref_t)


def dtw_oracle_cost(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum path cost by exhaustive enumeration of all monotone paths.

    Paths start at (0, 0), end at (n-1, m-1), and move by (1,0), (0,1) or
    (1,1). Cost of a cell is the Euclidean distance between the frames.
    Exponential: keep inputs at 6x6 or smaller.
    """
    n, m = len(a), len(b)
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    best = [np.inf]

    def walk(i: int, j: int, cost: float) -> None:
        cost += d[i, j]
        if cost >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = cost
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost)
        if i + 1 < n:
            walk(i + 1, j, cost)
        if j + 1 < m:
            walk(i, j + 1, cost)

    walk(0, 0, 0.0)
    return best[0]


def dtw_align_oracle(a, b) -> list[tuple[int, int]]:
    """Frozen scalar DTW: row-by-row accumulation loop, then traceback."""
    if len(a) == 0 or len(b) == 0:
        raise InputError("cannot align empty frame sequences")
    av, bv = a.frames, b.frames
    d = np.sqrt(
        np.maximum(
            np.sum(av * av, axis=1)[:, None]
            - 2.0 * (av @ bv.T)
            + np.sum(bv * bv, axis=1)[None, :],
            0.0,
        )
    )
    n, m = d.shape
    acc = np.empty((n, m))
    acc[0] = np.cumsum(d[0])
    for i in range(1, n):
        acc[i, 0] = acc[i - 1, 0] + d[i, 0]
        prev = acc[i - 1]
        row = acc[i]
        for j in range(1, m):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = d[i, j] + best

    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i or j:
        if i and j:
            diag, up, left = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        elif i:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return path


def textgrid_scan_oracle(text: str) -> Iterator[tuple[str, object]]:
    """Frozen character-by-character TextGrid lexer (textgrid._scan before its regex)."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == '"':
            i += 1
            buf: list[str] = []
            while True:
                j = text.find('"', i)
                if j < 0:
                    raise ParseError("unterminated string in TextGrid")
                if j + 1 < n and text[j + 1] == '"':  # doubled quote escape
                    buf.append(text[i:j + 1])
                    i = j + 2
                    continue
                buf.append(text[i:j])
                i = j + 1
                break
            yield ("str", "".join(buf))
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        word = text[i:j]
        i = j
        if word == "<exists>":
            yield ("flag", True)
        elif word == "<absent>":
            yield ("flag", False)
        else:
            try:
                yield ("num", float(word))
            except ValueError:
                continue  # long-form decoration


# -- frozen per-frame vocoder and pitch loops ----------------------------------


def extract_f0_oracle(waveform: Waveform, hop: float = DEFAULT_HOP,
                      fft_windows: int = 2) -> F0Contour:
    """Estimate the F0 contour of a mono waveform in DEFAULT_FMIN..DEFAULT_FMAX Hz.

    Requires sample_rate >= 4*DEFAULT_FMAX and at least two analysis windows
    of audio (the integration window is one maximum pitch period). The
    cross-correlation runs at next_fast_len(fft_windows * w) points: 2, as in
    the package, is the smallest size that does not wrap for lags 0..w; the
    package ran at 3 before.
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

    frames = centered_frames(x, n, hop_samples, 2 * w)
    half = frames[:, :w]

    # difference function d(tau) = sum_j (x_j - x_{j+tau})^2 for tau in 0..w,
    # via energies plus an FFT cross-correlation
    nfft = next_fast_len(fft_windows * w)
    spec_full = rfft(frames, nfft, axis=1)
    spec_half = rfft(half, nfft, axis=1)
    # conjugate first: under FMA the complex product rounds by operand order
    cross = irfft(np.conj(spec_half) * spec_full, nfft, axis=1)[:, :w + 1]
    csq = np.concatenate(
        [np.zeros((n, 1)), np.cumsum(frames * frames, axis=1)], axis=1
    )
    e_fixed = csq[:, w] - csq[:, 0]
    e_slide = csq[:, w:2 * w + 1] - csq[:, 0:w + 1]
    diff = np.maximum(e_fixed[:, None] + e_slide - 2.0 * cross, 0.0)

    # cumulative-mean normalization
    cum = np.cumsum(diff[:, 1:], axis=1)
    cmndf = np.ones_like(diff)
    taus = np.arange(1, w + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        cmndf[:, 1:] = np.where(cum > 0, diff[:, 1:] * taus / cum, 1.0)

    values = np.zeros(n)
    silent = e_fixed / w < _SILENCE_POWER
    for i in range(n):
        if silent[i]:
            continue
        row = cmndf[i]
        seg = row[lag_min:lag_max + 1]
        is_min = (seg[1:-1] <= seg[:-2]) & (seg[1:-1] <= seg[2:])
        mins = np.flatnonzero(is_min) + 1
        if mins.size == 0:
            continue
        # smallest lag dipping under the strict selection threshold wins;
        # otherwise the global minimum, preferring shorter lags on near-ties
        # so a subharmonic never shadows the true period
        strict = mins[seg[mins] < _SELECT_THRESHOLD]
        if strict.size:
            tau = lag_min + int(strict[0])
        else:
            near = mins[seg[mins] <= float(np.min(seg[mins])) + 0.02]
            tau = lag_min + int(near[0])
        if row[tau] >= DEFAULT_THRESHOLD:
            continue
        # parabolic refinement on the normalized difference
        if 1 <= tau < w:
            a, b, c = row[tau - 1], row[tau], row[tau + 1]
            denom = a - 2.0 * b + c
            delta = 0.5 * (a - c) / denom if denom > 0 else 0.0
            delta = float(np.clip(delta, -0.5, 0.5))
        else:
            delta = 0.0
        f0 = sr / (tau + delta)
        values[i] = min(max(f0, DEFAULT_FMIN), DEFAULT_FMAX)
    return F0Contour(values)


def analyze_oracle(waveform: Waveform, hop: float = DEFAULT_HOP) -> AnalysisResult:
    """Full source-filter analysis at a fixed frame hop and DEFAULT_FFT size.

    The envelope is the short-time power spectrum smoothed by cepstral
    liftering below the pitch period, which strips harmonic ripple and keeps
    formant structure. Aperiodicity per band is 1 minus the band-limited
    normalized autocorrelation at the pitch period (window-corrected);
    unvoiced frames are fully aperiodic.
    """
    sr = waveform.sample_rate
    f0 = extract_f0_oracle(waveform, hop=hop)
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
    return AnalysisResult(f0, envelope, ap, sr)


def _ap_per_bin_oracle(ap_row: np.ndarray, freqs: np.ndarray, edges: tuple[float, ...]) -> np.ndarray:
    out = np.empty_like(freqs)
    for b in range(len(edges) - 1):
        mask = (freqs >= edges[b]) & (freqs < edges[b + 1])
        out[mask] = ap_row[b]
    out[freqs >= edges[-1]] = ap_row[-1]
    return out


def synthesize_oracle(analysis: AnalysisResult, rng: np.random.Generator | None = None) -> Waveform:
    """Render audio from an analysis: filtered pulse train plus shaped noise.

    Deterministic for a given rng seed (the noise source is the only
    randomness). Output length is n_frames * hop within one frame.
    """
    if analysis.n_frames == 0:
        raise InputError("cannot synthesize from a zero-frame analysis")
    sr = analysis.sample_rate
    rng = np.random.default_rng(0) if rng is None else rng
    n = analysis.n_frames
    fft_size = DEFAULT_FFT
    hop = max(1, int(round(DEFAULT_HOP * sr)))
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
        ap_bins = _ap_per_bin_oracle(analysis.aperiodicity[i], freqs, band_edges(sr))
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
