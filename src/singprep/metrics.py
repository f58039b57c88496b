"""Objective evaluation: MCD, log-F0 RMSE, voicing error, semitone accuracy,
word error rate, and embedding cosine similarity.

Spectral metrics run over a DTW alignment of mel-cepstral frames; the pitch
metrics reuse that same path. Transcripts and speaker embeddings come from
external systems and enter as plain files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import rfft

from .dsp.audio import Waveform, resample
from .dsp.pitch import (F0Contour, centered_frames, extract_f0, frame_count, nearest_midi,
                        periodic_hann)
from .errors import InputError
from .jsonio import dumps_document
from .lexicon import _is_han

MCEP_ORDER = 13
MCEP_WINDOW = 0.050
MCEP_HOP = 0.0125
MCEP_RATE = 24000
_N_MELS = 40
# Mel energies are floored 100 dB below each frame's peak band (with an
# absolute backstop for digital silence) so empty bands compare at a bounded
# depth instead of log(0)-scale noise.
_REL_FLOOR = 1e-10
_ABS_FLOOR = 1e-30

METRIC_NAMES = ("mcd_db", "f0_rmse", "vuv_e", "semitone_accuracy", "wer", "sim")

_MCD_ALPHA = 10.0 / math.log(10.0)

# Rows 1..MCEP_ORDER of the orthonormal DCT-II matrix over the mel bands:
# logmel @ _DCT_BASIS.T equals scipy.fft.dct(logmel, type=2, norm="ortho")[:, 1:]
# to rounding.
_DCT_BASIS = math.sqrt(2.0 / _N_MELS) * np.cos(
    np.pi / (2 * _N_MELS) * np.outer(np.arange(1, MCEP_ORDER + 1), 2 * np.arange(_N_MELS) + 1)
)


@dataclass(frozen=True)
class McepFrames:
    """Mel-cepstral coefficient frames c_1..c_K (energy term excluded)."""

    frames: np.ndarray  # (n_frames, order)
    hop: float = MCEP_HOP
    order: int = MCEP_ORDER

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2 or frames.shape[1] != self.order:
            raise InputError(
                f"frames must be (n, {self.order}), got shape {frames.shape}"
            )
        if not (math.isfinite(self.hop) and self.hop > 0):
            raise InputError(f"hop must be positive and finite, got {self.hop}")
        if not np.all(np.isfinite(frames)):
            raise InputError("mel-cepstral frames must be finite")

    def __len__(self) -> int:
        return self.frames.shape[0]


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def _mel_filterbank(sr: int, n_fft: int, n_mels: int) -> np.ndarray:
    edges = _mel_inv(np.linspace(_mel(0.0), _mel(sr / 2.0), n_mels + 2))
    freqs = np.arange(n_fft // 2 + 1) * sr / n_fft
    fb = np.zeros((n_mels, freqs.size))
    for i in range(n_mels):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (freqs - lo) / max(mid - lo, 1e-9)
        down = (hi - freqs) / max(hi - mid, 1e-9)
        fb[i] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def mcep(waveform: Waveform) -> McepFrames:
    """Mel-cepstra at a 50 ms window and 12.5 ms hop.

    Per frame: windowed power spectrum, mel filterbank, log, orthonormal
    cosine transform; coefficients 1..MCEP_ORDER are kept so overall gain (c_0)
    never enters the distortion.
    """
    if waveform.sample_rate != MCEP_RATE:
        raise InputError(
            f"mcep expects {MCEP_RATE} Hz input, got {waveform.sample_rate} Hz"
        )
    sr = waveform.sample_rate
    win_samples = int(round(MCEP_WINDOW * sr))
    hop_samples = int(round(MCEP_HOP * sr))
    if len(waveform) < win_samples:
        raise InputError(
            f"input of {len(waveform)} samples is shorter than one {win_samples}-sample window"
        )
    n = frame_count(len(waveform), hop_samples)
    frames = centered_frames(waveform.samples, n, hop_samples, win_samples)
    win = periodic_hann(win_samples)
    spec = np.abs(rfft(frames * win, win_samples, axis=1)) ** 2
    fb = _mel_filterbank(sr, win_samples, _N_MELS)
    mel = spec @ fb.T
    floor = np.maximum(mel.max(axis=1, keepdims=True) * _REL_FLOOR, _ABS_FLOOR)
    logmel = np.log(np.maximum(mel, floor))
    return McepFrames(logmel @ _DCT_BASIS.T, MCEP_HOP, MCEP_ORDER)


def dtw_align(a: McepFrames, b: McepFrames) -> list[tuple[int, int]]:
    """Minimum-cost monotone alignment path between two frame sequences.

    Steps are diagonal, down, and right; ties prefer the diagonal so equal
    inputs align frame for frame. Endpoints are pinned to the corners.

    The accumulated cost of the recurrence (Sakoe & Chiba 1978) is filled
    one anti-diagonal ``k = i + j`` at a time, after row 0 and column 0:
    each cell depends only on diagonals ``k-1`` and ``k-2``, so a diagonal
    is one vectorized ``d + min(diag, up, left)``. That is the same single
    addition per cell as a row-by-row fill, so the costs are bit-identical
    to it. The distances are built in one n x m float64 array and each cell
    is accumulated in place once its diagonal is reached, so memory is about
    8*n*m bytes: a 60 s pair (4800 x 4800 frames) needs about 185 MB.
    """
    if len(a) == 0 or len(b) == 0:
        raise InputError("cannot align empty frame sequences")
    av, bv = a.frames, b.frames
    # The distances (|a|^2 - 2 a.b) + |b|^2, built in place with the
    # expression's rounding; the cost then overwrites them, row 0 and
    # column 0 first, then one anti-diagonal at a time.
    acc = av @ bv.T
    acc *= -2.0
    acc += np.sum(av * av, axis=1)[:, None]
    acc += np.sum(bv * bv, axis=1)[None, :]
    np.maximum(acc, 0.0, out=acc)
    np.sqrt(acc, out=acc)
    n, m = acc.shape
    np.cumsum(acc[0], out=acc[0])
    np.cumsum(acc[:, 0], out=acc[:, 0])
    if n > 1 and m > 1:
        # In the flattened matrix cell (i, k - i) sits at i*(m-1) + k, so a
        # diagonal and its three predecessors are slices with step m - 1.
        flat, s = acc.reshape(-1), m - 1
        for k in range(2, n + m - 1):
            start = max(1, k - s) * s + k
            stop = min(n - 1, k - 1) * s + k + 1
            diag = flat[start - m - 1 : stop - m - 1 : s]
            up = flat[start - m : stop - m : s]
            left = flat[start - 1 : stop - 1 : s]
            flat[start:stop:s] += np.minimum(np.minimum(diag, up), left)

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


def mcd_from_frames(a: McepFrames, b: McepFrames, path: list[tuple[int, int]]) -> float:
    """Mean mel-cepstral distortion in dB over an alignment path."""
    idx_a = np.fromiter((p[0] for p in path), int, len(path))
    idx_b = np.fromiter((p[1] for p in path), int, len(path))
    diff = a.frames[idx_a] - b.frames[idx_b]
    return float(np.mean(_MCD_ALPHA * np.sqrt(2.0 * np.sum(diff * diff, axis=1))))


def _co_voiced(
    ref: F0Contour, hyp: F0Contour, path: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    rv = np.array([ref.values[i] for i, _ in path])
    hv = np.array([hyp.values[j] for _, j in path])
    mask = (rv > 0) & (hv > 0)
    return rv[mask], hv[mask]


def f0_rmse(ref: F0Contour, hyp: F0Contour, path: list[tuple[int, int]]) -> float | None:
    """RMSE of natural-log pitch over pairs voiced on both sides.

    None (not zero) when no aligned pair is co-voiced.
    """
    rv, hv = _co_voiced(ref, hyp, path)
    if rv.size == 0:
        return None
    diff = np.log(rv) - np.log(hv)
    return float(np.sqrt(np.mean(diff * diff)))


def vuv_error(ref: F0Contour, hyp: F0Contour, path: list[tuple[int, int]]) -> float:
    """Fraction of aligned pairs whose voicing decisions disagree."""
    mism = sum(1 for i, j in path if (ref.values[i] > 0) != (hyp.values[j] > 0))
    return mism / len(path)


def semitone_accuracy(
    ref: F0Contour, hyp: F0Contour, path: list[tuple[int, int]]
) -> float | None:
    """Fraction of co-voiced pairs landing on the same rounded MIDI note."""
    rv, hv = _co_voiced(ref, hyp, path)
    if rv.size == 0:
        return None
    hits = sum(1 for r, h in zip(rv, hv) if nearest_midi(r) == nearest_midi(h))
    return hits / rv.size


def wer(ref_tokens: list[str], hyp_tokens: list[str]) -> float | None:
    """Levenshtein edit distance over tokens divided by reference length."""
    if not ref_tokens:
        return None
    prev = list(range(len(hyp_tokens) + 1))
    for i, r in enumerate(ref_tokens, 1):
        cur = [i]
        for j, h in enumerate(hyp_tokens, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1] / len(ref_tokens)


def tokenize_transcript(text: str) -> list[str]:
    """WER tokens: lowercased whitespace words for Latin script, one token
    per Han character; digits and punctuation are dropped."""
    tokens: list[str] = []
    word: list[str] = []

    def flush():
        if word:
            tokens.append("".join(word))
            word.clear()

    for ch in text:
        low = ch.lower()
        if "a" <= low <= "z":
            word.append(low)
        elif _is_han(ch):
            flush()
            tokens.append(ch)
        else:
            flush()
    flush()
    return tokens


def cosine_sim(a, b) -> float:
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    if av.shape != bv.shape or av.size == 0:
        raise InputError(f"embedding shapes differ: {av.shape} vs {bv.shape}")
    na, nb = float(np.linalg.norm(av)), float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise InputError("cosine similarity is undefined for a zero vector")
    return float(np.dot(av, bv) / (na * nb))


def read_embedding(path) -> np.ndarray:
    """Speaker embedding vector: .npy array or text, one float per line."""
    if str(path).endswith(".npy"):
        try:
            arr = np.load(path, allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise InputError(f"{path}: not a readable .npy file: {exc}") from exc
        return np.asarray(arr, dtype=float).reshape(-1)
    try:
        with open(path, encoding="utf-8") as fh:
            values = [float(line) for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text embedding file: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: bad embedding value: {exc}") from exc
    if not values:
        raise InputError(f"{path}: empty embedding file")
    return np.asarray(values)


def evaluate_pair(
    ref: Waveform,
    hyp: Waveform,
    ref_tokens: list[str] | None = None,
    hyp_tokens: list[str] | None = None,
    ref_embedding=None,
    hyp_embedding=None,
) -> dict[str, float | None]:
    """All metrics for one reference/hypothesis pair.

    Audio is resampled to the mcep rate; F0 is tracked at the mcep hop so
    the single DTW path aligns both feature streams. Text and embedding
    metrics are None unless their inputs are supplied.
    """
    ref24 = resample(ref, MCEP_RATE)
    hyp24 = resample(hyp, MCEP_RATE)
    mr, mh = mcep(ref24), mcep(hyp24)
    path = dtw_align(mr, mh)
    f0_ref = extract_f0(ref24, hop=MCEP_HOP)
    f0_hyp = extract_f0(hyp24, hop=MCEP_HOP)
    out: dict[str, float | None] = {
        "mcd_db": mcd_from_frames(mr, mh, path),
        "f0_rmse": f0_rmse(f0_ref, f0_hyp, path),
        "vuv_e": vuv_error(f0_ref, f0_hyp, path),
        "semitone_accuracy": semitone_accuracy(f0_ref, f0_hyp, path),
        "wer": None,
        "sim": None,
    }
    if ref_tokens is not None and hyp_tokens is not None:
        out["wer"] = wer(ref_tokens, hyp_tokens)
    if ref_embedding is not None and hyp_embedding is not None:
        out["sim"] = cosine_sim(ref_embedding, hyp_embedding)
    return out


def _check_metrics(name: str, values: dict) -> None:
    for key in values:
        if key not in METRIC_NAMES:
            raise InputError(f"{name}: unknown metric {key!r}")
    for key, v in values.items():
        if v is not None and not math.isfinite(v):
            raise InputError(f"{name}: {key}={v} is not finite")
    for key, lo, hi in (
        ("vuv_e", 0.0, 1.0),
        ("semitone_accuracy", 0.0, 1.0),
        ("sim", -1.0, 1.0),
    ):
        v = values.get(key)
        if v is not None and not lo <= v <= hi:
            raise InputError(f"{name}: {key}={v} outside [{lo}, {hi}]")
    for key in ("mcd_db", "f0_rmse", "wer"):
        v = values.get(key)
        if v is not None and v < 0:
            raise InputError(f"{name}: {key}={v} must be nonnegative")


@dataclass
class EvalReport:
    """Per-utterance metric dicts plus a mean aggregate (None-aware), and the
    error of each pair that could not be evaluated."""

    per_utterance: dict[str, dict[str, float | None]] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)

    def add(self, utt_id: str, values: dict[str, float | None]) -> None:
        if utt_id in self.per_utterance:
            raise InputError(f"duplicate utterance {utt_id!r} in report")
        unknown = sorted(set(values) - set(METRIC_NAMES))
        if unknown:
            raise InputError(f"unknown metric names {unknown} for {utt_id!r}")
        full = {name: values.get(name) for name in METRIC_NAMES}
        _check_metrics(utt_id, full)
        self.per_utterance[utt_id] = full

    def aggregate(self) -> dict[str, float | None]:
        agg: dict[str, float | None] = {}
        for name in METRIC_NAMES:
            vals = [
                row[name] for row in self.per_utterance.values() if row[name] is not None
            ]
            agg[name] = float(np.mean(vals)) if vals else None
        return agg

    def to_document(self) -> dict:
        doc = {"per_utterance": self.per_utterance, "aggregate": self.aggregate()}
        if self.failures:
            doc["failures"] = self.failures
        return doc

    def dumps(self) -> str:
        return dumps_document(self.to_document())

    def table(self) -> str:
        """Aligned plain-text table, one row per utterance plus the mean."""
        headers = ["utt_id", *METRIC_NAMES]
        rows = []
        for utt_id in sorted(self.per_utterance):
            row = self.per_utterance[utt_id]
            rows.append(
                [utt_id]
                + ["-" if row[n] is None else f"{row[n]:.4f}" for n in METRIC_NAMES]
            )
        agg = self.aggregate()
        rows.append(
            ["mean"] + ["-" if agg[n] is None else f"{agg[n]:.4f}" for n in METRIC_NAMES]
        )
        widths = [max(len(r[k]) for r in [headers] + rows) for k in range(len(headers))]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n"
