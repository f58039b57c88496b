"""Waveform container, PCM-16 WAV I/O, and sample-rate conversion."""

from __future__ import annotations

import io
import math
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InputError
from ..jsonio import open_input, write_output


@dataclass(frozen=True)
class Waveform:
    """Mono audio in [-1, 1] at an integer sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise InputError("waveform must be a nonempty 1-D array")
        if self.sample_rate <= 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate}")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def __len__(self) -> int:
        return self.samples.size


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file holding 16-bit PCM; multichannel input is
    downmixed to the mean of its channels."""
    try:
        with open_input(str(path), "rb") as raw, wave.open(raw, "rb") as fh:
            nch = fh.getnchannels()
            width = fh.getsampwidth()
            comp = fh.getcomptype()
            rate = fh.getframerate()
            nframes = fh.getnframes()
            payload = fh.readframes(nframes)
    except (wave.Error, EOFError) as exc:
        raise InputError(f"{path}: not a readable WAV file: {exc}") from exc
    if comp != "NONE":
        raise InputError(f"{path}: compressed WAV ({comp}) not supported; PCM required")
    if width != 2:
        raise InputError(f"{path}: {8 * width}-bit samples not supported; 16-bit PCM required")
    if len(payload) < nframes * nch * 2:
        raise InputError(f"{path}: truncated WAV payload")
    data = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    if nch > 1:
        data = data.reshape(-1, nch).mean(axis=1)
    return Waveform(data, rate)


def write_wav(waveform: Waveform, path) -> None:
    """Write 16-bit PCM mono. Values are clipped to the representable range."""
    scaled = np.rint(waveform.samples * 32768.0)
    pcm = np.clip(scaled, -32768, 32767).astype("<i2")
    riff = io.BytesIO()
    with wave.open(riff, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(waveform.sample_rate)
        fh.writeframes(pcm.tobytes())
    write_output(riff.getvalue(), path)


def resample(waveform: Waveform, target_rate: int) -> Waveform:
    """Windowed-sinc polyphase resampling to target_rate.

    With the rate ratio reduced to up/down, the low-pass filter is a
    Kaiser-windowed (beta 5) sinc of 2*half_len + 1 taps, half_len =
    10*max(up, down), cut off at 1/max(up, down) of the Nyquist rate and
    scaled to a DC gain of up. Output sample q is centred on input time
    q*down/up, and there are ceil(n*up/down) of them. This is the design of
    scipy.signal.resample_poly at its defaults, and the tests hold the two to
    1e-12. Output is clipped to [-1, 1].
    """
    if target_rate <= 0:
        raise InputError(f"target rate must be positive, got {target_rate}")
    if target_rate == waveform.sample_rate:
        return waveform
    g = math.gcd(int(target_rate), int(waveform.sample_rate))
    up, down = target_rate // g, waveform.sample_rate // g
    x = waveform.samples
    n_out = -(-x.size * up // down)
    half_len = 10 * max(up, down)
    h = np.sinc(np.arange(-half_len, half_len + 1) / max(up, down))
    h *= np.kaiser(h.size, 5.0)
    h *= up / h.sum()
    # phases[r] holds taps h[r], h[r+up], ... reversed, so output q with
    # t = q*down + half_len is the dot of phases[t % up] with the input
    # window ending at sample t // up
    taps = -(-h.size // up)
    phases = np.pad(h, (0, taps * up - h.size)).reshape(taps, up).T[:, ::-1]
    last = ((n_out - 1) * down + half_len) // up
    windows = sliding_window_view(np.pad(x, (taps - 1, max(0, last + 1 - x.size))), taps)
    out = np.empty(n_out)
    # outputs q0, q0+up, q0+2*up, ... share a phase and step the input by down
    for q0 in range(min(up, n_out)):
        t = q0 * down + half_len
        rows = out[q0::up]
        rows[:] = windows[t // up::down][:rows.size] @ phases[t % up]
    return Waveform(np.clip(out, -1.0, 1.0), int(target_rate))
