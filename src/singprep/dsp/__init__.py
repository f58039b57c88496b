"""Signal-processing layer: audio I/O, pitch tracking, vocoder."""

from .audio import Waveform, read_wav, resample, write_wav
from .pitch import (
    F0Contour,
    extract_f0,
    frame_count,
    hz_from_midi,
    midi_from_hz,
    nearest_midi,
    transpose_f0,
)
from .vocoder import (
    AnalysisResult,
    analyze,
    band_edges,
    synthesize,
)

__all__ = [
    "AnalysisResult",
    "F0Contour",
    "Waveform",
    "analyze",
    "band_edges",
    "extract_f0",
    "frame_count",
    "hz_from_midi",
    "midi_from_hz",
    "nearest_midi",
    "read_wav",
    "resample",
    "synthesize",
    "transpose_f0",
    "write_wav",
]
