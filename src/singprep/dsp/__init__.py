"""Signal-processing layer: audio I/O, pitch tracking, vocoder."""

from .audio import Waveform, read_wav, resample, write_wav
from .pitch import (
    F0Contour,
    average_f0_by_segments,
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
    replace_f0,
    synthesize,
)

__all__ = [
    "AnalysisResult",
    "F0Contour",
    "Waveform",
    "analyze",
    "average_f0_by_segments",
    "band_edges",
    "extract_f0",
    "frame_count",
    "hz_from_midi",
    "midi_from_hz",
    "nearest_midi",
    "read_wav",
    "replace_f0",
    "resample",
    "synthesize",
    "transpose_f0",
    "write_wav",
]
