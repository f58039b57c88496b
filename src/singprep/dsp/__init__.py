"""Signal-processing layer: audio I/O (audio), pitch tracking (pitch), vocoder (vocoder)."""
