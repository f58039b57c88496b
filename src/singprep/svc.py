"""Singing-voice-conversion planning: pitch-shift lookup and job manifests.

The semitone matrix below is a fixed reference table for moving material
between voice parts. It is not derived from per-part center pitches (note
that Soprano->Tenor is -8 while Bass->Alto caps at +12), so it is stored
verbatim rather than computed.
"""

from __future__ import annotations

from .annotation import VOICE_PARTS

# rows: source part; columns: target part; both in VOICE_PARTS order
# (Bass, Baritone, Tenor, Alto, Soprano); values in semitones.
_SHIFT_ROWS = (
    (0, 4, 8, 12, 12),
    (-4, 0, 4, 8, 8),
    (-8, -4, 0, 4, 8),
    (-12, -8, -4, 0, 4),
    (-12, -8, -8, -4, 0),
)

PITCH_SHIFT_TABLE: dict[tuple[str, str], int] = {
    (src, tgt): _SHIFT_ROWS[i][j]
    for i, src in enumerate(VOICE_PARTS)
    for j, tgt in enumerate(VOICE_PARTS)
}


def build_job_manifest(sources: list[dict], targets: list[dict]) -> list[dict]:
    """One job document per (source, target) pair, sources outermost. Entries
    hold utt_id and audio, or singer, and a voice_part already in VOICE_PARTS."""
    return [{"source_utt": src["utt_id"], "source_audio": src["audio"],
             "source_part": src["voice_part"], "target_singer": tgt["singer"],
             "target_part": tgt["voice_part"],
             "pitch_shift_semitones": PITCH_SHIFT_TABLE[(src["voice_part"], tgt["voice_part"])]}
            for src in sources for tgt in targets]
