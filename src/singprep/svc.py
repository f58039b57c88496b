"""Singing-voice-conversion planning: pitch-shift lookup and job manifests.

The semitone matrix below is a fixed reference table for moving material
between voice parts. It is not derived from per-part center pitches (note
that Soprano->Tenor is -8 while Bass->Alto caps at +12), so it is stored
verbatim rather than computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .annotation import VOICE_PARTS, normalize_voice_part
from .errors import InputError

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


def plan_conversion(source_part: str, target_part: str) -> int:
    """Semitones to shift when converting source_part material to target_part."""
    src = normalize_voice_part(source_part)
    tgt = normalize_voice_part(target_part)
    return PITCH_SHIFT_TABLE[(src, tgt)]


@dataclass(frozen=True)
class ConversionJob:
    source_utterance: str
    source_audio: str
    source_part: str
    target_singer: str
    target_part: str
    semitones: int

    def to_document(self) -> dict:
        return {
            "source_utt": self.source_utterance,
            "source_audio": self.source_audio,
            "source_part": self.source_part,
            "target_singer": self.target_singer,
            "target_part": self.target_part,
            "pitch_shift_semitones": self.semitones,
        }


def build_job_manifest(
    sources: list[tuple[str, str, str]],
    targets: list[tuple[str, str]],
) -> list[ConversionJob]:
    """Cartesian product of sources x target singers.

    sources: (utterance id, audio path, voice part) triples;
    targets: (singer id, voice part) pairs. Unknown parts raise.
    """
    jobs: list[ConversionJob] = []
    for utt_id, audio, src_part in sources:
        src = normalize_voice_part(src_part)
        if src is None:
            raise InputError(f"source {utt_id!r} has no voice part")
        for singer, tgt_part in targets:
            tgt = normalize_voice_part(tgt_part)
            if tgt is None:
                raise InputError(f"target singer {singer!r} has no voice part")
            jobs.append(
                ConversionJob(
                    source_utterance=utt_id,
                    source_audio=audio,
                    source_part=src,
                    target_singer=singer,
                    target_part=tgt,
                    semitones=PITCH_SHIFT_TABLE[(src, tgt)],
                )
            )
    return jobs
