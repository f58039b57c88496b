"""Pseudo-singing generation: aligned speech sung to a melody.

make_pseudo_singing swaps the natural pitch of an utterance for a rendered
melody template, resynthesizes it, and annotates the result as style 2
(pseudo-singing), one event per aligned phone.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .annotation import AnnotationRecord
from .dsp.pitch import DEFAULT_HOP, F0Contour, hz_from_midi
from .dsp.vocoder import analyze, synthesize
from .dsp.audio import Waveform
from .errors import InputError
from .lexicon import CMU_PHONES, aligned_phone, is_silence_label, language_of
# load_melody_bank stays importable from here because bench/tracing.py wraps
# singprep.pseudo.load_melody_bank; without it that traced layer would
# silently record nothing.
from .melody import MelodyTemplate, load_melody_bank  # noqa: F401
from .score import PSEUDO_SINGING
from .textgrid import AlignmentTier, Interval

_ALIGN_TOLERANCE = 0.05  # seconds of admissible waveform/alignment mismatch


def _step_frames(template: MelodyTemplate, n_frames: int) -> list[int]:
    """Frames per step: round(length * n) half-up, last absorbs the remainder."""
    counts = [int(np.floor(length * n_frames + 0.5)) for _, length in template.steps[:-1]]
    counts.append(n_frames - sum(counts))
    # pathological length vectors can over-round; shave the largest steps
    while counts[-1] < 0:
        counts[counts.index(max(counts[:-1]))] -= 1
        counts[-1] += 1
    return counts


def _step_spans(template: MelodyTemplate, n_frames: int) -> list[tuple[int, int, int]]:
    spans = []
    start = 0
    for (midi, _), count in zip(template.steps, _step_frames(template, n_frames)):
        spans.append((start, start + count, midi))
        start += count
    return spans


def render_melody(template: MelodyTemplate, n_frames: int) -> F0Contour:
    """Expand a template to a DEFAULT_HOP-rate F0 contour of exactly n_frames."""
    if n_frames <= 0:
        raise InputError(f"n_frames must be positive, got {n_frames}")
    values = np.empty(n_frames)
    for start, end, midi in _step_spans(template, n_frames):
        values[start:end] = hz_from_midi(midi)
    return F0Contour(values)


def _speech_phone_events(
    word_tier: AlignmentTier, phone_tier: AlignmentTier
) -> list[tuple[Interval, str, Interval]]:
    """Pair each phone aligned_phone reads with the word containing its midpoint."""
    words = [w for w in word_tier.intervals if not is_silence_label(w.label.strip())]
    phones = [(iv, ph) for iv in phone_tier.intervals
              if (ph := aligned_phone(iv.label)) is not None]
    out = []
    for iv, ph in phones:
        mid = (iv.start + iv.end) / 2.0
        parent = next((w for w in words if w.start - 1e-9 <= mid < w.end + 1e-9), None)
        if parent is None:
            raise InputError(
                f"phone {iv.label!r} at {iv.start:.3f}s lies outside every word interval"
            )
        if ph not in CMU_PHONES:
            raise InputError(f"phone tier label {iv.label!r} is not a recognized phone")
        out.append((iv, ph, parent))
    return out


def make_pseudo_singing(
    waveform: Waveform,
    word_tier: AlignmentTier,
    phone_tier: AlignmentTier,
    melody: MelodyTemplate,
    seed: int,
    utt_id: str,
    audio_path: str = "",
    singer_id: str = "",
) -> tuple[Waveform, AnnotationRecord]:
    """Swap speech pitch for a melody and annotate the result as style 2.

    The source is analyzed, the melody is rendered over the same frame grid
    and masked by the original voicing, and the vocoder resynthesizes with
    the swapped contour. Each annotation event takes the melody step active
    at its temporal midpoint. Deterministic for a given seed.
    """
    span = max(word_tier.xmax, phone_tier.xmax)
    if abs(span - waveform.duration) > _ALIGN_TOLERANCE:
        raise InputError(
            f"alignment spans {span:.3f}s but audio lasts {waveform.duration:.3f}s"
        )

    analysis = analyze(waveform)
    n = analysis.n_frames
    masked = F0Contour(np.where(analysis.f0.voiced, render_melody(melody, n).values, 0.0))
    rendered = synthesize(replace(analysis, f0=masked), rng=np.random.default_rng(seed))

    spans = _step_spans(melody, n)
    phs, ph_dur, notes, notes_dur, lang = [], [], [], [], []
    for iv, ph, word in _speech_phone_events(word_tier, phone_tier):
        mid_frame = (iv.start + iv.end) / 2.0 / DEFAULT_HOP
        start, end, midi = next(
            (s for s in spans if s[0] <= mid_frame < s[1]), spans[-1]
        )
        phs.append(ph)
        ph_dur.append(iv.end - iv.start)
        notes.append(midi)
        notes_dur.append((end - start) * DEFAULT_HOP)
        lang.append(language_of(word.label))
    record = AnnotationRecord.from_document({
        "utt_id": utt_id, "audio": audio_path, "singer": singer_id, "voice_part": None,
        "phs": phs, "is_slur": [0] * len(phs), "ph_dur": ph_dur, "notes": notes,
        "notes_dur": notes_dur, "lang": lang, "style": [PSEUDO_SINGING] * len(phs),
    })
    return rendered, record
