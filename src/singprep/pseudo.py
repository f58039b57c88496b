"""Pseudo-singing generation: aligned speech sung to a melody.

make_pseudo_singing swaps the natural pitch of an utterance for a rendered
melody template, resynthesizes it, and annotates the result as style 2
(pseudo-singing), one event per aligned phone.
"""

from __future__ import annotations

import numpy as np

from .annotation import AnnotationRecord
from .dsp.pitch import DEFAULT_HOP, F0Contour, hz_from_midi
from .dsp.vocoder import analyze, replace_f0, synthesize
from .dsp.audio import Waveform
from .errors import InputError, ValidationError
from .lexicon import CMU_PHONES, language_of
# load_melody_bank stays importable from here because bench/tracing.py wraps
# singprep.pseudo.load_melody_bank; without it that traced layer would
# silently record nothing.
from .melody import MelodyTemplate, load_melody_bank  # noqa: F401
from .score import PSEUDO_SINGING, SILENCE_LABELS, PhonemeEvent
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


def render_melody(template: MelodyTemplate, n_frames: int, hop: float = DEFAULT_HOP) -> F0Contour:
    """Expand a template to a frame-rate F0 contour of exactly n_frames."""
    if n_frames <= 0:
        raise InputError(f"n_frames must be positive, got {n_frames}")
    values = np.empty(n_frames)
    for start, end, midi in _step_spans(template, n_frames):
        values[start:end] = hz_from_midi(midi)
    return F0Contour(values, hop)


def _normalize_phone(label: str) -> str:
    ph = label.strip().upper()
    if ph and ph[-1] in "012":
        ph = ph[:-1]
    if ph not in CMU_PHONES:
        raise InputError(f"phone tier label {label!r} is not a recognized phone")
    return ph


def _speech_phone_events(
    word_tier: AlignmentTier, phone_tier: AlignmentTier
) -> list[tuple[Interval, str, Interval]]:
    """Pair each non-silent phone with the word containing its midpoint."""
    words = word_tier.labelled(drop=SILENCE_LABELS)
    out = []
    for iv in phone_tier.labelled(drop=SILENCE_LABELS):
        mid = (iv.start + iv.end) / 2.0
        parent = next((w for w in words if w.start - 1e-9 <= mid < w.end + 1e-9), None)
        if parent is None:
            raise InputError(
                f"phone {iv.label!r} at {iv.start:.3f}s lies outside every word interval"
            )
        out.append((iv, _normalize_phone(iv.label), parent))
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
    hop: float = DEFAULT_HOP,
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

    analysis = analyze(waveform, hop=hop)
    n = analysis.n_frames
    target = render_melody(melody, n, hop)
    masked = F0Contour(np.where(analysis.f0.voiced, target.values, 0.0), hop)
    rendered = synthesize(replace_f0(analysis, masked), rng=np.random.default_rng(seed))

    spans = _step_spans(melody, n)
    events = []
    for iv, ph, word in _speech_phone_events(word_tier, phone_tier):
        mid_frame = (iv.start + iv.end) / 2.0 / hop
        start, end, midi = next(
            (s for s in spans if s[0] <= mid_frame < s[1]), spans[-1]
        )
        events.append(
            PhonemeEvent(
                phoneme=ph,
                ph_dur=iv.end - iv.start,
                note_midi=midi,
                note_dur=(end - start) * hop,
                is_slur=False,
                language_token=language_of(word.label),
                style_token=PSEUDO_SINGING,
            )
        )
    if not events:
        raise ValidationError(["alignment yields no phone events"])
    record = AnnotationRecord(utt_id, audio_path, tuple(events), singer_id, None)
    return rendered, record
