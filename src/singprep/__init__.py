"""singprep: bilingual singing-voice data preparation and evaluation.

The pipeline in one sentence: lyrics become a shared phoneme inventory
(lexicon), scores and speech alignments become phoneme-level annotations
(score, formats), speech becomes pseudo-singing through pitch replacement
(dsp, pseudo), voice-conversion jobs are planned across vocal ranges (svc),
and synthesis output is scored objectively (metrics).
"""

import importlib

__version__ = "0.1.0"

from .annotation import (
    AnnotationRecord,
    dumps_annotation,
    read_annotation,
    read_manifest,
    validate_document,
    write_annotation,
    write_manifest,
)
from .errors import InputError, OovError, ParseError, ValidationError
from .lexicon import (
    CMU_PHONES,
    CMU_VOWELS,
    ENGLISH,
    MANDARIN,
    Lexicon,
    LyricToken,
    PhonemeSeq,
    default_lexicon,
    g2p,
    segment_lyrics,
    split_pinyin,
)
from .melody import MelodyBank, MelodyTemplate, choose_melody, load_melody_bank
from .score import (
    PSEUDO_SINGING,
    SINGING,
    SPEECH,
    PhonemeEvent,
    RatioTable,
    ScoreEvent,
    TransformedScore,
    adapt_average,
    adapt_proportional,
    extract_ratios,
    substitute_missing,
    transform_score,
)
from .svc import (
    PITCH_SHIFT_TABLE,
    VOICE_PARTS,
    ConversionJob,
    build_job_manifest,
    plan_conversion,
    write_job_manifest,
)
from .textgrid import (
    AlignmentTier,
    Interval,
    parse_textgrid,
    read_textgrid,
    serialize_textgrid,
    write_textgrid,
)

# Names from the numpy modules, imported on first use (PEP 562) so that
# the text-only parts of the toolkit start without loading numpy.
_LAZY = {
    **dict.fromkeys(
        ("EvalReport", "McepFrames", "cosine_sim", "dtw_align", "evaluate_pair", "f0_rmse",
         "mcd", "mcd_from_frames", "mcep", "semitone_accuracy", "tokenize_transcript",
         "vuv_error", "wer"),
        "metrics",
    ),
    **dict.fromkeys(("annotate_speech", "make_pseudo_singing", "render_melody"), "pseudo"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "AlignmentTier",
    "AnnotationRecord",
    "CMU_PHONES",
    "CMU_VOWELS",
    "ConversionJob",
    "ENGLISH",
    "EvalReport",
    "InputError",
    "Interval",
    "Lexicon",
    "LyricToken",
    "MANDARIN",
    "McepFrames",
    "MelodyBank",
    "MelodyTemplate",
    "OovError",
    "PITCH_SHIFT_TABLE",
    "PSEUDO_SINGING",
    "ParseError",
    "PhonemeEvent",
    "PhonemeSeq",
    "RatioTable",
    "SINGING",
    "SPEECH",
    "ScoreEvent",
    "TransformedScore",
    "VOICE_PARTS",
    "ValidationError",
    "adapt_average",
    "adapt_proportional",
    "annotate_speech",
    "build_job_manifest",
    "choose_melody",
    "cosine_sim",
    "default_lexicon",
    "dtw_align",
    "dumps_annotation",
    "evaluate_pair",
    "extract_ratios",
    "f0_rmse",
    "g2p",
    "load_melody_bank",
    "make_pseudo_singing",
    "mcd",
    "mcd_from_frames",
    "mcep",
    "parse_textgrid",
    "plan_conversion",
    "read_annotation",
    "read_manifest",
    "read_textgrid",
    "render_melody",
    "segment_lyrics",
    "semitone_accuracy",
    "serialize_textgrid",
    "split_pinyin",
    "substitute_missing",
    "tokenize_transcript",
    "transform_score",
    "validate_document",
    "vuv_error",
    "wer",
    "write_annotation",
    "write_job_manifest",
    "write_manifest",
    "write_textgrid",
]
