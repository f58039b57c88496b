import json

import pytest

from singprep.annotation import VOICE_PARTS, normalize_voice_part
from singprep.errors import ValidationError
from singprep.jsonio import dumps_document
from singprep.svc import PITCH_SHIFT_TABLE, build_job_manifest

# From: Bass, Baritone, Tenor, Alto, Soprano; To: the same order.
EXPECTED_MATRIX = {
    "Bass": (0, 4, 8, 12, 12),
    "Baritone": (-4, 0, 4, 8, 8),
    "Tenor": (-8, -4, 0, 4, 8),
    "Alto": (-12, -8, -4, 0, 4),
    "Soprano": (-12, -8, -8, -4, 0),
}


def plan_conversion(source_part, target_part):
    """Semitones for a pair of parts as plan-svc finds them: each part
    normalized, then looked up in the table."""
    return PITCH_SHIFT_TABLE[normalize_voice_part(source_part), normalize_voice_part(target_part)]


class TestPlanConversion:
    @pytest.mark.parametrize("src", VOICE_PARTS)
    @pytest.mark.parametrize("tgt", VOICE_PARTS)
    def test_all_25_entries(self, src, tgt):
        expected = EXPECTED_MATRIX[src][VOICE_PARTS.index(tgt)]
        assert plan_conversion(src, tgt) == expected

    def test_bass_to_tenor(self):
        assert plan_conversion("Bass", "Tenor") == 8

    def test_soprano_to_bass(self):
        assert plan_conversion("Soprano", "Bass") == -12

    @pytest.mark.parametrize("part", VOICE_PARTS)
    def test_diagonal_zero(self, part):
        assert plan_conversion(part, part) == 0

    @pytest.mark.parametrize("src", VOICE_PARTS)
    @pytest.mark.parametrize("tgt", VOICE_PARTS)
    def test_antisymmetry(self, src, tgt):
        assert plan_conversion(src, tgt) == -plan_conversion(tgt, src)

    def test_register_aliases_accepted(self):
        assert plan_conversion("B1", "T") == plan_conversion("Bass", "Tenor")

    def test_unknown_part_rejected(self):
        with pytest.raises(ValidationError):
            plan_conversion("Bass", "Countertenor")

    @pytest.mark.parametrize("src, tgt", [(None, "Bass"), ("Bass", None)])
    def test_null_part_rejected(self, src, tgt):
        with pytest.raises(ValidationError, match="voice part must be a string, got None"):
            plan_conversion(src, tgt)


def _sources(*parts):
    return [{"utt_id": f"u{i}", "audio": f"u{i}.wav", "voice_part": p}
            for i, p in enumerate(parts, 1)]


class TestBuildJobManifest:
    def test_tenor_source_two_targets(self):
        jobs = build_job_manifest(
            _sources("Tenor"),
            [{"singer": "singerA", "voice_part": "Alto"},
             {"singer": "singerB", "voice_part": "Bass"}],
        )
        by_target = {j["target_singer"]: j["pitch_shift_semitones"] for j in jobs}
        assert by_target == {"singerA": 4, "singerB": -8}

    def test_empty_targets(self):
        assert build_job_manifest(_sources("Tenor"), []) == []

    def test_cartesian_cardinality(self):
        sources = _sources(*["Tenor"] * 12)
        targets = [{"singer": f"s{i}", "voice_part": VOICE_PARTS[i % 5]} for i in range(20)]
        jobs = build_job_manifest(sources, targets)
        assert len(jobs) == 240
        assert len({(j["source_utt"], j["target_singer"]) for j in jobs}) == 240
        assert [j["source_utt"] for j in jobs[:21]] == ["u1"] * 20 + ["u2"]

    def test_job_fields(self):
        job = build_job_manifest([{"utt_id": "u1", "audio": "x/u1.wav", "voice_part": "Bass"}],
                                 [{"singer": "t", "voice_part": "Soprano"}])[0]
        assert list(job.items()) == [
            ("source_utt", "u1"), ("source_audio", "x/u1.wav"), ("source_part", "Bass"),
            ("target_singer", "t"), ("target_part", "Soprano"), ("pitch_shift_semitones", 12),
        ]

    def test_semitones_match_plan(self):
        jobs = build_job_manifest(_sources("Alto"),
                                  [{"singer": p, "voice_part": p} for p in VOICE_PARTS])
        for job in jobs:
            assert job["pitch_shift_semitones"] == plan_conversion("Alto", job["target_part"])


class TestWriteJobManifest:
    def test_written_document_shape(self):
        jobs = build_job_manifest(_sources("Bass"), [{"singer": "t1", "voice_part": "Tenor"}])
        doc = json.loads(dumps_document({"jobs": jobs}))
        assert doc["jobs"] == [{
            "source_utt": "u1",
            "source_audio": "u1.wav",
            "source_part": "Bass",
            "target_singer": "t1",
            "target_part": "Tenor",
            "pitch_shift_semitones": 8,
        }]

    def test_empty_manifest(self):
        jobs = build_job_manifest([], [{"singer": "t1", "voice_part": "Tenor"}])
        assert json.loads(dumps_document({"jobs": jobs})) == {"jobs": []}
