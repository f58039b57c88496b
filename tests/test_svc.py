import json

import pytest

from singprep import (
    ConversionJob,
    ValidationError,
    build_job_manifest,
    plan_conversion,
)
from singprep.annotation import VOICE_PARTS
from singprep.svc import dumps_job_manifest

# From: Bass, Baritone, Tenor, Alto, Soprano; To: the same order.
EXPECTED_MATRIX = {
    "Bass": (0, 4, 8, 12, 12),
    "Baritone": (-4, 0, 4, 8, 8),
    "Tenor": (-8, -4, 0, 4, 8),
    "Alto": (-12, -8, -4, 0, 4),
    "Soprano": (-12, -8, -8, -4, 0),
}


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


class TestBuildJobManifest:
    def test_tenor_source_two_targets(self):
        jobs = build_job_manifest(
            [("u1", "u1.wav", "Tenor")],
            [("singerA", "Alto"), ("singerB", "Bass")],
        )
        by_target = {j.target_singer: j.semitones for j in jobs}
        assert by_target == {"singerA": 4, "singerB": -8}

    def test_empty_targets(self):
        assert build_job_manifest([("u1", "u1.wav", "Tenor")], []) == []

    def test_cartesian_cardinality(self):
        sources = [(f"u{i}", f"u{i}.wav", "Tenor") for i in range(12)]
        targets = [(f"s{i}", VOICE_PARTS[i % 5]) for i in range(20)]
        jobs = build_job_manifest(sources, targets)
        assert len(jobs) == 240
        assert len({(j.source_utterance, j.target_singer) for j in jobs}) == 240

    def test_job_fields(self):
        job = build_job_manifest([("u1", "x/u1.wav", "Bass")], [("t", "Soprano")])[0]
        assert job == ConversionJob("u1", "x/u1.wav", "Bass", "t", "Soprano", 12)

    def test_semitones_match_plan(self):
        jobs = build_job_manifest(
            [("u1", "u1.wav", "Alto")],
            [(p, p) for p in VOICE_PARTS],
        )
        for job in jobs:
            assert job.semitones == plan_conversion("Alto", job.target_part)

    def test_alias_parts_normalized(self):
        job = build_job_manifest([("u1", "u1.wav", "B2")], [("t", "S")])[0]
        assert (job.source_part, job.target_part) == ("Baritone", "Soprano")
        assert job.semitones == 8


class TestWriteJobManifest:
    def test_written_document_shape(self):
        jobs = build_job_manifest([("u1", "u1.wav", "Bass")], [("t1", "Tenor")])
        doc = json.loads(dumps_job_manifest(jobs))
        assert doc["jobs"] == [{
            "source_utt": "u1",
            "source_audio": "u1.wav",
            "source_part": "Bass",
            "target_singer": "t1",
            "target_part": "Tenor",
            "pitch_shift_semitones": 8,
        }]

    def test_empty_manifest(self):
        assert json.loads(dumps_job_manifest([])) == {"jobs": []}
