import json

import jsonschema
import pytest
from hypothesis import given, strategies as st
from importlib import resources

from singprep import (
    AnnotationRecord,
    ParseError,
    PhonemeEvent,
    ValidationError,
    dumps_annotation,
    read_annotation,
    read_manifest,
    validate_document,
    write_annotation,
    write_manifest,
)
from singprep.annotation import _ARRAYS, VOICE_PARTS, normalize_voice_part
from singprep.jsonio import dumps_document


def sample_record(utt="utt1"):
    events = (
        PhonemeEvent("K", 0.08, 64, 0.4, language_token=0, style_token=1),
        PhonemeEvent("AE", 0.22, 64, 0.4, language_token=0, style_token=1),
        PhonemeEvent("T", 0.10, 64, 0.4, language_token=0, style_token=1),
        PhonemeEvent("AE", 0.15, 66, 0.15, is_slur=True,
                     language_token=0, style_token=1),
    )
    return AnnotationRecord(utt, f"{utt}.wav", events,
                            singer_id="s01", voice_part="Tenor")


class TestPhonemeEvent:
    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            PhonemeEvent("AA", 0.0, 60, 0.2)

    def test_language_token_domain(self):
        with pytest.raises(ValueError):
            PhonemeEvent("AA", 0.1, 60, 0.2, language_token=2)

    def test_style_token_domain(self):
        with pytest.raises(ValueError):
            PhonemeEvent("AA", 0.1, 60, 0.2, style_token=3)

    def test_rest_detection(self):
        assert PhonemeEvent("sp", 0.1, 0, 0.1).is_rest()
        assert PhonemeEvent("AA", 0.1, 0, 0.1).is_rest()
        assert not PhonemeEvent("AA", 0.1, 60, 0.1).is_rest()


class TestVoicePartAliases:
    @pytest.mark.parametrize("alias,part", [
        ("S", "Soprano"), ("A", "Alto"), ("T", "Tenor"),
        ("B1", "Bass"), ("B2", "Baritone"),
        ("tenor", "Tenor"), ("Tenor", "Tenor"),
    ])
    def test_normalization(self, alias, part):
        assert normalize_voice_part(alias) == part

    def test_none_passes_through(self):
        assert normalize_voice_part(None) is None

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            normalize_voice_part("X9")

    @pytest.mark.parametrize("part", [3, ["Bass"]])
    def test_non_string_rejected(self, part):
        with pytest.raises(ValidationError, match="must be a string"):
            normalize_voice_part(part)


def _manifest_text(**fields):
    """A one-record manifest: sample_record's document with the given fields replaced."""
    return json.dumps({"records": [{**sample_record().to_document(), **fields}]})


class TestDocumentRoundTrip:
    def test_to_from_document_identity(self):
        rec = sample_record()
        assert AnnotationRecord.from_document(rec.to_document()) == rec

    def test_dumps_byte_identical_across_calls(self):
        rec = sample_record()
        assert dumps_annotation(rec) == dumps_annotation(rec)

    def test_file_round_trip_byte_identical(self, tmp_path):
        rec = sample_record()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_annotation(rec, p1)
        write_annotation(read_annotation(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_total_duration(self):
        assert sample_record().total_duration() == pytest.approx(0.55)

    def test_document_carries_parallel_arrays(self):
        doc = sample_record().to_document()
        n = len(doc["phs"])
        for key in ("is_slur", "ph_dur", "notes", "notes_dur", "lang", "style"):
            assert len(doc[key]) == n


class TestValidateDocument:
    def test_good_document_passes(self):
        validate_document(sample_record().to_document())

    def test_failures_are_collected_not_first_only(self):
        doc = sample_record().to_document()
        doc["utt_id"] = ""
        doc["voice_part"] = "X"
        with pytest.raises(ValidationError) as err:
            validate_document(doc)
        assert len(err.value.failures) >= 2

    def test_length_mismatch_reported(self):
        doc = sample_record().to_document()
        doc["notes"] = doc["notes"][:-1]
        with pytest.raises(ValidationError, match="length"):
            validate_document(doc)

    def test_missing_field_reported(self):
        doc = sample_record().to_document()
        del doc["style"]
        with pytest.raises(ValidationError, match="style"):
            validate_document(doc)

    @pytest.mark.parametrize("name, value, failure", [
        ("phs", "", "phs[1]: must be a nonempty string (got '')"),
        ("phs", 3, "phs[1]: must be a nonempty string (got 3)"),
        ("is_slur", True, "is_slur[1]: must be 0 or 1 (got True)"),
        ("is_slur", 1.0, "is_slur[1]: must be 0 or 1 (got 1.0)"),
        ("ph_dur", float("nan"), "ph_dur[1]: must be a positive number (got nan)"),
        ("ph_dur", -0.0, "ph_dur[1]: must be a positive number (got -0.0)"),
        ("ph_dur", True, "ph_dur[1]: must be a positive number (got True)"),
        ("ph_dur", float("inf"), "ph_dur[1]: must be a positive number (got inf)"),
        ("notes", 128, "notes[1]: must be a MIDI integer in 0..127 (got 128)"),
        ("notes", 60.0, "notes[1]: must be a MIDI integer in 0..127 (got 60.0)"),
        ("notes_dur", float("nan"), "notes_dur[1]: must be a nonnegative number (got nan)"),
        ("notes_dur", "0.4", "notes_dur[1]: must be a nonnegative number (got '0.4')"),
        ("notes_dur", float("inf"), "notes_dur[1]: must be a nonnegative number (got inf)"),
        ("lang", False, "lang[1]: must be 0 or 1 (got False)"),
        ("style", 3, "style[1]: must be 0, 1, or 2 (got 3)"),
    ])
    def test_bad_element_named(self, name, value, failure):
        doc = sample_record().to_document()
        doc[name][1] = value
        with pytest.raises(ValidationError) as err:
            validate_document(doc)
        assert err.value.failures == [failure]

    def test_json_overflow_to_inf_rejected(self):
        # json reads 1e309 as inf; a record holding it could not be written back as JSON.
        doc = json.loads(dumps_annotation(sample_record()).replace("0.22", "1e309", 1))
        with pytest.raises(ValidationError, match=r"ph_dur\[1\]"):
            validate_document(doc)

    def test_null_voice_part_passes(self):
        doc = sample_record().to_document()
        doc["voice_part"] = None
        validate_document(doc)

    def test_zero_note_duration_and_int_values_pass(self):
        doc = sample_record().to_document()
        doc["notes_dur"][0], doc["ph_dur"][0] = 0, 1
        validate_document(doc)

    def test_matches_bundled_json_schema(self):
        schema = json.loads(resources.files("singprep.data")
                            .joinpath("annotation.schema.json").read_text())
        jsonschema.validate(sample_record().to_document(), schema)

    def test_schema_rejects_bad_language_token(self):
        schema = json.loads(resources.files("singprep.data")
                            .joinpath("annotation.schema.json").read_text())
        doc = sample_record().to_document()
        doc["lang"][0] = 7
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)


class TestManifest:
    def test_json_document_form(self, tmp_path):
        recs = [sample_record("u1"), sample_record("u2")]
        p = tmp_path / "m.json"
        write_manifest(recs, p)
        assert read_manifest(p) == recs

    def test_line_delimited_form(self, tmp_path):
        recs = [sample_record("u1"), sample_record("u2")]
        p = tmp_path / "m.jsonl"
        p.write_text("".join(json.dumps(r.to_document()) + "\n" for r in recs))
        assert read_manifest(p) == recs
        assert len(p.read_text().strip().splitlines()) == 2

    def test_empty_file_is_empty_manifest(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("")
        assert read_manifest(p) == []

    def test_duplicate_utt_id_rejected(self, tmp_path):
        recs = [sample_record("u1"), sample_record("u1")]
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"records": [r.to_document() for r in recs]}))
        with pytest.raises(ValidationError, match="m.json: duplicate utt_id 'u1'"):
            read_manifest(p)

    def test_bad_line_delimited_row_names_its_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps(sample_record("u1").to_document()) + "\n\n{not json\n")
        with pytest.raises(ParseError, match="line 3"):
            read_manifest(p)

    def test_bare_list_accepted(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps([sample_record("u1").to_document()]))
        assert len(read_manifest(p)) == 1

    @pytest.mark.parametrize("text, error, message", [
        ('{"records": 5}', ParseError, "expected a list or an object with 'records'"),
        ('{"records": null}', ParseError, "expected a list or an object with 'records'"),
        ("[5]", ParseError, "entry 0 is not an object"),
        ('{"a": 1}\n7\n', ParseError, "entry 1 is not an object"),
        ('{"records": [{"utt_id": "u"}]}', ValidationError, "record 0: phs: missing field"),
        pytest.param(_manifest_text(utt_id=""), ValidationError,
                     "record 0: utt_id: must be nonempty", id="empty-utt-id"),
        pytest.param(_manifest_text(**dict.fromkeys(_ARRAYS, [])), ValidationError,
                     "record 0: phs: event list must be nonempty", id="empty-events"),
        pytest.param(_manifest_text(voice_part="Contralto"), ValidationError,
                     "record 0: voice_part: must be null or one of", id="unknown-voice-part"),
        pytest.param(_manifest_text(singer=3), ValidationError,
                     "record 0: singer: must be a string", id="singer-number"),
        pytest.param(_manifest_text(singer=None), ValidationError,
                     "record 0: singer: must be a string", id="singer-null"),
    ])
    def test_malformed_manifest_names_its_file(self, tmp_path, text, error, message):
        p = tmp_path / "m.json"
        p.write_text(text)
        with pytest.raises(error) as err:
            read_manifest(p)
        assert f"{p}: {message}" in str(err.value)

    def test_read_annotation_bad_json_is_a_parse_error(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            read_annotation(p)


def test_voice_parts_are_the_five_registers():
    assert VOICE_PARTS == ("Bass", "Baritone", "Tenor", "Alto", "Soprano")


# Nested documents with every JSON scalar (NaN and infinities included),
# empty containers, tuples, non-ASCII text and non-string keys.
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_JSON_DOCS = st.recursive(_JSON_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=5).map(tuple),
    st.dictionaries(st.text(), children, max_size=5),
    st.dictionaries(_JSON_SCALARS.filter(lambda k: not isinstance(k, str)), children,
                    max_size=3),
), max_leaves=40)


@given(_JSON_DOCS)
def test_dumps_document_equals_stdlib_indented_json(doc):
    assert dumps_document(doc) == json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def test_dumps_document_on_a_manifest_equals_stdlib():
    doc = {"records": [sample_record(f"ü{i}").to_document() for i in range(3)]}
    doc["records"][1]["ph_dur"][0] = float("nan")
    assert dumps_document(doc) == json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
