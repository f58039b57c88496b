import json

import jsonschema
import pytest
from hypothesis import given, strategies as st
from importlib import resources

from singprep.annotation import (_ARRAYS, VOICE_PARTS, AnnotationRecord, normalize_voice_part,
                                 read_manifest, validate_document, write_annotation,
                                 write_manifest)
from singprep.errors import ParseError, ValidationError
from singprep.jsonio import dumps_document, read_json
from singprep.score import is_rest


def sample_record(utt="utt1"):
    return AnnotationRecord(
        utt, f"{utt}.wav", "s01", "Tenor", phs=["K", "AE", "T", "AE"], is_slur=[0, 0, 0, 1],
        ph_dur=[0.08, 0.22, 0.10, 0.15], notes=[64, 64, 64, 66],
        notes_dur=[0.4, 0.4, 0.4, 0.15], lang=[0, 0, 0, 0], style=[1, 1, 1, 1])


def _with_event(**columns):
    """sample_record's document with its second event's fields replaced."""
    doc = sample_record().to_document()
    for name, value in columns.items():
        doc[name][1] = value
    return doc


class TestPhonemeEvent:
    """The rules of one event of a record, as from_document checks them."""

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            AnnotationRecord.from_document(_with_event(ph_dur=0.0))

    def test_language_token_domain(self):
        with pytest.raises(ValueError):
            AnnotationRecord.from_document(_with_event(lang=2))

    def test_style_token_domain(self):
        with pytest.raises(ValueError):
            AnnotationRecord.from_document(_with_event(style=3))

    def test_rest_detection(self):
        assert is_rest("sp", 0)
        assert is_rest("AA", 0)
        assert not is_rest("AA", 60)


class TestVoicePartAliases:
    @pytest.mark.parametrize("alias,part", [
        ("S", "Soprano"), ("A", "Alto"), ("T", "Tenor"),
        ("B1", "Bass"), ("B2", "Baritone"),
        ("tenor", "Tenor"), ("Tenor", "Tenor"),
    ])
    def test_normalization(self, alias, part):
        assert normalize_voice_part(alias) == part

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            normalize_voice_part("X9")

    @pytest.mark.parametrize("part", [3, ["Bass"], None])
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
        assert dumps_document(rec.to_document()) == dumps_document(rec.to_document())

    def test_file_round_trip_byte_identical(self, tmp_path):
        rec = sample_record()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_annotation(rec, p1)
        write_annotation(AnnotationRecord.from_document(read_json(p1)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_total_duration(self):
        assert sum(sample_record().ph_dur) == pytest.approx(0.55)

    def test_length_is_the_event_count(self):
        assert len(sample_record()) == 4

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
        text = dumps_document(sample_record().to_document())
        doc = json.loads(text.replace("0.22", "1e309", 1))
        with pytest.raises(ValidationError, match=r"ph_dur\[1\]"):
            validate_document(doc)

    @pytest.mark.parametrize("name", ["ph_dur", "notes_dur"])
    def test_integer_too_large_for_a_float_rejected(self, name):
        # json reads an integer of 401 digits exactly; no float holds it
        doc = sample_record().to_document()
        doc[name][1] = 10 ** 400
        with pytest.raises(ValidationError) as err:
            validate_document(doc)
        assert [f.split(":")[0] for f in err.value.failures] == [f"{name}[1]"]

    @pytest.mark.parametrize("ph_dur", [[1e308] * 4, [10 ** 308] * 4])
    def test_durations_whose_sum_overflows_rejected(self, ph_dur):
        doc = sample_record().to_document()
        doc["ph_dur"] = ph_dur
        with pytest.raises(ValidationError) as err:
            validate_document(doc)
        assert err.value.failures == ["ph_dur: must have a finite sum"]

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


def assert_dumps_like_stdlib(doc):
    """dumps_document(doc) is the stdlib's strict indented JSON, or both raise
    ValueError (a NaN or an infinity, which strict JSON cannot hold)."""
    try:
        expected = json.dumps(doc, ensure_ascii=False, indent=2, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(ValueError):
            dumps_document(doc)
    else:
        assert dumps_document(doc) == expected


@given(_JSON_DOCS)
def test_dumps_document_equals_stdlib_indented_json(doc):
    assert_dumps_like_stdlib(doc)


def test_dumps_document_on_a_manifest_equals_stdlib():
    doc = {"records": [sample_record(f"ü{i}").to_document() for i in range(3)]}
    assert_dumps_like_stdlib(doc)
    doc["records"][1]["ph_dur"][0] = float("nan")
    assert_dumps_like_stdlib(doc)
    with pytest.raises(ValueError):
        dumps_document({"a": [float("inf")]})
