import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from singprep import AnnotationRecord, PhonemeEvent, load_melody_bank, write_manifest
from singprep import cli
from singprep.cli import build_parser, derive_seed, main
from singprep.dsp import write_wav
from singprep.score import RatioTable
from singprep.textgrid import AlignmentTier, Interval, serialize_textgrid, write_textgrid

from helpers import sine, write_clip_files

MIXED_LYRICS = ["我", "和", "你", "from", "one", "world"]
MIXED_PHONEMES = "W AO HH ER N IY F R AH M W AH N W ER L D"
MIXED_TOKENS = "1 1 1 1 1 1 0 0 0 0 0 0 0 0 0 0 0"


def write_json(path, doc):
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return str(path)


CUN_PHONES = AlignmentTier("phones", [
    Interval(0.0, 0.1, "T"), Interval(0.1, 0.5, "S"),
    Interval(0.5, 0.7, "UW"), Interval(0.7, 0.9, "AH"),
    Interval(0.9, 1.1, "N"),
])


def cun_manifest(path):
    events = [
        PhonemeEvent("c", 0.18, 60, 0.425, language_token=1, style_token=1),
        PhonemeEvent("uen", 0.245, 60, 0.425, language_token=1, style_token=1),
        PhonemeEvent("uen", 0.295, 62, 0.295, is_slur=True,
                     language_token=1, style_token=1),
    ]
    write_manifest([AnnotationRecord("cun", "cun.wav", events, "s01", "Tenor")], path)
    return str(path)


class TestSeeds:
    def test_depends_on_utterance(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")

    def test_depends_on_base_seed(self):
        assert derive_seed(0, "a") != derive_seed(1, "a")

    def test_pinned_values(self):
        # Hash-based, so these must never drift across runs or platforms.
        assert derive_seed(0, "clip") == 17465382397090446075
        assert derive_seed(7, "clip") == 1268055973647041715
        assert derive_seed(0, "clip2") == 1671486379799484561


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


class TestRunBatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_payload_order_when_size_reverses_it(self, workers):
        seen = []
        results = cli.run_batch(_square, [1, 2, 3, 4], workers, size=lambda p: p,
                                stop=lambda r: seen.append(r))
        assert results == [1, 4, 9, 16]
        # One worker keeps payload order; a pool starts the largest first and
        # tests stop on the results in the order it submitted them.
        assert seen == ([1, 4, 9, 16] if workers == 1 else [16, 9, 4, 1])

    def test_equal_sizes_keep_payload_order(self):
        seen = []
        cli.run_batch(_square, [1, 2, 3], 2, size=lambda p: 0, stop=lambda r: seen.append(r))
        assert seen == [1, 4, 9]

    def test_pool_only_for_more_than_one_payload(self):
        assert cli.run_batch(_pid, [0], 4, size=abs) == [os.getpid()]
        assert os.getpid() not in cli.run_batch(_pid, [0, 1], 2, size=abs)

    def test_file_size_is_zero_for_a_path_that_cannot_be_stat_ed(self, tmp_path):
        (tmp_path / "f").write_bytes(b"abc")
        assert cli._file_size(str(tmp_path / "f")) == 3
        for path in (5, None, str(tmp_path / "nope"), "a\0b"):
            assert cli._file_size(path) == 0


class TestParser:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("singprep ")

    def test_every_command_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("g2p", "transcode", "adapt", "pseudo", "plan-svc", "eval"):
            assert name in text


class TestG2p:
    def test_mixed_line_to_stdout(self, capsys):
        assert main(["g2p", *MIXED_LYRICS]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [MIXED_PHONEMES, MIXED_TOKENS]

    def test_output_file(self, tmp_path):
        out = tmp_path / "g2p.txt"
        assert main(["g2p", "--output", str(out), *MIXED_LYRICS]) == 0
        assert out.read_text(encoding="utf-8") == f"{MIXED_PHONEMES}\n{MIXED_TOKENS}\n"

    def test_reads_stdin_without_args(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("cat"))
        assert main(["g2p"]) == 0
        assert capsys.readouterr().out == "K AE T\n0 0 0\n"

    def test_input_file(self, tmp_path, capsys):
        src = tmp_path / "lyrics.txt"
        src.write_text("我和你", encoding="utf-8")
        assert main(["g2p", "--input", str(src)]) == 0
        assert capsys.readouterr().out == "W AO HH ER N IY\n1 1 1 1 1 1\n"

    def test_out_of_vocabulary_word_fails(self):
        assert main(["g2p", "zzxqv"]) == 2


class TestTranscode:
    def test_slur_and_rest(self, tmp_path, capsys):
        score = write_json(tmp_path / "score.json", {"events": [
            {"lyric": "wo", "lang": "cn", "note": 60, "dur": 0.5},
            {"note": 62, "dur": 0.3, "slur": True},
            {"lyric": "SP", "note": 0, "dur": 0.2},
        ]})
        assert main(["transcode", "--score", score]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phonemes"] == ["W", "AO", "AO", "SP"]
        assert doc["language_tokens"] == [1, 1, 1, 0]
        assert doc["note_midi"] == [60, 60, 62, 0]
        assert doc["note_dur"] == [0.5, 0.5, 0.3, 0.2]

    def test_english_word(self, tmp_path, capsys):
        score = write_json(tmp_path / "score.json", {"events": [
            {"lyric": "cat", "note": 64, "dur": 0.4},
        ]})
        assert main(["transcode", "--score", score]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phonemes"] == ["K", "AE", "T"]
        assert doc["language_tokens"] == [0, 0, 0]
        assert doc["note_midi"] == [64, 64, 64]

    def test_han_lyric_defaults_to_mandarin(self, tmp_path, capsys):
        score = write_json(tmp_path / "score.json", {"events": [
            {"lyric": "我", "note": 60, "dur": 0.5},
        ]})
        assert main(["transcode", "--score", score]) == 0
        assert json.loads(capsys.readouterr().out)["language_tokens"] == [1, 1]

    def test_output_file(self, tmp_path):
        score = write_json(tmp_path / "score.json", {"events": [
            {"lyric": "cat", "note": 64, "dur": 0.4},
        ]})
        out = tmp_path / "seq.json"
        assert main(["transcode", "--score", score, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["phonemes"] == ["K", "AE", "T"]

    def test_lyricless_non_slur_fails(self, tmp_path):
        score = write_json(tmp_path / "score.json", {"events": [
            {"note": 62, "dur": 0.3},
        ]})
        assert main(["transcode", "--score", score]) == 2

    def test_unknown_language_fails(self, tmp_path):
        score = write_json(tmp_path / "score.json", {"events": [
            {"lyric": "wo", "lang": "fr", "note": 60, "dur": 0.5},
        ]})
        assert main(["transcode", "--score", score]) == 2

    @pytest.mark.parametrize("event", [
        {"lyric": "cat", "note": 64, "dur": 0},
        {"lyric": "cat", "note": 64, "dur": float("nan")},
        {"lyric": "cat", "note": "x", "dur": 0.4},
        {"lyric": "cat", "note": None, "dur": 0.4},
        {"lyric": "dog", "note": 62, "dur": 0.5, "slur": "false"},
        {"lyric": "cat", "note": True, "dur": 0.4},
        {"lyric": "cat", "note": "61", "dur": 0.4},
        {"lyric": "cat", "note": 64, "dur": "0.5"},
        {"lyric": "cat", "note": float("inf"), "dur": 0.4},
        {"lyric": "cat", "note": 200, "dur": 0.5},
        {"lyric": "cat", "note": -5, "dur": 0.5},
        {"lyric": "cat", "note": 1e30, "dur": 0.5},
    ])
    def test_malformed_event_fails_naming_it(self, tmp_path, caplog, event):
        score = write_json(tmp_path / "score.json", {"events": [
            {"lyric": "cat", "note": 64, "dur": 0.4}, event,
        ]})
        assert main(["transcode", "--score", score]) == 2
        assert "score.json: event 1:" in caplog.text


class TestAdapt:
    def adapted(self, path):
        return json.load(open(path, encoding="utf-8"))["records"][0]

    def test_average_splits_evenly(self, tmp_path):
        manifest = cun_manifest(tmp_path / "in.json")
        out = tmp_path / "out.json"
        assert main(["adapt", "--input", manifest, "--strategy", "average",
                     "--output", str(out)]) == 0
        rec = self.adapted(out)
        assert rec["phs"] == ["T", "S", "UW", "AH", "N", "UW", "AH", "N"]
        assert [round(d, 4) for d in rec["ph_dur"]] == [
            0.09, 0.09, 0.0817, 0.0817, 0.0817, 0.0983, 0.0983, 0.0983]
        assert rec["notes"] == [60] * 5 + [62] * 3
        assert rec["is_slur"] == [0] * 5 + [1] * 3
        assert sum(rec["ph_dur"]) == pytest.approx(0.72, abs=1e-12)

    def check_proportional(self, rec):
        assert rec["phs"] == ["T", "S", "UW", "AH", "AH", "N"]
        assert [round(d, 4) for d in rec["ph_dur"]] == [
            0.036, 0.144, 0.18, 0.065, 0.115, 0.18]
        assert rec["notes"] == [60, 60, 60, 60, 62, 62]
        assert rec["is_slur"] == [0, 0, 0, 0, 1, 0]
        assert sum(rec["ph_dur"]) == pytest.approx(0.72, abs=1e-12)

    def test_proportional_with_ratio_file(self, tmp_path):
        manifest = cun_manifest(tmp_path / "in.json")
        table = RatioTable()
        table.set("c", ("T", "S"), (0.2, 0.8))
        table.set("uen", ("UW", "AH", "N"), (1 / 3, 1 / 3, 1 / 3))
        table.save(tmp_path / "ratios.json")
        out = tmp_path / "out.json"
        assert main(["adapt", "--input", manifest, "--strategy", "proportional",
                     "--ratios", str(tmp_path / "ratios.json"),
                     "--output", str(out)]) == 0
        self.check_proportional(self.adapted(out))

    def test_proportional_learns_ratios_from_alignments(self, tmp_path):
        manifest = cun_manifest(tmp_path / "in.json")
        align_dir = tmp_path / "align"
        align_dir.mkdir()
        write_textgrid([CUN_PHONES], align_dir / "cun.TextGrid")
        out = tmp_path / "out.json"
        assert main(["adapt", "--input", manifest, "--strategy", "proportional",
                     "--alignment-dir", str(align_dir),
                     "--output", str(out)]) == 0
        self.check_proportional(self.adapted(out))

    def test_one_warning_per_unit_without_ratio(self, tmp_path, caplog):
        record = json.loads(Path(cun_manifest(tmp_path / "in.json")).read_text())["records"][0]
        manifest = write_json(tmp_path / "two.json", {"records": [
            record, {**record, "utt_id": "cun2"}]})
        ratios = write_json(tmp_path / "ratios.json", {})
        assert main(["adapt", "--input", manifest, "--strategy", "proportional",
                     "--ratios", ratios, "--output", str(tmp_path / "out.json")]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["no ratio for unit 'c' in 2 events; split equally",
                            "no ratio for unit 'uen' in 4 events; split equally"]

    def test_bad_alignment_number_fails_naming_file_tier_and_interval(self, tmp_path, caplog):
        manifest = cun_manifest(tmp_path / "in.json")
        align_dir = tmp_path / "align"
        align_dir.mkdir()
        text = serialize_textgrid([CUN_PHONES]).replace("xmax = 0.5\n", "xmax = nan\n", 1)
        (align_dir / "cun.TextGrid").write_text(text, encoding="utf-8")
        assert main(["adapt", "--input", manifest, "--strategy", "proportional",
                     "--alignment-dir", str(align_dir)]) == 2
        assert (f"{align_dir / 'cun.TextGrid'}: TextGrid: tier 'phones' interval 2 xmax "
                "must be finite, got nan") in caplog.text

    def test_proportional_needs_a_ratio_source(self, tmp_path):
        manifest = cun_manifest(tmp_path / "in.json")
        assert main(["adapt", "--input", manifest,
                     "--strategy", "proportional"]) == 2

    def test_writes_stdout_by_default(self, tmp_path, capsys):
        manifest = cun_manifest(tmp_path / "in.json")
        assert main(["adapt", "--input", manifest, "--strategy", "average"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["records"][0]["phs"]) == 8

    def test_empty_manifest_fails(self, tmp_path):
        path = write_json(tmp_path / "in.json", {"records": []})
        assert main(["adapt", "--input", path, "--strategy", "average"]) == 2

    def test_bad_json_lines_row_fails_naming_it(self, tmp_path, caplog):
        record = json.loads(Path(cun_manifest(tmp_path / "in.json")).read_text())["records"][0]
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps(record) + "\n{not json\n", encoding="utf-8")
        assert main(["adapt", "--input", str(path), "--strategy", "average"]) == 2
        assert "in.jsonl: line 2 is not valid JSON" in caplog.text


@pytest.fixture()
def speech_manifest(tmp_path):
    wav, tg = write_clip_files(tmp_path, utt_id="clip")
    wav2, tg2 = write_clip_files(tmp_path, utt_id="clip2")
    path = write_json(tmp_path / "manifest.json", {"utterances": [
        {"utt_id": "clip", "audio": str(wav), "textgrid": str(tg)},
        {"utt_id": "clip2", "audio": str(wav2), "textgrid": str(tg2)},
    ]})
    return path, tmp_path


def read_tree(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestPseudo:
    def test_outputs_and_summary(self, speech_manifest):
        manifest, tmp_path = speech_manifest
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--manifest", manifest,
                     "--output-dir", str(out_dir)]) == 0
        for name in ("clip.wav", "clip.json", "clip2.wav", "clip2.json",
                     "summary.json"):
            assert (out_dir / name).exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seed"] == 0
        assert summary["melody_bank"] == "builtin"
        for utt in ("clip", "clip2"):
            entry = summary["utterances"][utt]
            assert entry["status"] == "ok" and entry["melody"]
        record = json.loads((out_dir / "clip.json").read_text())
        assert set(record["style"]) == {2}

    def test_reruns_are_byte_identical(self, speech_manifest):
        manifest, tmp_path = speech_manifest
        dirs = tmp_path / "a", tmp_path / "b"
        for d in dirs:
            assert main(["pseudo", "--manifest", manifest,
                         "--output-dir", str(d)]) == 0
        assert read_tree(dirs[0]) == read_tree(dirs[1])

    def test_worker_count_does_not_change_output(self, speech_manifest):
        manifest, tmp_path = speech_manifest
        serial, parallel = tmp_path / "w1", tmp_path / "w4"
        assert main(["pseudo", "--manifest", manifest, "--workers", "1",
                     "--output-dir", str(serial)]) == 0
        assert main(["pseudo", "--manifest", manifest, "--workers", "4",
                     "--output-dir", str(parallel)]) == 0
        assert read_tree(serial) == read_tree(parallel)

    def test_seed_changes_summary(self, speech_manifest):
        manifest, tmp_path = speech_manifest
        out_dir = tmp_path / "seeded"
        assert main(["pseudo", "--manifest", manifest, "--seed", "5",
                     "--output-dir", str(out_dir)]) == 0
        assert json.loads((out_dir / "summary.json").read_text())["seed"] == 5

    def test_corrupt_input_keeps_going(self, tmp_path):
        wav, tg = write_clip_files(tmp_path, utt_id="good")
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"this is not audio")
        manifest = write_json(tmp_path / "manifest.json", {"utterances": [
            {"utt_id": "bad", "audio": str(bad), "textgrid": str(tg)},
            {"utt_id": "good", "audio": str(wav), "textgrid": str(tg)},
        ]})
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--manifest", manifest,
                     "--output-dir", str(out_dir)]) == 2
        assert (out_dir / "good.wav").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["utterances"]["good"]["status"] == "ok"
        assert summary["utterances"]["bad"]["status"] == "error"
        assert summary["utterances"]["bad"]["error"]

    def test_fail_fast_stops_at_first_error(self, tmp_path):
        wav, tg = write_clip_files(tmp_path, utt_id="good")
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"this is not audio")
        manifest = write_json(tmp_path / "manifest.json", {"utterances": [
            {"utt_id": "bad", "audio": str(bad), "textgrid": str(tg)},
            {"utt_id": "good", "audio": str(wav), "textgrid": str(tg)},
        ]})
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--manifest", manifest, "--fail-fast",
                     "--output-dir", str(out_dir)]) == 2
        summary = json.loads((out_dir / "summary.json").read_text())
        assert list(summary["utterances"]) == ["bad"]
        assert not (out_dir / "good.wav").exists()

    def test_fail_fast_with_pool_reports_every_output(self, tmp_path):
        wav, tg = write_clip_files(tmp_path, utt_id="good")
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"this is not audio" * 2**16)  # the largest file: started first
        assert bad.stat().st_size > wav.stat().st_size
        utterances = [{"utt_id": "bad", "audio": str(bad), "textgrid": str(tg)}]
        utterances += [{"utt_id": f"good{i}", "audio": str(wav), "textgrid": str(tg)}
                       for i in range(9)]
        manifest = write_json(tmp_path / "manifest.json", {"utterances": utterances})
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--manifest", manifest, "--fail-fast", "--workers", "2",
                     "--output-dir", str(out_dir)]) == 2
        summary = json.loads((out_dir / "summary.json").read_text())["utterances"]
        assert summary["bad"]["status"] == "error"
        outputs = [p for p in out_dir.iterdir() if p.suffix in (".wav", ".json")
                   and p.name != "summary.json"]
        assert {p.stem for p in outputs} <= {u for u, e in summary.items() if e["status"] == "ok"}
        rendered = [p for p in outputs if p.suffix == ".wav"]
        assert len(rendered) < len(utterances) - 1

    def test_pool_isolates_missing_and_non_string_audio(self, tmp_path):
        wav, tg = write_clip_files(tmp_path, utt_id="good")
        manifest = write_json(tmp_path / "manifest.json", {"utterances": [
            {"utt_id": "good0", "audio": str(wav), "textgrid": str(tg)},
            {"utt_id": "missing", "audio": str(tmp_path / "nope.wav"), "textgrid": str(tg)},
            {"utt_id": "number", "audio": 5, "textgrid": str(tg)},
            {"utt_id": "good1", "audio": str(wav), "textgrid": str(tg)},
        ]})
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--manifest", manifest, "--workers", "2",
                     "--output-dir", str(out_dir)]) == 2
        summary = json.loads((out_dir / "summary.json").read_text())["utterances"]
        assert {u: e["status"] for u, e in summary.items()} == {
            "good0": "ok", "good1": "ok", "missing": "error", "number": "error"}
        rendered = {p.name for p in out_dir.iterdir()}
        assert rendered == {"good0.wav", "good0.json", "good1.wav", "good1.json", "summary.json"}

    def test_singer_that_is_not_a_string_fails(self, tmp_path):
        wav, tg = write_clip_files(tmp_path, utt_id="clip")
        manifest = write_json(tmp_path / "manifest.json", {"utterances": [
            {"utt_id": "clip", "audio": str(wav), "textgrid": str(tg), "singer": 3},
        ]})
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--manifest", manifest, "--output-dir", str(out_dir)]) == 2
        summary = json.loads((out_dir / "summary.json").read_text())["utterances"]
        assert "singer: must be a string" in summary["clip"]["error"]
        assert not (out_dir / "clip.json").exists()

    def test_duplicate_utt_id_fails(self, tmp_path):
        wav, tg = write_clip_files(tmp_path, utt_id="clip")
        manifest = write_json(tmp_path / "manifest.json", {"utterances": [
            {"utt_id": "clip", "audio": str(wav), "textgrid": str(tg)},
            {"utt_id": "clip", "audio": str(wav), "textgrid": str(tg)},
        ]})
        assert main(["pseudo", "--manifest", manifest,
                     "--output-dir", str(tmp_path / "out")]) == 2

    def test_unhashable_utt_id_fails(self, tmp_path):
        wav, tg = write_clip_files(tmp_path, utt_id="clip")
        manifest = write_json(tmp_path / "manifest.json", {"utterances": [
            {"utt_id": ["clip"], "audio": str(wav), "textgrid": str(tg)},
        ]})
        assert main(["pseudo", "--manifest", manifest,
                     "--output-dir", str(tmp_path / "out")]) == 2

    def test_missing_manifest_fails(self, tmp_path):
        assert main(["pseudo", "--manifest", str(tmp_path / "nope.json"),
                     "--output-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("utt_id", ["../escaped", "sub/clip", "clip/", "..", ".", "ABS"])
    def test_utt_id_that_is_not_a_file_name_fails(self, tmp_path, utt_id):
        inputs = tmp_path / "in"
        inputs.mkdir()
        wav, tg = write_clip_files(inputs, utt_id="clip")
        if utt_id == "ABS":
            utt_id = str(tmp_path / "abs")
        manifest = write_json(inputs / "manifest.json", {"utterances": [
            {"utt_id": utt_id, "audio": str(wav), "textgrid": str(tg)},
        ]})
        before = sorted(tmp_path.rglob("*"))
        assert main(["pseudo", "--manifest", manifest,
                     "--output-dir", str(tmp_path / "out" / "sub")]) == 2
        assert sorted(tmp_path.rglob("*")) == before

    def test_melody_bank_loaded_once_per_run(self, speech_manifest, monkeypatch):
        manifest, tmp_path = speech_manifest
        calls = []

        def counting(path=None):
            calls.append(path)
            return load_melody_bank(path)

        monkeypatch.setattr(cli, "load_melody_bank", counting)
        assert main(["pseudo", "--manifest", manifest,
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert calls == [None]


class TestPlanSvc:
    def test_job_matrix(self, tmp_path, capsys):
        sources = write_json(tmp_path / "sources.json", {"sources": [
            {"utt_id": "u1", "audio": "u1.wav", "voice_part": "Bass"},
            {"utt_id": "u2", "audio": "u2.wav", "voice_part": "Soprano"},
        ]})
        targets = write_json(tmp_path / "targets.json", {"targets": [
            {"singer": "t1", "voice_part": "Tenor"},
            {"singer": "t2", "voice_part": "Alto"},
        ]})
        assert main(["plan-svc", "--sources", sources, "--targets", targets]) == 0
        jobs = json.loads(capsys.readouterr().out)["jobs"]
        assert len(jobs) == 4
        shift = {(j["source_utt"], j["target_singer"]):
                 j["pitch_shift_semitones"] for j in jobs}
        assert shift[("u1", "t1")] == 8    # Bass -> Tenor
        assert shift[("u1", "t2")] == 12   # Bass -> Alto
        assert shift[("u2", "t1")] == -8   # Soprano -> Tenor
        assert shift[("u2", "t2")] == -4   # Soprano -> Alto
        assert set(jobs[0]) == {"source_utt", "source_audio", "source_part",
                                "target_singer", "target_part",
                                "pitch_shift_semitones"}

    def test_output_file(self, tmp_path):
        sources = write_json(tmp_path / "sources.json", {"sources": [
            {"utt_id": "u1", "audio": "u1.wav", "voice_part": "S"},
        ]})
        targets = write_json(tmp_path / "targets.json", {"targets": [
            {"singer": "t1", "voice_part": "B2"},
        ]})
        out = tmp_path / "jobs.json"
        assert main(["plan-svc", "--sources", sources, "--targets", targets,
                     "--output", str(out)]) == 0
        jobs = json.loads(out.read_text())["jobs"]
        assert jobs[0]["pitch_shift_semitones"] == -8  # Soprano -> Baritone

    def test_unknown_voice_part_fails(self, tmp_path):
        sources = write_json(tmp_path / "sources.json", {"sources": [
            {"utt_id": "u1", "audio": "u1.wav", "voice_part": "Kazoo"},
        ]})
        targets = write_json(tmp_path / "targets.json", {"targets": [
            {"singer": "t1", "voice_part": "Tenor"},
        ]})
        assert main(["plan-svc", "--sources", sources, "--targets", targets]) == 2


@pytest.fixture()
def eval_pair_files(tmp_path):
    wav, _ = write_clip_files(tmp_path, utt_id="clip")
    emb = tmp_path / "emb.txt"
    emb.write_text("1.0\n2.0\n3.0\n")
    ref = write_json(tmp_path / "ref.json", {"utterances": [
        {"utt_id": "clip", "audio": str(wav), "text": "song fan",
         "embedding": str(emb)},
    ]})
    hyp = write_json(tmp_path / "hyp.json", {"utterances": [
        {"utt_id": "clip", "audio": str(wav), "text": "song fan",
         "embedding": str(emb)},
    ]})
    return ref, hyp, tmp_path


class TestEval:
    def test_identity_report(self, eval_pair_files):
        ref, hyp, tmp_path = eval_pair_files
        out = tmp_path / "report.json"
        assert main(["eval", "--ref", ref, "--hyp", hyp,
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        row = doc["per_utterance"]["clip"]
        assert row["mcd_db"] == 0.0
        assert row["f0_rmse"] == 0.0
        assert row["vuv_e"] == 0.0
        assert row["semitone_accuracy"] == 1.0
        assert row["wer"] == 0.0
        assert row["sim"] == pytest.approx(1.0)
        assert doc["aggregate"]["mcd_db"] == 0.0

    def test_table_output(self, eval_pair_files, capsys):
        ref, hyp, _ = eval_pair_files
        assert main(["eval", "--ref", ref, "--hyp", hyp, "--table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["utt_id", "mcd_db", "f0_rmse", "vuv_e",
                                    "semitone_accuracy", "wer", "sim"]
        assert lines[-1].startswith("mean")

    def test_text_on_one_side_only_yields_null_wer(self, tmp_path):
        wav, _ = write_clip_files(tmp_path, utt_id="clip")
        ref = write_json(tmp_path / "ref.json", {"utterances": [
            {"utt_id": "clip", "audio": str(wav), "text": "song fan"},
        ]})
        hyp = write_json(tmp_path / "hyp.json", {"utterances": [
            {"utt_id": "clip", "audio": str(wav)},
        ]})
        assert main(["eval", "--ref", ref, "--hyp", hyp,
                     "--output", str(tmp_path / "r.json")]) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["per_utterance"]["clip"]["wer"] is None
        assert doc["per_utterance"]["clip"]["sim"] is None

    def test_manifest_mismatch_fails(self, tmp_path):
        wav, _ = write_clip_files(tmp_path, utt_id="clip")
        ref = write_json(tmp_path / "ref.json", {"utterances": [
            {"utt_id": "clip", "audio": str(wav)},
        ]})
        hyp = write_json(tmp_path / "hyp.json", {"utterances": [
            {"utt_id": "other", "audio": str(wav)},
        ]})
        assert main(["eval", "--ref", ref, "--hyp", hyp]) == 2

    @pytest.mark.parametrize("side", ["ref", "hyp"])
    def test_duplicate_utt_id_fails(self, tmp_path, side, caplog):
        wav, _ = write_clip_files(tmp_path, utt_id="clip")
        once = [{"utt_id": "clip", "audio": str(wav)}]
        twice = once * 2
        ref = write_json(tmp_path / "ref.json",
                         {"utterances": twice if side == "ref" else once})
        hyp = write_json(tmp_path / "hyp.json",
                         {"utterances": twice if side == "hyp" else once})
        assert main(["eval", "--ref", ref, "--hyp", hyp]) == 2
        assert f"{side}.json: duplicate utt_id 'clip'" in caplog.text

    @pytest.mark.parametrize("utt_id", [["clip"], 7, ""])
    def test_non_string_utt_id_fails(self, tmp_path, utt_id):
        wav, _ = write_clip_files(tmp_path, utt_id="clip")
        ref = write_json(tmp_path / "ref.json",
                         {"utterances": [{"utt_id": utt_id, "audio": str(wav)}]})
        assert main(["eval", "--ref", ref, "--hyp", ref]) == 2

    def test_parallel_matches_serial(self, eval_pair_files, tmp_path):
        ref, hyp, _ = eval_pair_files
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["eval", "--ref", ref, "--hyp", hyp, "--workers", "1",
                     "--output", str(a)]) == 0
        assert main(["eval", "--ref", ref, "--hyp", hyp, "--workers", "2",
                     "--output", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_unreadable_pair_fails_with_pool(self, tmp_path):
        wav, _ = write_clip_files(tmp_path, utt_id="clip")
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"this is not audio")
        ref = write_json(tmp_path / "ref.json", {"utterances": [
            {"utt_id": "a", "audio": str(wav)}, {"utt_id": "b", "audio": str(wav)},
        ]})
        hyp = write_json(tmp_path / "hyp.json", {"utterances": [
            {"utt_id": "a", "audio": str(bad)}, {"utt_id": "b", "audio": str(wav)},
        ]})
        assert main(["eval", "--ref", ref, "--hyp", hyp, "--workers", "2"]) == 2
        # The good pair is still scored and the bad one recorded, with either worker count.
        for workers in ("2", "1"):
            out = tmp_path / f"report{workers}.json"
            assert main(["eval", "--ref", ref, "--hyp", hyp, "--workers", workers,
                         "--output", str(out)]) == 2
            report = json.loads(out.read_text())
            assert list(report["per_utterance"]) == ["b"]
            assert report["aggregate"] == report["per_utterance"]["b"]
            assert list(report["failures"]) == ["a"]
            assert report["failures"]["a"].startswith(f"InputError: {bad}: not a readable WAV")

    def test_unscorable_pair_is_a_failure(self, eval_pair_files):
        # Embeddings of different shapes are read fine but cannot be scored.
        ref, hyp, tmp_path = eval_pair_files
        short = tmp_path / "short.txt"
        short.write_text("1.0\n2.0\n")
        doc = json.loads(Path(hyp).read_text())
        good = dict(doc["utterances"][0], utt_id="good")
        doc["utterances"] = [dict(good, utt_id="clip", embedding=str(short)), good]
        write_json(Path(hyp), doc)
        ref_doc = json.loads(Path(ref).read_text())
        ref_doc["utterances"].append(dict(ref_doc["utterances"][0], utt_id="good"))
        write_json(Path(ref), ref_doc)
        out = tmp_path / "report.json"
        assert main(["eval", "--ref", ref, "--hyp", hyp, "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        assert list(report["per_utterance"]) == ["good"]
        assert report["failures"] == {
            "clip": "InputError: embedding shapes differ: (3,) vs (2,)"}

    def test_metric_rejected_by_the_report_is_a_failure(self, eval_pair_files,
                                                        monkeypatch):
        from singprep import metrics

        ref, hyp, tmp_path = eval_pair_files
        scored = metrics.evaluate_pair
        monkeypatch.setattr(metrics, "evaluate_pair",
                            lambda *a: dict(scored(*a), mcd_db=float("nan")))
        out = tmp_path / "report.json"
        assert main(["eval", "--ref", ref, "--hyp", hyp, "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["per_utterance"] == {}
        assert report["failures"] == {"clip": "InputError: clip: mcd_db=nan is not finite"}


class TestConfig:
    def test_file_seed_used(self, speech_manifest):
        manifest, tmp_path = speech_manifest
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 7\n")
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--config", str(cfg), "--manifest", manifest,
                     "--output-dir", str(out_dir)]) == 0
        assert json.loads((out_dir / "summary.json").read_text())["seed"] == 7

    def test_flag_overrides_file(self, speech_manifest):
        manifest, tmp_path = speech_manifest
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 7\n")
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--config", str(cfg), "--seed", "9",
                     "--manifest", manifest, "--output-dir", str(out_dir)]) == 0
        assert json.loads((out_dir / "summary.json").read_text())["seed"] == 9

    def test_file_strategy_used(self, tmp_path):
        manifest = cun_manifest(tmp_path / "in.json")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("strategy: proportional\n")
        # Proportional without a ratio source must fail, proving the file
        # value reached the command.
        assert main(["adapt", "--config", str(cfg), "--input", manifest]) == 2

    def test_strategy_flag_overrides_file(self, tmp_path, capsys):
        manifest = cun_manifest(tmp_path / "in.json")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("strategy: proportional\n")
        assert main(["adapt", "--config", str(cfg), "--strategy", "average",
                     "--input", manifest]) == 0
        capsys.readouterr()

    def test_unknown_key_rejected(self, tmp_path):
        manifest = cun_manifest(tmp_path / "in.json")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("sedd: 7\n")
        assert main(["adapt", "--config", str(cfg), "--input", manifest]) == 2

    def test_invalid_value_rejected(self, tmp_path):
        manifest = cun_manifest(tmp_path / "in.json")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("strategy: sideways\n")
        assert main(["adapt", "--config", str(cfg), "--input", manifest]) == 2

    def test_invalid_yaml_rejected(self, tmp_path):
        manifest = cun_manifest(tmp_path / "in.json")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("strategy: [\n")
        assert main(["adapt", "--config", str(cfg), "--input", manifest]) == 2

    @pytest.mark.parametrize("line", ['workers: "4"', "seed: 1.5", 'hop: "x"', "workers: true",
                                      "cmu_dict: 3", "hop: .nan", "hop: .inf"])
    def test_wrong_typed_or_nonfinite_value_rejected(self, tmp_path, line):
        manifest = cun_manifest(tmp_path / "in.json")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(line + "\n")
        assert main(["adapt", "--config", str(cfg), "--input", manifest]) == 2

    @pytest.mark.parametrize("key", ["sample_rate", "f0_min", "f0_max", "mcep_order"])
    def test_removed_key_rejected(self, tmp_path, caplog, key):
        manifest = cun_manifest(tmp_path / "in.json")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{key}: 100\n")
        assert main(["adapt", "--config", str(cfg), "--input", manifest]) == 2
        assert "unknown config keys" in caplog.text


# -- exit code 2 for malformed input -------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"
_PROPORTIONAL = ["adapt", "--input", "in.json", "--strategy", "proportional"]
_RATIOS = [*_PROPORTIONAL, "--ratios", "r.json"]
_SCORE = ["transcode", "--score", "s.json"]
_EVAL = ["eval", "--ref", "ref.json", "--hyp", "hyp.json"]
_EVAL_REF = '{"utterances": [{"utt_id": "clip", "audio": "clip.wav", "text": "a b"}]}'
_CUN_TG = serialize_textgrid([CUN_PHONES])
_PSEUDO_MANIFEST = '{"utterances": [{"utt_id": "clip", "audio": "clip.wav", "textgrid": "t"}]}'
_BANK = '{"templates": [{"id": "low", "steps": [[60, 1]]}]}'
_PSEUDO_BANK = ["pseudo", "--manifest", "m.json", "--output-dir", "out", "--melody-bank", "b.json"]
_SOURCES = '{"sources": [{"utt_id": "u1", "audio": "u1.wav", "voice_part": "Bass"}]}'
_TARGETS = '{"targets": [{"singer": "t1", "voice_part": "Tenor"}]}'
_PLAN = ["plan-svc", "--sources", "src.json", "--targets", "tgt.json"]
_AVERAGE = ["adapt", "--input", "inf.json", "--strategy", "average"]
_ADAPT_M = ["adapt", "--input", "m.json", "--strategy", "average"]


def _record_doc(ph_dur="0.5", notes_dur="0.5"):
    """One-record manifest text with the two durations spelled as given."""
    return ('{"records": [{"utt_id": "u", "audio": "u.wav", "singer": "", "voice_part": null, '
            f'"phs": ["a"], "is_slur": [0], "ph_dur": [{ph_dur}], "notes": [60], '
            f'"notes_dur": [{notes_dur}], "lang": [1], "style": [1]}}]}}')


@pytest.mark.parametrize("files, argv", [
    pytest.param({"r.json": '{"c": {"phones": ["T", "S"]}}'}, _RATIOS,
                 id="ratios-missing-weights"),
    pytest.param({"r.json": '{"c": {"phones": ["T", "S"], "weights": [0.5, 0.6]}}'}, _RATIOS,
                 id="ratios-sum-1.1"),
    pytest.param({"r.json": "[1, 2]"}, _RATIOS, id="ratios-top-level-list"),
    pytest.param({"r.json": "{not json"}, _RATIOS, id="ratios-not-json"),
    pytest.param({"r.json": '{"c": {"phones": ["T", "S"], "weights": ["a", 1]}}'}, _RATIOS,
                 id="ratios-weight-not-a-number"),
    pytest.param({"r.json": '{"c": {"phones": ["T", "S"], "weights": [NaN, 1]}}'}, _RATIOS,
                 id="ratios-weight-nan"),
    pytest.param({"s.json": '{"events": [{"lyric": 5, "note": 60, "dur": 0.5}]}'}, _SCORE,
                 id="lyric-number"),
    pytest.param({"s.json": '{"events": [{"lyric": ["a"], "note": 60, "dur": 0.5}]}'}, _SCORE,
                 id="lyric-list"),
    pytest.param({"ref.json": _EVAL_REF, "hyp.json": _EVAL_REF.replace('"a b"', "5")}, _EVAL,
                 id="eval-text-number"),
    pytest.param({"ref.json": _EVAL_REF, "hyp.json": _EVAL_REF.replace('"a b"', '["a"]')},
                 _EVAL, id="eval-text-list"),
    pytest.param({"ref.json": _EVAL_REF.replace('"clip.wav"', "7"), "hyp.json": _EVAL_REF},
                 _EVAL, id="eval-audio-number"),
    pytest.param({"ref.json": _EVAL_REF, "hyp.json": _EVAL_REF.replace(
        '"text"', '"embedding": 3, "text"')}, _EVAL, id="eval-embedding-number"),
    pytest.param({}, ["transcode", "--score", "dir"], id="score-is-directory"),
    pytest.param({}, ["g2p", "--input", "dir"], id="g2p-input-is-directory"),
    pytest.param({"s.json": '{"events": [{"lyric": "cat", "note": 60, "dur": 0.5}]}'},
                 [*_SCORE, "--output", "dir"], id="output-is-directory"),
    pytest.param({}, ["pseudo", "--manifest", "dir", "--output-dir", "out"],
                 id="manifest-is-directory"),
    pytest.param({"s.json": b'{"events": [{"lyric": "caf\xe9", "note": 60, "dur": 0.5}]}'},
                 _SCORE, id="score-not-utf8"),
    pytest.param({"c.yaml": b"seed: \xe9\n"}, ["g2p", "--config", "c.yaml", "cat"],
                 id="config-not-utf8"),
    pytest.param({"tg/cun.TextGrid": b'File type = "ooTextFile"\n"\xe9"\n'},
                 [*_PROPORTIONAL, "--alignment-dir", "tg"], id="textgrid-not-utf8"),
    pytest.param({"tg/cun.TextGrid": _CUN_TG.replace("size = 1\n", "size = nan\n")},
                 [*_PROPORTIONAL, "--alignment-dir", "tg"], id="textgrid-tier-count-nan"),
    pytest.param({"tg/cun.TextGrid": _CUN_TG.replace("size = 1\n", "size = inf\n")},
                 [*_PROPORTIONAL, "--alignment-dir", "tg"], id="textgrid-tier-count-inf"),
    pytest.param({"tg/cun.TextGrid": _CUN_TG.replace("size = 5\n", "size = nan\n")},
                 [*_PROPORTIONAL, "--alignment-dir", "tg"], id="textgrid-size-nan"),
    pytest.param({"m.json": _PSEUDO_MANIFEST, "b.json": _BANK.replace("1]", '"x"]')},
                 _PSEUDO_BANK, id="melody-step-length-string"),
    pytest.param({"m.json": _PSEUDO_MANIFEST, "b.json": _BANK.replace("1]", "[1]]")},
                 _PSEUDO_BANK, id="melody-step-length-list"),
    pytest.param({"m.json": _PSEUDO_MANIFEST, "b.json": _BANK.replace("[[60, 1]]", "3")},
                 _PSEUDO_BANK, id="melody-steps-number"),
    pytest.param({"c.yaml": "1: 2\n"}, ["g2p", "--config", "c.yaml", "cat"],
                 id="config-non-string-key"),
    pytest.param({"c.yaml": "1: 2\nseed: 3\nnull: 4\n"}, ["g2p", "--config", "c.yaml", "cat"],
                 id="config-mixed-key-types"),
    pytest.param({"src.json": _SOURCES.replace('"Bass"', "3"), "tgt.json": _TARGETS},
                 _PLAN, id="plan-svc-source-voice-part-number"),
    pytest.param({"src.json": _SOURCES, "tgt.json": _TARGETS.replace('"Tenor"', "[1]")},
                 _PLAN, id="plan-svc-target-voice-part-list"),
    pytest.param({"src.json": _SOURCES.replace('"u1"', "5"), "tgt.json": _TARGETS},
                 _PLAN, id="plan-svc-source-utt-id-number"),
    pytest.param({"src.json": _SOURCES.replace('"u1.wav"', '["x"]'), "tgt.json": _TARGETS},
                 _PLAN, id="plan-svc-source-audio-list"),
    pytest.param({"src.json": _SOURCES, "tgt.json": _TARGETS.replace('"t1"', "null")},
                 _PLAN, id="plan-svc-target-singer-null"),
    pytest.param({"inf.json": _record_doc(ph_dur="1e309")}, _AVERAGE, id="adapt-ph-dur-1e309"),
    pytest.param({"inf.json": _record_doc(notes_dur="1e309")}, _AVERAGE,
                 id="adapt-notes-dur-1e309"),
])
def test_malformed_input_exits_2(tmp_path, files, argv):
    stderr = _run_main(tmp_path, files, argv)
    assert any(line.startswith("ERROR ") for line in stderr.splitlines()), stderr


@pytest.mark.parametrize("files, argv, name", [
    pytest.param({"m.json": '{"records": 5}'}, _ADAPT_M,
                 "m.json", id="adapt-records-number"),
    pytest.param({"m.json": '{"records": null}'}, _ADAPT_M,
                 "m.json", id="adapt-records-null"),
    pytest.param({"m.json": "[5]"}, _ADAPT_M,
                 "m.json", id="adapt-record-number"),
    pytest.param({"m.json": _PSEUDO_MANIFEST, "b.json": "{not json"}, _PSEUDO_BANK,
                 "b.json", id="melody-bank-not-json"),
    pytest.param({"m.json": _PSEUDO_MANIFEST, "b.json": _BANK.replace("60", "128")},
                 _PSEUDO_BANK, "b.json", id="melody-note-128"),
    pytest.param({"r.json": '{"c": {"phones": ["T", "S"]}}'}, _RATIOS, "r.json",
                 id="ratios-missing-weights"),
    pytest.param({"c.yaml": "cmu_dict: d.txt\n", "d.txt": "CAT  K AE1 T\nBROKEN\n"},
                 ["g2p", "--config", "c.yaml", "cat"], "d.txt", id="config-cmu-dict-bad-line"),
    pytest.param({"s.json": b'{"events": [{"lyric": "caf\xe9", "note": 60, "dur": 0.5}]}'},
                 _SCORE, "s.json", id="score-not-utf8"),
    pytest.param({"m.json": b'{"records": ["\xe9"]}'}, _ADAPT_M, "m.json",
                 id="manifest-not-utf8"),
    pytest.param({"tg/cun.TextGrid": b'File type = "ooTextFile"\n"\xe9"\n'},
                 [*_PROPORTIONAL, "--alignment-dir", "tg"], os.path.join("tg", "cun.TextGrid"),
                 id="textgrid-not-utf8"),
    pytest.param({"c.yaml": "cmu_dict: d.txt\n", "d.txt": b"CAF\xc9  K AE1 F\n"},
                 ["g2p", "--config", "c.yaml", "cat"], "d.txt", id="cmu-dict-not-utf8"),
    pytest.param({"c.yaml": "pinyin_map: p.txt\n", "p.txt": b"b  B\n\xe9  EY\n"},
                 ["g2p", "--config", "c.yaml", "cat"], "p.txt", id="pinyin-map-not-utf8"),
    pytest.param({"c.yaml": "hanzi_table: h.txt\n", "h.txt": b"\xe6\x88  wo\n"},
                 ["g2p", "--config", "c.yaml", "cat"], "h.txt", id="hanzi-table-not-utf8"),
    pytest.param({"l.txt": b"caf\xe9\n"}, ["g2p", "--input", "l.txt"], "l.txt",
                 id="g2p-input-not-utf8"),
    pytest.param({"c.yaml": b"seed: \xe9\n"}, ["g2p", "--config", "c.yaml", "cat"], "c.yaml",
                 id="config-not-utf8"),
    pytest.param({"s.json": '{"events": [{"note": 60, "dur": 0.5, "slur": true}]}'}, _SCORE,
                 "s.json: score event 0", id="slur-without-lyric"),
    pytest.param({"src.json": _SOURCES.replace('"Bass"', '"Bassoon"'), "tgt.json": _TARGETS},
                 _PLAN, "src.json: entry 0", id="plan-svc-unknown-voice-part"),
    pytest.param({"r.json": '{"c": {"phones": ["T", "S"], "weights": [0.0, 1.0]}}'}, _RATIOS,
                 "r.json: ratio table unit 'c'", id="ratios-zero-weight"),
])
def test_input_error_names_its_file(tmp_path, files, argv, name):
    stderr = _run_main(tmp_path, files, argv)
    errors = [line for line in stderr.splitlines() if line.startswith("ERROR ")]
    assert len(errors) == 1 and errors[0].startswith(f"ERROR {name}: "), stderr


def _run_main(tmp_path, files, argv) -> str:
    """Run the CLI in a child process on the given files; assert exit code 2
    and no traceback, and return its stderr."""
    cun_manifest(tmp_path / "in.json")
    write_wav(sine(220.0, 0.5), tmp_path / "clip.wav")
    (tmp_path / "dir").mkdir()
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from singprep.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr
