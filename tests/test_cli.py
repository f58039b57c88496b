import io
import json

import pytest

from singprep import AnnotationRecord, PhonemeEvent, write_manifest
from singprep.cli import build_parser, derive_seed, main
from singprep.score import RatioTable
from singprep.textgrid import AlignmentTier, Interval, write_textgrid

from helpers import write_clip_files

MIXED_LYRICS = ["我", "和", "你", "from", "one", "world"]
MIXED_PHONEMES = "W AO HH ER N IY F R AH M W AH N W ER L D"
MIXED_TOKENS = "1 1 1 1 1 1 0 0 0 0 0 0 0 0 0 0 0"


def write_json(path, doc):
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return str(path)


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
        tier = AlignmentTier("phones", [
            Interval(0.0, 0.1, "T"), Interval(0.1, 0.5, "S"),
            Interval(0.5, 0.7, "UW"), Interval(0.7, 0.9, "AH"),
            Interval(0.9, 1.1, "N"),
        ])
        write_textgrid([tier], align_dir / "cun.TextGrid")
        out = tmp_path / "out.json"
        assert main(["adapt", "--input", manifest, "--strategy", "proportional",
                     "--alignment-dir", str(align_dir),
                     "--output", str(out)]) == 0
        self.check_proportional(self.adapted(out))

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
        bad.write_bytes(b"this is not audio")
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
