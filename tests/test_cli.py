import functools
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from singprep.annotation import AnnotationRecord, write_manifest
from singprep import cli
from singprep.cli import build_parser, derive_seed, main
from singprep.config import PipelineConfig
from singprep.dsp.audio import write_wav
from singprep.errors import InputError
from singprep.jsonio import dumps_document
from singprep.melody import MelodyTemplate, load_melody_bank
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
CUN_MISMATCHED = AlignmentTier("phones", [
    Interval(0.0, 0.1, "T"), Interval(0.1, 0.5, "S"),
    Interval(0.5, 0.7, "AA"), Interval(0.7, 0.9, "AH"),
    Interval(0.9, 1.1, "N"),
])


def cun_manifest(path):
    write_manifest([AnnotationRecord(
        "cun", "cun.wav", "s01", "Tenor", phs=["c", "uen", "uen"], is_slur=[0, 0, 1],
        ph_dur=[0.18, 0.245, 0.295], notes=[60, 60, 62], notes_dur=[0.425, 0.425, 0.295],
        lang=[1, 1, 1], style=[1, 1, 1])], path)
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
    """x squared; an input error for a negative x, a bug for 0."""
    if x < 0:
        raise InputError(f"negative: {x}")
    return x ** 3 // x


def _pid(_):
    return os.getpid()


@pytest.fixture()
def submitted(monkeypatch):
    """The payloads run_batch submits to its pool, in order; the pool is one thread."""
    import concurrent.futures

    order = []

    class OneThread(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=1)

        def submit(self, fn, worker, payload):
            order.append(payload)
            return super().submit(fn, worker, payload)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OneThread)
    return order


class TestRunBatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_payload_order_when_size_reverses_it(self, workers):
        results = cli.run_batch(_square, [1, 2, 3, 4], workers, size=lambda p: p)
        assert results == [(1, 1, ""), (2, 4, ""), (3, 9, ""), (4, 16, "")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fail_fast_keeps_the_first_failure(self, workers):
        # One worker runs in payload order and stops at -2; a pool starts the
        # largest, -4, first, and what was already running may still finish.
        results = cli.run_batch(_square, [1, -2, 3, -4], workers, size=abs, fail_fast=True)
        if workers == 1:
            assert results == [(1, 1, ""), (-2, None, "InputError: negative: -2")]
        else:
            assert (-4, None, "InputError: negative: -4") in results
            assert results == sorted(results, key=lambda r: [1, -2, 3, -4].index(r[0]))

    def test_pool_starts_the_largest_first(self, submitted):
        cli.run_batch(_square, [1, 2, 3, 4], 2, size=lambda p: p)
        assert submitted == [4, 3, 2, 1]

    def test_equal_sizes_keep_payload_order(self, submitted):
        cli.run_batch(_square, [1, 2, 3], 2, size=lambda p: 0)
        assert submitted == [1, 2, 3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_input_errors_fail_only_their_payload(self, workers):
        results = cli.run_batch(_square, [-1, 2, -3], workers, size=abs)
        assert results == [(-1, None, "InputError: negative: -1"), (2, 4, ""),
                           (-3, None, "InputError: negative: -3")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_other_exceptions_propagate(self, workers):
        with pytest.raises(ZeroDivisionError):
            cli.run_batch(_square, [1, 0, 3], workers, size=abs)

    def test_pool_only_for_more_than_one_payload(self):
        assert cli.run_batch(_pid, [0], 4, size=abs) == [(0, os.getpid(), "")]
        assert os.getpid() not in [pid for _, pid, _ in cli.run_batch(_pid, [0, 1], 2, size=abs)]

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

    def test_lyrics_with_input_file_is_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "lyrics.txt"
        src.write_text("fan", encoding="utf-8")
        out = tmp_path / "g2p.txt"
        with pytest.raises(SystemExit) as exc:
            main(["g2p", "cat", "--input", str(src), "--output", str(out)])
        assert exc.value.code == 2
        assert "argument --input: not allowed with argument text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("env", [{}, {"LC_ALL": "C"}, {"PYTHONIOENCODING": "latin-1"}],
                             ids=["default", "c-locale", "latin-1"])
    def test_stdin_that_is_not_utf8_fails_naming_stdin(self, env):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from singprep.cli import main; "
             "sys.exit(main(['g2p']))"],
            input=b"\xe9\n", capture_output=True, timeout=120,
            env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(
                [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.decode().startswith(
            "ERROR <stdin>: 'utf-8' codec can't decode byte 0xe9"), proc.stderr

    def test_config_cmu_dict_replaces_the_bundled_one(self, tmp_path, capsys):
        (tmp_path / "d.txt").write_text("ZZYZX  Z IH1 Z IH0 K S\n", encoding="utf-8")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"cmu_dict: {tmp_path / 'd.txt'}\n", encoding="utf-8")
        assert main(["g2p", "--config", str(cfg), "zzyzx"]) == 0
        assert capsys.readouterr().out == "Z IH Z IH K S\n0 0 0 0 0 0\n"
        assert main(["g2p", "cat"]) == 0  # bundled
        assert main(["g2p", "--config", str(cfg), "cat"]) == 2
        # the other two tables are still the bundled ones
        assert main(["g2p", "--config", str(cfg), "我"]) == 0


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
        {"lyric": 5, "note": 64, "dur": 0.4},
        {"note": 64, "dur": 0.4},
        {"lyric": "cat", "lang": "fr", "note": 64, "dur": 0.4},
        {"lyric": "zzyzx", "note": 64, "dur": 0.4},
    ])
    def test_malformed_event_fails_naming_it(self, tmp_path, caplog, event):
        score = write_json(tmp_path / "score.json", {"events": [
            {"lyric": "cat", "note": 64, "dur": 0.4}, event,
        ]})
        assert main(["transcode", "--score", score]) == 2
        assert "score.json: event 1: " in caplog.text

    @pytest.mark.parametrize("first, error", [
        pytest.param({"lyric": "cat", "note": 64, "dur": 0.4, "slur": True},
                     "slur with no antecedent lyric", id="slur"),
        pytest.param({"lyric": "zzyzx", "note": 64, "dur": 0.4},
                     "out-of-vocabulary English token: 'zzyzx'", id="out-of-vocabulary"),
    ])
    def test_first_bad_row_in_file_order_is_reported(self, tmp_path, caplog, first, error):
        # a slur has no antecedent only in the first row
        score = write_json(tmp_path / "score.json", {"events": [
            first, {"lyric": "cat", "note": "x", "dur": 0.4},
        ]})
        assert main(["transcode", "--score", score]) == 2
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            f"{score}: event 0: {error}"]


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
        (tmp_path / "ratios.json").write_text(dumps_document({
            "c": {"phones": ["T", "S"], "weights": [0.2, 0.8]},
            "uen": {"phones": ["UW", "AH", "N"], "weights": [1 / 3, 1 / 3, 1 / 3]},
        }), encoding="utf-8")
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

    def adapt_with_alignments(self, tmp_path, grids, records=None):
        """adapt --alignment-dir on records (default: the cun record once per
        grid), with grids {utt_id: tiers} written to the directory; returns
        (exit code, the directory, the adapted records or None)."""
        record = json.loads(Path(cun_manifest(tmp_path / "in.json")).read_text())["records"][0]
        manifest = write_json(tmp_path / "m.json", {"records": records or [
            {**record, "utt_id": utt_id} for utt_id in grids]})
        align_dir = tmp_path / "align"
        align_dir.mkdir()
        for utt_id, tiers in grids.items():
            write_textgrid(tiers, align_dir / f"{utt_id}.TextGrid")
        out = tmp_path / "out.json"
        code = main(["adapt", "--input", manifest, "--strategy", "proportional",
                     "--alignment-dir", str(align_dir), "--output", str(out)])
        adapted = json.loads(out.read_text(encoding="utf-8"))["records"] if code == 0 else None
        return code, align_dir, adapted

    def test_every_alignment_mismatching_fails(self, tmp_path, caplog):
        code, align_dir, _ = self.adapt_with_alignments(
            tmp_path, {"cun": [CUN_MISMATCHED], "cun2": [CUN_MISMATCHED]})
        assert code == 2
        assert f"{align_dir}: no usable alignments found" in caplog.text

    def test_one_matching_alignment_gives_the_ratios(self, tmp_path):
        code, _, adapted = self.adapt_with_alignments(
            tmp_path, {"cun": [CUN_PHONES], "cun2": [CUN_MISMATCHED]})
        assert code == 0
        for rec in adapted:
            self.check_proportional(rec)

    def test_alignment_without_phone_tier_is_skipped(self, tmp_path, caplog):
        words = AlignmentTier("words", [Interval(0.0, 1.1, "cun")])
        code, align_dir, adapted = self.adapt_with_alignments(
            tmp_path, {"cun": [CUN_PHONES], "cun2": [words]})
        assert code == 0
        assert f"{align_dir / 'cun2.TextGrid'}: no phone tier" in caplog.text
        for rec in adapted:
            self.check_proportional(rec)

    def test_directory_without_alignments_fails(self, tmp_path, caplog):
        record = json.loads(Path(cun_manifest(tmp_path / "in.json")).read_text())["records"][0]
        code, align_dir, _ = self.adapt_with_alignments(tmp_path, {}, [record])
        assert code == 2
        assert f"{align_dir}: no usable alignments found" in caplog.text

    def test_manifest_without_units_needs_no_alignments(self, tmp_path):
        rest = {"utt_id": "rest", "audio": "rest.wav", "singer": "", "voice_part": None,
                "phs": ["SP"], "is_slur": [0], "ph_dur": [0.5], "notes": [0],
                "notes_dur": [0.5], "lang": [1], "style": [1]}
        code, _, adapted = self.adapt_with_alignments(tmp_path, {}, [rest])
        assert code == 0
        assert adapted[0]["phs"] == ["SP"] and adapted[0]["ph_dur"] == [0.5]

    def test_out_of_vocabulary_unit_fails_before_reading_alignments(self, tmp_path, caplog):
        record = json.loads(Path(cun_manifest(tmp_path / "in.json")).read_text())["records"][0]
        bad = {**record, "utt_id": "bad", "phs": ["c", "qq", "qq"]}
        code, _, _ = self.adapt_with_alignments(
            tmp_path, {"cun": [CUN_PHONES], "bad": [CUN_PHONES]}, [record, bad])
        assert code == 2
        logged = [(r.levelname, r.getMessage()) for r in caplog.records]
        assert logged == [("ERROR", "out-of-vocabulary Mandarin token: 'qq'")]

    def test_proportional_needs_a_ratio_source(self, tmp_path):
        manifest = cun_manifest(tmp_path / "in.json")
        assert main(["adapt", "--input", manifest,
                     "--strategy", "proportional"]) == 2

    def test_ratios_with_alignment_dir_is_a_usage_error(self, tmp_path, capsys):
        manifest = cun_manifest(tmp_path / "in.json")
        ratios = write_json(tmp_path / "ratios.json", {})
        (tmp_path / "empty").mkdir()
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["adapt", "--input", manifest, "--strategy", "proportional", "--ratios", ratios,
                  "--alignment-dir", str(tmp_path / "empty"), "--output", str(out)])
        assert exc.value.code == 2
        assert ("argument --alignment-dir: not allowed with argument --ratios"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_writes_stdout_by_default(self, tmp_path, capsys):
        manifest = cun_manifest(tmp_path / "in.json")
        assert main(["adapt", "--input", manifest, "--strategy", "average"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["records"][0]["phs"]) == 8

    def test_empty_manifest_fails(self, tmp_path):
        path = write_json(tmp_path / "in.json", {"records": []})
        assert main(["adapt", "--input", path, "--strategy", "average"]) == 2

    def adapt_two_events(self, tmp_path, caplog, strategy, phs, is_slur, ph_dur):
        """adapt --strategy (proportional with an empty ratio table) on one record
        of two events; returns the ERROR messages, asserting exit 2 and no output."""
        manifest = write_json(tmp_path / "m.json", {"records": [{
            "utt_id": "u", "audio": "u.wav", "singer": "", "voice_part": None,
            "phs": phs, "is_slur": is_slur, "ph_dur": ph_dur,
            "notes": [60, 60], "notes_dur": [0.3, 0.3], "lang": [1, 1], "style": [1, 1]}]})
        ratios = ["--ratios", write_json(tmp_path / "r.json", {})] if strategy != "average" else []
        out = tmp_path / "out.json"
        assert main(["adapt", "--input", manifest, "--strategy", strategy, *ratios,
                     "--output", str(out)]) == 2
        assert not out.exists()
        return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]

    @pytest.mark.parametrize("strategy", ["average", "proportional"])
    def test_duration_that_underflows_to_zero_fails(self, tmp_path, caplog, strategy):
        # 5e-324 is the least float: split over T and S, each half rounds to 0.0
        errors = self.adapt_two_events(tmp_path, caplog, strategy, ["c", "ang"], [0, 0],
                                       [5e-324, 0.3])
        assert errors and all("ph_dur" in e for e in errors), errors

    @pytest.mark.parametrize("strategy", ["average", "proportional"])
    def test_durations_whose_sum_overflows_fail(self, tmp_path, caplog, strategy):
        errors = self.adapt_two_events(tmp_path, caplog, strategy, ["an", "an"], [0, 1],
                                       [1e308, 1e308])
        assert errors == [f"{tmp_path / 'm.json'}: record 0: ph_dur: must have a finite sum"]

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_string_textgrid_fails_only_its_utterance(self, speech_manifest, workers,
                                                          caplog):
        manifest, tmp_path = speech_manifest
        doc = json.loads(Path(manifest).read_text())
        good = doc["utterances"][0]
        doc["utterances"] += [
            {"utt_id": "bad", "audio": "clip.wav", "textgrid": 5},
            # a path with a NUL byte names no file: an input error of its utterance
            dict(good, utt_id="nul_audio", audio="a\0b.wav"),
            dict(good, utt_id="nul_textgrid", textgrid="t\0g.TextGrid"),
        ]
        write_json(Path(manifest), doc)
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--manifest", manifest, "--workers", workers,
                     "--output-dir", str(out_dir)]) == 2
        assert not any(r.exc_info for r in caplog.records), caplog.text
        summary = json.loads((out_dir / "summary.json").read_text())["utterances"]
        assert summary["bad"] == {"error": f"InputError: {manifest}: utterance 'bad': "
                                           "textgrid: must be a string, got 5",
                                  "status": "error"}
        assert summary["nul_audio"] == {
            "error": "InputError: 'a\\x00b.wav': not a file name: embedded null byte",
            "status": "error"}
        assert summary["nul_textgrid"] == {
            "error": "InputError: 't\\x00g.TextGrid': not a file name: embedded null byte",
            "status": "error"}
        assert summary["clip"]["status"] == summary["clip2"]["status"] == "ok"
        assert (out_dir / "clip.wav").exists() and (out_dir / "clip2.wav").exists()
        assert not (out_dir / "nul_audio.wav").exists()
        assert not (out_dir / "nul_textgrid.wav").exists()

    def test_absent_audio_or_textgrid_fails_only_its_utterance(self, speech_manifest, caplog):
        manifest, tmp_path = speech_manifest
        doc = json.loads(Path(manifest).read_text())
        good = doc["utterances"][0]
        doc["utterances"] += [{"utt_id": "no_audio", "textgrid": good["textgrid"]},
                              {"utt_id": "null_audio", "audio": None,
                               "textgrid": good["textgrid"]},
                              {"utt_id": "no_textgrid", "audio": good["audio"]}]
        write_json(Path(manifest), doc)
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--manifest", manifest, "--output-dir", str(out_dir)]) == 2
        assert not any(r.exc_info for r in caplog.records), caplog.text
        summary = json.loads((out_dir / "summary.json").read_text())["utterances"]
        for utt_id, field in (("no_audio", "audio"), ("null_audio", "audio"),
                              ("no_textgrid", "textgrid")):
            assert summary[utt_id] == {
                "error": f"InputError: {manifest}: utterance {utt_id!r}: {field}: "
                         "must be a string, got None", "status": "error"}
        assert summary["clip"]["status"] == summary["clip2"]["status"] == "ok"

    def test_internal_error_exits_1(self, speech_manifest, monkeypatch, caplog):
        from singprep import pseudo

        def broken(*args, **kwargs):
            raise RuntimeError("broken renderer")

        monkeypatch.setattr(pseudo, "make_pseudo_singing", broken)
        manifest, tmp_path = speech_manifest
        assert main(["pseudo", "--manifest", manifest,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert "internal error" in caplog.text and "broken renderer" in caplog.text

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

    @pytest.mark.parametrize("utt_id", ["../escaped", "sub/clip", "clip/", "..", ".", "ABS",
                                        "summary"])
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
        assert (jobs[0]["source_part"], jobs[0]["target_part"]) == ("Soprano", "Baritone")
        assert jobs[0]["pitch_shift_semitones"] == -8

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

    def test_identical_embeddings_score_one(self, eval_pair_files):
        ref, hyp, tmp_path = eval_pair_files
        # its cosine with itself rounds to 1.0000000000000002 before clamping
        (tmp_path / "emb.txt").write_text("0.1\n0.7\n")
        out = tmp_path / "report.json"
        assert main(["eval", "--ref", ref, "--hyp", hyp, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["per_utterance"]["clip"]["sim"] == 1.0

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_string_field_fails_only_its_pair(self, eval_pair_files, workers, caplog):
        ref, hyp, tmp_path = eval_pair_files
        for path in (ref, hyp):
            doc = json.loads(Path(path).read_text())
            good = doc["utterances"][0]
            doc["utterances"].append(dict(good, utt_id="bad"))
            if path == hyp:
                doc["utterances"][1]["text"] = 5
            # a path with a NUL byte names no file: an input error of its pair
            doc["utterances"].append(
                dict(good, utt_id="nul_audio", audio="a\0b.wav") if path == ref else
                dict(good, utt_id="nul_audio"))
            doc["utterances"].append(
                dict(good, utt_id="nul_embedding", embedding="e\0.txt") if path == hyp else
                dict(good, utt_id="nul_embedding"))
            write_json(Path(path), doc)
        out = tmp_path / "report.json"
        assert main(["eval", "--ref", ref, "--hyp", hyp, "--workers", workers,
                     "--output", str(out)]) == 2
        assert not any(r.exc_info for r in caplog.records), caplog.text
        report = json.loads(out.read_text())
        assert list(report["per_utterance"]) == ["clip"]
        assert report["failures"] == {
            "bad": f"InputError: {hyp}: utterance 'bad': text: must be a string, got 5",
            "nul_audio": "InputError: 'a\\x00b.wav': not a file name: embedded null byte",
            "nul_embedding": "InputError: 'e\\x00.txt': not a file name: embedded null byte"}

    def test_absent_audio_fails_only_its_pair(self, eval_pair_files):
        ref, hyp, tmp_path = eval_pair_files
        for path in (ref, hyp):
            doc = json.loads(Path(path).read_text())
            good = doc["utterances"][0]
            doc["utterances"].append({"utt_id": "bad"} if path == hyp else dict(good, utt_id="bad"))
            write_json(Path(path), doc)
        out = tmp_path / "report.json"
        assert main(["eval", "--ref", ref, "--hyp", hyp, "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        assert list(report["per_utterance"]) == ["clip"]
        assert report["failures"] == {
            "bad": f"InputError: {hyp}: utterance 'bad': audio: must be a string, got None"}

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

    def test_melody_bank_flag_overrides_file(self, speech_manifest):
        manifest, tmp_path = speech_manifest
        bank = tmp_path / "bank.json"
        bank.write_text('{"templates": [{"id": "low", "steps": [[60, 1]]}]}')
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("melody_bank: missing.json\n")
        out_dir = tmp_path / "out"
        assert main(["pseudo", "--config", str(cfg), "--melody-bank", str(bank),
                     "--manifest", manifest, "--output-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["melody_bank"] == str(bank)
        assert {u["melody"] for u in summary["utterances"].values()} == {"low"}

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

    @pytest.mark.parametrize("line", ['workers: "4"', "seed: 1.5", 'seed: "x"', "workers: true",
                                      "cmu_dict: 3", "workers: .nan", "workers: .inf"])
    def test_wrong_typed_or_nonfinite_value_rejected(self, tmp_path, line):
        manifest = cun_manifest(tmp_path / "in.json")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(line + "\n")
        assert main(["adapt", "--config", str(cfg), "--input", manifest]) == 2

    @pytest.mark.parametrize("key", ["sample_rate", "f0_min", "f0_max", "mcep_order", "hop"])
    def test_removed_key_rejected(self, tmp_path, caplog, key):
        manifest = cun_manifest(tmp_path / "in.json")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{key}: 0.005\n")
        assert main(["adapt", "--config", str(cfg), "--input", manifest]) == 2
        assert f"unknown config keys: {key}" in caplog.text


_CONFIG_KEYS = [f.name for f in fields(PipelineConfig)]
# YAML scalars and collections as they are spelled in a file: 1e400 (no dot)
# loads as a string and 1.0e+400 as an infinite float; "a\\0b" holds a NUL.
_YAML_VALUES = st.one_of(
    st.sampled_from(["1e400", "1.0e+400", "-1.0e+400", ".nan", ".inf", "-.inf", "null", "~",
                     "", "true", "no", "0", "-3", "1.5", "[1, 2]", "[]", "{a: 1}", "2001-12-14",
                     "!!binary aGk=", '"a\\0b"', '"\\ud800"', ".", "average", "missing.txt"]),
    st.integers().map(str),
    st.text(max_size=12).map(json.dumps),
)
_YAML_KEYS = st.sampled_from([*_CONFIG_KEYS, "hop", "sedd", "1", "true", "null", "[a]"])


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(_YAML_KEYS, _YAML_VALUES), max_size=5))
def test_config_fuzz_exits_0_or_2(tmp_path_factory, caplog, capsys, items):
    cfg = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    cfg.write_text("".join(f"{key}: {value}\n" for key, value in items), encoding="utf-8")
    caplog.clear()
    code = main(["g2p", "--config", str(cfg), "cat"])
    capsys.readouterr()
    assert code in (0, 2), caplog.text
    assert not any(r.exc_info for r in caplog.records), caplog.text
    if any(key not in _CONFIG_KEYS for key, _ in items):
        assert code == 2


# Valid documents for the text commands; the fuzz below mutates them.
_INF = "\x01inf"  # written into the JSON text as the literal 1e309
_FUZZ_DOCS = {
    "transcode": {"s.json": {"events": [
        {"lyric": "wo", "lang": "cn", "note": 60, "dur": 0.5},
        {"lyric": "cat", "note": 64, "dur": 0.4},
        {"note": 65, "dur": 0.2, "slur": True},
        {"lyric": "fan", "lang": "en", "note": 67, "dur": 0.2, "slur": True},
        {"lyric": "sp", "note": 0, "dur": 0.1}]}},
    "adapt": {
        "m.json": {"records": [{
            "utt_id": "u", "audio": "u.wav", "singer": "s01", "voice_part": "Tenor",
            "phs": ["c", "uen", "uen"], "is_slur": [0, 0, 1], "ph_dur": [0.18, 0.245, 0.295],
            "notes": [60, 60, 62], "notes_dur": [0.425, 0.425, 0.295], "lang": [1, 1, 1],
            "style": [1, 1, 1]}]},
        "r.json": {"c": {"phones": ["T", "S"], "weights": [0.2, 0.8]},
                   "uen": {"phones": ["UW", "AH", "N"], "weights": [0.3, 0.5, 0.2]}}},
    "plan-svc": {
        "src.json": {"sources": [{"utt_id": "u1", "audio": "u1.wav", "voice_part": "Bass"}]},
        "tgt.json": {"targets": [{"singer": "t1", "voice_part": "Tenor"},
                                 {"singer": "t2", "voice_part": "soprano"}]}},
}
_FUZZ_ARGV = {
    "transcode": [["transcode", "--score", "s.json", "--output", "out.json"]],
    "adapt": [["adapt", "--input", "m.json", "--strategy", "proportional", "--ratios", "r.json",
               "--output", "out.json"],
              ["adapt", "--input", "m.json", "--strategy", "average", "--output", "out.json"]],
    "plan-svc": [["plan-svc", "--sources", "src.json", "--targets", "tgt.json",
                  "--output", "out.json"]],
    "g2p": [["g2p", "--input", "l.txt", "--output", "out.txt"]],
}
_BAD_VALUES = st.sampled_from([None, True, False, 0, -1, 128, 1.5, -0.0, float("nan"), _INF,
                               10 ** 400, "", "x", "a\0b", "\ud800", "Bassoon", [], {}, [1],
                               {"a": 1}])
_BAD_BYTES = st.sampled_from([b"\xe9", b"\xff\xfe", b"\x00", b"\xed\xa0\x80", b"\\", b"\"",
                              b"]", b"}", b",", b"1e309", b"NaN", b"-Infinity"])


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, (*prefix, key))


def _mutate(data, doc):
    """doc with one to three mutations: a wrong-typed or non-finite value, a key or
    element removed, a value wrapped in the wrong container, or a NUL byte or a
    lone surrogate added to a string."""
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))
        op = data.draw(st.sampled_from(["set", "delete", "wrap", "taint"]))
        if op == "taint":
            get = lambda p: functools.reduce(lambda d, k: d[k], p, doc)
            paths = [p for p in paths if p and isinstance(get(p), str)]
            if not paths:
                continue
        path = data.draw(st.sampled_from(paths))
        if not path:
            doc = data.draw(_BAD_VALUES) if op == "set" else [doc] if op == "wrap" else {}
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "delete":
            del parent[path[-1]]
        elif op == "taint":
            parent[path[-1]] += data.draw(st.sampled_from(["\0", "\ud800", "\udce9"]))
        else:
            parent[path[-1]] = data.draw(_BAD_VALUES) if op == "set" else [parent[path[-1]]]
    return doc


def _mangle(data, raw: bytes) -> bytes:
    """raw, or one time in four raw with a byte string inserted or cut short."""
    if data.draw(st.integers(0, 3)):
        return raw
    at = data.draw(st.integers(0, len(raw)))
    return raw[:at] if data.draw(st.booleans()) else raw[:at] + data.draw(_BAD_BYTES) + raw[at:]


@pytest.mark.parametrize("command", sorted(_FUZZ_ARGV))
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_text_command_fuzz_exits_0_or_2(tmp_path_factory, caplog, capsys, monkeypatch,
                                        command, data):
    base = tmp_path_factory.getbasetemp() / "fuzz"
    base.mkdir(exist_ok=True)
    monkeypatch.chdir(base)
    if command == "g2p":
        files = {"l.txt": data.draw(st.one_of(
            st.binary(max_size=16),
            st.sampled_from(["我和你 from one world\n", "zhui cat", ""]).map(str.encode)))}
        files["l.txt"] = _mangle(data, files["l.txt"])
    else:  # one document is mutated, so that its fault is not masked by another's
        files = {name: json.dumps(doc).encode() for name, doc in _FUZZ_DOCS[command].items()}
        name = data.draw(st.sampled_from(sorted(files)))
        text = json.dumps(_mutate(data, json.loads(files[name])))
        files[name] = _mangle(data, text.replace(json.dumps(_INF), "1e309").encode())
    for name, raw in files.items():
        (base / name).write_bytes(raw)
    for stale in base.glob("out.*"):
        stale.unlink()
    argv = data.draw(st.sampled_from(_FUZZ_ARGV[command]))
    output = argv[argv.index("--output") + 1]
    if data.draw(st.integers(0, 9)) == 0:  # a path that is not UTF-8, as sys.argv holds it
        paths = [i for i, a in enumerate(argv) if a in files or a == output]
        at = data.draw(st.sampled_from(paths))
        argv = [*argv[:at], argv[at] + "\udce9", *argv[at + 1:]]
    if data.draw(st.integers(0, 9)) == 0:  # an input path that names no file
        argv = [a + "\0" if a in files else a for a in argv]
    caplog.clear()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected a path before the command ran
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2), caplog.text
    assert not any(r.exc_info for r in caplog.records), caplog.text
    written = sorted(p.name for p in base.glob("out.*"))
    if code == 2:
        assert written == [], caplog.text
    else:  # whole: two lines from g2p, one JSON document from the others
        assert written == [output]
        text = (base / output).read_text(encoding="utf-8")
        if command == "g2p":
            assert text.endswith("\n") and text.count("\n") == 2
        else:
            json.loads(text)
    assert [p.name for p in base.iterdir() if p.name.endswith(".tmp")] == []


_FUZZ_BANK = {"templates": [{"id": "low", "steps": [[60, 1], [62, 2.5]]},
                            {"id": "high", "steps": [[72, 1]]}]}


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_melody_bank_fuzz_loads_or_names_its_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_bank.json"
    text = json.dumps(_mutate(data, json.loads(json.dumps(_FUZZ_BANK))))
    path.write_text(text.replace(json.dumps(_INF), "1e309"), encoding="utf-8")
    try:
        bank = load_melody_bank(path)
    except InputError as exc:
        assert str(exc).startswith(f"{path}: "), exc
    else:
        assert bank and all(isinstance(t, MelodyTemplate) for t in bank)


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
    pytest.param({"inf.json": _record_doc(ph_dur="1" + "0" * 400)}, _AVERAGE,
                 id="adapt-ph-dur-integer-too-large"),
    pytest.param({"inf.json": _record_doc(notes_dur="1" + "0" * 400)}, _AVERAGE,
                 id="adapt-notes-dur-integer-too-large"),
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
                 "s.json: event 0", id="slur-without-lyric"),
    pytest.param({"s.json": '[{"lyric": "cat", "note": 60, "dur": 0.5}, '
                            '{"lyric": "zzyzx", "note": 62, "dur": 0.5}]'}, _SCORE,
                 "s.json: event 1: out-of-vocabulary English token",
                 id="score-lyric-out-of-vocabulary"),
    pytest.param({"s.json": '[{"lyric": "ba", "lang": "cn", "note": 60, "dur": 0.5}, '
                            '{"lyric": "bp", "lang": "cn", "note": 62, "dur": 0.5}]'}, _SCORE,
                 "s.json: event 1: out-of-vocabulary Mandarin token",
                 id="score-pinyin-without-a-final"),
    pytest.param({"l.txt": "cat zzyzx\n"}, ["g2p", "--input", "l.txt"],
                 "l.txt: out-of-vocabulary English token", id="g2p-input-out-of-vocabulary"),
    pytest.param({"src.json": _SOURCES.replace('"Bass"', '"Bassoon"'), "tgt.json": _TARGETS},
                 _PLAN, "src.json: entry 0", id="plan-svc-unknown-voice-part"),
    pytest.param({"src.json": _SOURCES.replace('"Bass"', "null"), "tgt.json": _TARGETS},
                 _PLAN, "src.json: entry 0", id="plan-svc-source-voice-part-null"),
    pytest.param({"src.json": '{"sources": []}', "tgt.json": _TARGETS.replace('"Tenor"', "null")},
                 _PLAN, "tgt.json: entry 0", id="plan-svc-target-voice-part-null"),
    pytest.param({"m.json": _PSEUDO_MANIFEST, "b.json": _BANK.replace('"low"', "null")},
                 _PSEUDO_BANK, "b.json", id="melody-id-null"),
    pytest.param({"m.json": _PSEUDO_MANIFEST, "b.json": _BANK.replace('"low"', "7")},
                 _PSEUDO_BANK, "b.json", id="melody-id-number"),
    pytest.param({"m.json": _PSEUDO_MANIFEST,
                  "b.json": _BANK.replace("1]]", "1" + "0" * 400 + "]]")},
                 _PSEUDO_BANK, "b.json: melody 'low'", id="melody-step-length-integer-too-large"),
    pytest.param({"r.json": '{"c": {"phones": ["T", "S"], "weights": [0.0, 1.0]}}'}, _RATIOS,
                 "r.json: ratio table unit 'c'", id="ratios-zero-weight"),
    pytest.param({"r.json": '{"c": {"phones": ["T", "S"], "weights": [0.9, 0.1]}, '
                            '"C": {"phones": ["T", "S"], "weights": [0.1, 0.9]}}'}, _RATIOS,
                 "r.json: ratio table unit 'C'", id="ratios-unit-repeated-in-another-case"),
    pytest.param({"r.json": '{"c": {"phones": ["T", "S"], "weights": ["0.25", "0.75"]}}'},
                 _RATIOS, "r.json: ratio table unit 'c'", id="ratios-string-weights"),
    pytest.param({"r.json": '{"c": {"phones": ["T"], "weights": [true]}}'}, _RATIOS,
                 "r.json: ratio table unit 'c'", id="ratios-true-weight"),
    pytest.param({"r.json": '{"an": {"phones": "AN", "weights": [0.5, 0.5]}}'}, _RATIOS,
                 "r.json: ratio table unit 'an'", id="ratios-phones-a-string"),
    pytest.param({"r.json": '{"c": {"phones": ["T", 5], "weights": [0.5, 0.5]}}'}, _RATIOS,
                 "r.json: ratio table unit 'c'", id="ratios-phone-not-a-string"),
    pytest.param({"r.json": '{"c": {"phones": ["T"], "weights": [1%s]}}' % ("0" * 400)},
                 _RATIOS, "r.json: ratio table unit 'c'", id="ratios-weight-integer-too-large"),
    pytest.param({"m.json": _record_doc().replace('"u"', '"u\\ud800"', 1)}, _ADAPT_M,
                 "m.json: invalid JSON", id="adapt-utt-id-lone-surrogate"),
    pytest.param({"src.json": _SOURCES, "tgt.json": _TARGETS.replace('"t1"', '"\\udce9"')},
                 _PLAN, "tgt.json: invalid JSON", id="plan-svc-singer-lone-surrogate"),
    pytest.param({"m.json": _PSEUDO_MANIFEST.replace('"clip"', '"a\\u0000b"')},
                 ["pseudo", "--manifest", "m.json", "--output-dir", "out"],
                 "m.json", id="pseudo-utt-id-nul"),
])
def test_input_error_names_its_file(tmp_path, files, argv, name):
    stderr = _run_main(tmp_path, files, argv)
    errors = [line for line in stderr.splitlines() if line.startswith("ERROR ")]
    assert len(errors) == 1 and errors[0].startswith(f"ERROR {name}: "), stderr


@pytest.mark.parametrize("files, argv, message", [
    pytest.param({"m.json": _PSEUDO_MANIFEST, "b.json": _BANK.replace(
        "]]}", ']]}, {"id": "low", "steps": [[62, 1]]}, {"id": "c", "steps": [[200, 1]]}')},
                 _PSEUDO_BANK, "b.json: duplicate melody id 'low'", id="melody-id-repeated"),
    pytest.param({"m.json": _PSEUDO_MANIFEST,
                  "b.json": _BANK.replace("[[60, 1]]", "[[60, 1e308], [72, 1e308]]")},
                 _PSEUDO_BANK, "b.json: melody 'low': step lengths must have a finite sum",
                 id="melody-step-lengths-sum-overflows"),
    pytest.param({"s.json": '[{"lyric": "zzyzx", "note": 60, "dur": 0.5}, '
                            '{"lyric": "cat", "dur": 0.5}]'}, _SCORE,
                 "s.json: event 0: out-of-vocabulary English token: 'zzyzx'",
                 id="score-bad-event-before-an-absent-note"),
    pytest.param({"s.json": '[{"lyric": "sp", "note": 0, "dur": 0.5}, '
                            '{"note": 62, "dur": 0.5, "slur": true}]'}, _SCORE,
                 "s.json: event 1: slur with no antecedent lyric", id="slur-after-a-rest"),
    pytest.param({"src.json": _SOURCES.replace(', "voice_part": "Bass"', ""),
                  "tgt.json": _TARGETS},
                 _PLAN, "src.json: entry 0: voice part must be a string, got None",
                 id="plan-svc-source-voice-part-absent"),
    pytest.param({"m.json": '[{"utt_id": "../x", "audio": "a.wav", "textgrid": "t"}, '
                            '{"utt_id": "b"}]'}, ["pseudo", "--manifest", "m.json", "--output-dir", "out"],
                 "m.json: utt_id '../x' is not a plain file name",
                 id="pseudo-bad-utt-id-before-an-absent-audio"),
    pytest.param({"m.json": '[{"utt_id": "a", "audio": "a.wav", "textgrid": "t"}, {"audio": "b"}]'},
                 ["pseudo", "--manifest", "m.json", "--output-dir", "out"],
                 "m.json: entry 1: utt_id must be a nonempty string, got None",
                 id="pseudo-absent-utt-id"),
    pytest.param({"ref.json": '[{"utt_id": "a", "audio": "a.wav"}, {"utt_id": "a"}]',
                  "hyp.json": '[{"audio": "a.wav"}]'}, _EVAL,
                 "ref.json: duplicate utt_id 'a'", id="eval-duplicate-before-an-absent-audio"),
])
def test_first_bad_entry_reported(tmp_path, files, argv, message):
    stderr = _run_main(tmp_path, files, argv)
    assert [line for line in stderr.splitlines() if line.startswith("ERROR ")] \
        == [f"ERROR {message}"], stderr


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


# -- command-line paths that are not UTF-8 -------------------------------------

def _path_options() -> list[tuple[str, str]]:
    """(command, option) for every option that takes a file or directory."""
    commands = next(a for a in build_parser()._actions if a.choices and a.dest == "command")
    return [(name, action.option_strings[0]) for name, sub in commands.choices.items()
            for action in sub._actions if action.metavar in ("FILE", "DIR")]


def _run_bytes_argv(cwd, argv) -> subprocess.CompletedProcess:
    """The CLI in a child process; argv items may be bytes, as a shell passes them."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from singprep.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def _write_bytes_named(directory, name: bytes, data: bytes) -> bytes:
    with open(os.path.join(os.fsencode(directory), name), "wb") as fh:
        fh.write(data)
    return name


@pytest.mark.parametrize("command, option", _path_options())
def test_path_that_is_not_utf8_is_a_usage_error_naming_the_option(command, option, capsys):
    assert len(_path_options()) == 23  # --config on each of the six commands, and 17 more
    with pytest.raises(SystemExit) as exc:
        main([command, option, "h\udce9.json"])
    assert exc.value.code == 2
    assert f"argument {option}: not a UTF-8 path: 'h\\udce9.json'" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", _path_options())
def test_empty_path_is_a_usage_error_naming_the_option(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, option, ""])
    assert exc.value.code == 2
    assert f"argument {option}: empty path" in capsys.readouterr().err


def test_empty_output_path_exits_2_before_reading_or_writing(tmp_path, monkeypatch):
    inner = tmp_path / "inner"
    inner.mkdir()
    write_json(inner / "score.json", {"events": [{"lyric": "fan", "note": 60, "dur": 0.5}]})
    monkeypatch.chdir(inner)
    with pytest.raises(SystemExit) as exc:
        main(["transcode", "--score", "score.json", "--output", ""])
    assert exc.value.code == 2
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "inner", "inner/score.json"]


def test_eval_hyp_path_that_is_not_utf8_exits_2_and_writes_nothing(tmp_path):
    wav, _ = write_clip_files(tmp_path, utt_id="clip")
    write_json(tmp_path / "ref.json", {"utterances": [{"utt_id": "clip", "audio": str(wav)}]})
    # its bad text field would put an error naming the manifest into the report
    hyp = _write_bytes_named(tmp_path, b"h\xe9.json", json.dumps({"utterances": [
        {"utt_id": "clip", "audio": str(wav), "text": 5}]}).encode())
    proc = _run_bytes_argv(tmp_path, ["eval", "--ref", "ref.json", "--hyp", hyp,
                                      "--output", "r.json"])
    assert proc.returncode == 2, proc.stderr
    assert "argument --hyp: not a UTF-8 path" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r.json").exists()


def test_pseudo_melody_bank_path_that_is_not_utf8_exits_2_and_writes_nothing(
        speech_manifest):
    manifest, tmp_path = speech_manifest
    bank = _write_bytes_named(tmp_path, b"m\xe9.json",
                              (SRC / "singprep" / "data" / "melodies.json").read_bytes())
    proc = _run_bytes_argv(tmp_path, ["pseudo", "--manifest", manifest, "--melody-bank", bank,
                                      "--output-dir", "out"])
    assert proc.returncode == 2, proc.stderr
    assert "argument --melody-bank: not a UTF-8 path" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
