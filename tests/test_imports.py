"""Each subcommand imports only what it runs.

The text subcommands (g2p, transcode, adapt, plan-svc) start without numpy,
and no command loads scipy, which is only a test dependency. Each check runs
in a fresh interpreter, since this test process has long since imported
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from singprep.dsp import resample, write_wav
from singprep.textgrid import AlignmentTier, Interval, write_textgrid

from helpers import speech_clip, write_clip_files
from test_cli import cun_manifest, write_json

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(code: str, cwd: Path) -> list[str]:
    """Run code in a fresh interpreter; the numpy and scipy modules it loaded."""
    probe = (code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'numpy' or m.startswith('scipy'))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_commands(argvs: list[list[str]]) -> str:
    return ("from singprep.cli import main\n"
            f"codes = [main(argv) for argv in {argvs!r}]\n"
            "assert codes == [0] * len(codes), codes")


def test_text_subcommands_load_no_numpy_or_scipy(tmp_path):
    score = write_json(tmp_path / "score.json", {"events": [
        {"lyric": "wo", "lang": "cn", "note": 60, "dur": 0.5},
        {"lyric": "cat", "note": 64, "dur": 0.4},
    ]})
    manifest = cun_manifest(tmp_path / "in.json")
    align = tmp_path / "align"
    align.mkdir()
    write_textgrid([AlignmentTier("phones", [
        Interval(0.0, 0.1, "T"), Interval(0.1, 0.5, "S"), Interval(0.5, 0.7, "UW"),
        Interval(0.7, 0.9, "AH"), Interval(0.9, 1.1, "N"),
    ])], align / "cun.TextGrid")
    sources = write_json(tmp_path / "sources.json", {"sources": [
        {"utt_id": "u1", "audio": "u1.wav", "voice_part": "Bass"}]})
    targets = write_json(tmp_path / "targets.json", {"targets": [
        {"singer": "t1", "voice_part": "Tenor"}]})
    argvs = [
        ["g2p", "我", "和", "你", "from", "one", "world", "--output", "g2p.txt"],
        ["transcode", "--score", score, "--output", "seq.json"],
        ["adapt", "--input", manifest, "--strategy", "average", "--output", "avg.json"],
        ["adapt", "--input", manifest, "--strategy", "proportional",
         "--alignment-dir", str(align), "--output", "prop.json"],
        ["plan-svc", "--sources", sources, "--targets", targets, "--output", "jobs.json"],
    ]
    assert loaded_modules(run_commands(argvs), tmp_path) == []
    for name in ("g2p.txt", "seq.json", "avg.json", "prop.json", "jobs.json"):
        assert (tmp_path / name).stat().st_size > 0


def test_dsp_modules_load_numpy_and_no_scipy(tmp_path):
    loaded = loaded_modules("import singprep.pseudo, singprep.metrics", tmp_path)
    assert "numpy" in loaded
    assert not [m for m in loaded if m.startswith("scipy")]


# A meta-path finder that refuses scipy, as in an environment without it.
_BLOCK_SCIPY = """import sys
class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, _NoScipy())
"""


def test_eval_and_pseudo_run_without_scipy(tmp_path):
    wav, tg = write_clip_files(tmp_path, utt_id="clip")  # 24 kHz, the mcep rate
    write_wav(resample(speech_clip()[0], 22050), tmp_path / "clip22.wav")
    ref = write_json(tmp_path / "ref.json", {"utterances": [
        {"utt_id": "clip", "audio": str(wav), "text": "song fan"}]})
    hyp = write_json(tmp_path / "hyp.json", {"utterances": [
        {"utt_id": "clip", "audio": str(tmp_path / "clip22.wav"), "text": "song fan"}]})
    manifest = write_json(tmp_path / "manifest.json", {"utterances": [
        {"utt_id": "clip", "audio": str(wav), "textgrid": str(tg)}]})
    argvs = [["eval", "--ref", ref, "--hyp", hyp, "--output", "report.json"],
             ["pseudo", "--manifest", manifest, "--output-dir", "out"]]
    loaded = loaded_modules(_BLOCK_SCIPY + run_commands(argvs), tmp_path)
    assert "numpy" in loaded
    assert not [m for m in loaded if m.startswith("scipy")]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["per_utterance"]["clip"]["wer"] == 0.0
    for name in ("clip.wav", "clip.json", "summary.json"):
        assert (tmp_path / "out" / name).stat().st_size > 0
