"""Each subcommand imports only what it runs.

The text subcommands (g2p, transcode, adapt, plan-svc) start without numpy or
scipy, and the DSP modules load scipy.signal only for a real resample. Each
check runs in a fresh interpreter, since this test process has long since
imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from singprep.textgrid import AlignmentTier, Interval, write_textgrid

from helpers import write_clip_files
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


def test_dsp_modules_load_no_scipy_signal(tmp_path):
    loaded = loaded_modules("import singprep.pseudo, singprep.metrics", tmp_path)
    assert "numpy" in loaded and "scipy.fft" in loaded
    assert "scipy.signal" not in loaded


def test_eval_without_resampling_loads_no_scipy_signal(tmp_path):
    wav, _ = write_clip_files(tmp_path, utt_id="clip")  # already at the 24 kHz mcep rate
    ref = write_json(tmp_path / "ref.json", {"utterances": [{"utt_id": "clip", "audio": str(wav)}]})
    argvs = [["eval", "--ref", ref, "--hyp", ref, "--output", "report.json"]]
    assert "scipy.signal" not in loaded_modules(run_commands(argvs), tmp_path)
    assert (tmp_path / "report.json").stat().st_size > 0
