"""Each subcommand imports only what it runs.

The text subcommands (g2p, transcode, adapt, plan-svc) start without numpy,
eval starts without the vocoder, transcode, plan-svc and adapt --strategy
average start without the TextGrid parser, and no command loads scipy, which
is only a test dependency. PyYAML is loaded only to read a --config file, and
the process pool only when one starts. Each module imports on its own, since
the package imports none of them. Each check runs in a fresh interpreter, since
this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from singprep.dsp.audio import resample, write_wav
from singprep.textgrid import AlignmentTier, Interval, write_textgrid

from helpers import speech_clip, write_clip_files
from test_cli import cun_manifest, write_json

SRC = Path(__file__).resolve().parents[1] / "src"
# Loaded on use only: a config file, a process pool, per-utterance seeds.
ON_USE = ("yaml", "multiprocessing", "concurrent.futures.process", "hashlib")


def loaded_modules(code: str, cwd: Path, roots=("numpy", "scipy")) -> list[str]:
    """Run code in a fresh interpreter; the modules it loaded under the given roots
    (a root itself or any module inside it)."""
    probe = (code + "\nimport json, sys\n"
             f"roots = {tuple(roots)!r}\n"
             "print(json.dumps(sorted(m for m in sys.modules "
             "if any(m == r or m.startswith(r + '.') for r in roots))))")
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


def test_each_module_imports_alone(tmp_path):
    # singprep's modules are dropped from sys.modules before each import, so
    # each is imported with no other module of the package loaded before it.
    modules = sorted(".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
                     for p in (SRC / "singprep").rglob("*.py"))
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'singprep']:\n"
            "        del sys.modules[loaded]\n"
            "    importlib.import_module(name)\n")
    assert "singprep.dsp.vocoder" in modules and "singprep.cli" in modules
    loaded_modules(code, tmp_path)  # fails unless the child exits 0


def test_cli_import_loads_nothing_on_use_only(tmp_path):
    assert loaded_modules("import singprep.cli", tmp_path, ON_USE) == []


def text_commands(tmp_path) -> list[list[str]]:
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
    return argvs


def test_text_subcommands_load_no_numpy_or_scipy(tmp_path):
    argvs = text_commands(tmp_path)
    assert loaded_modules(run_commands(argvs), tmp_path, ("numpy", "scipy", *ON_USE)) == []
    for name in ("g2p.txt", "seq.json", "avg.json", "prop.json", "jobs.json"):
        assert (tmp_path / name).stat().st_size > 0


def test_transcode_plan_svc_and_average_adapt_load_no_textgrid(tmp_path):
    argvs = [argv for argv in text_commands(tmp_path)
             if argv[0] in ("transcode", "plan-svc") or "average" in argv]
    assert len(argvs) == 3
    assert loaded_modules(run_commands(argvs), tmp_path, ("singprep.textgrid",)) == []


def test_config_file_loads_yaml_and_is_applied(tmp_path):
    argvs = text_commands(tmp_path)
    (tmp_path / "cfg.yaml").write_text("strategy: proportional\n")
    argvs.append(["adapt", "--config", "cfg.yaml", "--input", "in.json",
                  "--alignment-dir", "align", "--output", "cfg.json"])
    loaded = loaded_modules(run_commands(argvs), tmp_path, ("yaml",))
    assert "yaml" in loaded
    assert (tmp_path / "cfg.json").read_bytes() == (tmp_path / "prop.json").read_bytes()
    assert (tmp_path / "cfg.json").read_bytes() != (tmp_path / "avg.json").read_bytes()


def test_dsp_modules_load_numpy_and_no_scipy(tmp_path):
    loaded = loaded_modules("import singprep.pseudo, singprep.metrics", tmp_path)
    assert "numpy" in loaded
    assert not [m for m in loaded if m.startswith("scipy")]


# What eval and the set-up of a command never run: the vocoder, pseudo-singing,
# the annotation, score and TextGrid code, and conversion planning.
NOT_IN_EVAL = ("singprep.dsp.vocoder", "singprep.pseudo", "singprep.annotation",
               "singprep.score", "singprep.textgrid", "singprep.svc")


def test_eval_loads_neither_vocoder_nor_pseudo(tmp_path):
    wav, _ = write_clip_files(tmp_path, utt_id="clip")
    pairs = write_json(tmp_path / "pairs.json", {"utterances": [
        {"utt_id": "clip", "audio": str(wav), "text": "song fan"}]})
    argvs = [["eval", "--ref", pairs, "--hyp", pairs, "--output", "report.json"]]
    loaded = loaded_modules(run_commands(argvs), tmp_path, ("singprep.metrics", *NOT_IN_EVAL))
    assert loaded == ["singprep.metrics"]


def test_cli_loads_the_bundled_tables_without_the_command_modules(tmp_path):
    # what a set-up needs from the CLI module before any command runs
    code = ("import singprep.cli as c\n"
            "assert c.default_lexicon().english_entries and c.load_melody_bank()\n")
    assert loaded_modules(code, tmp_path, ("numpy", *NOT_IN_EVAL)) == []


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
    loaded = loaded_modules(_BLOCK_SCIPY + run_commands(argvs), tmp_path,
                            ("numpy", "scipy", "yaml", "multiprocessing",
                             "concurrent.futures.process"))
    assert "numpy" in loaded
    assert [m for m in loaded if m.split(".")[0] != "numpy"] == []
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["per_utterance"]["clip"]["wer"] == 0.0
    for name in ("clip.wav", "clip.json", "summary.json"):
        assert (tmp_path / "out" / name).stat().st_size > 0

