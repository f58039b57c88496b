"""Golden outputs: each command's output on small seeded inputs, pinned across
commits.

Every case runs one command through cli.main in this process, on inputs built
here with the tests/helpers.py generators. It compares the exit code, the
sha256 of stdout and the sha256 of every file the command writes. eval is
compared by value instead: its --table text exactly, and each number in its
report within 1e-12, because BLAS and FFT reorderings move those values in the
last digits.

A change that alters an output on purpose re-records tests/golden.json with

    PYTHONPATH=src python tests/test_golden.py

Before it rewrites the file, that command prints a `changed:` line for each
place where the new run differs from the recorded one: an exit code, a digest
or a report value. The change lists each of them, with its reason, in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import fricative, silence, sine, speech_clip, voiced_segment  # noqa: E402

from singprep.cli import main  # noqa: E402
from singprep.dsp.audio import Waveform, write_wav  # noqa: E402
from singprep.textgrid import AlignmentTier, Interval, write_textgrid  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")

CASES = {
    "g2p": ["g2p", "--input", "{in}/lyrics.txt"],
    "transcode": ["transcode", "--score", "{in}/score.json", "--output", "{out}/phones.json"],
    "adapt_average": ["adapt", "--input", "{in}/annotations.json", "--strategy", "average",
                      "--output", "{out}/adapted.json"],
    "adapt_alignment_dir": ["adapt", "--input", "{in}/annotations.json",
                            "--strategy", "proportional", "--alignment-dir", "{in}/align",
                            "--output", "{out}/adapted.json"],
    "adapt_ratios": ["adapt", "--input", "{in}/annotations.json", "--strategy", "proportional",
                     "--ratios", "{in}/ratios.json"],
    "plan_svc": ["plan-svc", "--sources", "{in}/sources.json", "--targets", "{in}/targets.json"],
    "pseudo": ["pseudo", "--manifest", "{in}/speech.json", "--output-dir", "{out}",
               "--workers", "1", "--seed", "7"],
    "eval": ["eval", "--ref", "{in}/ref.json", "--hyp", "{in}/hyp.json",
             "--output", "{out}/report.json", "--table"],
}


def _write_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, ensure_ascii=False, indent=1), encoding="utf-8")


def _tiers(intervals, name: str) -> AlignmentTier:
    """A tier of (label, seconds) pairs laid end to end from 0."""
    out, t = [], 0.0
    for label, d in intervals:
        out.append(Interval(round(t, 6), round(t + d, 6), label))
        t += d
    return AlignmentTier(name, out)


def _relabel(tier: AlignmentTier, labels) -> AlignmentTier:
    return AlignmentTier(tier.name, [Interval(iv.start, iv.end, label)
                                     for iv, label in zip(tier.intervals, labels)])


def _text_inputs(d: Path) -> None:
    lyrics = "我和你 from one world,\n让我们 sing a song!\n\n温暖 hello\n"
    (d / "lyrics.txt").write_text(lyrics, encoding="utf-8")
    _write_json({"events": [
        {"lyric": "我", "note": 60, "dur": 0.5},
        {"lyric": "", "note": 62, "dur": 0.25, "slur": True},
        {"lyric": "sp", "note": 0, "dur": 0.3},
        {"lyric": "hao", "note": 64, "dur": 0.4, "lang": "cn"},
        {"lyric": "song", "note": 65, "dur": 0.6},
        {"lyric": "world", "note": 67, "dur": 0.45, "lang": "en"},
        {"lyric": "", "note": 65, "dur": 0.3, "slur": True},
    ]}, d / "score.json")
    _write_json({"sources": [
        {"utt_id": "u1", "audio": "wav/u1.wav", "voice_part": "Tenor"},
        {"utt_id": "u2", "audio": "wav/u2.wav", "voice_part": "soprano"},
        {"utt_id": "u3", "audio": "wav/u3.wav", "voice_part": "Alto"},
    ]}, d / "sources.json")
    _write_json({"targets": [
        {"singer": "s1", "voice_part": "Bass"},
        {"singer": "s2", "voice_part": "Soprano"},
        {"singer": "s3", "voice_part": "Tenor"},
    ]}, d / "targets.json")


def _record(utt_id, rows, part):
    """An annotation record of (unit, is_slur, ph_dur, note, note_dur) rows."""
    phs, slur, ph_dur, notes, notes_dur = (list(column) for column in zip(*rows))
    return {"utt_id": utt_id, "audio": f"wav/{utt_id}.wav", "singer": "s01",
            "voice_part": part, "phs": phs, "is_slur": slur, "ph_dur": ph_dur,
            "notes": notes, "notes_dur": notes_dur,
            "lang": [1] * len(phs), "style": [1] * len(phs)}


def _adapt_inputs(d: Path) -> None:
    """Pinyin-unit records, and phone tiers whose labels include silence
    markers (sil, sp, an empty label, upper case) and stress digits in either
    case; rec3's tier does not match its units and rec4 has none."""
    _write_json({"records": [
        _record("rec1", [("SP", 0, 0.2, 0, 0.2), ("n", 0, 0.08, 60, 0.38),
                         ("i", 0, 0.3, 60, 0.38), ("h", 0, 0.06, 62, 0.41),
                         ("ao", 0, 0.35, 62, 0.41), ("ao", 1, 0.25, 64, 0.25),
                         ("sh", 0, 0.07, 65, 0.47), ("ang", 0, 0.4, 65, 0.47)], "Tenor"),
        _record("rec2", [("c", 0, 0.09, 57, 0.5), ("uen", 0, 0.41, 57, 0.5),
                         ("x", 0, 0.1, 59, 0.45), ("ie", 0, 0.35, 59, 0.45),
                         ("zh", 0, 0.05, 60, 0.6), ("ong", 0, 0.55, 60, 0.6),
                         ("ong", 1, 0.3, 62, 0.3)], "Alto"),
        _record("rec3", [("l", 0, 0.07, 55, 0.4), ("e", 0, 0.33, 55, 0.4),
                         ("w", 0, 0.05, 57, 0.5), ("o", 0, 0.45, 57, 0.5)], "Bass"),
        _record("rec4", [("sh", 0, 0.1, 64, 0.5), ("ang", 0, 0.4, 64, 0.5)], "Soprano"),
    ]}, d / "annotations.json")
    align = d / "align"
    align.mkdir()
    write_textgrid([
        _tiers([("", 0.2), ("ni", 0.38), ("hao", 0.66), ("shang", 0.47)], "words"),
        _tiers([("sil", 0.2), ("N", 0.05), ("IY1", 0.33), ("", 0.02), ("hh", 0.07),
                ("AW2", 0.5), ("sp", 0.09), ("SH", 0.06), ("ae1", 0.21), ("NG", 0.19),
                ("SIL", 0.1)], "phones"),
    ], align / "rec1.TextGrid")
    write_textgrid([_tiers([
        ("T", 0.04), ("S", 0.06), ("UW1", 0.1), ("AH0", 0.2), ("N", 0.11), ("SP", 0.05),
        ("SH", 0.1), ("IY2", 0.15), ("EH1", 0.2), ("JH", 0.05), ("UH1", 0.5),
        ("NG", 0.25), ("sil", 0.2)], "Phones")], align / "rec2.TextGrid")
    write_textgrid([_tiers([("L", 0.07), ("ER0", 0.33), ("W", 0.05), ("AA1", 0.45)],
                           "phones")], align / "rec3.TextGrid")
    _write_json({
        "ang": {"phones": ["AE", "NG"], "weights": [0.7, 0.3]},
        "uen": {"phones": ["UW", "AH", "N"], "weights": [0.2, 0.5, 0.3]},
        "ie": {"phones": ["IY", "EH"], "weights": [0.4, 0.6]},
    }, d / "ratios.json")


def _speech_inputs(d: Path) -> None:
    """The helpers' clip three times: as written, relabelled with silence
    markers, case and stress digits, and with a phone no inventory holds."""
    wave, words, phones = speech_clip()
    write_wav(wave, d / "clip.wav")
    write_textgrid([words, phones], d / "clip.TextGrid")
    write_textgrid([
        _relabel(words, ["sil", "song", "sp", "FAN", "SIL"]),
        _relabel(phones, ["sil", "s", "AO1", "ng", "sp", "F", "ae2", "N0", "SIL"]),
    ], d / "marked.TextGrid")
    write_textgrid([words, _relabel(phones, ["", "S", "QQ", "NG", "", "F", "AE", "N", ""])],
                   d / "bad.TextGrid")
    _write_json({"utterances": [
        {"utt_id": "clip", "audio": str(d / "clip.wav"), "textgrid": str(d / "clip.TextGrid"),
         "singer": "s01"},
        {"utt_id": "marked", "audio": str(d / "clip.wav"),
         "textgrid": str(d / "marked.TextGrid")},
        {"utt_id": "bad", "audio": str(d / "clip.wav"), "textgrid": str(d / "bad.TextGrid")},
    ]}, d / "speech.json")


def _eval_inputs(d: Path) -> None:
    """Two pairs of unequal length; one hypothesis at 22.05 kHz."""
    wave, _, _ = speech_clip()
    write_wav(wave, d / "ref_a.wav")
    sr = 22050
    hyp = np.concatenate([
        silence(0.1, sr), fricative(0.12, [(5000, 2400)], sr, seed=21),
        0.8 * voiced_segment(0.45, 140.0, 150.0, [(610, 90), (880, 120), (2600, 180)], sr, 22),
        0.5 * voiced_segment(0.12, 150.0, 142.0, [(280, 70), (2300, 250)], sr, 23),
        silence(0.1, sr), fricative(0.14, [(4300, 3000)], sr, seed=24),
        0.8 * voiced_segment(0.35, 170.0, 155.0, [(780, 110), (1700, 160), (2500, 200)], sr, 25),
        silence(0.12, sr),
    ])
    write_wav(Waveform(hyp, sr), d / "hyp_a.wav")
    write_wav(sine(220.0, 0.8), d / "ref_b.wav")
    write_wav(sine(233.0, 0.9, amp=0.4), d / "hyp_b.wav")
    rng = np.random.default_rng(5)
    ref_emb = rng.standard_normal(16)
    for name, vec in (("ref", ref_emb), ("hyp", ref_emb + 0.3 * rng.standard_normal(16))):
        (d / f"{name}_a.emb.txt").write_text("".join(f"{float(v)!r}\n" for v in vec),
                                             encoding="utf-8")
    for side, text in (("ref", "song fan 我和你"), ("hyp", "song van 我你")):
        _write_json({"utterances": [
            {"utt_id": "a", "audio": str(d / f"{side}_a.wav"), "text": text,
             "embedding": str(d / f"{side}_a.emb.txt")},
            {"utt_id": "b", "audio": str(d / f"{side}_b.wav")},
        ]}, d / f"{side}.json")


def build_inputs(d: Path) -> Path:
    d.mkdir(parents=True, exist_ok=True)
    for build in (_text_inputs, _adapt_inputs, _speech_inputs, _eval_inputs):
        build(d)
    return d


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, inputs: Path, out: Path) -> dict:
    """The exit code, stdout and written files of one case, in golden.json's shape."""
    out.mkdir(parents=True)
    argv = [arg.format(**{"in": inputs, "out": out}) for arg in CASES[name]]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(argv)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    if name == "eval":
        return {"exit": code, "table": stdout.getvalue(),
                "report": json.loads(files.pop("report.json")), "files": sorted(files)}
    return {"exit": code, "stdout": _sha256(stdout.getvalue().encode("utf-8")),
            "files": {path: _sha256(data) for path, data in files.items()}}


def mismatches(got, want, where: str):
    """Each place, as a path below where, at which got differs from want:
    floats within 1e-12, everything else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            yield where
    elif isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(got) | set(want)):
            if key in got and key in want:
                yield from mismatches(got[key], want[key], f"{where}/{key}")
            else:
                yield f"{where}/{key}"
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from mismatches(g, w, f"{where}[{i}]")
    elif got != want:
        yield where


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return build_inputs(tmp_path_factory.mktemp("golden") / "in")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, inputs, tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = run_case(name, inputs, tmp_path / "out")
    assert list(mismatches(got, want, name)) == []


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        built = build_inputs(root / "in")
        golden = {name: run_case(name, built, root / name) for name in sorted(CASES)}
    for name in sorted(set(golden) | set(recorded)):
        for where in mismatches(golden.get(name), recorded.get(name), name):
            print(f"changed: {where}")
    GOLDEN.write_text(json.dumps(golden, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(golden)} cases in {GOLDEN}")
