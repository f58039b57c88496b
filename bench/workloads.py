"""The benchmark's workloads: which CLI commands each runs, and the checks
that its outputs are correct.

A workload is a sequence of stages. A stage names a corpus kind (see
corpus.py), the CLI argument lists it runs in order from that corpus's
directory, the ``--workers`` value it runs them with, and a check that maps
each item (utterance, pair or record) to a failure reason, or to nothing when
it passed. Each stage writes into its own output directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from singprep.annotation import validate_document
from singprep.errors import ValidationError

EVAL_REFERENCE = Path(__file__).with_name("eval_reference.json")
METRIC_RANGES = {
    "mcd_db": (0.0, math.inf), "f0_rmse": (0.0, math.inf), "vuv_e": (0.0, 1.0),
    "semitone_accuracy": (0.0, 1.0), "wer": (0.0, 1.0), "sim": (-1.0, 1.0),
}
WER_TOL = 1e-12  # the expected WER is an exact ratio of small integers
SIM_TOL = 1e-9  # embeddings round-trip exactly through repr(); only dot-product order differs
CONSERVATION_TOL = 1e-9  # |sum(ph_dur) after - before| per adapted record


@dataclass(frozen=True)
class Stage:
    kind: str
    commands: Callable[[Path, Path, int], list[list[str]]]
    check: Callable[[dict, Path], dict[str, str]]
    workers: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[Stage, ...]

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(stage.kind for stage in self.stages)

    @property
    def pooled(self) -> bool:
        return any(stage.workers > 1 for stage in self.stages)


# -- pseudo ---------------------------------------------------------------------

def _pseudo_commands(corpus: Path, out: Path, workers: int) -> list[list[str]]:
    return [["pseudo", "--manifest", str(corpus / "manifest.json"),
             "--output-dir", str(out), "--workers", str(workers)]]


def pseudo_digests(out: Path) -> dict[str, str]:
    """Per utterance: sha256 of its WAV, its annotation and its summary entry."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    digests = {}
    for utt_id, entry in summary["utterances"].items():
        h = hashlib.sha256(json.dumps(entry, sort_keys=True).encode())
        for suffix in (".wav", ".json"):
            path = out / f"{utt_id}{suffix}"
            if path.exists():
                h.update(path.read_bytes())
        digests[utt_id] = h.hexdigest()
    return digests


def _check_pseudo(corpus: dict, out: Path) -> dict[str, str]:
    failures = {}
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    for utt_id in corpus["items"]:
        entry = summary["utterances"].get(utt_id)
        if entry is None or entry.get("status") != "ok":
            failures[utt_id] = f"summary status {entry!r}"
            continue
        if (out / f"{utt_id}.wav").stat().st_size <= 44:
            failures[utt_id] = "empty WAV"
            continue
        doc = json.loads((out / f"{utt_id}.json").read_text(encoding="utf-8"))
        try:
            validate_document(doc)
        except ValidationError as exc:
            failures[utt_id] = f"invalid record: {exc.failures[:3]}"
            continue
        if set(doc["style"]) != {2}:
            failures[utt_id] = f"style tokens {sorted(set(doc['style']))}, expected 2"
    return failures


# -- eval -----------------------------------------------------------------------------

def _eval_commands(corpus: Path, out: Path, workers: int) -> list[list[str]]:
    return [["eval", "--ref", str(corpus / "ref.json"), "--hyp", str(corpus / "hyp.json"),
             "--output", str(out / "report.json"), "--workers", str(workers)]]


def _check_eval(corpus: dict, out: Path) -> dict[str, str]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))["per_utterance"]
    expected = json.loads((Path(corpus["dir"]) / "expected.json").read_text(encoding="utf-8"))
    reference = json.loads(EVAL_REFERENCE.read_text(encoding="utf-8"))
    failures = {}
    for utt_id in corpus["items"]:
        values = report.get(utt_id)
        if values is None:
            failures[utt_id] = "missing from the report"
            continue
        bad = [f"{name}={values.get(name)!r}" for name, (lo, hi) in METRIC_RANGES.items()
               if not (isinstance(values.get(name), float) and math.isfinite(values[name])
                       and lo <= values[name] <= hi)]
        if bad:
            failures[utt_id] = "not finite or out of range: " + ", ".join(bad)
        elif abs(values["wer"] - expected[utt_id]["wer"]) > WER_TOL:
            failures[utt_id] = f"wer {values['wer']} != {expected[utt_id]['wer']}"
        elif abs(values["sim"] - expected[utt_id]["sim"]) > SIM_TOL:
            failures[utt_id] = f"sim {values['sim']} != {expected[utt_id]['sim']}"
        elif utt_id in reference["values"]:
            tol = reference["tolerance"]
            off = [name for name, ref in reference["values"][utt_id].items()
                   if abs(values[name] - ref) > tol]
            if off:
                failures[utt_id] = f"differs from the recorded reference by > {tol}: {off}"
    return failures


# -- annotation ----------------------------------------------------------------------

def _annotate_commands(corpus: Path, out: Path, workers: int) -> list[list[str]]:
    common = ["--workers", str(workers)]
    return [
        ["g2p", "--input", str(corpus / "lyrics.txt"), "--output", str(out / "g2p.txt"), *common],
        ["transcode", "--score", str(corpus / "score.json"),
         "--output", str(out / "sequence.json"), *common],
        ["adapt", "--input", str(corpus / "annotations.json"), "--strategy", "proportional",
         "--alignment-dir", str(corpus / "align"), "--output", str(out / "adapted.json"), *common],
    ]


def _check_annotate(corpus: dict, out: Path) -> dict[str, str]:
    failures = {}
    lines = (out / "g2p.txt").read_text(encoding="utf-8").splitlines()
    if len(lines) != 2:
        failures["lyrics"] = f"{len(lines)} output lines, expected 2"
    else:
        phones, langs = lines[0].split(), lines[1].split()
        if len(phones) != corpus["g2p_phonemes"] or len(langs) != len(phones) \
                or set(langs) - {"0", "1"}:
            failures["lyrics"] = f"{len(phones)} phonemes / {len(langs)} tokens, " \
                                 f"expected {corpus['g2p_phonemes']}"

    seq = json.loads((out / "sequence.json").read_text(encoding="utf-8"))
    lengths = {len(seq[k]) for k in ("phonemes", "language_tokens", "note_midi", "note_dur")}
    if lengths != {corpus["score_phonemes"]}:
        failures["score"] = f"sequence lengths {sorted(lengths)}, " \
                            f"expected {corpus['score_phonemes']}"

    source = json.loads((Path(corpus["dir"]) / "annotations.json").read_text(encoding="utf-8"))
    before = {r["utt_id"]: r for r in source["records"]}
    adapted = json.loads((out / "adapted.json").read_text(encoding="utf-8"))["records"]
    after = {r.get("utt_id"): r for r in adapted}
    for utt_id, src in before.items():
        doc = after.get(utt_id)
        if doc is None:
            failures[utt_id] = "missing from the adapted manifest"
            continue
        try:
            validate_document(doc)
        except ValidationError as exc:
            failures[utt_id] = f"invalid record: {exc.failures[:3]}"
            continue
        drift = abs(sum(doc["ph_dur"]) - sum(src["ph_dur"]))
        if drift > CONSERVATION_TOL:
            failures[utt_id] = f"duration drift {drift:.3e} s"
        elif set(doc["style"]) != set(src["style"]):
            failures[utt_id] = f"style tokens {sorted(set(doc['style']))} changed"
    if len(adapted) != len(before):
        failures["manifest"] = f"{len(adapted)} records out, {len(before)} in"
    return failures


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("prep_corpus",
                 "pseudo --workers 2 on four 2-20 s clips, then g2p, transcode and adapt on 250 "
                 "records: vocoder, process pool, TextGrid and JSON, no DTW",
                 (Stage("speech", _pseudo_commands, _check_pseudo, workers=2),
                  Stage("annotation", _annotate_commands, _check_annotate))),
        Workload("eval_long",
                 "eval on 5-20 s ref/hyp pairs of unequal length: quadratic DTW dominates",
                 (Stage("eval", _eval_commands, _check_eval),)),
    )
}
