"""Re-record the benchmark's reference files from the current checkout.

    python3 bench/record.py

Writes ``bench/fingerprints.json`` (corpus fingerprints for seeds 0-31 of
every corpus kind) and ``bench/eval_reference.json`` (the metric values of
the fixed ``anchor`` pair). Run it only when the generator changes on
purpose; the benchmark compares every run against these files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # first: it pins the thread variables and sets the import path

import corpus  # noqa: E402

RECORDED_SEEDS = range(32)


def main() -> int:
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        cache = Path(tmp)
        fingerprints = {"__doc__": "sha256 fingerprints of the generated corpora, by kind and "
                        "seed, recorded by bench/record.py; a listed seed whose corpus hashes "
                        "differently fails the run instead of being compared."}
        for kind in corpus.KINDS:
            fingerprints[kind] = {
                str(seed): corpus.load_or_build(kind, seed, run.ROOT, cache, keep=2)["fingerprint"]
                for seed in RECORDED_SEEDS}
        (run.BENCH / "fingerprints.json").write_text(
            json.dumps(fingerprints, indent=1) + "\n", encoding="utf-8")

        info = corpus.load_or_build("eval", 0, run.ROOT, cache)
        cdir = Path(info["dir"])
        report = cache / "report.json"
        subprocess.run([sys.executable, "-c", run.CLI_BOOT, "eval", "--ref", "ref.json",
                        "--hyp", "hyp.json", "--output", str(report)],
                       cwd=cdir, env=run.child_env(), check=True, stderr=subprocess.DEVNULL)
        anchor = json.loads(report.read_text(encoding="utf-8"))["per_utterance"]["anchor"]
        shutil.rmtree(cdir)
    reference = {
        "__doc__": "Metric values of the fixed 'anchor' pair (the same inputs for every seed), "
                   "recorded by bench/record.py. eval_long fails the pair when any value "
                   "differs by more than tolerance.",
        "tolerance": 1e-06,
        "values": {"anchor": anchor},
    }
    (run.BENCH / "eval_reference.json").write_text(
        json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
