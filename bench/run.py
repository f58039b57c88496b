"""singprep benchmark: end-to-end cost of the batch CLI, and a traced run for
per-layer numbers.

    python3 bench/run.py --workload eval_long --seed 3 --seconds 50 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced

Run it from the root of a checkout. Each workload builds (or reuses from
``.bench_cache/``) the synthetic corpora its stages use, made from the seed,
then runs its ``singprep`` commands as fresh processes with ``PYTHONPATH=src``
and one BLAS/OpenMP thread, again and again while the next run still fits
mostly within ``--seconds`` and until at least three runs are done. Every
run's outputs are checked; an item that fails a check counts as failed.

End-to-end metrics (``--trace 0``), medians over the runs:

* ``wall_s``: spawn to exit of the workload's CLI process(es);
* ``cpu_s``: user+system CPU of that process tree (pool workers included);
* ``rtf``: ``wall_s`` per second of input material (audio seconds, plus
  annotated seconds for the annotation stage of ``prep_corpus``);
* ``peak_rss_mb``: the largest peak resident set of any process of the run,
  read from that run's own ``wait4`` rusage;
* ``setup_s``: a fresh interpreter importing ``singprep.cli`` and loading the
  bundled lexicon and melody bank; one after every other workload run (and at
  least three), so that the set-ups spread over the whole run like the
  workload runs do.

With ``--trace 1`` the same runs and checks happen, set-up is not timed, and
one traced pass follows (``bench/tracing.py``; always ``--workers 1``) that
reports the per-layer metrics instead.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Machine facts, samples and failures go to the lines above
it and to ``.bench_cache/results/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here, and passed to every child process.
THREAD_VARS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CACHE = ROOT / ".bench_cache"
SRC = ROOT / "src"

sys.path[1:1] = [str(SRC), str(ROOT / "tests")]
try:
    import corpus as corpora
    import tracing
    from workloads import WORKLOADS, pseudo_digests
except ImportError as exc:  # not a singprep checkout: src/ or tests/ is missing
    print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)

# A run measures for at least --seconds and at least this many workload runs,
# so that the median can discard one run slowed by the machine.
MIN_INVOCATIONS = 3
MIN_SETUPS = 3
PROCESS_TIMEOUT_S = 150
# What the installed ``singprep`` console script runs.
CLI_BOOT = "import sys; from singprep.cli import main; sys.exit(main())"
SETUP_PROBE = ("import singprep.cli as c; c.default_lexicon(); c.load_melody_bank(); "
               "print(c.__file__)")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "rtf": "s/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- processes ---------------------------------------------------------------------

@dataclass
class Proc:
    wall: float
    cpu: float
    peak_mb: float
    rc: int


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> Proc:
    """Run one process to exit; wall from spawn to exit, usage from wait4."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (proc,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode)


# -- one workload invocation ----------------------------------------------------------

@dataclass
class Invocation:
    procs: list[Proc]
    items: int
    failures: dict[str, str]
    out: Path
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.procs)

    @property
    def peak_mb(self) -> float:
        return max(p.peak_mb for p in self.procs)


def invoke(wl, corpus: dict[str, dict], out: Path, serial: bool = False,
           trace_dir: Path | None = None, kinds: tuple[str, ...] | None = None) -> Invocation:
    """Run the workload's commands once into a fresh output directory and check them.

    ``serial`` runs every stage with ``--workers 1``; ``kinds`` keeps only the
    stages on those corpus kinds. Each stage runs from its corpus directory.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stages = [st for st in wl.stages if kinds is None or st.kind in kinds]
    procs = []
    for stage in stages:
        cdir = Path(corpus[stage.kind]["dir"])
        (out / stage.kind).mkdir()
        for args in stage.commands(cdir, out / stage.kind, 1 if serial else stage.workers):
            k = len(procs)
            if trace_dir is None:
                argv = [sys.executable, "-c", CLI_BOOT, *args]
            else:
                argv = [sys.executable, str(BENCH / "tracing.py"),
                        str(trace_dir / f"{k}.jsonl"), *args]
            procs.append(spawn(argv, cdir, out.with_name(f"{out.name}.{k}.log")))
    items = [item for st in stages for item in corpus[st.kind]["items"]]
    if any(p.rc != 0 for p in procs):
        codes = [p.rc for p in procs]
        return Invocation(procs, len(items), {item: f"exit codes {codes}" for item in items}, out)
    failures, digests = {}, {}
    try:
        for stage in stages:
            failures.update(stage.check(corpus[stage.kind], out / stage.kind))
            if stage.kind == "speech":
                digests = pseudo_digests(out / stage.kind)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Invocation(procs, len(items), {item: f"check failed: {exc!r}" for item in items},
                          out)
    return Invocation(procs, len(items), failures, out, digests)


def compare_digests(inv: Invocation, reference: dict[str, str] | None, what: str) -> None:
    """Mark utterances whose output differs from the reference as failed."""
    if reference is None:
        return
    for utt_id, digest in inv.digests.items():
        if reference.get(utt_id) != digest:
            inv.failures.setdefault(utt_id, f"output differs from {what}")


# -- machine facts -----------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_VARS,
        "src_lines": src_lines,
    }


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_time(run_dir: Path) -> float:
    """One fresh-interpreter set-up, checked to import this checkout's src/."""
    log = run_dir / "setup.log"
    proc = spawn([sys.executable, "-c", SETUP_PROBE], ROOT, log)
    resolved = log.read_text(encoding="utf-8").strip().splitlines()[-1:] or [""]
    if proc.rc != 0 or not _under_src(resolved[0]):
        raise BenchError(f"set-up probe failed or imported singprep from {resolved[0]!r}; "
                         f"see {log}")
    return proc.wall


# -- a benchmark run ---------------------------------------------------------------------

def trace_pass(wl, corpus: dict[str, dict], seed: int, run_dir: Path, reference,
               problems: list[str]):
    """One traced single-worker run: (its invocation, per-layer metrics, notes).

    The spans of all its processes are merged into one JSON Lines file.
    """
    trace_dir = run_dir / "trace"
    trace_dir.mkdir()
    inv = invoke(wl, corpus, run_dir / "traced", serial=True, trace_dir=trace_dir)
    compare_digests(inv, reference, "the untraced output")
    spans, metas = tracing.read_spans(sorted(trace_dir.glob("*.jsonl")))
    if any(not _under_src(m["singprep"]) for m in metas):
        problems.append("traced run imported singprep from outside src/")
    notes = []
    missing = sorted({name for m in metas for name, n in m["sites"].items() if n == 0})
    if missing:
        notes.append(f"not traced, the functions no longer exist: {missing}")
    trace_file = CACHE / "traces" / f"{wl.name}-{seed}.jsonl"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    notes.append(f"spans: {trace_file}")
    return inv, tracing.layer_metrics(spans, metas), notes


def run_workload(wl, seed: int, seconds: float, traced: bool, untraced_setup: bool) -> dict:
    corpus = {kind: corpora.load_or_build(kind, seed, ROOT, CACHE) for kind in wl.kinds}
    problems = []
    recorded = json.loads((BENCH / "fingerprints.json").read_text(encoding="utf-8"))
    for kind, info in corpus.items():
        expected_fp = recorded.get(kind, {}).get(str(seed))
        if expected_fp is not None and expected_fp != info["fingerprint"]:
            problems.append(f"{kind} corpus for seed {seed} differs from the recorded inputs "
                            f"({info['fingerprint'][:16]} != {expected_fp[:16]})")

    run_dir = CACHE / "runs" / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    speech = corpus.get("speech")
    digest_file = CACHE / "digests" / f"{speech['fingerprint']}.json" if speech else None
    reference = (json.loads(digest_file.read_text(encoding="utf-8"))
                 if digest_file is not None and digest_file.exists() else None)
    checked: list[Invocation] = []
    if speech is not None and reference is None:
        # untimed single-worker pseudo run: the outputs every later run must reproduce
        first = invoke(wl, corpus, run_dir / "reference", serial=True, kinds=("speech",))
        checked.append(first)
        if not first.failures:
            reference = first.digests
            digest_file.parent.mkdir(parents=True, exist_ok=True)
            digest_file.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")

    invocations: list[Invocation] = []
    setup: list[float] = []
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    # Start another run only while at least half of a mean run-plus-set-up fits.
    while (len(invocations) < MIN_INVOCATIONS or time.perf_counter()
           + (time.perf_counter() - loop_start) / len(invocations) / 2 < deadline):
        inv = invoke(wl, corpus, run_dir / f"run{len(invocations)}")
        compare_digests(inv, reference, "the single-worker output")
        if invocations:
            compare_digests(inv, invocations[0].digests, "this run's first output")
        invocations.append(inv)
        shutil.rmtree(inv.out)
        if untraced_setup and len(invocations) % 2 == 1:
            # after a workload run, which has filled the bytecode cache
            setup.append(setup_time(run_dir))
    while untraced_setup and len(setup) < MIN_SETUPS:
        setup.append(setup_time(run_dir))
    checked += invocations

    per_layer, notes = {}, []
    if traced:
        serial = []
        if wl.pooled:
            for n in range(2):
                serial.append(invoke(wl, corpus, run_dir / f"serial{n}", serial=True))
                compare_digests(serial[-1], reference, "the single-worker output")
            checked += serial
        traced_run, per_layer, notes = trace_pass(wl, corpus, seed, run_dir, reference, problems)
        checked.append(traced_run)
        base = serial or invocations
        per_layer["trace.overhead_s"] = traced_run.wall - statistics.median(i.wall for i in base)
        if serial:
            per_layer["cli.pool.overhead_cpu_s"] = (statistics.median(i.cpu for i in invocations)
                                                    - statistics.median(i.cpu for i in serial))

    wall = statistics.median(i.wall for i in invocations)
    material = sum(info["material_s"] for info in corpus.values())
    end_to_end = {
        "wall_s": wall,
        "cpu_s": statistics.median(i.cpu for i in invocations),
        "rtf": wall / material,
        "peak_rss_mb": statistics.median(i.peak_mb for i in invocations),
    }
    if setup:
        end_to_end["setup_s"] = statistics.median(setup)

    failures = [(n, item, why) for n, inv in enumerate(checked)
                for item, why in sorted(inv.failures.items())]
    attempted = sum(inv.items for inv in checked)
    failed = len(failures)
    if problems:
        failed = attempted
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "traced": traced,
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "notes": notes, "failures": failures[:50],
        "corpus": {kind: {k: v for k, v in info.items() if k not in ("files", "items")}
                   | {"items": len(info["items"])} for kind, info in corpus.items()},
        "material_s": material,
        "samples": {"invocations": len(invocations), "setup": len(setup),
                    "single_worker": len(checked) - len(invocations) - int(traced),
                    "traced": int(traced)},
        "raw": {"wall_s": [i.wall for i in invocations], "cpu_s": [i.cpu for i in invocations],
                "peak_rss_mb": [i.peak_mb for i in invocations], "setup_s": setup},
        "end_to_end": end_to_end, "per_layer": per_layer,
    }
    if result["correct"]:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        result["run_dir"] = str(run_dir)
    return result


# -- reporting ------------------------------------------------------------------------

def print_report(result: dict, env: dict) -> None:
    s = result["samples"]
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}  "
          f"traced={int(result['traced'])}")
    for c in result["corpus"].values():
        print(f"   corpus {c['kind']}: {c['items']} items, {c['material_s']:.3f} s of material, "
              f"fingerprint {c['fingerprint'][:16]}, "
              + ("cached" if c["cached"] else f"built in {c['build_s']:.2f} s")
              + (f" ({c['note']})" if c.get("note") else ""))
    print(f"   machine: nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} threads=1 src_lines={env['src_lines']}")
    print(f"   samples: {s['invocations']} timed runs, {s['setup']} set-ups, "
          f"{s['single_worker']} single-worker reference runs, {s['traced']} traced run; "
          f"{result['attempted']} items checked, {result['failed']} failed")
    for name, value in result["end_to_end"].items():
        raw = result["raw"].get(name, [])
        spread = f"  (min {min(raw):.4f}, max {max(raw):.4f}, n={len(raw)})" if raw else ""
        print(f"   {name:<32} {value:>14.6f} {END_TO_END[name]:<6}{spread}")
    units = tracing.metric_units()
    for name, value in result["per_layer"].items():
        print(f"   {name:<48} {value:>16.6f} {units[name]}")
    for note in result["notes"]:
        print(f"   {note}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")
    for n, item, why in result["failures"][:10]:
        print(f"   FAILED run {n} item {item}: {why}")


def check_benchmark_json() -> None:
    """The metric lists in BENCHMARK.json must be the ones this script reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads do not match bench/workloads.py")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        raise BenchError(f"BENCHMARK.json end_to_end {declared} != {END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != tracing.metric_units():
        raise BenchError("BENCHMARK.json per_layer does not match bench/tracing.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import singprep
    if not _under_src(singprep.__file__):
        raise BenchError(f"singprep resolves to {singprep.__file__}, not to {SRC}")
    check_benchmark_json()
    env = environment()

    if args.workload == "all":
        results = [run_workload(wl, args.seed, args.seconds, True, True)
                   for wl in WORKLOADS.values()]
    else:
        results = [run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace), not args.trace)]
    results_dir = CACHE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    metrics = {}
    for result in results:
        print_report(result, env)
        tag = f"{result['workload']}-seed{args.seed}-trace{int(result['traced'])}"
        (results_dir / f"{tag}.json").write_text(
            json.dumps({"environment": env, **result}, indent=1) + "\n", encoding="utf-8")
        prefix = f"{result['workload']}." if args.workload == "all" else ""
        if args.workload == "all" or not args.trace:
            for name, value in result["end_to_end"].items():
                metrics[prefix + name] = {"value": value, "unit": END_TO_END[name]}
        if args.workload == "all" or args.trace:
            units = tracing.metric_units()
            for name, value in result["per_layer"].items():
                metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


def _entry() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return main()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(_entry())
