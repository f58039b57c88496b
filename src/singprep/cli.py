"""Batch command-line interface.

Subcommands: g2p, transcode, adapt, pseudo, plan-svc, eval. Logs go to
stderr; data goes to stdout or to files. Exit codes: 0 success, 1 internal
error, 2 input or validation error (including an unreadable, non-UTF-8 or
directory path).

Each command imports the modules it runs inside its own function:
annotation, score, textgrid and svc in the text commands that use them, and
the numpy modules (dsp, metrics, pseudo) in pseudo and eval. So the text
subcommands start without numpy, and eval without the annotation, score,
TextGrid and planning code; the process pool and hashlib are likewise
imported only where they are used.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .config import STRATEGIES, PipelineConfig, resolve_config
from .errors import InputError, ParseError, ValidationError
from .jsonio import dumps_document, list_entries, read_json, read_text, write_output
from .lexicon import Lexicon, default_lexicon, g2p, segment_lyrics
from .melody import choose_melody, load_melody_bank

if TYPE_CHECKING:  # names for annotations; the commands import what they run
    from .annotation import AnnotationRecord
    from .score import RatioTable

log = logging.getLogger("singprep")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
INPUT_ERRORS = (InputError, OSError, UnicodeDecodeError)  # bad input: exit 2, or one item fails


def derive_seed(seed: int, utt_id: str) -> int:
    """Stable per-utterance seed, independent of processing order."""
    import hashlib

    digest = hashlib.blake2s(f"{seed}:{utt_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _run_item(worker, payload) -> tuple:
    """(worker(payload), '') or, if the payload is bad input, (None, 'Type: message')."""
    try:
        return worker(payload), ""
    except INPUT_ERRORS as exc:  # bad input fails only its payload; bugs still raise
        return None, f"{type(exc).__name__}: {exc}"


def run_batch(worker, payloads, workers: int, size, fail_fast: bool = False) -> list:
    """(payload, result, error) for each payload that ran, in payload order.

    error is '' or, when worker(payload) raised an input error, 'Type: message';
    any other exception propagates. With one worker (or one payload) they run
    in this process, in payload order. Otherwise a pool of at most one process
    per payload runs them, submitted largest size(payload) first so that no
    process is left with a long item at the end. When fail_fast and a payload
    fails, or when a worker raises, payloads not yet started are cancelled;
    failures are tested in the order the payloads were submitted."""
    if workers <= 1 or len(payloads) <= 1:
        outcomes = []
        for payload in payloads:
            outcomes.append((payload, *_run_item(worker, payload)))
            if fail_fast and outcomes[-1][2]:
                break
        return outcomes
    from concurrent.futures import ProcessPoolExecutor

    # a stable sort: payloads of equal size keep their order
    order = sorted(range(len(payloads)), key=lambda i: size(payloads[i]), reverse=True)
    futures = {}
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        for i in order:
            futures[i] = pool.submit(_run_item, worker, payloads[i])
        for future in futures.values():
            if future.exception() is not None or (fail_fast and future.result()[1]):
                pool.shutdown(cancel_futures=True)
                break
    return [(payloads[i], *futures[i].result()) for i in sorted(futures)
            if not futures[i].cancelled()]


def _file_size(path) -> int:
    """Bytes in the file at path: 0 if path is not a string or cannot be stat'ed."""
    if not isinstance(path, str):
        return 0
    try:
        return os.stat(path).st_size
    except (OSError, ValueError):  # ValueError: a path with a NUL byte
        return 0


def _check_strings(entry: dict, keys: tuple[str, ...], path) -> None:
    """InputError naming the manifest and the field if one of keys holds a non-string."""
    for key in keys:
        if key in entry and not isinstance(entry[key], str):
            raise InputError(f"{path}: utterance {entry['utt_id']!r}: {key}: must be a string, "
                             f"got {entry[key]!r}")


def _utterances(path, required: tuple[str, ...], file_names: bool = False) -> dict[str, dict]:
    """The entries of an utterance manifest by utt_id, read in one pass in file
    order. Each utt_id is checked where it is read: a nonempty string, unique
    and, with file_names, a plain file name. An absent required field reads as
    null, so that it fails only its own item, as a null does."""
    by_id: dict[str, dict] = {}
    for i, entry in enumerate(list_entries(read_json(path), "utterances", path)):
        utt_id = entry.get("utt_id")
        if not isinstance(utt_id, str) or not utt_id:
            raise InputError(f"{path}: entry {i}: utt_id must be a nonempty string, "
                             f"got {utt_id!r}")
        if utt_id in by_id:
            raise InputError(f"{path}: duplicate utt_id {utt_id!r}")
        if file_names and (Path(utt_id).name != utt_id or utt_id in (".", "..", "summary")
                           or "\0" in utt_id):
            raise InputError(f"{path}: utt_id {utt_id!r} is not a plain file name")
        for key in required:
            entry.setdefault(key, None)
        by_id[utt_id] = entry
    return by_id


def _tier(tiers, kind: str):
    """The first TextGrid tier whose lower-cased name contains kind, or None."""
    return next((t for t in tiers if kind in t.name.lower()), None)


# -- g2p ----------------------------------------------------------------------

def cmd_g2p(args, cfg: PipelineConfig) -> int:
    if args.input is not None:
        source, text = args.input, read_text(args.input)
    elif args.text:
        source, text = None, " ".join(args.text)
    else:
        source = "<stdin>"
        try:  # bytes where there are any, so that the decoding does not depend on the locale
            text = (sys.stdin.buffer.read().decode("utf-8") if hasattr(sys.stdin, "buffer")
                    else sys.stdin.read())
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source}: {exc}") from None
    lexicon = default_lexicon(cfg.cmu_dict, cfg.pinyin_map, cfg.hanzi_table)
    try:
        seq = g2p(segment_lyrics(text), lexicon)
    except InputError as exc:
        if source is None:
            raise
        raise InputError(f"{source}: {exc}") from None
    body = " ".join(seq.phonemes) + "\n" + " ".join(str(t) for t in seq.language_tokens) + "\n"
    write_output(body, args.output)
    return EXIT_OK


# -- transcode ----------------------------------------------------------------

def cmd_transcode(args, cfg: PipelineConfig) -> int:
    from .score import transform_score

    lexicon = default_lexicon(cfg.cmu_dict, cfg.pinyin_map, cfg.hanzi_table)
    rows = list_entries(read_json(args.score), "events", args.score)
    try:
        result = transform_score(rows, lexicon)
    except InputError as exc:
        raise InputError(f"{args.score}: {exc}") from None
    write_output(dumps_document(result.to_dict()), args.output)
    return EXIT_OK


# -- adapt --------------------------------------------------------------------

def _expected_units(record: AnnotationRecord, lexicon: Lexicon):
    """(unit, expansion) for each event to split, in order; OovError on an unknown unit."""
    from .score import is_rest

    return [(unit, lexicon.expand_unit(unit))
            for unit, note, slur in zip(record.phs, record.notes, record.is_slur)
            if not (slur or is_rest(unit, note))]


def _corpus_ratios(records, alignment_dir, lexicon: Lexicon) -> RatioTable:
    """The mean of the ratios each record's TextGrid yields. Every record's
    units are expanded before any TextGrid is read, so an unknown unit fails
    first; InputError if some record has a unit to split and no ratio is found."""
    from .score import RatioTable, extract_ratios
    from .textgrid import read_textgrid

    expected = [(record.utt_id, _expected_units(record, lexicon)) for record in records]
    tables = []
    for utt_id, units in expected:
        tg_path = Path(alignment_dir) / f"{utt_id}.TextGrid"
        if not tg_path.exists():
            log.warning("no alignment for %s, skipping", utt_id)
            continue
        phone_tier = _tier(read_textgrid(tg_path), "phone")
        if phone_tier is None:
            log.warning("%s: no phone tier", tg_path)
            continue
        tables.append(extract_ratios(phone_tier, units))
    ratios = RatioTable.average(tables)
    if not ratios and any(units for _, units in expected):
        raise InputError(f"{alignment_dir}: no usable alignments found")
    return ratios


def cmd_adapt(args, cfg: PipelineConfig) -> int:
    from .annotation import read_manifest, write_manifest
    from .score import RatioTable, adapt_average, adapt_proportional

    lexicon = default_lexicon(cfg.cmu_dict, cfg.pinyin_map, cfg.hanzi_table)
    records = read_manifest(args.input)
    if not records:
        raise InputError(f"{args.input}: no records to adapt")
    strategy = cfg.strategy
    ratios = None
    if strategy == "proportional":
        if args.ratios is not None:
            ratios = RatioTable.load(args.ratios)
        elif args.alignment_dir is not None:
            ratios = _corpus_ratios(records, args.alignment_dir, lexicon)
        else:
            raise InputError(
                "proportional adaptation needs --ratios or --alignment-dir"
            )
    adapted = []
    for i, record in enumerate(records):
        try:
            if strategy == "average":
                out = adapt_average(record, lexicon)
            else:
                out = adapt_proportional(record, lexicon, ratios)
        except ValidationError as exc:  # a computed duration out of range
            raise ValidationError(f"{args.input}: record {i}: {f}" for f in exc.failures) from None
        before, after = sum(record.ph_dur), sum(out.ph_dur)
        log.info(
            "%s: %d -> %d events, duration %.6f -> %.6f (drift %.3e)",
            record.utt_id, len(record), len(out), before, after, abs(after - before),
        )
        adapted.append(out)
    write_manifest(adapted, args.output)
    if ratios is not None:
        for unit, events in sorted(ratios.misses.items()):
            log.warning("no ratio for unit %r in %d events; split equally", unit, events)
    return EXIT_OK


# -- pseudo -------------------------------------------------------------------

def _find_tiers(tiers, path):
    word, phone = _tier(tiers, "word"), _tier(tiers, "phone")
    if word is None or phone is None:
        names = ", ".join(t.name for t in tiers) or "none"
        raise InputError(f"{path}: need word and phone tiers, found: {names}")
    return word, phone


def _pseudo_worker(payload: tuple) -> str:
    """One utterance rendered and written; returns its melody id."""
    from .annotation import write_annotation
    from .dsp.audio import read_wav, write_wav
    from .pseudo import make_pseudo_singing
    from .textgrid import read_textgrid

    entry, bank, seed, out_dir, manifest = payload
    utt_id = entry["utt_id"]
    _check_strings(entry, ("audio", "textgrid", "singer"), manifest)
    wave = read_wav(entry["audio"])
    word_tier, phone_tier = _find_tiers(read_textgrid(entry["textgrid"]), entry["textgrid"])
    utt_seed = derive_seed(seed, utt_id)
    melody = choose_melody(bank, utt_seed)
    rendered, record = make_pseudo_singing(
        wave, word_tier, phone_tier, melody, utt_seed,
        utt_id=utt_id, audio_path=f"{utt_id}.wav",
        singer_id=entry.get("singer", ""),
    )
    write_wav(rendered, Path(out_dir) / f"{utt_id}.wav")
    write_annotation(record, Path(out_dir) / f"{utt_id}.json")
    return melody.template_id


def cmd_pseudo(args, cfg: PipelineConfig) -> int:
    from . import pseudo  # noqa: F401 - loaded before the pool forks, so workers inherit it

    entries = _utterances(args.manifest, ("audio", "textgrid"), file_names=True).values()
    bank = load_melody_bank(cfg.melody_bank)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = [(e, bank, cfg.seed, str(out_dir), args.manifest) for e in entries]
    audio_size = lambda payload: _file_size(payload[0]["audio"])
    results = run_batch(_pseudo_worker, payloads, cfg.workers, audio_size, not args.keep_going)

    # Keys are built in sorted order, as summary.json has always listed them.
    summary: dict = {
        "melody_bank": cfg.melody_bank if cfg.melody_bank is not None else "builtin",
        "seed": cfg.seed,
        "utterances": {},
    }
    failures = 0
    for utt_id, melody_id, error in sorted((p[0]["utt_id"], m, e) for p, m, e in results):
        if error:
            failures += 1
            log.error("%s: %s", utt_id, error)
            summary["utterances"][utt_id] = {"error": error, "status": "error"}
        else:
            log.info("%s: melody %s", utt_id, melody_id)
            summary["utterances"][utt_id] = {"melody": melody_id, "status": "ok"}
    write_output(dumps_document(summary), out_dir / "summary.json")
    if failures:
        log.error("%d of %d utterances failed", failures, len(results))
        return EXIT_INPUT
    return EXIT_OK


# -- plan-svc -----------------------------------------------------------------

def cmd_plan_svc(args, cfg: PipelineConfig) -> int:
    from .annotation import normalize_voice_part
    from .svc import build_job_manifest

    src_entries = list_entries(read_json(args.sources), "sources", args.sources)
    tgt_entries = list_entries(read_json(args.targets), "targets", args.targets)
    for path, entries, keys in ((args.sources, src_entries, ("utt_id", "audio")),
                                (args.targets, tgt_entries, ("singer",))):
        for i, entry in enumerate(entries):
            for key in keys:
                value = entry.get(key)
                if not isinstance(value, str) or not value:
                    raise InputError(f"{path}: entry {i}: {key} must be a nonempty string, "
                                     f"got {value!r}")
            try:
                entry["voice_part"] = normalize_voice_part(entry.get("voice_part"))
            except ValidationError as exc:
                raise ValidationError(f"{path}: entry {i}: {f}" for f in exc.failures) from None
    jobs = build_job_manifest(src_entries, tgt_entries)
    log.info("%d sources x %d targets -> %d jobs", len(src_entries), len(tgt_entries), len(jobs))
    write_output(dumps_document({"jobs": jobs}), args.output)
    return EXIT_OK


# -- eval ---------------------------------------------------------------------

def _eval_worker(payload: tuple) -> dict:
    """The metrics of one pair. Inputs that cannot be scored (embeddings of
    different shapes, a zero vector) are input errors, as unreadable files are."""
    from .dsp.audio import read_wav
    from .metrics import evaluate_pair, read_embedding, tokenize_transcript

    utt_id, ref_entry, hyp_entry, ref_path, hyp_path = payload
    _check_strings(ref_entry, ("audio", "text", "embedding"), ref_path)
    _check_strings(hyp_entry, ("audio", "text", "embedding"), hyp_path)
    ref = read_wav(ref_entry["audio"])
    hyp = read_wav(hyp_entry["audio"])
    ref_tokens = hyp_tokens = None
    if "text" in ref_entry and "text" in hyp_entry:
        ref_tokens = tokenize_transcript(ref_entry["text"])
        hyp_tokens = tokenize_transcript(hyp_entry["text"])
    ref_emb = hyp_emb = None
    if "embedding" in ref_entry and "embedding" in hyp_entry:
        ref_emb = read_embedding(ref_entry["embedding"])
        hyp_emb = read_embedding(hyp_entry["embedding"])
    return evaluate_pair(ref, hyp, ref_tokens, hyp_tokens, ref_emb, hyp_emb)


def cmd_eval(args, cfg: PipelineConfig) -> int:
    from .metrics import EvalReport

    refs = _utterances(args.ref, ("audio",))
    hyps = _utterances(args.hyp, ("audio",))
    if set(refs) != set(hyps):
        only_ref = sorted(set(refs) - set(hyps))
        only_hyp = sorted(set(hyps) - set(refs))
        raise InputError(
            f"manifest mismatch; only in ref: {only_ref}; only in hyp: {only_hyp}"
        )
    payloads = [(u, refs[u], hyps[u], args.ref, args.hyp) for u in sorted(refs)]
    report = EvalReport()
    pair_size = lambda payload: _file_size(payload[1]["audio"]) + _file_size(payload[2]["audio"])
    for (utt_id, *_), values, error in run_batch(_eval_worker, payloads, cfg.workers, pair_size):
        if not error:
            try:
                report.add(utt_id, values)
            except InputError as exc:  # a metric outside its range
                error = f"{type(exc).__name__}: {exc}"
        if error:
            log.error("%s: %s", utt_id, error)
            report.failures[utt_id] = error
    if args.output not in (None, "-") or not args.table:  # the table replaces stdout's JSON
        write_output(dumps_document(report.to_document()), args.output)
    if args.table:
        write_output(report.table(), None)
    if report.failures:
        log.error("%d of %d pairs failed", len(report.failures), len(payloads))
        return EXIT_INPUT
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def _path(value: str) -> str:
    """The type of every path option: a nonempty path that UTF-8 logs, reports
    and manifests can hold. A command-line path that is not UTF-8 reaches
    Python with surrogate escapes, which no UTF-8 writer can encode."""
    if not value:
        raise argparse.ArgumentTypeError("empty path")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"not a UTF-8 path: {value!r}") from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singprep",
        description="Bilingual singing-voice data preparation and evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=_path, metavar="FILE", help="YAML config file")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--workers", type=int, help="parallel worker count")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("g2p", parents=[common], help="lyrics to phoneme and language-token lines")
    lyrics = p.add_mutually_exclusive_group()
    lyrics.add_argument("text", nargs="*", default=[], help="lyric text (default: stdin)")
    lyrics.add_argument("--input", type=_path, metavar="FILE", help="read lyrics from a file")
    p.add_argument("--output", type=_path, metavar="FILE",
                   help="write the two lines here instead of stdout")
    p.set_defaults(func=cmd_g2p)

    p = sub.add_parser("transcode", parents=[common], help="score events to phoneme-level sequences")
    p.add_argument("--score", required=True, type=_path, metavar="FILE",
                   help="score JSON (events list)")
    p.add_argument("--output", type=_path, metavar="FILE")
    p.set_defaults(func=cmd_transcode)

    p = sub.add_parser("adapt", parents=[common], help="rewrite annotation to phoneme granularity")
    p.add_argument("--input", required=True, type=_path, metavar="FILE",
                   help="annotation manifest JSON")
    p.add_argument("--strategy", choices=STRATEGIES, help="duration split strategy")
    ratios = p.add_mutually_exclusive_group()
    ratios.add_argument("--ratios", type=_path, metavar="FILE", help="saved duration-ratio table")
    ratios.add_argument("--alignment-dir", type=_path, metavar="DIR",
                        help="TextGrid dir for ratio extraction")
    p.add_argument("--output", type=_path, metavar="FILE")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("pseudo", parents=[common], help="speech to pseudo-singing audio + annotation")
    p.add_argument("--manifest", required=True, type=_path, metavar="FILE",
                   help="speech utterance manifest")
    p.add_argument("--output-dir", required=True, type=_path, metavar="DIR")
    p.add_argument("--melody-bank", type=_path, metavar="FILE",
                   help="melody bank JSON (default: builtin)")
    p.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="stop at the first failing utterance",
    )
    p.set_defaults(func=cmd_pseudo, keep_going=True)

    p = sub.add_parser("plan-svc", parents=[common], help="plan voice-conversion jobs")
    p.add_argument("--sources", required=True, type=_path, metavar="FILE")
    p.add_argument("--targets", required=True, type=_path, metavar="FILE")
    p.add_argument("--output", type=_path, metavar="FILE")
    p.set_defaults(func=cmd_plan_svc)

    p = sub.add_parser("eval", parents=[common], help="objective metrics for ref/hyp pairs")
    p.add_argument("--ref", required=True, type=_path, metavar="FILE")
    p.add_argument("--hyp", required=True, type=_path, metavar="FILE")
    p.add_argument("--output", type=_path, metavar="FILE", help="write the JSON report here")
    p.add_argument("--table", action="store_true", help="print an aligned text table")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, vars(args))
        return args.func(args, cfg)
    except ValidationError as exc:
        for failure in exc.failures:
            log.error("%s", failure)
        return EXIT_INPUT
    except INPUT_ERRORS as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except Exception:  # noqa: BLE001 - last-resort boundary
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
