"""Batch command-line interface.

Subcommands: g2p, transcode, adapt, pseudo, plan-svc, eval. Logs go to
stderr; data goes to stdout or to files. Exit codes: 0 success, 1 internal
error, 2 input or validation error (including an unreadable, non-UTF-8 or
directory path).

The numpy modules (dsp, metrics, pseudo) are imported inside the
pseudo and eval functions, so the text subcommands start without them; the
process pool and hashlib are likewise imported only where they are used.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .annotation import (AnnotationRecord, dumps_manifest, normalize_voice_part, read_manifest,
                          write_annotation, write_manifest)
from .config import STRATEGIES, PipelineConfig, resolve_config
from .errors import InputError, ParseError, ValidationError
from .jsonio import dumps_document, list_entries, read_json, read_text
from .lexicon import (ENGLISH, MANDARIN, Lexicon, LyricToken, default_lexicon, g2p,
                      language_of, segment_lyrics)
from .melody import choose_melody, load_melody_bank
from .score import (
    RatioTable,
    ScoreEvent,
    adapt_average,
    adapt_proportional,
    extract_ratios,
    transform_score,
)
from .svc import build_job_manifest, dumps_job_manifest
from .textgrid import read_textgrid

log = logging.getLogger("singprep")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

_LANGUAGES = {"cn": MANDARIN, "en": ENGLISH}  # score-event "lang" codes


def derive_seed(seed: int, utt_id: str) -> int:
    """Stable per-utterance seed, independent of processing order."""
    import hashlib

    digest = hashlib.blake2s(f"{seed}:{utt_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _build_lexicon(cfg: PipelineConfig) -> Lexicon:
    """The bundled lexicon, each table the config names replacing its own."""
    lex = default_lexicon()
    for path, table, load in (
        (cfg.cmu_dict, lex.english_entries, lex.load_cmu_dict),
        (cfg.pinyin_map, lex.pinyin_entries, lex.load_pinyin_map),
        (cfg.hanzi_table, lex.hanzi_readings, lex.load_hanzi_table),
    ):
        if path is not None:
            table.clear()
            with open(path, encoding="utf-8") as fh:
                try:
                    load(fh)
                except (ParseError, UnicodeDecodeError) as exc:
                    raise ParseError(f"{path}: {exc}") from None
    return lex


def run_batch(worker, payloads, workers: int, size, stop=None) -> list:
    """worker(payload) for each payload; the results come back in payload order.

    With one worker (or one payload) they run in this process, in payload
    order. Otherwise a pool of at most one process per payload runs them,
    submitted largest size(payload) first so that no process is left with a
    long item at the end. When stop(result) is true or a worker raises,
    payloads not yet started are cancelled and the results of every one that
    ran are returned (or the first error re-raised); results are tested in
    the order they were submitted."""
    stop = stop or (lambda result: False)
    if workers <= 1 or len(payloads) <= 1:
        results = []
        for payload in payloads:
            results.append(worker(payload))
            if stop(results[-1]):
                break
        return results
    from concurrent.futures import ProcessPoolExecutor

    # a stable sort: payloads of equal size keep their order
    order = sorted(range(len(payloads)), key=lambda i: size(payloads[i]), reverse=True)
    futures = {}
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        for i in order:
            futures[i] = pool.submit(worker, payloads[i])
        for future in futures.values():
            if future.exception() is not None or stop(future.result()):
                pool.shutdown(cancel_futures=True)
                break
    return [futures[i].result() for i in sorted(futures) if not futures[i].cancelled()]


def _file_size(path) -> int:
    """Bytes in the file at path: 0 if path is not a string or cannot be stat'ed."""
    if not isinstance(path, str):
        return 0
    try:
        return os.stat(path).st_size
    except (OSError, ValueError):  # ValueError: a path with a NUL byte
        return 0


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_entries(path, list_key: str, required: tuple[str, ...]) -> list[dict]:
    """A JSON manifest: either {list_key: [...]} or a bare list of objects."""
    entries = list_entries(read_json(path), list_key, path)
    for i, entry in enumerate(entries):
        missing = [k for k in required if k not in entry]
        if missing:
            raise InputError(f"{path}: entry {i} missing fields: {', '.join(missing)}")
    return entries


def _by_utt_id(entries: list[dict], path) -> dict[str, dict]:
    """Manifest entries keyed by utt_id, in order; ids must be unique strings."""
    by_id: dict[str, dict] = {}
    for entry in entries:
        utt_id = entry["utt_id"]
        if not isinstance(utt_id, str) or not utt_id:
            raise InputError(f"{path}: utt_id must be a nonempty string, got {utt_id!r}")
        if utt_id in by_id:
            raise InputError(f"{path}: duplicate utt_id {utt_id!r}")
        by_id[utt_id] = entry
    return by_id


# -- g2p ----------------------------------------------------------------------

def cmd_g2p(args, cfg: PipelineConfig) -> int:
    if args.input is not None:
        text = read_text(args.input)
    elif args.text:
        text = " ".join(args.text)
    else:
        text = sys.stdin.read()
    lexicon = _build_lexicon(cfg)
    seq = g2p(segment_lyrics(text), lexicon)
    body = " ".join(seq.phonemes) + "\n" + " ".join(str(t) for t in seq.language_tokens) + "\n"
    _write_text(body, args.output)
    return EXIT_OK


# -- transcode ----------------------------------------------------------------

def _score_events(path) -> list[ScoreEvent]:
    entries = _read_entries(path, "events", ("note", "dur"))
    events = []
    for i, entry in enumerate(entries):
        lyric = entry.get("lyric")
        if not isinstance(lyric, (str, type(None))):
            raise InputError(f"{path}: event {i} lyric must be a string, got {lyric!r}")
        slur = entry.get("slur", False)
        if not isinstance(slur, bool):
            raise InputError(f"{path}: event {i}: slur must be true or false, got {slur!r}")
        if lyric in (None, ""):
            if not slur:
                raise InputError(f"{path}: event {i} has no lyric and is not a slur")
            token = None
        else:
            lang = entry.get("lang")
            if lang not in (None, *_LANGUAGES):
                raise InputError(f"{path}: event {i} has unknown lang {lang!r}")
            token = LyricToken(lyric, language_of(lyric) if lang is None else _LANGUAGES[lang])
        for key in ("note", "dur"):
            if isinstance(entry[key], bool) or not isinstance(entry[key], (int, float)):
                raise InputError(f"{path}: event {i}: {key} must be a number, got {entry[key]!r}")
        try:
            events.append(ScoreEvent(token, int(entry["note"]), float(entry["dur"]), slur))
        except (OverflowError, ValueError) as exc:
            raise InputError(f"{path}: event {i}: {exc}") from None
    return events


def cmd_transcode(args, cfg: PipelineConfig) -> int:
    lexicon = _build_lexicon(cfg)
    events = _score_events(args.score)
    try:
        result = transform_score(events, lexicon)
    except ParseError as exc:
        raise ParseError(f"{args.score}: {exc}") from None
    _write_text(dumps_document(result.to_dict()), args.output)
    return EXIT_OK


# -- adapt --------------------------------------------------------------------

def _expected_units(record: AnnotationRecord, lexicon: Lexicon):
    expected = []
    for ev in record.events:
        if ev.is_rest() or ev.is_slur:
            continue
        try:
            expansion = lexicon.expand_unit(ev.phoneme)
        except InputError:
            expansion = (ev.phoneme,)
        expected.append((ev.phoneme, expansion))
    return expected


def _corpus_ratios(records, alignment_dir, lexicon: Lexicon) -> RatioTable:
    tables = []
    for record in records:
        tg_path = Path(alignment_dir) / f"{record.utterance_id}.TextGrid"
        if not tg_path.exists():
            log.warning("no alignment for %s, skipping", record.utterance_id)
            continue
        tiers = [t for t in read_textgrid(tg_path) if "phone" in t.name.lower()]
        if not tiers:
            log.warning("%s: no phone tier", tg_path)
            continue
        tables.append(extract_ratios(tiers[0], _expected_units(record, lexicon)))
    if not tables:
        raise InputError(f"{alignment_dir}: no usable alignments found")
    return RatioTable.average(tables)


def cmd_adapt(args, cfg: PipelineConfig) -> int:
    lexicon = _build_lexicon(cfg)
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
    for record in records:
        if strategy == "average":
            events = adapt_average(record.events, lexicon)
        else:
            events = adapt_proportional(record.events, lexicon, ratios)
        before = sum(e.ph_dur for e in record.events)
        after = sum(e.ph_dur for e in events)
        log.info(
            "%s: %d -> %d events, duration %.6f -> %.6f (drift %.3e)",
            record.utterance_id, len(record.events), len(events),
            before, after, abs(after - before),
        )
        adapted.append(
            AnnotationRecord(
                record.utterance_id, record.audio_path, tuple(events),
                record.singer_id, record.voice_part,
            )
        )
    if args.output is None or args.output == "-":
        sys.stdout.write(dumps_manifest(adapted))
    else:
        write_manifest(adapted, args.output)
    if ratios is not None:
        for unit, events in sorted(ratios.misses.items()):
            log.warning("no ratio for unit %r in %d events; split equally", unit, events)
    return EXIT_OK


# -- pseudo -------------------------------------------------------------------

def _find_tiers(tiers, path):
    word = next((t for t in tiers if "word" in t.name.lower()), None)
    phone = next((t for t in tiers if "phone" in t.name.lower()), None)
    if word is None or phone is None:
        names = ", ".join(t.name for t in tiers) or "none"
        raise InputError(f"{path}: need word and phone tiers, found: {names}")
    return word, phone


def _pseudo_worker(payload: tuple) -> tuple[str, str, str]:
    """One utterance: returns (utt_id, melody id or '', error or '')."""
    from .dsp.audio import read_wav, write_wav
    from .pseudo import make_pseudo_singing

    entry, bank, seed, out_dir, hop = payload
    utt_id = entry["utt_id"]
    try:
        singer = entry.get("singer", "")
        if not isinstance(singer, str):
            raise ValidationError([f"singer: must be a string, got {singer!r}"])
        wave = read_wav(entry["audio"])
        word_tier, phone_tier = _find_tiers(read_textgrid(entry["textgrid"]), entry["textgrid"])
        utt_seed = derive_seed(seed, utt_id)
        melody = choose_melody(bank, utt_seed)
        rendered, record = make_pseudo_singing(
            wave, word_tier, phone_tier, melody, utt_seed,
            utt_id=utt_id, audio_path=f"{utt_id}.wav",
            singer_id=singer, hop=hop,
        )
        write_wav(rendered, Path(out_dir) / f"{utt_id}.wav")
        write_annotation(record, Path(out_dir) / f"{utt_id}.json")
        return utt_id, melody.template_id, ""
    except Exception as exc:  # per-file isolation under keep-going
        return utt_id, "", f"{type(exc).__name__}: {exc}"


def cmd_pseudo(args, cfg: PipelineConfig) -> int:
    from . import pseudo  # noqa: F401 - loaded before the pool forks, so workers inherit it

    entries = _by_utt_id(
        _read_entries(args.manifest, "utterances", ("utt_id", "audio", "textgrid")),
        args.manifest,
    ).values()
    for entry in entries:
        utt_id = entry["utt_id"]
        if Path(utt_id).name != utt_id or utt_id in (".", ".."):
            raise InputError(f"{args.manifest}: utt_id {utt_id!r} is not a plain file name")
    bank_path = args.melody_bank if args.melody_bank is not None else cfg.melody_bank
    bank = load_melody_bank(bank_path)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = [(e, bank, cfg.seed, str(out_dir), cfg.hop) for e in entries]
    stop = None if args.keep_going else (lambda res: bool(res[2]))
    audio_size = lambda payload: _file_size(payload[0]["audio"])
    results = run_batch(_pseudo_worker, payloads, cfg.workers, audio_size, stop)

    # Keys are built in sorted order, as summary.json has always listed them.
    summary: dict = {
        "melody_bank": bank_path if bank_path is not None else "builtin",
        "seed": cfg.seed,
        "utterances": {},
    }
    failures = 0
    for utt_id, melody_id, error in sorted(results):
        if error:
            failures += 1
            log.error("%s: %s", utt_id, error)
            summary["utterances"][utt_id] = {"error": error, "status": "error"}
        else:
            log.info("%s: melody %s", utt_id, melody_id)
            summary["utterances"][utt_id] = {"melody": melody_id, "status": "ok"}
    (out_dir / "summary.json").write_text(dumps_document(summary), encoding="utf-8")
    if failures:
        log.error("%d of %d utterances failed", failures, len(results))
        return EXIT_INPUT
    return EXIT_OK


# -- plan-svc -----------------------------------------------------------------

def cmd_plan_svc(args, cfg: PipelineConfig) -> int:
    src_entries = _read_entries(args.sources, "sources", ("utt_id", "audio", "voice_part"))
    tgt_entries = _read_entries(args.targets, "targets", ("singer", "voice_part"))
    for path, entries, keys in ((args.sources, src_entries, ("utt_id", "audio")),
                                (args.targets, tgt_entries, ("singer",))):
        for i, entry in enumerate(entries):
            for key in keys:
                if not isinstance(entry[key], str) or not entry[key]:
                    raise InputError(f"{path}: entry {i}: {key} must be a nonempty string, "
                                     f"got {entry[key]!r}")
            try:
                entry["voice_part"] = normalize_voice_part(entry["voice_part"])
            except ValidationError as exc:
                raise ValidationError(f"{path}: entry {i}: {f}" for f in exc.failures) from None
    jobs = build_job_manifest(
        [(e["utt_id"], e["audio"], e["voice_part"]) for e in src_entries],
        [(e["singer"], e["voice_part"]) for e in tgt_entries],
    )
    log.info("%d sources x %d targets -> %d jobs", len(src_entries), len(tgt_entries), len(jobs))
    _write_text(dumps_job_manifest(jobs), args.output)
    return EXIT_OK


# -- eval ---------------------------------------------------------------------

def _eval_worker(payload: tuple) -> tuple[str, dict | None, str]:
    """One pair: returns (utt_id, metrics or None, input error or '').

    Any input error of the pair counts: an unreadable file as well as inputs
    that cannot be scored (embeddings of different shapes, a zero vector).
    """
    from .dsp.audio import read_wav
    from .metrics import evaluate_pair, read_embedding, tokenize_transcript

    utt_id, ref_entry, hyp_entry = payload
    try:
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
        return utt_id, evaluate_pair(ref, hyp, ref_tokens, hyp_tokens, ref_emb, hyp_emb), ""
    except (InputError, OSError, UnicodeDecodeError) as exc:  # bad input; bugs still raise
        return utt_id, None, f"{type(exc).__name__}: {exc}"


def cmd_eval(args, cfg: PipelineConfig) -> int:
    from .metrics import EvalReport

    refs = _by_utt_id(_read_entries(args.ref, "utterances", ("utt_id", "audio")), args.ref)
    hyps = _by_utt_id(_read_entries(args.hyp, "utterances", ("utt_id", "audio")), args.hyp)
    for path, by_id in ((args.ref, refs), (args.hyp, hyps)):
        for utt_id, entry in by_id.items():
            for key in ("audio", "text", "embedding"):
                if key in entry and not isinstance(entry[key], str):
                    raise InputError(f"{path}: utterance {utt_id!r}: {key} must be a string, "
                                     f"got {entry[key]!r}")
    if set(refs) != set(hyps):
        only_ref = sorted(set(refs) - set(hyps))
        only_hyp = sorted(set(hyps) - set(refs))
        raise InputError(
            f"manifest mismatch; only in ref: {only_ref}; only in hyp: {only_hyp}"
        )
    payloads = [(utt_id, refs[utt_id], hyps[utt_id]) for utt_id in sorted(refs)]
    report = EvalReport()
    pair_size = lambda payload: _file_size(payload[1]["audio"]) + _file_size(payload[2]["audio"])
    for utt_id, values, error in run_batch(_eval_worker, payloads, cfg.workers, pair_size):
        if not error:
            try:
                report.add(utt_id, values)
            except InputError as exc:  # a metric outside its range
                error = f"{type(exc).__name__}: {exc}"
        if error:
            log.error("%s: %s", utt_id, error)
            report.failures[utt_id] = error
    if args.output is not None and args.output != "-":
        Path(args.output).write_text(report.dumps(), encoding="utf-8")
        sys.stdout.write(report.table() if args.table else "")
    else:
        sys.stdout.write(report.table() if args.table else report.dumps())
    if report.failures:
        log.error("%d of %d pairs failed", len(report.failures), len(payloads))
        return EXIT_INPUT
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singprep",
        description="Bilingual singing-voice data preparation and evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="YAML config file")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--workers", type=int, help="parallel worker count")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("g2p", parents=[common], help="lyrics to phoneme and language-token lines")
    p.add_argument("text", nargs="*", help="lyric text (default: stdin)")
    p.add_argument("--input", metavar="FILE", help="read lyrics from a file")
    p.add_argument("--output", metavar="FILE", help="write the two lines here instead of stdout")
    p.set_defaults(func=cmd_g2p)

    p = sub.add_parser("transcode", parents=[common], help="score events to phoneme-level sequences")
    p.add_argument("--score", required=True, metavar="FILE", help="score JSON (events list)")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_transcode)

    p = sub.add_parser("adapt", parents=[common], help="rewrite annotation to phoneme granularity")
    p.add_argument("--input", required=True, metavar="FILE", help="annotation manifest JSON")
    p.add_argument("--strategy", choices=STRATEGIES, help="duration split strategy")
    p.add_argument("--ratios", metavar="FILE", help="saved duration-ratio table")
    p.add_argument("--alignment-dir", metavar="DIR", help="TextGrid dir for ratio extraction")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("pseudo", parents=[common], help="speech to pseudo-singing audio + annotation")
    p.add_argument("--manifest", required=True, metavar="FILE", help="speech utterance manifest")
    p.add_argument("--output-dir", required=True, metavar="DIR")
    p.add_argument("--melody-bank", metavar="FILE", help="melody bank JSON (default: builtin)")
    p.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="stop at the first failing utterance",
    )
    p.set_defaults(func=cmd_pseudo, keep_going=True)

    p = sub.add_parser("plan-svc", parents=[common], help="plan voice-conversion jobs")
    p.add_argument("--sources", required=True, metavar="FILE")
    p.add_argument("--targets", required=True, metavar="FILE")
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_plan_svc)

    p = sub.add_parser("eval", parents=[common], help="objective metrics for ref/hyp pairs")
    p.add_argument("--ref", required=True, metavar="FILE")
    p.add_argument("--hyp", required=True, metavar="FILE")
    p.add_argument("--output", metavar="FILE", help="write the JSON report here")
    p.add_argument("--table", action="store_true", help="print an aligned text table")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": getattr(args, "seed", None),
        "workers": getattr(args, "workers", None),
        "strategy": getattr(args, "strategy", None),
    }
    try:
        cfg = resolve_config(getattr(args, "config", None), overrides)
        return args.func(args, cfg)
    except ValidationError as exc:
        for failure in exc.failures:
            log.error("%s", failure)
        return EXIT_INPUT
    except (InputError, OSError, UnicodeDecodeError) as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except Exception:  # noqa: BLE001 - last-resort boundary
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
