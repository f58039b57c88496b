"""Seeded synthetic corpora for the benchmark.

Three corpus kinds, each a pure function of its seed:

* ``speech``: aligned speech clips (WAV + word/phone TextGrid) and a
  ``pseudo`` manifest. Clip lengths are fixed; the seed picks the words,
  phone durations, pitch and noise.
* ``eval``: reference/hypothesis pairs with transcripts and speaker
  embeddings. Each hypothesis re-renders the reference's source-filter plan
  at another tempo (so n != m), with a small pitch and formant offset, and
  half of them at 22.05 kHz. One pair, ``anchor``, is built from a fixed seed
  so that its metric values can be compared with values recorded in
  ``eval_reference.json``.
* ``annotation``: a mixed lyric file for ``g2p``, a slurred score for
  ``transcode``, and a Pinyin-unit annotation manifest with phone-tier
  TextGrids for ``adapt --strategy proportional --alignment-dir``.

The waveform generators are the ones in ``tests/helpers.py``. Every file is
hashed after it is written; the corpus fingerprint is the hash of that list,
so a change to any input shows up as a different fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import wave
from pathlib import Path

import numpy as np

from helpers import fricative, voiced_segment
from singprep.lexicon import default_lexicon, split_pinyin
from singprep.textgrid import AlignmentTier, Interval, serialize_textgrid

KINDS = ("speech", "eval", "annotation")

# The corpora are small enough that a 50 s benchmark run holds four or more
# CLI runs of its workload on a 2-core host.
# Clips from 2 s to 20 s: the 20 s clip sets the memory peak of the vocoder,
# short ones the per-utterance fixed costs.
SPEECH_CLIP_SECONDS = (2, 5, 10, 20)

# (utt_id, reference seconds, hypothesis tempo factor, hypothesis rate).
# DTW cost grows with n*m, so the 20 s pair dominates the workload.
EVAL_PAIRS = (
    ("anchor", 5.0, 1.08, 22050),
    ("pair1", 10.0, 0.92, 24000),
    ("pair2", 20.0, 0.95, 22050),
)
ANCHOR_SEED = 20230925
EMBEDDING_DIM = 64
WER_SUBSTITUTION_RATE = 0.1

LYRIC_LINES = 1500
SCORE_EVENTS = 1000
ADAPT_RECORDS = 250
ADAPT_SYLLABLES = (28, 44)  # per record, uniform; about 88 events per record

SR = 24000

VOWEL_FORMANTS = {
    "AA": (730, 1090, 2440), "AE": (660, 1720, 2410), "AH": (520, 1190, 2390),
    "AO": (570, 840, 2410), "AW": (680, 1150, 2450), "AY": (700, 1450, 2500),
    "EH": (530, 1840, 2480), "ER": (490, 1350, 1690), "EY": (480, 2000, 2600),
    "IH": (390, 1990, 2550), "IY": (270, 2290, 3010), "OW": (450, 900, 2400),
    "OY": (500, 1000, 2400), "UH": (440, 1020, 2240), "UW": (300, 870, 2240),
}
SONORANT_FORMANTS = {
    "M": (280, 1200), "N": (300, 1700), "NG": (280, 2300), "L": (360, 1300),
    "R": (420, 1300), "W": (300, 700), "Y": (280, 2200),
    "B": (250, 1100), "D": (250, 1600), "G": (250, 2000), "V": (260, 1400),
    "DH": (260, 1500), "Z": (260, 1700), "ZH": (260, 1900), "JH": (260, 1900),
}
VOICED = frozenset(VOWEL_FORMANTS) | frozenset(SONORANT_FORMANTS)
VOICED_SHARE = 0.72  # the mean share of voiced phones in unscaled plans
NOISE_BANDS = {
    "S": (5200, 2400), "SH": (3000, 1800), "F": (4300, 3000), "TH": (5000, 3500),
    "HH": (1500, 2000), "P": (1200, 2500), "T": (4000, 3000), "K": (2200, 2000),
    "CH": (3200, 2000),
}


# -- files and fingerprints ----------------------------------------------------

def write_pcm16(samples: np.ndarray, sr: int, path: Path) -> None:
    pcm = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sr)
        fh.writeframes(pcm.tobytes())


def write_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def hash_tree(root: Path, skip: frozenset[str] = frozenset()) -> dict[str, str]:
    """sha256 of every regular file under root, keyed by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_file() and rel not in skip:
            out[rel] = sha256_file(path)
    return out


def fingerprint_of(files: dict[str, str]) -> str:
    listing = "".join(f"{name}\0{digest}\n" for name, digest in sorted(files.items()))
    return hashlib.sha256(listing.encode()).hexdigest()


# -- speech synthesis ------------------------------------------------------------

def _vocabulary(lexicon):
    """(label, phones) for every English word, and for every Han character."""
    words = [(w.lower(), lexicon.english_entries[w])
             for w in sorted(lexicon.english_entries) if w.isalpha()]
    han = [(ch, lexicon.lookup_hanzi(ch)) for ch in sorted(lexicon.hanzi_readings)]
    return words, han


def _plan_clip(rng: np.random.Generator, seconds: float, lexicon) -> dict:
    """A source-filter plan: phones with durations, pitch and formants."""
    words, han = _vocabulary(lexicon)
    base_f0 = rng.uniform(105.0, 190.0)
    lead = round(rng.uniform(0.10, 0.20), 3)
    segments = []  # (phone label or "", word index or -1, dur, params)
    plan_words = []
    t = lead
    limit = seconds - 0.25
    while True:
        vocab = han if rng.random() < 0.5 else words
        label, phones = vocab[rng.integers(len(vocab))]
        durs = []
        for ph in phones:
            if ph in VOWEL_FORMANTS:
                durs.append(rng.uniform(0.08, 0.20))
            elif ph in SONORANT_FORMANTS:
                durs.append(rng.uniform(0.04, 0.09))
            else:
                durs.append(rng.uniform(0.04, 0.11))
        if t + sum(durs) > limit:
            break
        f0a = base_f0 * rng.uniform(0.88, 1.15)
        f0b = f0a * rng.uniform(0.85, 1.10)
        widx = len(plan_words)
        plan_words.append(label)
        for ph, d in zip(phones, durs):
            segments.append((ph, widx, d, (f0a, f0b, int(rng.integers(1 << 30)))))
        t += sum(durs)
        if rng.random() < 0.35:
            pause = rng.uniform(0.05, 0.25)
            segments.append(("", -1, pause, None))
            t += pause
    segments.append(("", -1, 0.1, None))
    # Stretch the plan to fill the clip with a fixed voiced share, so that
    # clips of one length cost the vocoder the same whatever the seed.
    span = limit - lead
    voiced = sum(d for ph, _, d, _ in segments if ph in VOICED)
    other = sum(d for _, _, d, _ in segments) - voiced
    kv, ko = VOICED_SHARE * span / voiced, (1.0 - VOICED_SHARE) * span / other
    segments = [(ph, w, d * (kv if ph in VOICED else ko), p) for ph, w, d, p in segments]
    return {"seconds": float(seconds), "lead": lead, "segments": segments, "words": plan_words}


def _render(plan: dict, sr: int, tempo: float = 1.0, pitch: float = 1.0,
            formant: float = 1.0, noise_offset: int = 0):
    """Waveform and (word tier, phone tier) for a plan; tempo scales durations."""
    lead = int(round(plan["lead"] * tempo * sr))
    pieces = [np.zeros(lead)]
    spans = [(0, lead, "", -1)]  # (start sample, end sample, phone, word index)
    pos = lead
    for ph, widx, dur, params in plan["segments"]:
        n = max(1, int(round(dur * tempo * sr)))
        d = n / sr
        if ph == "":
            x = np.zeros(n)
        else:
            f0a, f0b, seed = params
            seed += noise_offset
            if ph in VOWEL_FORMANTS:
                fm = [(f * formant, 60 + 0.06 * f) for f in VOWEL_FORMANTS[ph]]
                x = 0.85 * voiced_segment(d, f0a * pitch, f0b * pitch, fm, sr, seed)
            elif ph in SONORANT_FORMANTS:
                fm = [(f * formant, 80 + 0.08 * f) for f in SONORANT_FORMANTS[ph]]
                x = 0.5 * voiced_segment(d, f0a * pitch, f0b * pitch, fm, sr, seed)
            else:
                center, bw = NOISE_BANDS[ph]
                x = fricative(d, [(center * formant, bw)], sr, seed)
        pieces.append(x[:n])
        spans.append((pos, pos + n, ph, widx))
        pos += n
    total = max(int(round(plan["seconds"] * tempo * sr)), pos + 1)
    pieces.append(np.zeros(total - pos))
    spans.append((pos, total, "", -1))

    phones = [Interval(a / sr, b / sr, ph) for a, b, ph, _ in spans]
    words: list[Interval] = []
    run_start, run_word = spans[0][0], spans[0][3]
    for a, _, _, widx in spans[1:] + [(total, total, "", None)]:
        if widx != run_word:
            label = plan["words"][run_word] if run_word >= 0 else ""
            words.append(Interval(run_start / sr, a / sr, label))
            run_start, run_word = a, widx
    return (np.concatenate(pieces), AlignmentTier("words", words),
            AlignmentTier("phones", phones))


# -- corpus kinds --------------------------------------------------------------------

def _gen_speech(seed: int, out: Path, lexicon) -> dict:
    rng = np.random.default_rng([seed, 1])
    (out / "speech").mkdir()
    utterances = []
    for k, seconds in enumerate(SPEECH_CLIP_SECONDS):
        utt_id = f"utt{k:02d}"
        plan = _plan_clip(rng, seconds, lexicon)
        samples, words, phones = _render(plan, SR)
        write_pcm16(samples, SR, out / "speech" / f"{utt_id}.wav")
        (out / "speech" / f"{utt_id}.TextGrid").write_text(
            serialize_textgrid([words, phones]), encoding="utf-8")
        utterances.append({
            "utt_id": utt_id,
            "audio": f"speech/{utt_id}.wav",
            "textgrid": f"speech/{utt_id}.TextGrid",
            "singer": f"spk{int(rng.integers(10)):02d}",
        })
    write_json({"utterances": utterances}, out / "manifest.json")
    return {
        "items": [u["utt_id"] for u in utterances],
        "material_s": float(sum(SPEECH_CLIP_SECONDS)),
    }


def _letters(n: int) -> str:
    out = ""
    while True:
        out = chr(97 + n % 26) + out
        n //= 26
        if n == 0:
            return out


def _transcript_pair(rng: np.random.Generator, plan: dict):
    """Reference text, hypothesis text with known substitutions, and the WER.

    Substituted words are letter strings that cannot occur in the reference,
    so the edit distance is exactly the number of substitutions.
    """
    ref = list(plan["words"])
    k = max(1, int(round(WER_SUBSTITUTION_RATE * len(ref))))
    hyp = list(ref)
    for n, pos in enumerate(sorted(rng.choice(len(ref), size=k, replace=False))):
        hyp[int(pos)] = "qxz" + _letters(n)
    return " ".join(ref), " ".join(hyp), k / len(ref)


def _gen_eval(seed: int, out: Path, lexicon) -> dict:
    for sub in ("ref", "hyp", "emb"):
        (out / sub).mkdir()
    refs, hyps, expected = [], [], {}
    material = 0.0
    for utt_id, seconds, tempo, hyp_rate in EVAL_PAIRS:
        rng = np.random.default_rng([ANCHOR_SEED if utt_id == "anchor" else seed, 2, len(refs)])
        plan = _plan_clip(rng, seconds, lexicon)
        ref, _, _ = _render(plan, SR)
        hyp, _, _ = _render(plan, hyp_rate, tempo=tempo, pitch=rng.uniform(0.985, 1.015),
                            formant=rng.uniform(0.97, 1.03), noise_offset=7)
        write_pcm16(ref, SR, out / "ref" / f"{utt_id}.wav")
        write_pcm16(hyp, hyp_rate, out / "hyp" / f"{utt_id}.wav")
        ref_text, hyp_text, wer = _transcript_pair(rng, plan)
        ref_emb = rng.standard_normal(EMBEDDING_DIM)
        hyp_emb = ref_emb + 0.35 * rng.standard_normal(EMBEDDING_DIM)
        for side, vec in (("ref", ref_emb), ("hyp", hyp_emb)):
            (out / "emb" / f"{utt_id}.{side}.txt").write_text(
                "".join(f"{v!r}\n" for v in vec.tolist()), encoding="utf-8")
        refs.append({"utt_id": utt_id, "audio": f"ref/{utt_id}.wav", "text": ref_text,
                     "embedding": f"emb/{utt_id}.ref.txt"})
        hyps.append({"utt_id": utt_id, "audio": f"hyp/{utt_id}.wav", "text": hyp_text,
                     "embedding": f"emb/{utt_id}.hyp.txt"})
        expected[utt_id] = {
            "wer": wer,
            "sim": float(np.dot(ref_emb, hyp_emb)
                         / (np.linalg.norm(ref_emb) * np.linalg.norm(hyp_emb))),
        }
        material += len(ref) / SR
    write_json({"utterances": refs}, out / "ref.json")
    write_json({"utterances": hyps}, out / "hyp.json")
    write_json(expected, out / "expected.json")
    return {"items": [p[0] for p in EVAL_PAIRS], "material_s": material}


def _syllables(lexicon) -> list[tuple[str, str, str]]:
    """(Han character, initial, final) for readings whose units are in the table."""
    out = []
    for ch, reading in sorted(lexicon.hanzi_readings.items()):
        initial, final = split_pinyin(reading)
        if final in lexicon.pinyin_entries and (not initial or initial in lexicon.pinyin_entries):
            out.append((ch, initial, final))
    return out


def _adapt_record(rng: np.random.Generator, syllables, lexicon):
    """Pinyin-unit events (unit, is_slur, ph_dur, note, note_dur) of one record,
    and a phone alignment whose labels match the units' expansions."""
    events = []
    aligned = [Interval(0.0, round(float(rng.uniform(0.05, 0.2)), 4), "sil")]

    def align(labels, span):
        for label, share in zip(labels, rng.dirichlet(np.full(len(labels), 4.0))):
            start = aligned[-1].end
            aligned.append(Interval(start, start + max(round(float(share * span), 5), 0.001),
                                    label))

    for _ in range(int(rng.integers(*ADAPT_SYLLABLES))):
        if rng.random() < 0.08:
            d = round(float(rng.uniform(0.1, 0.4)), 4)
            events.append(("SP", 0, d, 0, d))
            aligned.append(Interval(aligned[-1].end, aligned[-1].end + d, "sp"))
            continue
        _, initial, final = syllables[int(rng.integers(len(syllables)))]
        note = int(rng.integers(52, 76))
        d_init = round(float(rng.uniform(0.03, 0.12)), 4) if initial else 0.0
        d_final = round(float(rng.uniform(0.1, 0.5)), 4)
        note_dur = round(d_init + d_final, 4)
        if initial:
            events.append((initial, 0, d_init, note, note_dur))
            align(lexicon.expand_unit(initial), d_init)
        events.append((final, 0, d_final, note, note_dur))
        align(lexicon.expand_unit(final), d_final)
        for _ in range(int(rng.choice([0, 0, 0, 0, 1, 2]))):
            d = round(float(rng.uniform(0.1, 0.4)), 4)
            events.append((final, 1, d, int(rng.integers(52, 76)), d))
    return events, aligned


def _gen_annotation(seed: int, out: Path, lexicon) -> dict:
    rng = np.random.default_rng([seed, 3])
    words, han = _vocabulary(lexicon)
    syllables = _syllables(lexicon)

    # g2p: long mixed lyric file, punctuation and line breaks included
    lines, n_phones = [], 0
    for _ in range(LYRIC_LINES):
        toks = []
        for _ in range(int(rng.integers(6, 15))):
            vocab = han if rng.random() < 0.5 else words
            label, phones = vocab[int(rng.integers(len(vocab)))]
            toks.append(label)
            n_phones += len(phones)
        lines.append(" ".join(toks) + rng.choice([",", "!", "", "?"]))
    (out / "lyrics.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # transcode: a long score with slurs and rests
    score, score_phones = [], 0
    prev_lyric = False
    for _ in range(SCORE_EVENTS):
        note = int(rng.integers(52, 76))
        dur = round(float(rng.uniform(0.12, 0.8)), 4)
        r = rng.random()
        if prev_lyric and r < 0.18:
            score.append({"lyric": "", "note": note, "dur": dur, "slur": True})
            score_phones += 1
            continue
        if r < 0.23:
            score.append({"lyric": "sp", "note": 0, "dur": dur, "slur": False})
            score_phones += 1
            prev_lyric = False
            continue
        kind = rng.random()
        if kind < 0.4:
            ch = syllables[int(rng.integers(len(syllables)))][0]
            score.append({"lyric": ch, "note": note, "dur": dur, "slur": False})
            score_phones += len(lexicon.lookup_hanzi(ch))
        elif kind < 0.7:
            syllable = lexicon.hanzi_readings[syllables[int(rng.integers(len(syllables)))][0]]
            score.append({"lyric": syllable, "note": note, "dur": dur, "slur": False,
                           "lang": "cn"})
            score_phones += len(lexicon.lookup_pinyin(syllable))
        else:
            label, phones = words[int(rng.integers(len(words)))]
            score.append({"lyric": label, "note": note, "dur": dur, "slur": False})
            score_phones += len(phones)
        prev_lyric = True
    write_json({"events": score}, out / "score.json")

    # adapt: Pinyin-unit records plus one phone-tier alignment per record
    (out / "align").mkdir()
    records, n_events, material = [], 0, 0.0
    parts = ("Bass", "Baritone", "Tenor", "Alto", "Soprano")
    for r in range(ADAPT_RECORDS):
        utt_id = f"rec{r:04d}"
        events, aligned = _adapt_record(rng, syllables, lexicon)
        phs, slur, ph_dur, notes, notes_dur = (list(column) for column in zip(*events))
        records.append({
            "utt_id": utt_id, "audio": f"wav/{utt_id}.wav", "singer": f"s{r % 7:02d}",
            "voice_part": parts[r % len(parts)],
            "phs": phs, "is_slur": slur, "ph_dur": ph_dur, "notes": notes,
            "notes_dur": notes_dur, "lang": [1] * len(phs), "style": [1] * len(phs),
        })
        n_events += len(phs)
        material += sum(ph_dur)
        (out / "align" / f"{utt_id}.TextGrid").write_text(
            serialize_textgrid([AlignmentTier("phones", aligned)]), encoding="utf-8")
    write_json({"records": records}, out / "annotations.json")
    return {
        "items": [rec["utt_id"] for rec in records] + ["lyrics", "score"],
        "material_s": material,
        "g2p_phonemes": n_phones,
        "score_phonemes": score_phones,
        "adapt_events": n_events,
    }


_GENERATORS = {"speech": _gen_speech, "eval": _gen_eval, "annotation": _gen_annotation}


def generator_version(repo: Path) -> str:
    """Hash of the generator sources, so an edited generator gets a fresh cache."""
    h = hashlib.sha256()
    for path in (Path(__file__), repo / "tests" / "helpers.py"):
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def load_or_build(kind: str, seed: int, repo: Path, cache: Path, keep: int = 12) -> dict:
    """The corpus of this kind and seed, from cache when its files still hash
    to the recorded fingerprint, else generated afresh.

    Returns the corpus info: directory, fingerprint, per-file hashes, items,
    seconds of material, whether it came from cache and how long building took.
    """
    base = cache / "corpus"
    base.mkdir(parents=True, exist_ok=True)
    target = base / f"{kind}-{seed}-{generator_version(repo)}"
    info_path = target / "corpus.json"
    note = ""
    if info_path.exists():
        info = json.loads(info_path.read_text(encoding="utf-8"))
        files = hash_tree(target, skip=frozenset({"corpus.json"}))
        if files == info["files"]:
            info.update(dir=str(target), cached=True, build_s=0.0, note="")
            return info
        note = "cached corpus no longer matches its fingerprint; rebuilt"
        shutil.rmtree(target)
    elif target.exists():
        shutil.rmtree(target)

    t0 = time.perf_counter()
    tmp = base / f".tmp-{kind}-{seed}-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    info = _GENERATORS[kind](seed, tmp, default_lexicon())
    files = hash_tree(tmp)
    info.update(kind=kind, seed=seed, files=files, fingerprint=fingerprint_of(files))
    write_json(info, tmp / "corpus.json")
    tmp.rename(target)
    build_s = time.perf_counter() - t0

    # bound the cache: drop the oldest corpora of this kind beyond `keep`
    siblings = sorted((p for p in base.glob(f"{kind}-*") if p != target),
                      key=lambda p: p.stat().st_mtime)
    for old in siblings[: max(0, len(siblings) - (keep - 1))]:
        shutil.rmtree(old, ignore_errors=True)

    info.update(dir=str(target), cached=False, build_s=build_s, note=note)
    return info
