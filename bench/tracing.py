"""Per-layer tracing of one singprep CLI process.

Run as a script, this module is the traced counterpart of one CLI process:

    PYTHONPATH=src python3 bench/tracing.py SPANS.jsonl pseudo --manifest ...

It imports ``singprep.cli``, replaces each measured function at every module
attribute that refers to it (so callers resolve the wrapper, e.g.
``singprep.metrics.dtw_align`` and ``singprep.pseudo.analyze``), calls
``singprep.cli.main`` with the remaining arguments, and writes the spans it
kept in memory to SPANS.jsonl. The program itself is not changed.

A span is (name, start, end, parent, item id) plus the work counts taken from
the wrapped call's arguments or result. Imported by ``bench/run.py``, the
module turns the span files of a run into per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from functools import wraps


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(path) -> int:
    return os.path.getsize(path)


def _f0_work(args, kwargs, result):
    return {"frames": len(result), "voiced": int(result.voiced.sum())}


# (layer, defining module, function, work counter). The layer name is the
# module path below ``singprep`` plus the function name.
LAYERS = (
    ("metrics.evaluate_pair", "singprep.metrics", "evaluate_pair", None),
    ("metrics.dtw_align", "singprep.metrics", "dtw_align",
     lambda a, k, r: {"cells": len(a[0]) * len(a[1]), "peak_cells": len(a[0]) * len(a[1])}),
    ("metrics.mcep", "singprep.metrics", "mcep", lambda a, k, r: {"frames": len(r)}),
    ("metrics.wer", "singprep.metrics", "wer", None),
    ("dsp.vocoder.analyze", "singprep.dsp.vocoder", "analyze",
     lambda a, k, r: {"frames": r.n_frames}),
    ("dsp.vocoder.synthesize", "singprep.dsp.vocoder", "synthesize",
     lambda a, k, r: {"frames": _arg(a, k, 0, "analysis").n_frames}),
    ("dsp.pitch.extract_f0", "singprep.dsp.pitch", "extract_f0", _f0_work),
    ("dsp.audio.read_wav", "singprep.dsp.audio", "read_wav",
     lambda a, k, r: {"samples": len(r)}),
    ("dsp.audio.write_wav", "singprep.dsp.audio", "write_wav",
     lambda a, k, r: {"bytes": _size(_arg(a, k, 1, "path"))}),
    ("dsp.audio.resample", "singprep.dsp.audio", "resample",
     lambda a, k, r: {"samples": len(_arg(a, k, 0, "waveform"))}),
    ("pseudo.make_pseudo_singing", "singprep.pseudo", "make_pseudo_singing", None),
    ("pseudo.load_melody_bank", "singprep.pseudo", "load_melody_bank", None),
    ("textgrid.read_textgrid", "singprep.textgrid", "read_textgrid",
     lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path")),
                      "intervals": sum(len(t.intervals) for t in r)}),
    ("annotation.read_manifest", "singprep.annotation", "read_manifest",
     lambda a, k, r: {"records": len(r)}),
    ("annotation.write_manifest", "singprep.annotation", "write_manifest",
     lambda a, k, r: {"bytes": _size(_arg(a, k, 1, "path"))}),
    ("annotation.write_annotation", "singprep.annotation", "write_annotation",
     lambda a, k, r: {"bytes": _size(_arg(a, k, 1, "path"))}),
    ("score.adapt_proportional", "singprep.score", "adapt_proportional",
     lambda a, k, r: {"events_out": len(r)}),
    ("score.extract_ratios", "singprep.score", "extract_ratios", None),
    ("score.transform_score", "singprep.score", "transform_score",
     lambda a, k, r: {"events_out": len(r)}),
    ("lexicon.segment_lyrics", "singprep.lexicon", "segment_lyrics", None),
    ("lexicon.g2p", "singprep.lexicon", "g2p", lambda a, k, r: {"phonemes": len(r)}),
    ("lexicon.default_lexicon", "singprep.lexicon", "default_lexicon", None),
)
COMMANDS = ("g2p", "transcode", "adapt", "pseudo", "eval")
COMMAND_LAYERS = tuple((f"cli.{c}", "singprep.cli", f"cmd_{c}", None) for c in COMMANDS)

# Functions that handle one manifest item: the spans inside them carry its id.
ITEM_FUNCTIONS = (
    ("singprep.cli", "_pseudo_worker", lambda a, k: a[0][0]["utt_id"]),
    ("singprep.cli", "_eval_worker", lambda a, k: a[0][0]),
)

# Which per-layer quantities the benchmark reports beyond calls, errors, busy_s.
SELF_TIME = {"metrics.evaluate_pair", "dsp.vocoder.analyze", "pseudo.make_pseudo_singing"} | {
    name for name, *_ in COMMAND_LAYERS}
WORK_KEYS = {
    "metrics.dtw_align": ("cells", "peak_cells"),
    "metrics.mcep": ("frames",),
    "dsp.vocoder.analyze": ("frames",),
    "dsp.vocoder.synthesize": ("frames",),
    "dsp.pitch.extract_f0": ("frames", "voiced_frac"),
    "dsp.audio.read_wav": ("samples",),
    "dsp.audio.write_wav": ("bytes",),
    "dsp.audio.resample": ("samples",),
    "textgrid.read_textgrid": ("bytes", "intervals"),
    "annotation.read_manifest": ("records",),
    "annotation.write_manifest": ("bytes",),
    "annotation.write_annotation": ("bytes",),
    "score.adapt_proportional": ("events_out",),
    "score.transform_score": ("events_out",),
    "lexicon.g2p": ("phonemes",),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the benchmark reports, with its unit."""
    units = {}
    for name, *_ in LAYERS + COMMAND_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.errors"] = "count"
        units[f"{name}.busy_s"] = "s"
        if name in SELF_TIME:
            units[f"{name}.self_s"] = "s"
        for key in WORK_KEYS.get(name, ()):
            units[f"{name}.{key}"] = "ratio" if key.endswith("_frac") else "count"
    units["cli.pool.overhead_cpu_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units


class Tracer:
    """Keeps spans in memory; wrappers push and pop the current span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._items: list[str] = []

    def wrap(self, name, fn, work=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            item = self._items[-1] if self._items else None
            span = {"id": len(self.spans), "name": name, "parent": parent, "item": item,
                    "error": None, "work": {}}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span["work"] = work(args, kwargs, result)
            return result
        return traced

    def item(self, fn, key):
        @wraps(fn)
        def scoped(*args, **kwargs):
            self._items.append(str(key(args, kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                self._items.pop()
        return scoped


def _replace_everywhere(original, replacement) -> int:
    """Point every singprep module attribute bound to original at replacement."""
    sites = 0
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("singprep") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites += 1
    return sites


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every measured function; returns the patched sites per layer."""
    sites = {}
    for name, modname, func, work in LAYERS + COMMAND_LAYERS:
        original = getattr(importlib.import_module(modname), func, None)
        sites[name] = 0 if original is None else _replace_everywhere(
            original, tracer.wrap(name, original, work))
    for modname, func, key in ITEM_FUNCTIONS:
        original = getattr(importlib.import_module(modname), func, None)
        if original is not None:
            _replace_everywhere(original, tracer.item(original, key))
    return sites


# -- aggregation (benchmark side) --------------------------------------------------

def read_spans(paths) -> tuple[list[dict], list[dict]]:
    """Spans and per-process metadata from span files, ids made unique."""
    spans, metas = [], []
    for k, path in enumerate(paths):
        with open(path, encoding="utf-8") as fh:
            meta = json.loads(fh.readline())
            metas.append(meta)
            for line in fh:
                span = json.loads(line)
                span["id"] = (k, span["id"])
                if span["parent"] is not None:
                    span["parent"] = (k, span["parent"])
                spans.append(span)
    return spans, metas


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[dict], metas: list[dict]) -> dict[str, float]:
    """calls, errors, busy_s, self_s and work sums per layer, plus coverage.

    busy_s counts a layer's outermost spans only; self_s is a span's duration
    minus the time its child spans cover. trace.coverage is the union of all
    library spans (the cli.<command> spans excluded) divided by the time
    spent inside the CLI entry point.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def nested_in_same(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return True
            p = by_id[p]["parent"]
        return False

    units = metric_units()
    out = {name: 0.0 for name in units}
    work = defaultdict(lambda: defaultdict(float))
    for s in spans:
        name = s["name"]
        out[f"{name}.calls"] += 1
        out[f"{name}.errors"] += s["error"] is not None
        if not nested_in_same(s):
            out[f"{name}.busy_s"] += s["end"] - s["start"]
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += s["end"] - s["start"] - child_time[s["id"]]
        for key, value in s["work"].items():
            acc = work[name]
            acc[key] = max(acc[key], value) if key.startswith("peak_") else acc[key] + value
    for name, acc in work.items():
        for key, value in acc.items():
            if f"{name}.{key}" in out:
                out[f"{name}.{key}"] = value
        if "voiced" in acc and acc.get("frames"):
            out[f"{name}.voiced_frac"] = acc["voiced"] / acc["frames"]

    inside_main = sum(m["main_end"] - m["main_start"] for m in metas)
    covered = 0.0
    for k in range(len(metas)):
        covered += _union((s["start"], s["end"]) for s in spans
                          if s["id"][0] == k and not s["name"].startswith("cli."))
    out["trace.coverage"] = covered / inside_main if inside_main > 0 else 0.0
    return {name: int(v) if units[name] == "count" else v for name, v in out.items()}


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import singprep.cli

    tracer = Tracer()
    sites = install(tracer)
    start = time.perf_counter()
    rc = singprep.cli.main(cli_args)
    end = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as fh:
        meta = {"argv": cli_args, "rc": rc, "main_start": start, "main_end": end,
                "singprep": singprep.cli.__file__, "sites": sites, "pid": os.getpid()}
        fh.write(json.dumps(meta) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
