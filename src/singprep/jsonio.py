"""JSON in and out: the one opener of input paths, the one UTF-8 text reader,
the one JSON parser and JSON file reader, the one list-document check, the
one indented writer of documents, and the one writer of every output.

It imports only the error types, so every module can use it at top level.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys

from .errors import InputError, ParseError


def open_input(path, mode: str = "r", encoding: str | None = None):
    """open(path, mode, encoding=encoding) for reading; InputError naming path
    if it cannot name a file."""
    try:
        return open(path, mode, encoding=encoding)
    except ValueError as exc:  # a NUL byte or an unencodable character in the name
        raise InputError(f"{path!r}: not a file name: {exc}") from None


def read_text(path) -> str:
    """The text of the UTF-8 file at path; ParseError naming it if it is not UTF-8,
    InputError if path cannot name a file."""
    with open_input(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None


def loads(text: str, path):
    """json.loads(text); ParseError naming path if a string in it holds a lone
    surrogate, which no UTF-8 output can hold. In text read as strict UTF-8
    only a \\u escape can spell one."""
    doc = json.loads(text)
    if re.search(r"\\u[dD][89a-fA-F]", text):
        try:
            json.dumps(doc, ensure_ascii=False).encode()
        except UnicodeEncodeError:
            raise ParseError(f"{path}: invalid JSON: a string holds a lone surrogate") from None
    return doc


def read_json(path):
    """The document in the UTF-8 JSON file at path; ParseError if it is not JSON."""
    try:
        return loads(read_text(path), path)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def list_entries(doc, key: str, path) -> list[dict]:
    """The entries of a list document, {key: [...]} or a bare list, each an object."""
    if isinstance(doc, dict) and isinstance(doc.get(key), list):
        doc = doc[key]
    elif not isinstance(doc, list):
        raise ParseError(f"{path}: expected a list or an object with {key!r}")
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: entry {i} is not an object")
    return doc


def dumps_document(doc) -> str:
    """json.dumps(doc, ensure_ascii=False, indent=2) + "\\n", byte for byte.

    The stdlib encodes indented JSON in pure Python; this writes each flat
    list of scalars in one call to its C encoder instead (one element per
    line through the item separator) and recurses only into containers.
    """
    return _dumps(doc, "") + "\n"


def _dumps(obj, pad: str) -> str:
    inner = pad + "  "
    if isinstance(obj, (list, tuple)) and obj:
        if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, obj))):
            body = (",\n" + inner).join([_dumps(v, inner) for v in obj])
        else:
            body = json.dumps(obj, ensure_ascii=False, allow_nan=False,
                              separators=(",\n" + inner, ": "))[1:-1]
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        body = (",\n" + inner).join([
            json.dumps(k, ensure_ascii=False, allow_nan=False) + ": " + _dumps(v, inner)
            for k, v in obj.items()
        ])
        return "{\n" + inner + body + "\n" + pad + "}"
    # Scalars, empty containers and non-string keys: the stdlib, re-indented
    # (encoded strings hold no raw newline).
    return json.dumps(obj, ensure_ascii=False, indent=2, allow_nan=False).replace("\n", "\n" + pad)


def write_output(data: str | bytes, path) -> None:
    """data (a str as UTF-8) to path, or the str to stdout if path is None or "-".

    A file is replaced whole by .<name>.<pid>.tmp written beside its real path,
    so a symlink keeps its link and a failure leaves the old file as it was.
    A FIFO or a device is written in place; a directory raises IsADirectoryError.
    """
    if path is None or path == "-":
        sys.stdout.write(data)
        return
    raw = data.encode("utf-8") if isinstance(data, str) else data
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:  # a new file, or a symlink to none yet
        in_place = False
    real = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(real), f".{os.path.basename(real)}.{os.getpid()}.tmp")
    try:
        with open(path if in_place else tmp, "wb") as fh:
            fh.write(raw)
        if not in_place:
            os.replace(tmp, real)
    except BaseException:
        if os.path.lexists(tmp):
            os.unlink(tmp)
        raise
