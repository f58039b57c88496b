"""JSON in and out: the one UTF-8 text reader, the one JSON file reader, the
one list-document check, and the one indented writer for every document the
toolkit emits.

It imports only the error types, so every module can use it at top level.
"""

from __future__ import annotations

import json

from .errors import ParseError


def read_text(path) -> str:
    """The text of the UTF-8 file at path; ParseError naming it if it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None


def read_json(path):
    """The document in the UTF-8 JSON file at path; ParseError if it is not JSON."""
    try:
        return json.loads(read_text(path))
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
            body = json.dumps(obj, ensure_ascii=False, separators=(",\n" + inner, ": "))[1:-1]
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        body = (",\n" + inner).join([
            json.dumps(k, ensure_ascii=False) + ": " + _dumps(v, inner) for k, v in obj.items()
        ])
        return "{\n" + inner + body + "\n" + pad + "}"
    # Scalars, empty containers and non-string keys: the stdlib, re-indented
    # (encoded strings hold no raw newline).
    return json.dumps(obj, ensure_ascii=False, indent=2).replace("\n", "\n" + pad)
