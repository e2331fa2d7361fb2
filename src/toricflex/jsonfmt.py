"""The one module that reads and writes JSON text.

load_json is the one reader of fan and certificate text, and json_object
the one check that a parsed document is an object holding the keys its
reader needs.  There are two encodings, both key-sorted stdlib json.dumps:
pretty_json, indented by two spaces, writes fan documents and reports, and
compact_json, with no whitespace at all, writes certificates and the bytes
a fan digest hashes.  An int too long to print raises the stdlib's
ValueError.
"""

from __future__ import annotations

import json


def load_json(text: str, error: type[Exception], noun: str):
    """json.loads(text), raising error("<noun> is not valid JSON: ...") on failure.

    json.loads raises ValueError for malformed text and for integers longer
    than the interpreter's conversion limit, and RecursionError for deep
    nesting.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{noun} is not valid JSON: {exc}") from exc


def json_object(doc, keys, error: type[Exception], noun: str) -> dict:
    """doc, once it is a dict holding every key; otherwise raise error.

    The message starts with noun and, for a dict, lists the missing keys sorted.
    """
    if not isinstance(doc, dict):
        raise error(f"{noun} must be a JSON object")
    missing = set(keys) - doc.keys()
    if missing:
        raise error(f"{noun} is missing keys: {sorted(missing)}")
    return doc


def pretty_json(doc) -> str:
    """Indented, key-sorted JSON text of doc, ending in a newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def compact_json(doc) -> str:
    """Key-sorted JSON text of doc with no whitespace and no final newline."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)
