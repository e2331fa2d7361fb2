"""Pretty JSON text: the bytes of json.dumps(doc, indent=2, sort_keys=True).

Before Python 3.13 the stdlib uses its C encoder only when indent is None,
so the indented form runs the pure-Python encoder, one generator step per
value; for a large certificate that is most of the time `cover` takes.
This writer produces the same text faster.  A list of plain ints is one
join, and a list of [ray index list, codim] pairs, the shape of a
certificate's complement faces, is one string template per pair.  Strings
and dict keys go through encode_basestring_ascii, the function json.dumps
itself uses for them, so escaping is unchanged; floats and subclasses of
int or str go through json.dumps.  An int too long to print
raises the same ValueError as the stdlib.  Dict keys must be strings.
The tests check the writer against json.dumps.  load_json is the one
reader of fan and certificate text, and json_object the one check that a
parsed document is an object holding the keys its reader needs.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

_INDENT = "  "


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
    return _pretty(doc, "\n") + "\n"


def _pretty(o, nl: str) -> str:
    # nl is a newline plus the indentation of the line o starts on.
    if type(o) is str:
        return _string(o)
    if type(o) is int:
        return int.__repr__(o)
    if o is True:
        return "true"
    if o is False:
        return "false"
    if o is None:
        return "null"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + _INDENT
        body = ("," + inner).join([_string(k) + ": " + _pretty(o[k], inner) for k in sorted(o)])
        # One join: a chain of + would hold body and two copies of it at once.
        return "".join(("{", inner, body, nl, "}"))
    if not isinstance(o, (list, tuple)):
        return json.dumps(o)
    if not o:
        return "[]"
    inner = nl + _INDENT
    sep = "," + inner
    types = set(map(type, o))
    if types <= {int}:
        body = sep.join(map(int.__repr__, o))
    elif types == {list} and face_pairs(o):
        deeper = inner + _INDENT
        face_sep = "," + deeper + _INDENT
        pair = (
            "[" + deeper + "[" + deeper + _INDENT + "{}" + deeper + "],"
            + deeper + "{}" + inner + "]"
        )
        body = sep.join(
            [
                pair.format(face_sep.join(map(int.__repr__, face)), int.__repr__(codim))
                for face, codim in o
            ]
        )
    else:
        body = sep.join([_pretty(x, inner) for x in o])
    return "".join(("[", inner, body, nl, "]"))


def face_pairs(o: list) -> bool:
    """Whether each entry of a list of lists is a complement-face pair:
    a two-item list of a nonempty list of plain ints, then a plain int."""
    if set(map(len, o)) != {2}:
        return False
    faces = [entry[0] for entry in o]
    return (
        set(map(type, faces)) == {list}
        and all(faces)
        and set(map(type, [entry[1] for entry in o])) == {int}
        and set(map(type, chain.from_iterable(faces))) <= {int}
    )
