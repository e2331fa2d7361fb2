"""The two encoders against their oracle, the stdlib's key-sorted json.dumps.

A certificate is written compact and pinned by the digest of its indented
re-rendering, so the tests check that re-indenting the compact text of a
document gives exactly the indented text of that document, or that both
encoders raise the stdlib's ValueError.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricflex.cover import (
    CITATIONS,
    build_cover,
    certificate_to_dict,
    certificate_to_json,
)
from toricflex.fans import (
    fan_hirzebruch,
    fan_product,
    fan_projective_space,
    fan_punctured_affine,
    fan_to_dict,
    fan_to_json,
    make_fan,
    report_to_dict,
    validate_fan,
)
from toricflex.jsonfmt import compact_json, pretty_json


def stdlib_pretty(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def stdlib_compact(doc):
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def same_outcome(doc):
    """Both encoders give the stdlib's text, and re-indenting the compact
    text gives the indented one; or both raise the stdlib's ValueError."""
    try:
        expected = stdlib_pretty(doc)
    except ValueError as exc:
        for encode in (pretty_json, compact_json):
            with pytest.raises(ValueError) as ours:
                encode(doc)
            assert str(ours.value) == str(exc)
    else:
        assert pretty_json(doc) == expected
        assert compact_json(doc) == stdlib_compact(doc)
        assert pretty_json(json.loads(compact_json(doc))) == expected


# Near the interpreter's 4300-digit limit for printing an int, on both sides.
LONG_INTS = st.integers(4290, 4310).flatmap(
    lambda digits: st.sampled_from([10**digits - 1, -(10 ** (digits - 1))])
)
INTS = st.integers() | st.integers(-3, 12) | LONG_INTS
TEXT = st.text() | st.sampled_from(
    ["", "é", "☃ snow", 'quote " and \\ back', "tab\tnl\n", "\ud800"]
)
SCALARS = st.none() | st.booleans() | INTS | st.floats() | TEXT
# [ray index list, codim] pairs, the shape of complement faces, and near
# misses of it: empty faces, bools and long ints inside.
FACE_PAIRS = st.lists(
    st.tuples(st.lists(INTS | st.booleans(), max_size=4), INTS | st.booleans()).map(list)
)


def json_docs():
    return st.recursive(
        SCALARS | FACE_PAIRS,
        lambda inner: st.lists(inner, max_size=5)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=5),
        max_leaves=30,
    )


def certificate_docs():
    """Real certificate documents with hostile strings and faces swapped in."""

    def tamper(doc, kind, citations, faces):
        doc["charts"][0]["kind"] = kind
        doc["citations"] = citations
        doc["charts"][-1]["complement_faces"] = faces
        return doc

    base = st.sampled_from(
        [fan_punctured_affine(3), fan_hirzebruch(2), make_fan(2, [(1, 0), (1, 2)], [(0,), (1,)])]
    ).map(lambda f: certificate_to_dict(build_cover(f)))
    return st.builds(tamper, base, TEXT, st.lists(TEXT, max_size=3), FACE_PAIRS)


class TestPrettyJson:
    @settings(deadline=None, max_examples=150)
    @given(json_docs())
    def test_matches_stdlib_on_any_document(self, doc):
        same_outcome(doc)

    @settings(deadline=None, max_examples=100)
    @given(certificate_docs())
    def test_matches_stdlib_on_certificate_documents(self, doc):
        same_outcome(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            [[], 2],
            [[[], 2]],
            [[[1, 2], 2], [[], 3]],
            [[[1, True], 2]],
            [[[1, 2], False]],
            [[(1, 2), 2]],
            {"kind": "Fläche \"x\"", "citations": ["a\nb", "é"], "n": -0},
            [10**4300],
            [[[10**4300], 2]],
            {"order": -(10**4300)},
        ],
    )
    def test_matches_stdlib_on_edge_cases(self, doc):
        same_outcome(doc)

    def test_library_outputs_match_stdlib(self):
        fans = [
            fan_projective_space(3),
            fan_hirzebruch(1),
            fan_product(fan_projective_space(1), fan_projective_space(2)),
            fan_punctured_affine(5),
            make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (2,)]),
        ]
        for f in fans:
            report = validate_fan(f)
            assert pretty_json(report_to_dict(report)) == stdlib_pretty(report_to_dict(report))
            assert fan_to_json(f) == stdlib_pretty(fan_to_dict(f))
            assert fan_to_json(f, pretty=False) == stdlib_compact(fan_to_dict(f))
            if report.valid:
                cert = build_cover(f)
                assert certificate_to_json(cert) == stdlib_compact(certificate_to_dict(cert)) + "\n"
        assert pretty_json(list(CITATIONS)) == stdlib_pretty(list(CITATIONS))
