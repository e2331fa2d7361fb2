"""The two encoders against their oracle, the stdlib's key-sorted json.dumps.

A certificate is written compact and pinned by the digest of its indented
re-rendering, so the tests check that re-indenting the compact text of a
document gives exactly the indented text of that document, or that both
encoders raise the stdlib's ValueError.  The certificate writer, which
encodes each shared complement list once, is held against one compact
encoding of the whole document.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricflex import cover
from toricflex.conegeom import QuotientGroup
from toricflex.cover import (
    CITATIONS,
    build_cover,
    certificate_from_dict,
    certificate_to_dict,
    certificate_to_json,
)
from toricflex.errors import CertificateFormatError
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

from test_cover import lower_dimensional_fans
from test_skeletons import skeleton_fans


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


def written_as_one_document(cert):
    """certificate_to_json gives the one compact encoding of the certificate's
    document plus a newline, or the CertificateFormatError for its ValueError."""
    try:
        expected = compact_json(certificate_to_dict(cert)) + "\n"
    except ValueError as exc:
        with pytest.raises(CertificateFormatError) as ours:
            certificate_to_json(cert)
        assert str(ours.value) == f"certificate cannot be written as JSON: {exc}"
    else:
        assert certificate_to_json(cert) == expected


MARKER = '"complement_faces":[]'
LONG_FACE = ((10**4300, 1), 2)


def with_chart(cert, i, **changes):
    charts = list(cert.charts)
    charts[i] = dataclasses.replace(charts[i], **changes)
    return dataclasses.replace(cert, charts=tuple(charts))


def punctured_3():
    return build_cover(fan_punctured_affine(3))


def equal_but_distinct():
    # Chart 1 gets a copy of the complement that charts 0 and 2 share.
    cert = punctured_3()
    copied = tuple(list(cert.charts[0].complement_faces))
    assert copied == cert.charts[1].complement_faces
    assert copied is not cert.charts[1].complement_faces
    return with_chart(cert, 1, complement_faces=copied)


def shared_by_two():
    # The three charts of punctured A^3 list one shared tuple.
    cert = punctured_3()
    assert cert.charts[0].complement_faces is cert.charts[2].complement_faces
    return cert


EDGE_CASES = {
    "kind holds the marker": lambda: with_chart(punctured_3(), 0, kind=MARKER),
    "kind holds a backslash and the marker": lambda: with_chart(
        punctured_3(), 2, kind="\\" + MARKER + "\\"
    ),
    "citation holds the marker": lambda: dataclasses.replace(
        punctured_3(), citations=(MARKER, "x" + MARKER + MARKER)
    ),
    "fan digest holds the marker": lambda: dataclasses.replace(punctured_3(), fan_digest=MARKER),
    "face int over 4300 digits": lambda: with_chart(
        punctured_3(), 1, complement_faces=(LONG_FACE,)
    ),
    "shared face int over 4300 digits": lambda: dataclasses.replace(
        punctured_3(), charts=tuple(
            dataclasses.replace(ch, complement_faces=(LONG_FACE,)) for ch in punctured_3().charts
        )
    ),
    "order over 4300 digits": lambda: with_chart(
        punctured_3(), 0, quotient=QuotientGroup((), 10**4300)
    ),
    "zero charts": lambda: dataclasses.replace(punctured_3(), charts=()),
    "two charts share one tuple": shared_by_two,
    "equal but distinct tuples": equal_but_distinct,
    "affine charts": lambda: build_cover(fan_projective_space(1)),
}


class TestCertificateWriter:
    @settings(deadline=None, max_examples=40)
    @given(drawn=skeleton_fans())
    def test_skeleton_fans(self, drawn):
        written_as_one_document(build_cover(drawn[2]))

    @settings(deadline=None, max_examples=60)
    @given(fan=lower_dimensional_fans())
    def test_random_valid_fans(self, fan):
        written_as_one_document(build_cover(fan))

    @settings(deadline=None, max_examples=100)
    @given(certificate_docs())
    def test_parsed_documents(self, doc):
        try:
            cert = certificate_from_dict(doc)
        except CertificateFormatError:
            return
        written_as_one_document(cert)

    @pytest.mark.parametrize("make", EDGE_CASES.values(), ids=EDGE_CASES.keys())
    def test_edge_cases(self, make):
        written_as_one_document(make())

    def test_a_dict_in_place_of_a_string_is_refused(self):
        # A kind that is a dict adds a complement_faces key the split would
        # take for a chart's; the writer refuses it instead of writing a
        # list in the wrong place.
        cert = with_chart(punctured_3(), 0, kind={"complement_faces": []})
        with pytest.raises(CertificateFormatError, match="cannot be written as JSON"):
            certificate_to_json(cert)

    @pytest.mark.parametrize(
        "fan, encodings",
        [
            # The 8 one-ray cones of punctured A^8 all extend to the cone on
            # all 8 rays, so every chart lists that cone's one shared tuple:
            # the document and that tuple, 2 encodings (8 + 1 = 9 if each
            # chart were encoded).
            (fan_punctured_affine(8), 2),
            # The 6 cones of P^5 are full-dimensional, so every chart is an
            # AffineSpace chart listing (), one object in CPython: the
            # document and the empty tuple, 2 encodings (6 + 1 = 7 if each
            # chart were encoded).
            (fan_projective_space(5), 2),
        ],
        ids=["punctured A^8", "P^5"],
    )
    def test_each_shared_list_is_encoded_once(self, monkeypatch, fan, encodings):
        cert = build_cover(fan)
        calls = []

        def counted(doc):
            calls.append(doc)
            return compact_json(doc)

        monkeypatch.setattr(cover, "compact_json", counted)
        text = certificate_to_json(cert)
        assert len(calls) == encodings
        monkeypatch.undo()
        assert text == compact_json(certificate_to_dict(cert)) + "\n"
