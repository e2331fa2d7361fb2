"""Flexibility cover certificates for smooth nondegenerate fans.

For each maximal cone this module builds a chart record: a full-dimensional
cone gives an affine space outright, while a lower-dimensional cone is
extended to a full-dimensional pointed cone by adjoining further fan rays,
and the chart is the extended cone's affine variety minus the toric locus
of the faces with at least two rays that use an added ray (a single added
ray is kept).  The certificate stores everything an independent checker
needs: the extension, its quotient group, and every removed face with its
codimension.  verify_certificate recomputes all of it from the fan alone,
never trusting how the certificate was produced.  certificate_to_json
writes one line of compact, key-sorted JSON; the reader takes any JSON
text of the same document, indented or not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain, combinations

from .conegeom import Cone, QuotientGroup, quotient_group
from .errors import CertificateFormatError
from .fans import (
    HYPOTHESIS_PREFIX,
    Fan,
    _hypothesis_failures,
    fan_digest,
)
from .intlinalg import _bareiss, is_int
from .jsonfmt import compact_json, json_object, load_json

# The faces a chart removes, each with its codimension.
Complement = tuple[tuple[Cone, int], ...]

KIND_AFFINE_SPACE = "AffineSpace"
KIND_FLEXIBLE_COMPLEMENT = "FlexibleComplement"
FORMAT_VERSION = 2
DIGEST_ALGORITHM = "sha256"

# The two published results the certificate leans on; the verifier checks
# the combinatorial hypotheses, the flexibility conclusions are cited.
CITATIONS = (
    "Arzhantsev, Kuyumzhiyan, Zaidenberg 2012, Theorem 0.2: the smooth locus"
    " of a nondegenerate affine toric variety is flexible.",
    "Flenner, Kaliman, Zaidenberg 2016, Theorem 0.1: flexibility of the"
    " smooth locus passes to the complement of a subvariety of codimension"
    " at least 2.",
)


@dataclass(frozen=True)
class ChartCertificate:
    """Chart record for one maximal cone.

    With k the cone's dimension and n the fan's ambient rank, the chart
    before any extension is a product of k affine lines and n - k tori;
    neither number is stored, since the fan gives both.  For kind
    FlexibleComplement, cprime_ray_indices lists the n rays of the extended
    cone (the cone's own rays plus added_ray_indices), quotient describes
    the lattice quotient by the extended cone's generators, and
    complement_faces lists every face of the extended cone that is neither
    a face of the original cone nor a single added ray nor the zero face,
    together with its codimension.  min_complement_codim is n + 1 when the
    complement is empty.
    """

    cone_index: int
    kind: str
    added_ray_indices: tuple[int, ...]
    cprime_ray_indices: tuple[int, ...]
    quotient: QuotientGroup
    complement_faces: Complement
    min_complement_codim: int


@dataclass(frozen=True)
class CoverCertificate:
    """One chart per maximal cone, plus fan identity.

    The fan report is not stored: the verifier recomputes it from the fan.
    """

    format_version: int
    digest_algorithm: str
    fan_digest: str
    citations: tuple[str, ...]
    charts: tuple[ChartCertificate, ...]
    a_covered: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verify_certificate: passed is True iff findings is empty."""

    passed: bool
    findings: tuple[str, ...]


def _removed_faces(cprime: Cone, cone: Cone, shared: dict | None = None) -> Complement:
    # The complement rule.  A chart keeps the faces of the cone, each added
    # ray alone and the zero face.  Every face with at most one ray is one
    # of those, so the chart removes the faces of cprime with two or more
    # rays that are not faces of the cone, each of codimension its size.
    # cprime is sorted, so the faces come by size, then lexicographically.
    # shared maps each extended cone to all of its (face, size) pairs with
    # two or more rays.  It lives for one build or verify call, so every
    # chart of that call with the same extended cone lists the same pair
    # objects; a cone of at most one ray keeps none of them and lists the
    # shared tuple itself.
    if shared is None:
        shared = {}
    pairs = shared.get(cprime)
    if pairs is None:
        pairs = shared[cprime] = tuple(
            (face, size)
            for size in range(2, len(cprime) + 1)
            for face in combinations(cprime, size)
        )
    if len(cone) <= 1:
        return pairs
    kept = set(cone)
    return tuple([pair for pair in pairs if not kept.issuperset(pair[0])])


def _chart(f: Fan, cone_index: int, shared: dict | None = None) -> ChartCertificate:
    # The chart of one maximal cone of a valid, smooth, nondegenerate fan,
    # as build_cover knows it from the fan report.  It adds each fan ray, in
    # canonical order, that enlarges the span of the cone and the rays added
    # before it.  These are the pivot columns, after the cone's own k, of one
    # elimination on the cone's rays followed by every fan ray: a pivot
    # column is one independent of the columns before it.  The fan rays
    # span, so the pivots reach rank n.  A full-dimensional cone adds none
    # and gives an AffineSpace chart: trivial quotient, empty complement.
    # shared is build_cover's memo of complement faces, see _removed_faces.
    c = f.max_cones[cone_index]
    n, k = f.ambient_rank, len(c)
    added: tuple[int, ...] = ()
    if k < n:
        pivots, _ = _bareiss(zip(*[f.rays[i] for i in c], *f.rays))
        added = tuple(j - k for j in pivots[k:])

    cprime = tuple(sorted(set(c) | set(added)))
    # Guarded: on an affine chart the rule would try all 2^n subsets of the cone.
    complement = _removed_faces(cprime, c, shared) if added else ()
    return ChartCertificate(
        cone_index=cone_index,
        kind=KIND_FLEXIBLE_COMPLEMENT if added else KIND_AFFINE_SPACE,
        added_ray_indices=added,
        cprime_ray_indices=cprime,
        quotient=quotient_group(f, cprime) if added else QuotientGroup((), 1),
        complement_faces=complement,
        # _removed_faces lists the faces by size, so the first is a smallest.
        min_complement_codim=complement[0][1] if complement else n + 1,
    )


def build_cover(f: Fan) -> CoverCertificate:
    """Build the full cover certificate, checking the hypotheses first.

    The fan must be valid, smooth, and nondegenerate; violations raise
    InvalidFanError, NotSmoothError, or DegenerateError with the reason.
    Charts are listed in maximal-cone index order, so the certificate is
    byte-stable across runs.
    """
    for failure in _hypothesis_failures(f):
        raise failure
    shared: dict = {}
    charts = tuple(_chart(f, i, shared) for i in range(len(f.max_cones)))
    return CoverCertificate(
        format_version=FORMAT_VERSION,
        digest_algorithm=DIGEST_ALGORITHM,
        fan_digest=fan_digest(f),
        citations=CITATIONS,
        charts=charts,
        a_covered=all(ch.kind == KIND_AFFINE_SPACE for ch in charts),
    )


def _chart_findings(f: Fan, ch: ChartCertificate, shared: dict) -> list[str]:
    """Re-derive one chart from the fan and list every disagreement.

    Every chart takes one path.  An AffineSpace chart is the chart with no
    added rays: its extended cone is the cone, its complement empty and its
    quotient trivial.  A cone that is not smooth is a hypothesis failure.
    The rule's complement, from shared (the verifier's own memo, see
    _removed_faces), is built only to compare with a list of its length.
    """
    out: list[str] = []
    c = f.max_cones[ch.cone_index]
    n = f.ambient_rank
    k = len(c)
    tag = f"chart for maximal cone {ch.cone_index}"
    expected_kind = KIND_AFFINE_SPACE if k == n else KIND_FLEXIBLE_COMPLEMENT
    if ch.kind != expected_kind:
        out.append(
            f"{tag}: kind is {ch.kind!r}, a cone of dimension {k} in ambient "
            f"rank {n} requires {expected_kind!r}"
        )

    added = tuple(ch.added_ray_indices)
    bad = [i for i in added if not is_int(i) or not 0 <= i < len(f.rays)]
    if bad:
        out.append(f"{tag}: added ray indices {bad} are out of range")
        return out
    if len(set(added)) != len(added):
        out.append(f"{tag}: added ray indices {list(added)} repeat")
        return out
    overlap = sorted(set(added) & set(c))
    if overlap:
        out.append(
            f"{tag}: added rays {overlap} already belong to the maximal cone"
        )
        return out
    expected_cprime = tuple(sorted(set(c) | set(added)))
    if tuple(ch.cprime_ray_indices) != expected_cprime:
        out.append(
            f"{tag}: extended cone rays {tuple(ch.cprime_ray_indices)} do not "
            f"equal the maximal cone plus added rays {expected_cprime}"
        )
        return out
    cprime = expected_cprime
    if len(cprime) != n:
        out.append(f"{tag}: extended cone has {len(cprime)} rays, ambient rank is {n}")
        return out
    # make_fan checks that a maximal cone's own rays are independent.
    if added and len(_bareiss([f.rays[i] for i in cprime])[0]) != n:
        out.append(f"{tag}: extended cone generators are rationally dependent")
        return out

    # The rule removes every face of cprime but the 2^k faces of the cone
    # and the n - k added rays; a list of another length is judged without
    # the rule's list, which is exponential in n however short that one is.
    count = 2**n - 2**k - (n - k)
    listed = tuple(ch.complement_faces)
    if len(listed) != count or (count and listed != _removed_faces(cprime, c, shared)):
        out.extend(_complement_findings(tag, listed, count, cprime, c))
    expected_min = 2 if count else n + 1  # the rule removes two-ray faces first
    if ch.min_complement_codim != expected_min:
        out.append(
            f"{tag}: min_complement_codim is {ch.min_complement_codim}, "
            f"recomputation gives {expected_min}"
        )

    actual_q = quotient_group(f, cprime) if added else QuotientGroup((), 1)
    if tuple(ch.quotient.invariant_factors) != actual_q.invariant_factors:
        out.append(
            f"{tag}: quotient invariant factors "
            f"{list(ch.quotient.invariant_factors)} differ from recomputed "
            f"[{', '.join(map(_int_text, actual_q.invariant_factors))}]"
        )
    if ch.quotient.order != actual_q.order:
        out.append(
            f"{tag}: quotient order {ch.quotient.order} differs from "
            f"recomputed {_int_text(actual_q.order)}"
        )
    return out


def _int_text(x: int) -> str:
    # A recomputed quotient can exceed the interpreter's digit limit for
    # str() (sys.get_int_max_str_digits); such a value is named by its size.
    try:
        return str(x)
    except ValueError:
        return f"an integer of {x.bit_length()} bits"


def _complement_findings(tag: str, listed, count: int, cprime: Cone, cone: Cone) -> list[str]:
    """Every disagreement between a listed complement and the rule, in one
    pass: at most one finding per listed face, plus one for a codimension
    below 2.  Each distinct removed face accounts for one of the count the
    rule removes, and a shortfall is the first finding."""
    out: list[str] = []
    rays, kept, seen = set(cprime), set(cone), set()
    missing = count
    for face, codim in listed:
        face = tuple(face)
        if face in seen:
            out.append(f"{tag}: face {face} listed more than once in the complement")
        elif not rays.issuperset(face):
            out.append(f"{tag}: face {face} is not a face of the extended cone")
        elif len(set(face)) != len(face):
            out.append(f"{tag}: face {face} repeats a ray")
        elif len(face) < 2 or kept.issuperset(face):
            out.append(f"{tag}: face {face} is retained by the chart, not removed")
        elif face != tuple(sorted(face)):
            out.append(
                f"{tag}: face {face} lists the rays of face {tuple(sorted(face))} out of order"
            )
        else:
            missing -= 1
            if codim != len(face):
                out.append(
                    f"{tag}: face {face} has codimension {len(face)}, certificate says {codim}"
                )
        seen.add(face)
        if codim < 2:
            out.append(
                f"{tag}: complement face {face} has codimension {codim}, below the required 2"
            )
    if missing:
        out.insert(
            0, f"{tag}: {missing} of the {count} removed faces of the extended cone unaccounted"
        )
    return out


def verify_certificate(f: Fan, cert: CoverCertificate) -> VerificationReport:
    """Independently re-derive every claim in a cover certificate.

    Uses only the fan predicates and cone geometry, never _chart.
    The one rule it shares with the builder is the complement rule,
    _removed_faces, which the tests hold against an independent oracle;
    a complement that differs is judged face by face, at a cost that follows
    its length, not the rule's.  All failures are reported as findings;
    nothing raises.
    """
    findings: list[str] = []

    if cert.format_version != FORMAT_VERSION:
        findings.append(
            f"format_version is {cert.format_version!r}, this verifier "
            f"handles {FORMAT_VERSION}"
        )
    if cert.digest_algorithm != DIGEST_ALGORITHM:
        findings.append(
            f"digest_algorithm is {cert.digest_algorithm!r}, this verifier "
            f"handles {DIGEST_ALGORITHM!r}"
        )
    else:
        actual_digest = fan_digest(f)
        if cert.fan_digest != actual_digest:
            findings.append(
                f"fan digest mismatch: certificate names {cert.fan_digest}, "
                f"the fan hashes to {actual_digest}"
            )
    if tuple(cert.citations) != CITATIONS:
        findings.append("citations do not match the two required theorem statements")

    findings.extend(f"{HYPOTHESIS_PREFIX}{failure}" for failure in _hypothesis_failures(f))

    counts: Counter[object] = Counter(ch.cone_index for ch in cert.charts)
    valid_indices = set(range(len(f.max_cones)))
    for i in sorted(valid_indices):
        if counts.get(i, 0) == 0:
            findings.append(f"maximal cone {i} uncovered")
        elif counts[i] > 1:
            findings.append(f"maximal cone {i} covered by {counts[i]} charts")
    for idx in counts:
        if idx not in valid_indices:
            findings.append(f"chart names nonexistent maximal cone {idx!r}")

    shared: dict = {}
    for ch in cert.charts:
        if ch.cone_index in valid_indices:
            findings.extend(_chart_findings(f, ch, shared))

    expected_a = all(len(c) == f.ambient_rank for c in f.max_cones)
    if cert.a_covered != expected_a:
        findings.append(
            f"a_covered is {cert.a_covered}, the fan's maximal cone "
            f"dimensions imply {expected_a}"
        )

    return VerificationReport(passed=not findings, findings=tuple(findings))


def _chart_to_dict(ch: ChartCertificate) -> dict:
    return {
        "cone_index": ch.cone_index,
        "kind": ch.kind,
        "added_ray_indices": list(ch.added_ray_indices),
        "cprime_ray_indices": list(ch.cprime_ray_indices),
        "quotient": {
            "invariant_factors": list(ch.quotient.invariant_factors),
            "order": ch.quotient.order,
        },
        "complement_faces": [],
        "min_complement_codim": ch.min_complement_codim,
    }


def _certificate_doc(cert: CoverCertificate) -> dict:
    # Every chart's complement_faces is left empty: certificate_to_dict
    # fills in copies, certificate_to_json writes each shared list once.
    return {
        "format_version": cert.format_version,
        "digest_algorithm": cert.digest_algorithm,
        "fan_digest": cert.fan_digest,
        "citations": list(cert.citations),
        "charts": [_chart_to_dict(ch) for ch in cert.charts],
        "a_covered": cert.a_covered,
    }


def certificate_to_dict(cert: CoverCertificate) -> dict:
    """The certificate as a JSON document of new dicts and lists, which the
    caller may edit."""
    doc = _certificate_doc(cert)
    for chart, ch in zip(doc["charts"], cert.charts):
        chart["complement_faces"] = [[list(face), codim] for face, codim in ch.complement_faces]
    return doc


def _require_int(doc: dict, key: str, where: str) -> int:
    value = doc[key]
    if not is_int(value):
        raise CertificateFormatError(f"{where}: {key} must be an integer")
    return value


def _require_int_list(doc: dict, key: str, where: str) -> tuple[int, ...]:
    value = doc[key]
    if not isinstance(value, list) or not all(map(is_int, value)):
        raise CertificateFormatError(f"{where}: {key} must be a list of integers")
    return tuple(value)


def _chart_from_dict(doc, position: int, interned: dict) -> ChartCertificate:
    where = f"chart {position}"
    json_object(doc, [f.name for f in fields(ChartCertificate)], CertificateFormatError, where)
    if not isinstance(doc["kind"], str):
        raise CertificateFormatError(f"{where}: kind must be a string")
    quotient = doc["quotient"]
    if not isinstance(quotient, dict) or {"invariant_factors", "order"} - quotient.keys():
        raise CertificateFormatError(
            f"{where}: quotient must be an object with invariant_factors and order"
        )
    faces = doc["complement_faces"]
    if not isinstance(faces, list):
        raise CertificateFormatError(f"{where}: complement_faces must be a list")
    return ChartCertificate(
        cone_index=_require_int(doc, "cone_index", where),
        kind=doc["kind"],
        added_ray_indices=_require_int_list(doc, "added_ray_indices", where),
        cprime_ray_indices=_require_int_list(doc, "cprime_ray_indices", where),
        quotient=QuotientGroup(
            invariant_factors=_require_int_list(quotient, "invariant_factors", where),
            order=_require_int(quotient, "order", where),
        ),
        complement_faces=_complement_from_list(faces, where, interned),
        min_complement_codim=_require_int(doc, "min_complement_codim", where),
    )


def _complement_from_list(faces: list, where: str, interned: dict) -> Complement:
    # One check by the distinct types each part holds: every entry a
    # two-item list, every face a list, every ray index and codim an int but
    # not a bool (an empty face and int or list subclasses are accepted).
    # A list of plain ints, as every JSON document gives, has its pairs
    # interned across the charts of one document, so that equal pairs are
    # one object, as in build_cover; a list holding an int subclass keeps
    # its own pairs, since an equal interned pair would change its types.
    if not faces:
        return ()
    ints = {bool}  # refused unless the shape below is met
    if _all_subclass(faces, list) and set(map(len, faces)) == {2}:
        rays, codims = zip(*faces)
        if _all_subclass(rays, list):
            ints = set(map(type, chain(codims, chain.from_iterable(rays))))
    if bool in ints or not all(issubclass(t, int) for t in ints):
        raise CertificateFormatError(
            f"{where}: complement_faces entries must be [ray index list, codim]"
        )
    pairs = list(zip(map(tuple, rays), codims))
    if ints == {int}:
        return tuple(map(interned.setdefault, pairs, pairs))
    return tuple(pairs)


def _all_subclass(values, base: type) -> bool:
    return all(issubclass(t, base) for t in set(map(type, values)))


def certificate_from_dict(doc) -> CoverCertificate:
    """Parse a certificate document, checking shape only.

    Semantic nonsense (out-of-range indices, unknown kinds, wrong codims)
    parses fine and is the verifier's job to flag; shape problems raise
    CertificateFormatError.
    """
    keys = [f.name for f in fields(CoverCertificate)]
    json_object(doc, keys, CertificateFormatError, "certificate document")
    if not isinstance(doc["fan_digest"], str):
        raise CertificateFormatError("fan_digest must be a string")
    if not isinstance(doc["digest_algorithm"], str):
        raise CertificateFormatError("digest_algorithm must be a string")
    citations = doc["citations"]
    if not isinstance(citations, list) or not all(isinstance(s, str) for s in citations):
        raise CertificateFormatError("citations must be a list of strings")
    if not isinstance(doc["a_covered"], bool):
        raise CertificateFormatError("a_covered must be a boolean")
    charts = doc["charts"]
    if not isinstance(charts, list):
        raise CertificateFormatError("charts must be a list")
    interned: dict = {}
    return CoverCertificate(
        format_version=_require_int(doc, "format_version", "certificate"),
        digest_algorithm=doc["digest_algorithm"],
        fan_digest=doc["fan_digest"],
        citations=tuple(citations),
        charts=tuple(_chart_from_dict(ch, i, interned) for i, ch in enumerate(charts)),
        a_covered=doc["a_covered"],
    )


def certificate_to_json(cert: CoverCertificate) -> str:
    """One line of compact, key-sorted JSON; CertificateFormatError if a
    number is too long to write."""
    # The text of compact_json(certificate_to_dict(cert)) + "\n", with each
    # distinct complement tuple encoded once: the charts of one extended
    # cone share one tuple.  The document is encoded with every complement
    # empty and split at those keys.  The split is exact: compact stdlib
    # JSON writes each " inside a string as \", so an unescaped
    # "complement_faces": can only be a key, and every key in a certificate
    # document is a fixed name, this one a chart's.  Only a field holding a
    # dict in place of its declared type could add a key; zip's strict
    # check then refuses the certificate rather than misplace a list.  The
    # memo is keyed by id(); cert keeps each tuple alive for the whole call.
    empty = '"complement_faces":[]'
    try:
        head, *tails = compact_json(_certificate_doc(cert)).split(empty)
        encoded: dict[int, str] = {}
        pieces = [head]
        for ch, tail in zip(cert.charts, tails, strict=True):
            faces = ch.complement_faces
            text = encoded.get(id(faces))
            if text is None:
                text = encoded[id(faces)] = compact_json(faces)
            pieces += ('"complement_faces":', text, tail)
        pieces.append("\n")
        return "".join(pieces)
    except ValueError as exc:
        raise CertificateFormatError(f"certificate cannot be written as JSON: {exc}") from exc


def certificate_from_json(text: str) -> CoverCertificate:
    return certificate_from_dict(load_json(text, CertificateFormatError, "certificate"))
