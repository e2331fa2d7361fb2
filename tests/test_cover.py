"""Chart construction, cover certificates, and the independent verifier."""

import copy
import dataclasses
import hashlib
import json
import random
import re
import sys
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricflex import cover, intlinalg
from toricflex.cli import main
from toricflex.conegeom import QuotientGroup
from toricflex.cover import (
    CITATIONS,
    DIGEST_ALGORITHM,
    FORMAT_VERSION,
    KIND_AFFINE_SPACE,
    KIND_FLEXIBLE_COMPLEMENT,
    ChartCertificate,
    CoverCertificate,
    _chart,
    _complement_findings,
    _removed_faces,
    build_cover,
    certificate_from_dict,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
    verify_certificate,
)
from toricflex.errors import (
    CertificateFormatError,
    DegenerateError,
    InvalidFanError,
    NotSmoothError,
)
from toricflex.fans import (
    Fan,
    fan_affine_space,
    fan_digest,
    fan_hirzebruch,
    fan_product,
    fan_projective_space,
    fan_punctured_affine,
    fan_to_json,
    make_fan,
    star_subdivision,
    torus_factor_rank,
    validate_fan,
)
from toricflex.jsonfmt import compact_json

from oracles import change_basis, cycles_in_round_trip, greedy_added_rays, unimodular_bases
from test_skeletons import skeleton_fans


def skew_fan():
    # Two separate rays whose joint lattice has index 2.
    return make_fan(2, [(1, 0), (1, 2)], [(0,), (1,)])


def p2_one_skeleton():
    # The three rays of P^2, each a maximal cone of its own.
    return make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0,), (1,), (2,)])


def mixed_fan():
    # One full quadrant plus an opposite half-line: the cover mixes kinds.
    return make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)])


class TestBuildChart:
    def test_punctured_plane_charts(self):
        f = fan_punctured_affine(2)
        ch0, ch1 = build_cover(f).charts
        assert ch0.kind == KIND_FLEXIBLE_COMPLEMENT
        assert ch0.added_ray_indices == (1,)
        assert ch0.cprime_ray_indices == (0, 1)
        assert ch0.quotient.is_trivial
        assert ch0.complement_faces == (((0, 1), 2),)
        assert ch0.min_complement_codim == 2
        assert ch1.added_ray_indices == (0,)
        assert ch1.cprime_ray_indices == (0, 1)
        assert ch1.complement_faces == (((0, 1), 2),)

    def test_full_dimensional_cone_gives_affine_space(self):
        f = fan_projective_space(2)
        ch = build_cover(f).charts[0]
        assert ch.kind == KIND_AFFINE_SPACE
        assert ch.added_ray_indices == ()
        assert ch.cprime_ray_indices == f.max_cones[0]
        assert ch.quotient == QuotientGroup(invariant_factors=(), order=1)
        assert ch.complement_faces == ()
        assert ch.min_complement_codim == 3

    def test_punctured_three_space_chart(self):
        f = fan_punctured_affine(3)
        ch = build_cover(f).charts[2]
        assert ch.added_ray_indices == (0, 1)
        assert ch.cprime_ray_indices == (0, 1, 2)
        faces = dict(ch.complement_faces)
        assert set(faces) == {(0, 1), (0, 2), (1, 2), (0, 1, 2)}
        assert sorted(faces.values()) == [2, 2, 2, 3]
        assert ch.min_complement_codim == 2

    def test_punctured_four_space_complement_count(self):
        charts = build_cover(fan_punctured_affine(4)).charts
        assert len(charts) == 4
        for ch in charts:
            # 16 faces of the extended cone, minus the zero face, the
            # cone's own ray, and the three added rays.
            assert len(ch.complement_faces) == 11
            assert ch.min_complement_codim == 2

    def test_skew_fan_quotient(self):
        charts = build_cover(skew_fan()).charts
        assert len(charts) == 2
        for ch in charts:
            assert ch.quotient == QuotientGroup(invariant_factors=(2,), order=2)


class TestBuildCover:
    def test_complete_smooth_fan_is_fully_affine(self):
        cert = build_cover(fan_projective_space(2))
        assert cert.a_covered
        assert [ch.kind for ch in cert.charts] == [KIND_AFFINE_SPACE] * 3
        assert cert.format_version == FORMAT_VERSION
        assert cert.digest_algorithm == DIGEST_ALGORITHM
        assert cert.citations == CITATIONS

    def test_punctured_fan_needs_complements(self):
        cert = build_cover(fan_punctured_affine(3))
        assert not cert.a_covered
        assert [ch.kind for ch in cert.charts] == [KIND_FLEXIBLE_COMPLEMENT] * 3

    def test_mixed_kinds(self):
        cert = build_cover(mixed_fan())
        kinds = [ch.kind for ch in cert.charts]
        assert KIND_AFFINE_SPACE in kinds and KIND_FLEXIBLE_COMPLEMENT in kinds
        assert not cert.a_covered

    def test_charts_follow_max_cone_order(self):
        cert = build_cover(fan_hirzebruch(1))
        assert [ch.cone_index for ch in cert.charts] == [0, 1, 2, 3]

    def test_invalid_fan_rejected(self):
        f = make_fan(2, [(1, 0), (0, 1)], [(0, 1), (0, 1)])
        with pytest.raises(InvalidFanError):
            build_cover(f)

    def test_nonsmooth_fan_rejected(self):
        f = make_fan(2, [(1, 0), (1, 2)], [(0, 1)])
        with pytest.raises(NotSmoothError) as err:
            build_cover(f)
        assert "(0, 1)" in str(err.value)

    def test_degenerate_fan_rejected(self):
        f = make_fan(2, [(1, 0)], [(0,)])
        with pytest.raises(DegenerateError) as err:
            build_cover(f)
        assert "torus_factor_rank = 1" in str(err.value)


# Fans that fail the cover hypotheses, alone and together, with the error
# build_cover raises (the first failure in exit-code order) and, for those
# that are not smooth, a 2-face to subdivide at.
HYPOTHESIS_FAILURES = [
    pytest.param(2, [(1, 0), (0, 1)], [(0, 1), (0, 1)], InvalidFanError, None, id="invalid"),
    pytest.param(2, [(1, 0), (1, 2)], [(0, 1)], NotSmoothError, (0, 1), id="nonsmooth"),
    pytest.param(2, [(1, 0)], [(0,)], DegenerateError, None, id="degenerate"),
    pytest.param(
        2, [(1, 0), (1, 2)], [(0, 1), (0, 1)], InvalidFanError, (0, 1),
        id="invalid-and-nonsmooth",
    ),
    pytest.param(
        3, [(1, 0, 0), (1, 2, 0)], [(0, 1)], NotSmoothError, (0, 1),
        id="degenerate-and-nonsmooth",
    ),
]


@pytest.mark.parametrize("rank_, rays, cones, first, face", HYPOTHESIS_FAILURES)
def test_one_hypothesis_rule_words_cover_verify_and_subdivide(rank_, rays, cones, first, face):
    f = make_fan(rank_, rays, cones)
    prefix = "hypothesis failure: "
    findings = [
        s[len(prefix):]
        for s in verify_certificate(f, build_cover(fan_projective_space(2))).findings
        if s.startswith(prefix)
    ]
    with pytest.raises(first) as err:
        build_cover(f)
    assert str(err.value) == findings[0]
    nonsmooth = [s for s in findings if s.endswith(" is not smooth")]
    if face is None:
        assert nonsmooth == []
    else:
        with pytest.raises(NotSmoothError) as sub_err:
            star_subdivision(f, face)
        assert nonsmooth == [str(sub_err.value)]
        if first is NotSmoothError:
            assert str(sub_err.value) == str(err.value)


def count_calls(monkeypatch, name: str) -> list:
    """Count calls to intlinalg.<name> through every binding in toricflex."""
    calls: list = []
    original = getattr(intlinalg, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "toricflex" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


# Two invalid fans, neither complete: a 2-cone whose relative interior
# crosses the positive orthant, added to the orthant in rank 3 and to P^5.
CROSSED = {
    "crossing": make_fan(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, -1), (-1, 1, 2)], [(0, 1, 2), (3, 4)]
    ),
    "p5_crossed": make_fan(
        5,
        fan_projective_space(5).rays + ((2, 1, -1, 0, 0), (-1, 1, 2, 0, 0)),
        fan_projective_space(5).max_cones + ((6, 7),),
    ),
}


class TestSmoothnessTestedOnce:
    """Each maximal cone is tested for smoothness at most once per command:
    by the hypothesis check in build and verify, which stops at the first
    cone that fails and never reaches an invalid fan's cones, and by
    star_subdivision in subdivide.  A full-dimensional cone's test needs no
    Smith form, and on a complete fan the check reads it from the
    determinants of the completeness test.  The counts are exact, so a
    repeated scan shows as a doubled count."""

    def test_projective_space_cover_and_verify(self, monkeypatch):
        f = fan_projective_space(5)
        smooth_tests = count_calls(monkeypatch, "extends_to_z_basis")
        smith_forms = count_calls(monkeypatch, "snf")
        cert = build_cover(f)
        assert (len(smooth_tests), len(smith_forms)) == (0, 0)
        assert verify_certificate(f, cert).passed
        assert (len(smooth_tests), len(smith_forms)) == (0, 0)

    def test_subdivide_tests_each_cone_once(self, monkeypatch, tmp_path):
        path = tmp_path / "p3.json"
        path.write_text(fan_to_json(fan_projective_space(3)), encoding="utf-8")
        smooth_tests = count_calls(monkeypatch, "extends_to_z_basis")
        out = str(tmp_path / "out.json")
        assert main(["subdivide", "--input", str(path), "--cone", "0,1", "--output", out]) == 0
        assert len(smooth_tests) == 4

    def test_punctured_affine_cover(self, monkeypatch):
        f = fan_punctured_affine(10)
        smooth_tests = count_calls(monkeypatch, "extends_to_z_basis")
        build_cover(f)
        assert len(smooth_tests) == 10

    @pytest.mark.parametrize("name", list(CROSSED))
    def test_cover_refuses_an_invalid_fan_before_the_smoothness_scan(
        self, monkeypatch, tmp_path, capsys, name
    ):
        f = CROSSED[name]
        path = tmp_path / "f.json"
        path.write_text(fan_to_json(f), encoding="utf-8")
        report = validate_fan(f)
        smooth_tests = count_calls(monkeypatch, "extends_to_z_basis")
        out = tmp_path / "f.cert.json"
        assert main(["cover", "--input", str(path), "--output", str(out)]) == 1
        message = "fan is invalid: " + "; ".join(report.diagnostics)
        assert capsys.readouterr().err == f"toricflex: {message}\n"
        assert smooth_tests == [] and not out.exists()
        # The scan the command skips: validate_fan tests the cones up to the
        # crossing 2-cone, which is not smooth.
        assert not validate_fan(f).smooth and smooth_tests

    def test_a_nonsmooth_fan_is_scanned_once(self, monkeypatch):
        # One cone, of index 2: the scan tests it once and stops.
        f = make_fan(2, [(1, 0), (1, 2)], [(0, 1)])
        cert = build_cover(fan_projective_space(2))
        smooth_tests = count_calls(monkeypatch, "extends_to_z_basis")
        with pytest.raises(NotSmoothError):
            build_cover(f)
        assert len(smooth_tests) == 1
        assert not verify_certificate(f, cert).passed
        assert len(smooth_tests) == 2


class TestVerify:
    def all_fans(self):
        return [
            fan_projective_space(1),
            fan_projective_space(3),
            fan_hirzebruch(2),
            fan_product(fan_projective_space(1), fan_projective_space(1)),
            fan_punctured_affine(2),
            fan_punctured_affine(4),
            skew_fan(),
            mixed_fan(),
        ]

    def test_fresh_certificates_verify(self):
        for f in self.all_fans():
            outcome = verify_certificate(f, build_cover(f))
            assert outcome.passed, outcome.findings
            assert outcome.findings == ()

    def test_certificate_against_wrong_fan(self):
        cert = build_cover(fan_projective_space(2))
        outcome = verify_certificate(fan_hirzebruch(0), cert)
        assert not outcome.passed
        assert any("fan digest mismatch" in s for s in outcome.findings)

    def test_cone_that_is_not_smooth_is_only_a_hypothesis_failure(self):
        # A complete fan with the cone indices of P^2 whose cone (1, 2),
        # spanned by (1, 0) and (1, 2), has index 2.  P^2's charts match it
        # chart for chart once the digest does; the cone is named once.
        f = make_fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        doc = certificate_to_dict(build_cover(fan_projective_space(2)))
        doc["fan_digest"] = fan_digest(f)
        outcome = verify_certificate(f, certificate_from_dict(doc))
        assert outcome.findings == ("hypothesis failure: maximal cone (1, 2) is not smooth",)


def mutated(fan: Fan, change) -> tuple[bool, tuple[str, ...]]:
    """Apply a dict-level mutation to a fresh certificate and verify it."""
    doc = certificate_to_dict(build_cover(fan))
    change(doc)
    outcome = verify_certificate(fan, certificate_from_dict(doc))
    return outcome.passed, outcome.findings


class TestVerifyMutations:
    def test_dropped_chart(self):
        def change(doc):
            del doc["charts"][1]

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any("maximal cone 1 uncovered" in s for s in findings)

    def test_duplicated_chart(self):
        def change(doc):
            doc["charts"].append(doc["charts"][0])

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any("maximal cone 0 covered by 2 charts" in s for s in findings)

    def test_chart_for_nonexistent_cone(self):
        def change(doc):
            doc["charts"][0]["cone_index"] = 7

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any("nonexistent maximal cone 7" in s for s in findings)
        assert any("maximal cone 0 uncovered" in s for s in findings)

    def test_dropped_complement_face(self):
        def change(doc):
            doc["charts"][0]["complement_faces"] = []

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any(
            "1 of the 1 removed faces of the extended cone unaccounted" in s for s in findings
        )

    def test_extra_complement_face(self):
        def change(doc):
            doc["charts"][0]["complement_faces"].append([[0], 1])

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any("retained by the chart, not removed" in s for s in findings)
        assert any("below the required 2" in s for s in findings)

    def test_listed_face_outside_the_extended_cone(self):
        # Chart 0 of punctured A^3 extends ray 0 by rays 1 and 2; rays 99
        # and 5 lie outside that extended cone, so neither listed face is
        # one the chart could retain.
        def change(doc):
            doc["charts"][0]["complement_faces"] += [[[0, 99], 2], [[5], 1]]

        passed, findings = mutated(fan_punctured_affine(3), change)
        tag = "chart for maximal cone 0"
        assert findings == (
            f"{tag}: face (0, 99) is not a face of the extended cone",
            f"{tag}: face (5,) is not a face of the extended cone",
            f"{tag}: complement face (5,) has codimension 1, below the required 2",
        )

    def test_listed_face_with_rays_out_of_order(self):
        # Chart 0 of punctured A^3 removes (0, 1) first; listed as [1, 0] it
        # is that face with its rays out of order, and (0, 1) goes unlisted.
        def change(doc):
            doc["charts"][0]["complement_faces"][0][0] = [1, 0]

        passed, findings = mutated(fan_punctured_affine(3), change)
        tag = "chart for maximal cone 0"
        assert findings == (
            f"{tag}: 1 of the 4 removed faces of the extended cone unaccounted",
            f"{tag}: face (1, 0) lists the rays of face (0, 1) out of order",
        )

    def test_listed_face_repeating_a_ray(self):
        def change(doc):
            doc["charts"][0]["complement_faces"].append([[0, 0], 2])

        passed, findings = mutated(fan_punctured_affine(3), change)
        assert findings == ("chart for maximal cone 0: face (0, 0) repeats a ray",)

    def test_wrong_face_codimension(self):
        def change(doc):
            doc["charts"][0]["complement_faces"][0][1] = 3

        passed, findings = mutated(skew_fan(), change)
        assert findings == (
            "chart for maximal cone 0: face (0, 1) has codimension 2, certificate says 3",
        )

    def test_wrong_min_codimension(self):
        def change(doc):
            doc["charts"][0]["min_complement_codim"] = 9

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any(
            "min_complement_codim is 9, recomputation gives 2" in s for s in findings
        )

    def test_tampered_quotient_factors(self):
        def change(doc):
            doc["charts"][0]["quotient"]["invariant_factors"] = [5]

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any(
            "quotient invariant factors [5] differ from recomputed [2]" in s
            for s in findings
        )

    def test_tampered_quotient_order(self):
        def change(doc):
            doc["charts"][0]["quotient"]["order"] = 7

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any(
            "quotient order 7 differs from recomputed 2" in s for s in findings
        )

    def test_flipped_kind(self):
        def change(doc):
            doc["charts"][0]["kind"] = KIND_AFFINE_SPACE

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any("requires 'FlexibleComplement'" in s for s in findings)

    def test_added_ray_already_in_cone(self):
        def change(doc):
            doc["charts"][0]["added_ray_indices"] = [0]
            doc["charts"][0]["cprime_ray_indices"] = [0]

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any(
            "added rays [0] already belong to the maximal cone" in s
            for s in findings
        )

    def test_added_ray_out_of_range(self):
        # Index 3 equals the ray count of the P^2 1-skeleton, one past its last ray.
        for fan, index in ((skew_fan(), 44), (p2_one_skeleton(), 3)):

            def change(doc):
                doc["charts"][0]["added_ray_indices"] = [index]

            passed, findings = mutated(fan, change)
            assert not passed
            assert any(f"added ray indices [{index}] are out of range" in s for s in findings)

    def test_wrong_extended_cone(self):
        def change(doc):
            doc["charts"][0]["cprime_ray_indices"] = [0]

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any(
            "do not equal the maximal cone plus added rays" in s for s in findings
        )

    def test_wrong_dimensions(self):
        # Chart 0 of the P^2 1-skeleton extends its ray by both other rays:
        # the added rays are in range, new and listed in the extended cone,
        # but three rays exceed the ambient rank 2.
        def change(doc):
            doc["charts"][0]["added_ray_indices"] = [1, 2]
            doc["charts"][0]["cprime_ray_indices"] = [0, 1, 2]

        passed, findings = mutated(p2_one_skeleton(), change)
        assert findings == (
            "chart for maximal cone 0: extended cone has 3 rays, ambient rank is 2",
        )

    def test_tampered_digest(self):
        def change(doc):
            doc["fan_digest"] = "0" * 64

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any("fan digest mismatch" in s for s in findings)

    def test_wrong_format_version(self):
        def change(doc):
            doc["format_version"] = 3

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any("format_version is 3" in s for s in findings)

    def test_wrong_digest_algorithm(self):
        def change(doc):
            doc["digest_algorithm"] = "md5"

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any("digest_algorithm is 'md5'" in s for s in findings)

    def test_tampered_citations(self):
        def change(doc):
            doc["citations"] = doc["citations"][:1]

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any("citations do not match" in s for s in findings)

    def test_flipped_a_covered(self):
        def change(doc):
            doc["a_covered"] = True

        passed, findings = mutated(skew_fan(), change)
        assert not passed
        assert any("a_covered is True" in s for s in findings)

    # Chart 0 of P^2, here and in the next two tests, is the
    # full-dimensional cone (0, 1), checked as the chart with no added
    # rays: it removes no face, so its minimum codimension is n + 1 = 3,
    # and its quotient is trivial.
    def test_affine_chart_with_junk_complement(self):
        tag = "chart for maximal cone 0"
        for faces, codim, expected in (
            (
                [[[0, 1], 2]],
                2,
                (
                    f"{tag}: face (0, 1) is retained by the chart, not removed",
                    f"{tag}: min_complement_codim is 2, recomputation gives 3",
                ),
            ),
            ([], 9, (f"{tag}: min_complement_codim is 9, recomputation gives 3",)),
        ):

            def change(doc):
                doc["charts"][0]["complement_faces"] = faces
                doc["charts"][0]["min_complement_codim"] = codim

            passed, findings = mutated(fan_projective_space(2), change)
            assert findings == expected

    def test_affine_chart_with_added_rays(self):
        for added, cprime, finding in (
            (
                [2],
                [0, 1],
                "extended cone rays (0, 1) do not equal the maximal cone plus added rays (0, 1, 2)",
            ),
            ([0], [0, 1], "added rays [0] already belong to the maximal cone"),
            ([2], [0, 1, 2], "extended cone has 3 rays, ambient rank is 2"),
        ):

            def change(doc):
                doc["charts"][0]["added_ray_indices"] = added
                doc["charts"][0]["cprime_ray_indices"] = cprime

            passed, findings = mutated(fan_projective_space(2), change)
            assert findings == (f"chart for maximal cone 0: {finding}",)

    def test_affine_chart_with_nontrivial_quotient(self):
        def change(doc):
            doc["charts"][0]["quotient"] = {"invariant_factors": [2], "order": 2}

        passed, findings = mutated(fan_projective_space(2), change)
        assert findings == (
            "chart for maximal cone 0: quotient invariant factors [2] differ from recomputed []",
            "chart for maximal cone 0: quotient order 2 differs from recomputed 1",
        )

    def test_repeated_added_rays(self):
        # Punctured 3-space: chart 0 extends the ray 0 by the rays 1 and 2.
        def change(doc):
            doc["charts"][0]["added_ray_indices"] = [1, 1]

        passed, findings = mutated(fan_punctured_affine(3), change)
        assert not passed
        assert findings == ("chart for maximal cone 0: added ray indices [1, 1] repeat",)

    def test_dependent_extended_cone(self):
        # In the mixed fan ray 0 is (-1, 0) and the half-line is maximal
        # cone 0; adding ray 2, (1, 0), gives a line, not a pointed cone.
        def change(doc):
            doc["charts"][0]["added_ray_indices"] = [2]
            doc["charts"][0]["cprime_ray_indices"] = [0, 2]

        passed, findings = mutated(mixed_fan(), change)
        assert not passed
        assert findings == (
            "chart for maximal cone 0: extended cone generators are rationally dependent",
        )

    def test_complement_face_listed_twice(self):
        def change(doc):
            faces = doc["charts"][0]["complement_faces"]
            faces.append(faces[0])

        passed, findings = mutated(fan_punctured_affine(3), change)
        assert not passed
        assert findings == (
            "chart for maximal cone 0: face (0, 1) listed more than once in the complement",
        )

    def test_reordered_complement_still_verifies(self):
        for fan in (fan_punctured_affine(4), skew_fan(), mixed_fan()):

            def change(doc):
                for ch in doc["charts"]:
                    random.Random(len(ch["complement_faces"])).shuffle(ch["complement_faces"])
                    ch["complement_faces"].reverse()

            passed, findings = mutated(fan, change)
            assert passed, findings

    def test_expected_complement_has_no_findings(self):
        # The verifier skips the per-face checks when the listed complement
        # equals the rule's list; they must find nothing in that case.
        fans = (fan_punctured_affine(5), fan_affine_space(2), skew_fan(), mixed_fan())
        for fan in fans:
            for ch in build_cover(fan).charts:
                faces, cprime = ch.complement_faces, ch.cprime_ray_indices
                cone = fan.max_cones[ch.cone_index]
                found = _complement_findings("chart", faces, len(faces), cprime, cone)
                assert found == []


def in_extension_skeleton(face, cone: set[int], added: set[int]) -> bool:
    """The complement rule case by case, the oracle: the faces a chart keeps.

    Every face of the original cone, each added ray alone, and the zero face.
    """
    if not face:
        return True
    if set(face) <= cone:
        return True
    return len(face) == 1 and face[0] in added


SMOOTH_COMPLETE = {
    2: (fan_projective_space(2), fan_hirzebruch(1), fan_hirzebruch(3)),
    3: (
        fan_projective_space(3),
        fan_product(fan_projective_space(1), fan_projective_space(2)),
        star_subdivision(fan_projective_space(3), (0, 1)),
    ),
    4: (
        fan_projective_space(4),
        fan_product(fan_projective_space(1), fan_projective_space(3)),
        fan_product(fan_projective_space(2), fan_projective_space(2)),
    ),
}


@st.composite
def lower_dimensional_fans(draw):
    """Smooth nondegenerate fans of rank at most 4 with lower-dimensional cones.

    The maximal cones are k-faces of a smooth complete fan for one k below
    the rank, plus some of its maximal cones that contain none of them;
    faces of a fan form a fan again.  In rank 4 with k = 2 each such cone
    has two added rays.  A unimodular change of basis moves the rays off
    the coordinate axes.
    """
    n = draw(st.integers(2, 4))
    base = draw(st.sampled_from(SMOOTH_COMPLETE[n]))
    k = draw(st.integers(1, n - 1))
    faces = sorted({sub for c in base.max_cones for sub in combinations(c, k)})
    cones = draw(st.lists(st.sampled_from(faces), min_size=1, max_size=8, unique=True))
    for c in draw(st.lists(st.sampled_from(base.max_cones), max_size=3, unique=True)):
        if not any(set(face) <= set(c) for face in cones):
            cones.append(c)
    basis = draw(unimodular_bases(n))
    used = sorted({i for c in cones for i in c})
    rays = change_basis([base.rays[i] for i in used], basis)
    remap = {old: new for new, old in enumerate(used)}
    fan = make_fan(n, rays, [tuple(remap[i] for i in c) for c in cones])
    assume(torus_factor_rank(fan) == 0)
    return fan


UNIT_4 = [tuple(int(i == j) for j in range(4)) for i in range(4)]


class TestComplementRule:
    @settings(deadline=None, max_examples=150)
    @given(fan=lower_dimensional_fans())
    @example(fan=make_fan(4, UNIT_4, [(0, 1), (2, 3)]))
    @example(fan=make_fan(4, UNIT_4 + [(-1, -1, 0, 0)], [(0, 1, 2), (1, 4), (3,)]))
    def test_complement_matches_the_case_by_case_rule(self, fan):
        cert = build_cover(fan)
        for ch in cert.charts:
            cone, added = set(fan.max_cones[ch.cone_index]), set(ch.added_ray_indices)
            cprime = ch.cprime_ray_indices
            expected = [
                (face, size)
                for size in range(len(cprime) + 1)
                for face in combinations(cprime, size)
                if not in_extension_skeleton(face, cone, added)
            ]
            assert list(ch.complement_faces) == expected
            assert all(codim == len(face) for face, codim in ch.complement_faces)
        assert verify_certificate(fan, cert).passed

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_removed_faces_closed_form(self, data):
        # The chart removes every face of cprime except the 2^|cone| faces
        # of the cone and the |cprime| - |cone| added rays.
        cprime = tuple(sorted(data.draw(st.sets(st.integers(0, 40), max_size=12))))
        cone = tuple(sorted(data.draw(st.sets(st.sampled_from(cprime))))) if cprime else ()
        faces = list(_removed_faces(cprime, cone))
        assert len(faces) == 2 ** len(cprime) - 2 ** len(cone) - (len(cprime) - len(cone))
        for face, size in faces:
            assert size == len(face) >= 2
            assert set(face) <= set(cprime) and not set(face) <= set(cone)
        keys = [(size, face) for face, size in faces]
        assert keys == sorted(set(keys))


class TestChartExtension:
    """_chart takes its added rays from one elimination per lower-dimensional
    cone; the oracle is the scan it replaced, one rank test per fan ray."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_punctured_affine_matches_greedy_scan(self, n):
        f = fan_punctured_affine(n)
        for i in range(len(f.max_cones)):
            assert _chart(f, i).added_ray_indices == greedy_added_rays(f, i)

    @settings(deadline=None, max_examples=100)
    @given(fan=lower_dimensional_fans())
    def test_random_smooth_fans_match_greedy_scan(self, fan):
        for i in range(len(fan.max_cones)):
            assert _chart(fan, i).added_ray_indices == greedy_added_rays(fan, i)

    @staticmethod
    def count_cover_calls(monkeypatch, name: str) -> list:
        """Count calls through cover's own binding of name, not the fans module's."""
        calls: list = []
        original = getattr(cover, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cover, name, counted)
        return calls

    @pytest.mark.parametrize(
        "f, count",
        [(fan_punctured_affine(10), 10), (fan_projective_space(5), 0)],
        ids=["punctured A^10", "P^5"],
    )
    def test_one_elimination_per_lower_dimensional_cone(self, monkeypatch, f, count):
        # Ten one-ray cones in rank 10; six full-dimensional cones in rank 5.
        # The count also covers any rank test build_cover would make itself.
        eliminations = self.count_cover_calls(monkeypatch, "_bareiss")
        build_cover(f)
        assert len(eliminations) == count

    def test_verifier_lists_no_faces_for_affine_charts(self, monkeypatch):
        # Every chart of P^5 adds no ray: the verifier neither enumerates
        # the 2^5 subsets of its cone nor tests the rank of the cone again.
        f = fan_projective_space(5)
        cert = build_cover(f)
        face_lists = self.count_cover_calls(monkeypatch, "_removed_faces")
        eliminations = self.count_cover_calls(monkeypatch, "_bareiss")
        assert verify_certificate(f, cert).passed
        assert (len(face_lists), len(eliminations)) == (0, 0)


def hollow_punctured_certificate(n: int) -> CoverCertificate:
    """Punctured A^n's certificate with every complement list emptied.

    The other fields are the builder's, derived by hand: chart i adds every
    other ray, the unit vectors have a trivial quotient, and the smallest
    face the rule removes has two rays.  The document is a few KB for any n.
    """
    f = fan_punctured_affine(n)
    charts = tuple(
        ChartCertificate(
            cone_index=i,
            kind=KIND_FLEXIBLE_COMPLEMENT,
            added_ray_indices=tuple(j for j in range(n) if j != i),
            cprime_ray_indices=tuple(range(n)),
            quotient=QuotientGroup((), 1),
            complement_faces=(),
            min_complement_codim=2,
        )
        for i in range(n)
    )
    return CoverCertificate(FORMAT_VERSION, DIGEST_ALGORITHM, fan_digest(f), CITATIONS, charts, False)


# The face a complement finding is about: the first one it names.
NAMED_FACE = re.compile(r"^chart for maximal cone \d+: (?:complement )?face (\(.*?\)) ")


class TestComplementCount:
    """The verifier counts the faces the rule removes by a closed form and
    judges each listed face by the rule; it enumerates the rule's list only
    to compare it with a list of the same length."""

    def test_hollow_certificate_costs_no_enumeration(self, monkeypatch):
        # 2^40 - 2 - 39 faces per chart: enumerating them would never end.
        n = 40
        cert = hollow_punctured_certificate(n)
        face_lists = TestChartExtension.count_cover_calls(monkeypatch, "_removed_faces")
        findings = verify_certificate(fan_punctured_affine(n), cert).findings
        count = 2**n - 2 - (n - 1)
        assert face_lists == []
        assert findings == tuple(
            f"chart for maximal cone {i}: {count} of the {count} removed faces "
            f"of the extended cone unaccounted"
            for i in range(n)
        )

    @settings(deadline=None, max_examples=150)
    @given(
        fan=st.one_of(lower_dimensional_fans(), skeleton_fans().map(lambda drawn: drawn[2])),
        data=st.data(),
    )
    def test_dropped_and_junk_faces(self, fan, data):
        cert = build_cover(fan)
        index = data.draw(st.integers(0, len(cert.charts) - 1))
        ch = cert.charts[index]
        n, cprime = fan.ambient_rank, ch.cprime_ray_indices
        cone, added = set(fan.max_cones[ch.cone_index]), set(ch.added_ray_indices)
        faces = list(ch.complement_faces)
        dropped = data.draw(st.sets(st.sampled_from(range(len(faces))))) if faces else set()
        gone = {faces[i][0] for i in dropped}
        # Junk: any subset of cprime (a retained face, or a listed one once
        # more), its rays permuted, or indices that may leave cprime or repeat.
        subsets = [face for size in range(n + 1) for face in combinations(cprime, size)]
        junk_face = st.one_of(
            st.sampled_from(subsets),
            st.sampled_from(subsets).flatmap(st.permutations).map(tuple),
            st.lists(st.integers(-1, len(fan.rays)), max_size=n + 1).map(tuple),
        )
        junk = data.draw(
            st.lists(
                st.tuples(junk_face, st.integers(-1, n + 2)).filter(lambda p: p[0] not in gone),
                max_size=4,
            )
        )
        listed = data.draw(
            st.permutations([pair for i, pair in enumerate(faces) if i not in dropped] + junk)
        )
        charts = list(cert.charts)
        charts[index] = dataclasses.replace(ch, complement_faces=tuple(listed))
        findings = verify_certificate(fan, dataclasses.replace(cert, charts=tuple(charts))).findings

        # The oracle: the rule case by case over every subset of cprime.
        removed = [face for face in subsets if not in_extension_skeleton(face, cone, added)]
        missing = len(set(removed) - {face for face, _ in listed})
        assert missing == len(dropped)
        tag = f"chart for maximal cone {ch.cone_index}"
        if missing:
            assert findings[0] == (
                f"{tag}: {missing} of the {len(removed)} removed faces "
                f"of the extended cone unaccounted"
            )
            findings = findings[1:]
        named = {NAMED_FACE.match(s).group(1) for s in findings}
        assert named == {str(face) for face, _ in junk}


class TestMatricesCheckedAtTheBoundary:
    """make_fan checks a fan's rays once; the library hands them to the exact
    kernels as plain rows after that.  An IntMatrix, whose constructor checks
    every entry again, is built only by the public functions that take a
    matrix or vectors from outside: here extends_to_z_basis, quotient_group
    and the snf they call."""

    @staticmethod
    def constructions(monkeypatch, f: Fan) -> int:
        """IntMatrix constructions in validate_fan, build_cover and verify_certificate."""
        count = 0
        check = intlinalg.IntMatrix.__post_init__

        def counted(self):
            nonlocal count
            count += 1
            check(self)

        monkeypatch.setattr(intlinalg.IntMatrix, "__post_init__", counted)
        validate_fan(f)
        assert verify_certificate(f, build_cover(f)).passed
        return count

    @pytest.mark.parametrize(
        "f",
        [
            fan_projective_space(5),
            fan_product(fan_projective_space(2), fan_projective_space(2)),
            reduce(fan_product, [fan_projective_space(1)] * 6),
        ],
        ids=["P^5", "P^2xP^2", "(P^1)^6"],
    )
    def test_complete_fans_build_no_matrix(self, monkeypatch, f):
        assert self.constructions(monkeypatch, f) == 0

    def test_punctured_affine_builds_only_smith_form_inputs(self, monkeypatch):
        # Punctured A^8 has eight one-ray cones.  validate_fan, and the
        # hypothesis check of build_cover and of verify, each decide the 28
        # pairs by the rank pretest on rows and build no matrix for
        # torus_factor_rank; the smoothness scan asks extends_to_z_basis about
        # each cone, 1 vector in rank 8, which builds one IntMatrix.  Its
        # 1 x 1 minor on the pivot column is 1, so snf is not called:
        # 8 * 1 = 8.  Each chart's quotient_group builds one IntMatrix, and
        # the extended cone, all eight unit vectors, has |det| = 1, so snf
        # is not called either: 8 * 1 = 8.  The verifier's rank test of each
        # extended cone takes rows, and it tests no cone for smoothness again.
        # validate_fan 8 + build_cover (8 + 8) + verify (8 + 8) = 40.
        assert self.constructions(monkeypatch, fan_punctured_affine(8)) == 40


def distinct_pairs(cert) -> set[int]:
    """The ids of the (face, codim) objects across all charts of a certificate."""
    return {id(pair) for ch in cert.charts for pair in ch.complement_faces}


class TestSharedComplement:
    """All eight charts of punctured A^8 remove the same 2^8 - 8 - 1 = 247
    faces, and each of them is one object, in the builder and in the reader."""

    def test_build_cover_shares_each_pair(self):
        cert = build_cover(fan_punctured_affine(8))
        assert sum(len(ch.complement_faces) for ch in cert.charts) == 8 * 247
        assert len(distinct_pairs(cert)) == 247

    def test_reader_interns_each_pair(self):
        cert = certificate_from_json(certificate_to_json(build_cover(fan_punctured_affine(8))))
        assert sum(len(ch.complement_faces) for ch in cert.charts) == 8 * 247
        assert len(distinct_pairs(cert)) == 247

    def test_reader_interns_a_list_with_an_empty_face(self):
        # An empty face is refused by the verifier, not by the reader, and
        # its pair is interned like the others: 247 + 1 distinct pairs.
        doc = certificate_to_dict(build_cover(fan_punctured_affine(8)))
        for chart in doc["charts"]:
            chart["complement_faces"].append([[], 2])
        cert = certificate_from_dict(doc)
        assert sum(len(ch.complement_faces) for ch in cert.charts) == 8 * 248
        assert len(distinct_pairs(cert)) == 248

    def test_two_builds_share_nothing(self):
        # The memo lives for one call: no cache outlives it.
        f = fan_punctured_affine(8)
        first, second = build_cover(f), build_cover(f)
        assert first == second
        assert distinct_pairs(first).isdisjoint(distinct_pairs(second))


@pytest.mark.parametrize(
    "f",
    [fan_punctured_affine(8), fan_projective_space(4), fan_hirzebruch(2)],
    ids=["punctured A^8", "P^4", "F_2"],
)
def test_the_data_path_leaves_no_reference_cycles(f):
    # The CLI pauses the cycle collector while a command runs; this is
    # what makes that safe.  Skeleton fans are checked in test_skeletons.py.
    assert cycles_in_round_trip(f) == 0


class IntSubclass(int):
    pass


class ListSubclass(list):
    pass


def per_entry_complement(faces, where):
    """The reader's complement check one entry at a time, the oracle."""
    parsed = []
    for entry in faces:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[0], list)
            or any(isinstance(x, bool) or not isinstance(x, int) for x in entry[0])
            or isinstance(entry[1], bool)
            or not isinstance(entry[1], int)
        ):
            raise CertificateFormatError(
                f"{where}: complement_faces entries must be [ray index list, codim]"
            )
        parsed.append((tuple(entry[0]), entry[1]))
    return tuple(parsed)


ATOMS = (
    st.integers(-2, 9)
    | st.booleans()
    | st.integers(-2, 9).map(IntSubclass)
    | st.floats(allow_nan=False)
    | st.text(max_size=2)
    | st.none()
)
RAY_LISTS = (
    st.lists(ATOMS, max_size=3)
    | st.lists(st.integers(0, 9), max_size=3).map(ListSubclass)
    | st.lists(st.integers(0, 9), max_size=3).map(tuple)
    | ATOMS
)
ENTRIES = (
    st.tuples(RAY_LISTS, ATOMS).map(ListSubclass)
    | st.tuples(RAY_LISTS, ATOMS).map(tuple)
    | st.lists(ATOMS | RAY_LISTS, max_size=3)
    | ATOMS
)


SKEW_DOC = certificate_to_dict(build_cover(skew_fan()))


@st.composite
def complement_lists(draw):
    """Well-formed complement lists, some with one part made hostile."""
    faces = draw(
        st.lists(
            st.tuples(st.lists(st.integers(0, 9), max_size=4), st.integers(0, 9)).map(list),
            max_size=4,
        )
    )
    part = draw(st.sampled_from(["none", "entry", "face", "ray", "codim"]))
    if faces and part != "none":
        i = draw(st.integers(0, len(faces) - 1))
        if part == "entry":
            faces[i] = draw(ENTRIES)
        elif part == "face":
            faces[i][0] = draw(RAY_LISTS)
        elif part == "ray":
            faces[i][0].insert(draw(st.integers(0, len(faces[i][0]))), draw(ATOMS))
        else:
            faces[i][1] = draw(ATOMS)
    return faces


# sha256 of the indented format 2 certificate of each fan.  Each equals the
# digest of the format 1 document with its report, each chart's k and n
# removed and format_version set to 2.  Certificates are written compact and
# hashed after re-indenting, so the digests show that the document is
# unchanged.  A deliberate format change updates them.
GOLDEN_DIGESTS = [
    pytest.param(
        lambda: fan_projective_space(2),
        "aba9f0d5e7bae2185f4f2bb14f67aa98b5baf165456f3ed4876a4057da7714df",
        id="P2",
    ),
    pytest.param(
        lambda: fan_hirzebruch(2),
        "8c3725ee3727a3e3429112753d2e4a3d44209a19f351210adea117c0a34e5174",
        id="F2",
    ),
    pytest.param(
        lambda: fan_product(fan_projective_space(1), fan_projective_space(1)),
        "3cb72720e74f8519d92eddee40664409e813603e413e72efa55bc628647fd862",
        id="P1xP1",
    ),
    pytest.param(
        lambda: fan_product(fan_projective_space(1), fan_projective_space(3)),
        "aa9c51bae4554075c2234d2def413454cffdebb0638a49134834bae4c8880f1c",
        id="P1xP3",
    ),
    pytest.param(
        lambda: fan_punctured_affine(3),
        "ff78164dc4f407872c7bf1cf3bb81716280e6d121b4c14258d4f8b5c83672a66",
        id="A3*",
    ),
    pytest.param(
        lambda: fan_punctured_affine(8),
        "df93c4d9ba47424ede1ff5f70e06df999b6932af831f63774ee26bb3acb4278e",
        id="A8*",
    ),
]


# The key names of a certificate document, written out rather than read
# from the dataclasses, so that renaming a field breaks this contract loudly.
CERTIFICATE_KEYS = (
    "format_version",
    "digest_algorithm",
    "fan_digest",
    "citations",
    "charts",
    "a_covered",
)
CHART_KEYS = (
    "cone_index",
    "kind",
    "added_ray_indices",
    "cprime_ray_indices",
    "quotient",
    "complement_faces",
    "min_complement_codim",
)


class TestCertificateSerialization:
    @pytest.mark.parametrize("fan, digest", GOLDEN_DIGESTS)
    def test_golden_digests(self, fan, digest):
        text = certificate_to_json(build_cover(fan()))
        doc = json.loads(text)
        assert text == compact_json(doc) + "\n"
        indented = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(indented.encode("utf-8")).hexdigest() == digest

    @settings(deadline=None, max_examples=300)
    @given(complement_lists(), st.integers(0, 1))
    @example([[[0, IntSubclass(1)], 2]], 1)
    @example([[[0, 1], 2], [[IntSubclass(0), 1], 2]], 0)
    @example([[[0, 1], 2], [[0], 2, 3]], 0)
    def test_reader_agrees_with_per_entry_check(self, faces, position):
        # Both charts of SKEW_DOC list [[0, 1], 2].  In chart 1 the drawn
        # list is read after chart 0's pairs are interned, so a pair of int
        # subclasses must not come back as chart 0's pair of plain ints; the
        # first two examples pin that case and its twin within one list.
        # The third has an entry of three items, which a transpose of the
        # list alone would cut to two.
        doc = copy.deepcopy(SKEW_DOC)
        doc["charts"][position]["complement_faces"] = faces
        try:
            expected = per_entry_complement(faces, f"chart {position}")
        except CertificateFormatError as exc:
            with pytest.raises(CertificateFormatError) as ours:
                certificate_from_dict(doc)
            assert str(ours.value) == str(exc)
            return
        got = certificate_from_dict(doc).charts[position].complement_faces
        assert got == expected
        assert [(list(map(type, f)), type(c)) for f, c in got] == [
            (list(map(type, f)), type(c)) for f, c in expected
        ]

    @pytest.mark.parametrize(
        "part, key",
        [("certificate", key) for key in CERTIFICATE_KEYS]
        + [("chart", key) for key in CHART_KEYS],
    )
    def test_missing_key_message(self, part, key):
        doc = certificate_to_dict(build_cover(skew_fan()))
        target = {"certificate": doc, "chart": doc["charts"][0]}
        del target[part][key]
        prefix = {"certificate": "certificate document", "chart": "chart 0"}
        with pytest.raises(CertificateFormatError) as exc:
            certificate_from_dict(doc)
        assert str(exc.value) == f"{prefix[part]} is missing keys: ['{key}']"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda doc: doc.update(digest_algorithm=256),
                "digest_algorithm must be a string",
            ),
            (lambda doc: doc["charts"].__setitem__(0, []), "chart 0 must be a JSON object"),
            (
                lambda doc: doc["charts"][0].update(complement_faces={}),
                "chart 0: complement_faces must be a list",
            ),
            (lambda doc: doc.update(fan_digest=None), "fan_digest must be a string"),
            (
                lambda doc: doc.clear(),
                "certificate document is missing keys: ['a_covered', 'charts', "
                "'citations', 'digest_algorithm', 'fan_digest', 'format_version']",
            ),
        ],
    )
    def test_shape_error_messages(self, edit, message):
        doc = certificate_to_dict(build_cover(skew_fan()))
        edit(doc)
        with pytest.raises(CertificateFormatError) as exc:
            certificate_from_dict(doc)
        assert str(exc.value) == message

    def test_reader_ignores_a_malformed_report(self):
        # Format 1 stored the fan report under "report"; the reader skips
        # that key whatever it holds, so a format 1 certificate still parses.
        doc = certificate_to_dict(build_cover(skew_fan()))
        cert = certificate_from_dict(doc)
        doc["report"] = []
        assert certificate_from_dict(doc) == cert

    def test_non_object_document_message(self):
        with pytest.raises(CertificateFormatError) as exc:
            certificate_from_json("[]")
        assert str(exc.value) == "certificate document must be a JSON object"

    def test_round_trip(self):
        for f in (fan_projective_space(2), fan_punctured_affine(3), skew_fan()):
            cert = build_cover(f)
            assert certificate_from_json(certificate_to_json(cert)) == cert
            assert certificate_from_dict(certificate_to_dict(cert)) == cert

    def test_byte_determinism(self):
        f = fan_punctured_affine(3)
        assert certificate_to_json(build_cover(f)) == certificate_to_json(
            build_cover(f)
        )

    def test_semantic_nonsense_still_parses(self):
        doc = certificate_to_dict(build_cover(skew_fan()))
        doc["charts"][0]["kind"] = "Banana"
        doc["charts"][0]["cone_index"] = 42
        cert = certificate_from_dict(doc)
        assert cert.charts[0].kind == "Banana"

    def test_shape_errors(self):
        good = certificate_to_dict(build_cover(skew_fan()))

        with pytest.raises(CertificateFormatError):
            certificate_from_json("nope")
        with pytest.raises(CertificateFormatError):
            certificate_from_dict([good])

        for key in ("format_version", "charts", "a_covered"):
            broken = dict(good)
            del broken[key]
            with pytest.raises(CertificateFormatError):
                certificate_from_dict(broken)

        broken = dict(good)
        broken["format_version"] = "1"
        with pytest.raises(CertificateFormatError):
            certificate_from_dict(broken)

        broken = dict(good)
        broken["a_covered"] = "yes"
        with pytest.raises(CertificateFormatError):
            certificate_from_dict(broken)

        broken = dict(good)
        broken["citations"] = [1, 2]
        with pytest.raises(CertificateFormatError):
            certificate_from_dict(broken)

        broken = dict(good)
        broken["charts"] = "many"
        with pytest.raises(CertificateFormatError):
            certificate_from_dict(broken)

        broken = certificate_to_dict(build_cover(skew_fan()))
        del broken["charts"][0]["quotient"]
        with pytest.raises(CertificateFormatError):
            certificate_from_dict(broken)

        broken = certificate_to_dict(build_cover(skew_fan()))
        broken["charts"][0]["complement_faces"] = [[0, 1]]
        with pytest.raises(CertificateFormatError):
            certificate_from_dict(broken)

        broken = certificate_to_dict(build_cover(skew_fan()))
        broken["charts"][0]["added_ray_indices"] = [0.5]
        with pytest.raises(CertificateFormatError):
            certificate_from_dict(broken)
