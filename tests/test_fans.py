"""Fan construction, validation, subdivision, and serialization tests."""

import math
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricflex.errors import (
    BadConeError,
    BadParameterError,
    FanFormatError,
    InvalidFanError,
    NotSimplicialError,
    NotSmoothError,
)
from toricflex.fans import (
    Fan,
    canonical_fan_bytes,
    fan_affine_space,
    fan_diagnostics,
    fan_digest,
    fan_from_dict,
    fan_from_json,
    fan_hirzebruch,
    fan_product,
    fan_projective_space,
    fan_punctured_affine,
    fan_to_dict,
    fan_to_json,
    first_nonsmooth_cone,
    is_smooth_cone,
    is_smooth_fan,
    iterated_star_subdivisions,
    make_fan,
    star_subdivision,
    torus_factor_rank,
    validate_fan,
)
from toricflex import fans
from toricflex.fans import _pair_finding
from toricflex.conegeom import cone_contains
from toricflex.intlinalg import IntMatrix, positive_circuit, rank

from oracles import (
    change_basis,
    complete_by_facet_pairing,
    kernel_basis,
    pair_scan_diagnostics,
    unimodular_bases,
)

P2_DIGEST = "41837965ad3f42ad087b653b59d3eed577ce290ed5a871c7c06f3a6658ed06ce"


def corpus():
    return [
        fan_affine_space(1),
        fan_affine_space(3),
        fan_projective_space(1),
        fan_projective_space(2),
        fan_projective_space(3),
        fan_hirzebruch(0),
        fan_hirzebruch(2),
        fan_product(fan_projective_space(1), fan_projective_space(2)),
        fan_punctured_affine(2),
        fan_punctured_affine(4),
    ]


def circuit_scan_finding(f, ia, ib):
    """Overlap diagnostic by the exhaustive circuit scan, the slow oracle.

    Enumerates every subset of 2 to n+1 columns of the rays of the first
    cone and the negated rays of the second, one SNF each, and reports the
    first circuit whose kernel generator has one sign and which is not made
    only of shared rays.  Exponential in the rank, so it runs in tests only.
    """
    ca, cb = f.max_cones[ia], f.max_cones[ib]
    shared = set(ca) & set(cb)
    cols = [f.rays[i] for i in ca] + [tuple(-x for x in f.rays[i]) for i in cb]
    owners = [("first", i) for i in ca] + [("second", i) for i in cb]
    shared_cols = {j for j, (_, idx) in enumerate(owners) if idx in shared}
    n = f.ambient_rank
    for size in range(2, min(len(cols), n + 1) + 1):
        for subset in combinations(range(len(cols)), size):
            if all(j in shared_cols for j in subset):
                continue
            m = IntMatrix.from_rows([[cols[j][row] for j in subset] for row in range(n)])
            kern = kernel_basis(m)
            if len(kern) != 1:
                continue
            gen = kern[0]
            if any(x == 0 for x in gen):
                continue
            if all(x > 0 for x in gen) or all(x < 0 for x in gen):
                left = sorted({owners[j][1] for j in subset if owners[j][0] == "first"})
                right = sorted({owners[j][1] for j in subset if owners[j][0] == "second"})
                return (
                    f"maximal cones {ca} and {cb} overlap beyond their shared rays: "
                    f"a positive combination of rays {left} of the first equals "
                    f"one of rays {right} of the second"
                )
    return None


def precheck_first_finding(f, ia, ib):
    """_pair_finding with the ray-membership test run first, the oracle.

    That was the order before the membership test moved behind the LP; the
    diagnostics must not depend on it.
    """
    ca, cb = f.max_cones[ia], f.max_cones[ib]
    shared = set(ca) & set(cb)
    for idx in cb:
        if idx not in shared and cone_contains(f, ca, f.rays[idx]):
            return (
                f"ray {idx} {f.rays[idx]} of maximal cone {cb} lies in "
                f"maximal cone {ca} but is not a shared ray"
            )
    for idx in ca:
        if idx not in shared and cone_contains(f, cb, f.rays[idx]):
            return (
                f"ray {idx} {f.rays[idx]} of maximal cone {ca} lies in "
                f"maximal cone {cb} but is not a shared ray"
            )
    union = sorted(set(ca) | set(cb))
    if rank(IntMatrix.from_rows([f.rays[i] for i in union])) == len(union):
        return None
    cols = [f.rays[i] for i in ca] + [tuple(-x for x in f.rays[i]) for i in cb]
    weights = [int(i not in shared) for i in ca + cb]
    support = positive_circuit(IntMatrix.from_rows(zip(*cols)), weights)
    if support is None:
        return None
    left = [ca[j] for j in support if j < len(ca)]
    right = [cb[j - len(ca)] for j in support if j >= len(ca)]
    return (
        f"maximal cones {ca} and {cb} overlap beyond their shared rays: "
        f"a positive combination of rays {left} of the first equals "
        f"one of rays {right} of the second"
    )


def checked_pairs(f):
    """Index pairs of maximal cones that validate_fan hands to _pair_finding."""
    sets = [frozenset(c) for c in f.max_cones]
    return [
        (a, b)
        for a, b in combinations(range(len(sets)), 2)
        if not (sets[a] <= sets[b] or sets[b] <= sets[a])
    ]


SMOOTH_BASES = [
    fan_projective_space(2),
    fan_projective_space(3),
    fan_projective_space(4),
    fan_hirzebruch(0),
    fan_hirzebruch(3),
    fan_product(fan_projective_space(1), fan_projective_space(2)),
    fan_product(fan_projective_space(1), fan_projective_space(3)),
    fan_product(fan_hirzebruch(2), fan_affine_space(2)),
]


def _primitive_vectors(n):
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(
        lambda v: math.gcd(*v) == 1
    )


@st.composite
def random_fans(draw):
    """Fans of rank at most 4, valid and invalid.

    Either random rays with random cones (mostly invalid), or a few
    maximal cones of a star subdivision of a smooth fan (valid),
    possibly with one ray moved to a random place (often a crossing that
    no ray containment reveals).
    """
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        rays = draw(st.lists(_primitive_vectors(n), min_size=2, max_size=6, unique_by=tuple))
        cone = st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=n, unique=True)
        cones = draw(st.lists(cone, min_size=2, max_size=4))
    else:
        f = draw(st.sampled_from(SMOOTH_BASES))
        for _ in range(draw(st.integers(0, 2))):
            faces = sorted({sub for mc in f.max_cones for sub in combinations(mc, 2)})
            f = star_subdivision(f, draw(st.sampled_from(faces)))
        n, rays = f.ambient_rank, list(f.rays)
        cones = draw(
            st.lists(st.sampled_from(f.max_cones), min_size=2, max_size=4, unique=True)
        )
        if draw(st.booleans()):
            moved = draw(_primitive_vectors(n))
            assume(tuple(moved) not in rays)
            rays[draw(st.integers(0, len(rays) - 1))] = tuple(moved)
    try:
        return make_fan(n, rays, cones)
    except NotSimplicialError:
        assume(False)


def power(f, k):
    """The k-fold product fan f x ... x f."""
    g = f
    for _ in range(k - 1):
        g = fan_product(g, f)
    return g


P1 = fan_projective_space(1)

# Complete fans that the perturbations below start from.
COMPLETE_BASES = [
    P1,
    fan_projective_space(2),
    fan_projective_space(3),
    fan_projective_space(4),
    fan_hirzebruch(0),
    fan_hirzebruch(3),
    fan_product(P1, fan_projective_space(2)),
    fan_product(P1, fan_projective_space(3)),
    power(P1, 3),
    *iterated_star_subdivisions(fan_projective_space(3), 1)[1:],
    *iterated_star_subdivisions(fan_hirzebruch(3), 1)[1:],
]


@st.composite
def perturbed_complete_fans(draw):
    """A complete fan, moved off the axes, with one cone dropped, one
    duplicated, one ray moved to a random place, or one cone added.

    Most of them are invalid or not complete; a moved ray sometimes gives
    another complete fan.
    """
    f = draw(st.sampled_from(COMPLETE_BASES))
    n = f.ambient_rank
    rays = change_basis(f.rays, draw(unimodular_bases(n))) if n > 1 else list(f.rays)
    cones = list(f.max_cones)
    kind = draw(st.sampled_from(("drop", "duplicate", "move", "add")))
    if kind == "drop":
        del cones[draw(st.integers(0, len(cones) - 1))]
    elif kind == "duplicate":
        cones.append(draw(st.sampled_from(cones)))
    elif kind == "move":
        moved = tuple(draw(_primitive_vectors(n)))
        assume(moved not in rays)
        rays[draw(st.integers(0, len(rays) - 1))] = moved
    else:
        added = draw(st.lists(st.integers(0, len(rays)), min_size=n, max_size=n, unique=True))
        if len(rays) in added:  # the added cone brings a new ray
            new = tuple(draw(_primitive_vectors(n)))
            assume(new not in rays)
            rays.append(new)
        assume(tuple(sorted(added)) not in cones)
        cones.append(added)
    try:
        return make_fan(n, rays, cones)
    except NotSimplicialError:
        assume(False)


OVERLAP = re.compile(
    r"overlap beyond their shared rays: a positive combination of rays "
    r"\[([\d, ]*)\] of the first equals one of rays \[([\d, ]*)\] of the second"
)


class TestMakeFan:
    def test_projective_plane_canonical_form(self):
        f = fan_projective_space(2)
        assert f.rays == ((-1, -1), (0, 1), (1, 0))
        assert f.max_cones == ((0, 1), (0, 2), (1, 2))

    def test_punctured_affine_plane(self):
        f = fan_punctured_affine(2)
        assert f.rays == ((0, 1), (1, 0))
        assert f.max_cones == ((0,), (1,))

    def test_input_order_is_irrelevant(self):
        a = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
        b = make_fan(2, [(-1, -1), (1, 0), (0, 1)], [(1, 2), (2, 0), (0, 1)])
        assert a == b == fan_projective_space(2)

    def test_rejects_bad_rank(self):
        with pytest.raises(InvalidFanError):
            make_fan(0, [(1,)], [(0,)])
        with pytest.raises(InvalidFanError):
            make_fan("2", [(1, 0)], [(0,)])

    def test_rejects_bad_rays(self):
        with pytest.raises(InvalidFanError):
            make_fan(2, [(0, 0)], [(0,)])
        with pytest.raises(InvalidFanError):
            make_fan(2, [(2, 4)], [(0,)])  # not primitive
        with pytest.raises(InvalidFanError):
            make_fan(2, [(1, 0, 0)], [(0,)])
        with pytest.raises(InvalidFanError):
            make_fan(2, [(1, 0), (1, 0)], [(0,), (1,)])
        with pytest.raises(InvalidFanError):
            make_fan(2, [(1, 0.0)], [(0,)])

    def test_duplicate_ray_message_names_the_first_repeat_in_input_order(self):
        # In [a, b, b, a] the first adjacent repeat is b, but a comes first.
        a, b = (1, 0), (0, 1)
        with pytest.raises(InvalidFanError, match=r"^ray \(1, 0\) appears more than once$"):
            make_fan(2, [a, b, b, a], [(0,)])

    def test_rejects_bad_cone_indices(self):
        with pytest.raises(InvalidFanError):
            make_fan(2, [(1, 0)], [(1,)])
        with pytest.raises(InvalidFanError):
            make_fan(2, [(1, 0)], [(0, 0)])

    def test_rejects_dependent_cone(self):
        with pytest.raises(NotSimplicialError):
            make_fan(2, [(1, 0), (-1, 0)], [(0, 1)])
        with pytest.raises(NotSimplicialError):
            make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])

    def test_duplicate_max_cones_construct_but_fail_validation(self):
        f = make_fan(2, [(1, 0), (0, 1)], [(0, 1), (0, 1)])
        report = validate_fan(f)
        assert not report.valid
        assert any("appears more than once" in d for d in report.diagnostics)


class TestValidateFan:
    def test_constructor_corpus_is_valid(self):
        for f in corpus():
            report = validate_fan(f)
            assert report.valid, report.diagnostics
            assert report.smooth
            assert report.nondegenerate
            assert report.simplicial
            assert report.diagnostics == ()

    def test_no_max_cones(self):
        f = make_fan(2, [], [])
        report = validate_fan(f)
        assert not report.valid
        assert "fan has no maximal cones" in report.diagnostics
        assert report.torus_factor_rank == 2

    def test_unused_ray(self):
        f = make_fan(2, [(1, 0), (0, 1)], [(0,)])
        report = validate_fan(f)
        assert any("not used by any maximal cone" in d for d in report.diagnostics)

    def test_nested_max_cones(self):
        f = make_fan(2, [(1, 0), (0, 1)], [(0,), (0, 1)])
        report = validate_fan(f)
        assert any("is a face of maximal cone" in d for d in report.diagnostics)

    def test_opposite_rays_are_fine(self):
        f = make_fan(2, [(1, 0), (-1, 0)], [(0,), (1,)])
        assert validate_fan(f).valid

    def test_ray_inside_other_cone(self):
        f = make_fan(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)])
        report = validate_fan(f)
        assert not report.valid
        assert any(
            "lies in maximal cone" in d and "not a shared ray" in d
            for d in report.diagnostics
        )

    def test_crossing_cones_without_contained_rays(self):
        # The second cone passes through the octant's interior while all
        # four rays stay outside each other's cones; only the dependency
        # scan can see this overlap.
        f = make_fan(
            3,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, -1), (-1, 1, 2)],
            [(0, 1, 2), (3, 4)],
        )
        report = validate_fan(f)
        assert not report.valid
        assert any("overlap beyond their shared rays" in d for d in report.diagnostics)

    def test_tangent_cone_pair_is_valid(self):
        # The cones share the ray e1 and touch along it only, even though
        # the second cone leaves the octant.
        f = make_fan(
            3,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 5, -1)],
            [(0, 1, 2), (0, 3)],
        )
        assert validate_fan(f).valid

    def test_shared_face_pair_is_valid(self):
        f = make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
        assert validate_fan(f).valid

    def test_diagnostics_are_pinned_containments_before_overlaps(self):
        # Pair (1, 4) overlaps and comes before pair (4, 5), a containment,
        # in pair order; the containments are still listed first.
        f = make_fan(
            3,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, -1), (-1, 1, 2),
             (0, -1, 0), (0, 0, -1), (-1, 0, 0)],
            [(0, 1, 2), (3, 4), (5, 6), (5, 6), (0,), (4,)],
        )
        assert f.max_cones == ((1,), (1, 7), (2, 3), (2, 3), (4, 5, 6), (6,))
        assert fan_diagnostics(f) == (
            "ray 0 (-1, 0, 0) is not used by any maximal cone",
            "maximal cone (2, 3) appears more than once",
            "maximal cone (1,) is a face of maximal cone (1, 7)",
            "maximal cone (6,) is a face of maximal cone (4, 5, 6)",
            "maximal cones (1, 7) and (4, 5, 6) overlap beyond their shared rays: "
            "a positive combination of rays [1, 7] of the first equals one of "
            "rays [4, 5] of the second",
        )
        assert validate_fan(f).diagnostics == fan_diagnostics(f)

    def test_constructor_corpus_agrees_with_circuit_scan(self):
        for f in corpus():
            for a, b in checked_pairs(f):
                assert _pair_finding(f, a, b) is None
                assert circuit_scan_finding(f, a, b) is None

    @settings(deadline=None, max_examples=100)
    @given(random_fans())
    def test_pair_verdict_agrees_with_circuit_scan(self, f):
        for a, b in checked_pairs(f):
            expected = circuit_scan_finding(f, a, b) is None
            assert (_pair_finding(f, a, b) is None) == expected, (f, a, b)

    def test_constructor_corpus_agrees_with_precheck_first_order(self):
        fans = corpus() + [
            make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (2,)]),
            make_fan(
                3,
                [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, -1), (-1, 1, 2)],
                [(0, 1, 2), (3, 4)],
            ),
        ]
        for f in fans:
            for a, b in checked_pairs(f):
                assert _pair_finding(f, a, b) == precheck_first_finding(f, a, b)

    @settings(deadline=None, max_examples=150)
    @given(random_fans())
    def test_diagnostics_agree_with_precheck_first_order(self, f):
        for a, b in checked_pairs(f):
            assert _pair_finding(f, a, b) == precheck_first_finding(f, a, b), (f, a, b)

    @settings(deadline=None, max_examples=150)
    @given(random_fans())
    def test_overlap_witness_is_a_sign_uniform_circuit(self, f):
        for a, b in checked_pairs(f):
            finding = _pair_finding(f, a, b)
            match = OVERLAP.search(finding or "")
            if match is None:
                continue
            left, right = ([int(i) for i in g.split(",") if i] for g in match.groups())
            cols = [f.rays[i] for i in left] + [tuple(-x for x in f.rays[i]) for i in right]
            kern = kernel_basis(IntMatrix.from_rows(zip(*cols)))
            assert len(kern) == 1, finding
            assert all(x > 0 for x in kern[0]) or all(x < 0 for x in kern[0]), finding

    @pytest.mark.parametrize(
        "f",
        [
            fan_projective_space(6),
            fan_product(fan_projective_space(2), fan_projective_space(3)),
            fan_product(fan_projective_space(3), fan_projective_space(3)),
            power(fan_projective_space(1), 6),
        ],
        ids=["P6", "P2xP3", "P3xP3", "(P1)^6"],
    )
    def test_high_rank_fans_validate(self, f):
        report = validate_fan(f)
        assert report.valid and report.complete, report.diagnostics


def crossed_p5():
    """P^5 plus a 2-cone whose relative interior crosses a maximal cone."""
    p5 = fan_projective_space(5)
    rays = list(p5.rays) + [(2, 1, -1, 0, 0), (-1, 1, 2, 0, 0)]
    return make_fan(5, rays, list(p5.max_cones) + [(6, 7)])


# Rank-2 cycles of cones, each ray in exactly two of them.  The zigzag turns
# back at (-2, 1) and at (-1, 2), so the angles from 117 to 153 degrees are
# covered three times and the rest once, cone 0, from (-6, 1) to (-1, 0),
# among them.  The pentagram steps by about 144 degrees and covers the
# plane twice.
ZIGZAG = make_fan(
    2,
    [(1, 0), (0, 1), (-2, 1), (-1, 2), (-6, 1), (-1, 0), (0, -1)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)],
)
PENTAGRAM = make_fan(
    2,
    [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
)


@pytest.fixture
def pair_calls(monkeypatch):
    """Calls through fans._pair_finding and fans._phase_one, by name."""
    calls = Counter()
    for name in ("_pair_finding", "_phase_one"):
        original = getattr(fans, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fans, name, counted)
    return calls


class TestCompleteFanFastPath:
    """fan_diagnostics decides complete fans without pair checks (_covers_once)."""

    @pytest.mark.parametrize(
        "f",
        [
            fan_projective_space(4),
            fan_projective_space(5),
            fan_projective_space(6),
            fan_product(P1, fan_projective_space(3)),
            fan_product(fan_projective_space(2), fan_projective_space(2)),
            fan_product(fan_projective_space(3), fan_projective_space(3)),
            power(P1, 6),
            power(P1, 7),
        ],
        ids=["P4", "P5", "P6", "P1xP3", "P2xP2", "P3xP3", "(P1)^6", "(P1)^7"],
    )
    def test_complete_fans_make_no_pair_check(self, f, pair_calls):
        report = validate_fan(f)
        assert report.valid and report.complete
        assert pair_calls == Counter()

    @pytest.mark.parametrize("n, rounds, size", [(2, 3, 41), (3, 1, 7)])
    def test_subdivision_families_make_no_pair_check(self, n, rounds, size, pair_calls):
        family = iterated_star_subdivisions(fan_projective_space(n), rounds)
        assert len(family) == size
        for f in family:
            report = validate_fan(f)
            assert report.valid and report.complete
        assert pair_calls == Counter()

    def test_punctured_affine_pairs_take_the_rank_pretest(self, pair_calls):
        assert validate_fan(fan_punctured_affine(10)).valid
        assert pair_calls == Counter({"_pair_finding": 45})

    def test_crossed_fan_scans_every_pair(self, pair_calls):
        assert not validate_fan(crossed_p5()).valid
        assert pair_calls == Counter({"_pair_finding": 21, "_phase_one": 21})

    @staticmethod
    def candidates():
        return (
            corpus()
            + SMOOTH_BASES
            + COMPLETE_BASES
            + list(iterated_star_subdivisions(fan_projective_space(2), 3))
            + list(iterated_star_subdivisions(fan_hirzebruch(3), 2))
        )

    def test_complete_valid_fans_take_the_fast_path(self):
        taken = 0
        for f in self.candidates():
            complete = complete_by_facet_pairing(f)
            assert (fans._covers_once(f) is not None) == complete, f
            taken += complete
        # 6 of corpus(), 7 of SMOOTH_BASES, all 19 of COMPLETE_BASES, and
        # every member of the two families (41 and 19).
        assert taken == 92

    def test_complete_flag_matches_facet_pairing(self):
        candidates = self.candidates()
        expected = [complete_by_facet_pairing(f) for f in candidates]
        assert [validate_fan(f).complete for f in candidates] == expected

    @settings(deadline=None, max_examples=200)
    @given(perturbed_complete_fans())
    def test_complete_flag_matches_facet_pairing_on_perturbed_fans(self, f):
        assert validate_fan(f).complete == complete_by_facet_pairing(f)

    def test_moved_ray_can_keep_the_fan_complete(self):
        # P^2 with (-1, -1) moved to (-1, -2), still inside the negative quadrant.
        kept = make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
        assert fans._covers_once(kept)
        assert pair_scan_diagnostics(kept) == ()
        # Moved to (-1, 1), it lies on the same side of (0, 1) as (1, 0).
        folded = make_fan(2, [(1, 0), (0, 1), (-1, 1)], [(0, 1), (1, 2), (0, 2)])
        assert not fans._covers_once(folded)
        assert fan_diagnostics(folded) == pair_scan_diagnostics(folded) != ()

    @pytest.mark.parametrize(
        "f",
        [ZIGZAG, fan_product(ZIGZAG, P1), PENTAGRAM, fan_product(PENTAGRAM, P1)],
        ids=["zigzag", "zigzag x P1", "pentagram", "pentagram x P1"],
    )
    def test_paired_facets_that_fold_or_wind_twice_are_refused(self, f):
        # Every facet lies in exactly two cones.  The zigzag folds back on
        # itself, so the opposite-sides check refuses it (the generic point
        # lies in one cone).  The pentagram covers every generic point twice,
        # so only the generic-point count refuses it.
        assert not fans._covers_once(f)
        assert fan_diagnostics(f) == pair_scan_diagnostics(f) != ()

    def test_dependent_cone_is_refused(self):
        # Bypasses make_fan, which refuses dependent cones: every ray lies in
        # two cones, but the elimination finds cone (0, 1) singular.
        f = Fan(
            ambient_rank=2,
            rays=((1, 0), (-1, 0), (0, 1), (0, -1)),
            max_cones=((0, 1), (0, 3), (1, 2), (2, 3)),
        )
        assert not fans._covers_once(f)
        assert fan_diagnostics(f) == pair_scan_diagnostics(f)

    def test_unused_ray_is_refused(self):
        p2 = fan_projective_space(2)
        f = make_fan(2, list(p2.rays) + [(1, 1)], p2.max_cones)
        assert not fans._covers_once(f)
        assert fan_diagnostics(f) == pair_scan_diagnostics(f) != ()

    @settings(deadline=None, max_examples=150)
    @given(random_fans())
    def test_agrees_with_pair_scan_on_random_fans(self, f):
        assert fan_diagnostics(f) == pair_scan_diagnostics(f)

    @settings(deadline=None, max_examples=200)
    @given(perturbed_complete_fans())
    def test_agrees_with_pair_scan_on_perturbed_complete_fans(self, f):
        assert fan_diagnostics(f) == pair_scan_diagnostics(f)


class TestPredicates:
    def test_is_smooth_cone_examples(self):
        quad = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
        assert is_smooth_cone(quad, (0, 1))
        skew = make_fan(2, [(1, 0), (1, 2)], [(0,), (1,)])
        assert not is_smooth_cone(skew, (0, 1))
        edge = make_fan(2, [(0, 1), (-1, -1)], [(0, 1)])
        assert is_smooth_cone(edge, (0, 1))
        assert is_smooth_cone(quad, ())

    def test_face_heredity_of_smoothness(self):
        for f in corpus():
            for cone in f.max_cones:
                for size in range(len(cone) + 1):
                    for sub in combinations(cone, size):
                        assert is_smooth_cone(f, sub)

    def test_first_nonsmooth_cone(self):
        skew = make_fan(2, [(1, 0), (1, 2)], [(0, 1)])
        assert first_nonsmooth_cone(skew) == (0, 1)
        assert not is_smooth_fan(skew)
        assert first_nonsmooth_cone(fan_projective_space(2)) is None

    def test_degenerate_fan(self):
        f = make_fan(2, [(1, 0)], [(0,)])
        assert torus_factor_rank(f) == 1
        assert torus_factor_rank(f) > 0
        assert is_smooth_fan(f)

    def test_torus_factor_rank_with_no_rays(self):
        f = make_fan(3, [], [])
        assert torus_factor_rank(f) == 3

    def test_is_complete(self):
        cases = [(fan_projective_space(n), True) for n in range(1, 5)] + [
            (fan_affine_space(2), False),
            (fan_hirzebruch(3), True),
            # Not pure: no longer an error, simply not complete.
            (fan_punctured_affine(2), False),
            (make_fan(2, [], []), False),
        ]
        for f, complete in cases:
            assert validate_fan(f).complete is complete
            assert complete_by_facet_pairing(f) is complete

    def test_validate_reports_complete_flag(self):
        assert validate_fan(fan_projective_space(3)).complete
        assert not validate_fan(fan_affine_space(2)).complete
        assert not validate_fan(fan_punctured_affine(2)).complete


class TestConstructors:
    def test_hirzebruch_rays(self):
        f = fan_hirzebruch(3)
        assert (-1, 3) in f.rays
        assert len(f.max_cones) == 4
        report = validate_fan(f)
        assert report.valid and report.complete

    def test_hirzebruch_zero_is_product_of_lines(self):
        assert fan_hirzebruch(0) == fan_product(
            fan_projective_space(1), fan_projective_space(1)
        )

    def test_product_ray_count(self):
        a, b = fan_projective_space(2), fan_hirzebruch(1)
        prod = fan_product(a, b)
        assert len(prod.rays) == len(a.rays) + len(b.rays)
        assert prod.ambient_rank == a.ambient_rank + b.ambient_rank
        assert len(prod.max_cones) == len(a.max_cones) * len(b.max_cones)
        assert validate_fan(prod).valid

    def test_bad_parameters(self):
        with pytest.raises(BadParameterError):
            fan_projective_space(0)
        with pytest.raises(BadParameterError):
            fan_affine_space(-1)
        with pytest.raises(BadParameterError):
            fan_hirzebruch(-1)
        with pytest.raises(BadParameterError):
            fan_punctured_affine(True)


class TestStarSubdivision:
    def test_projective_plane_blowup(self):
        p2 = fan_projective_space(2)
        cone = (p2.rays.index((0, 1)), p2.rays.index((1, 0)))
        blown = star_subdivision(p2, cone)
        assert blown.rays == ((-1, -1), (0, 1), (1, 0), (1, 1))
        assert blown.max_cones == ((0, 1), (0, 2), (1, 3), (2, 3))
        report = validate_fan(blown)
        assert report.valid and report.smooth and report.complete

    def test_quadrant_blowup(self):
        quad = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
        blown = star_subdivision(quad, (0, 1))
        assert blown.rays == ((0, 1), (1, 0), (1, 1))
        assert len(blown.max_cones) == 2

    def test_ray_count_increases_by_one(self):
        p3 = fan_projective_space(3)
        blown = star_subdivision(p3, p3.max_cones[0])
        assert len(blown.rays) == len(p3.rays) + 1
        assert validate_fan(blown).valid and is_smooth_fan(blown)

    def test_one_dimensional_cone_rejected(self):
        with pytest.raises(BadConeError):
            star_subdivision(fan_projective_space(2), (0,))

    def test_non_face_rejected(self):
        with pytest.raises(BadConeError):
            star_subdivision(fan_punctured_affine(2), (0, 1))

    def test_bad_indices_rejected(self):
        with pytest.raises(BadConeError):
            star_subdivision(fan_projective_space(2), (0, 9))
        with pytest.raises(BadConeError):
            star_subdivision(fan_projective_space(2), (1, 1))

    def test_nonsmooth_fan_rejected(self):
        skew = make_fan(2, [(1, 0), (1, 2)], [(0, 1)])
        with pytest.raises(NotSmoothError):
            star_subdivision(skew, (0, 1))

    def test_iterated_family_sizes(self):
        p2 = fan_projective_space(2)
        assert len(iterated_star_subdivisions(p2, 1)) == 4
        assert len(iterated_star_subdivisions(p2, 2)) == 13
        assert len(iterated_star_subdivisions(p2, 3)) == 41

    def test_iterated_family_stays_valid_and_smooth(self):
        for f in iterated_star_subdivisions(fan_projective_space(2), 2):
            report = validate_fan(f)
            assert report.valid and report.smooth and report.complete

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3))
    def test_random_subdivision_chains(self, picks):
        f = fan_projective_space(2)
        for pick in picks:
            faces = sorted(
                {sub for mc in f.max_cones for sub in combinations(mc, 2)}
            )
            f = star_subdivision(f, faces[pick % len(faces)])
            assert validate_fan(f).valid
            assert is_smooth_fan(f)


class TestSerialization:
    def test_round_trip(self):
        for f in corpus():
            assert fan_from_json(fan_to_json(f)) == f
            assert fan_from_dict(fan_to_dict(f)) == f

    def test_serialization_is_stable(self):
        p2 = fan_projective_space(2)
        assert fan_digest(p2) == P2_DIGEST
        assert canonical_fan_bytes(p2) == (
            b'{"max_cones":[[0,1],[0,2],[1,2]],"rank":2,"rays":[[-1,-1],[0,1],[1,0]]}'
        )

    def test_digest_ignores_input_order(self):
        a = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
        assert fan_digest(a) == P2_DIGEST

    def test_format_errors(self):
        with pytest.raises(FanFormatError):
            fan_from_json("not json")
        with pytest.raises(FanFormatError):
            fan_from_json("[1, 2]")
        with pytest.raises(FanFormatError):
            fan_from_dict({"rank": 2, "rays": [[1, 0]]})
        with pytest.raises(FanFormatError):
            fan_from_dict({"rank": "2", "rays": [], "max_cones": []})
        with pytest.raises(FanFormatError):
            fan_from_dict({"rank": 2, "rays": [[1, "0"]], "max_cones": []})
        with pytest.raises(FanFormatError):
            fan_from_dict({"rank": 2, "rays": [[1, 0]], "max_cones": [0]})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "fan document must be a JSON object"),
            ({"rank": 2}, "fan document is missing keys: ['max_cones', 'rays']"),
        ],
    )
    def test_object_messages(self, doc, message):
        with pytest.raises(FanFormatError) as exc:
            fan_from_dict(doc)
        assert str(exc.value) == message

    def test_semantic_errors_come_from_construction(self):
        with pytest.raises(InvalidFanError):
            fan_from_dict({"rank": 2, "rays": [[2, 4]], "max_cones": [[0]]})
