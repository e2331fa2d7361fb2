"""Skeleton fans: smooth nondegenerate fans with lower-dimensional cones.

The k-skeleton of a smooth complete fan keeps the k-subsets of its maximal
cones.  It is smooth, and it keeps every ray, so it is nondegenerate.  Its
charts are all FlexibleComplement charts, and some of their extended cones
have a nontrivial lattice quotient, which the complete fans and punctured
affine spaces elsewhere in the suite never reach.  Every expected value
here is derived by hand, not read back from the builder.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricflex import fans as fans_module
from toricflex.cover import KIND_FLEXIBLE_COMPLEMENT, _chart, build_cover, verify_certificate
from toricflex.fans import (
    Fan,
    fan_hirzebruch,
    fan_product,
    fan_projective_space,
    fan_diagnostics,
    iterated_star_subdivisions,
    make_fan,
    validate_fan,
)
from toricflex.intlinalg import IntMatrix, det

from oracles import (
    change_basis,
    complete_by_facet_pairing,
    cycles_in_round_trip,
    greedy_added_rays,
    pair_scan_diagnostics,
    unimodular_bases,
)

P1 = fan_projective_space(1)

# The smooth complete fans whose skeleta are checked, by family.
BASES = {
    "F_3 family": iterated_star_subdivisions(fan_hirzebruch(3), 1),
    "F_2xP^2": (fan_product(fan_hirzebruch(2), fan_projective_space(2)),),
    "(P^1)^3": (fan_product(P1, fan_product(P1, P1)),),
    "(P^1)^4": (fan_product(fan_product(P1, P1), fan_product(P1, P1)),),
}


def skeleton(base: Fan, k: int) -> Fan:
    faces = sorted({face for c in base.max_cones for face in combinations(c, k)})
    return make_fan(base.ambient_rank, base.rays, faces)


@st.composite
def skeleton_fans(draw):
    """(family, k, fan): a k-skeleton, 1 <= k < n, of a base fan of the family.

    The base fan first goes through a random unimodular change of basis,
    which moves its rays off the coordinate axes and changes their
    canonical order.
    """
    family = draw(st.sampled_from(sorted(BASES)))
    base = draw(st.sampled_from(BASES[family]))
    n = base.ambient_rank
    moved = make_fan(n, change_basis(base.rays, draw(unimodular_bases(n))), base.max_cones)
    k = draw(st.integers(1, n - 1))
    return family, k, skeleton(moved, k)


def check_skeleton(family: str, k: int, fan: Fan) -> None:
    n = fan.ambient_rank
    assert all(len(c) == k for c in fan.max_cones)
    if family.startswith("(P^1)^"):
        assert len(fan.max_cones) == math.comb(n, k) * 2**k
    cert = build_cover(fan)
    assert verify_certificate(fan, cert).passed
    assert not cert.a_covered
    assert [ch.cone_index for ch in cert.charts] == list(range(len(fan.max_cones)))
    for ch in cert.charts:
        assert ch.kind == KIND_FLEXIBLE_COMPLEMENT
        assert (len(fan.max_cones[ch.cone_index]), len(ch.cprime_ray_indices)) == (k, n)
        cprime = IntMatrix.from_rows([fan.rays[i] for i in ch.cprime_ray_indices])
        assert ch.quotient.order == abs(det(cprime))
        assert math.prod(ch.quotient.invariant_factors) == ch.quotient.order
        assert len(ch.complement_faces) == 2**n - 2**k - (n - k)


@pytest.mark.parametrize("family", sorted(BASES))
def test_skeleta_of_each_family(family):
    for base in BASES[family]:
        for k in range(1, base.ambient_rank):
            check_skeleton(family, k, skeleton(base, k))


@settings(deadline=None, max_examples=60)
@given(drawn=skeleton_fans())
def test_skeleta_under_a_change_of_basis(drawn):
    check_skeleton(*drawn)


@settings(deadline=None, max_examples=60)
@given(drawn=skeleton_fans())
def test_skeleta_leave_the_complete_fan_test_to_the_pair_scan(drawn):
    # A skeleton is pure but not full-dimensional, so the fast path refuses it.
    fan = drawn[2]
    assert not fans_module._covers_once(fan)
    assert fan_diagnostics(fan) == pair_scan_diagnostics(fan) == ()


@settings(deadline=None, max_examples=60)
@given(drawn=skeleton_fans())
def test_skeleta_are_not_complete(drawn):
    fan = drawn[2]
    assert (validate_fan(fan).complete, complete_by_facet_pairing(fan)) == (False, False)


@settings(deadline=None, max_examples=60)
@given(drawn=skeleton_fans())
def test_chart_extension_matches_greedy_scan(drawn):
    fan = drawn[2]
    for i in range(len(fan.max_cones)):
        assert _chart(fan, i).added_ray_indices == greedy_added_rays(fan, i)


@settings(deadline=None, max_examples=10)
@given(drawn=skeleton_fans())
def test_skeleta_leave_no_reference_cycles(drawn):
    assert cycles_in_round_trip(drawn[2]) == 0


# Counted on the fans as built, without a change of basis, which can move
# the extended cones the builder picks: (skeleton fans, charts, charts with
# a nontrivial quotient, largest quotient order).
SEED_COUNTS = {
    "F_3 family": (5, 24, 7, 4),
    "F_2xP^2": (3, 50, 7, 2),
}


@pytest.mark.parametrize("family", sorted(SEED_COUNTS))
def test_seed_counts(family):
    fans = [skeleton(base, k) for base in BASES[family] for k in range(1, base.ambient_rank)]
    charts = [ch for fan in fans for ch in build_cover(fan).charts]
    orders = [ch.quotient.order for ch in charts if not ch.quotient.is_trivial]
    assert (len(fans), len(charts), len(orders), max(orders)) == SEED_COUNTS[family]
