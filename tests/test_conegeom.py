"""Cone geometry tests: membership, faces, quotients.

Membership is held against a Cramer's-rule oracle that shares no code
with the phase-one LP behind cone_contains.
"""

import math
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricflex.conegeom import cone_contains, quotient_group
from toricflex.errors import (
    BadIndexError,
    DimensionMismatchError,
    NotFullDimensionalError,
)
from toricflex.fans import Fan, fan_projective_space, fan_punctured_affine, make_fan
from toricflex.intlinalg import IntMatrix, det, primitivize, rank, snf


def single_cone_fan(ambient_rank, vectors):
    """Fan with the given rays and one maximal cone on all of them."""
    return make_fan(ambient_rank, vectors, [tuple(range(len(vectors)))])


def the_cone(f):
    return f.max_cones[0]


def cramer_contains(gens, point):
    """Membership in the cone on independent generators, by Cramer's rule.

    Takes the first k coordinates on which the generators' k-by-k minor is
    nonzero, solves there for the coefficients N_i / D, then checks that
    the combination reproduces the point in every coordinate and that no
    coefficient is negative.  This is the oracle for cone_contains.
    """
    k, n = len(gens), len(point)
    for rows in combinations(range(n), k):
        d = det(IntMatrix.from_rows([[g[r] for g in gens] for r in rows]))
        if d != 0:
            break
    else:
        raise ValueError(f"generators {gens} are dependent")
    nums = [
        det(
            IntMatrix.from_rows(
                [[point[r] if j == i else gens[j][r] for j in range(k)] for r in rows]
            )
        )
        for i in range(k)
    ]
    if any(sum(c * g[r] for c, g in zip(nums, gens)) != d * point[r] for r in range(n)):
        return False
    return all(c * d >= 0 for c in nums)


@st.composite
def independent_cones(draw):
    """A fan with one maximal cone on k <= n <= 5 independent primitive rays."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    raw = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * n).filter(any), min_size=k, max_size=k)
    )
    vectors = list(dict.fromkeys(primitivize(v) for v in raw))
    assume(len(vectors) == k and rank(IntMatrix.from_rows(vectors)) == k)
    return single_cone_fan(n, vectors)


class TestConeContains:
    def test_quadrant_membership(self):
        f = single_cone_fan(2, [(1, 0), (0, 1)])
        assert cone_contains(f, (0, 1), (1, 1))
        assert cone_contains(f, (0, 1), (0, 0))
        assert not cone_contains(f, (0, 1), (-1, 1))

    def test_generators_in_their_cone(self):
        f = single_cone_fan(3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
        cone = the_cone(f)
        for i in cone:
            assert cone_contains(f, cone, f.rays[i])
            assert not cone_contains(f, cone, tuple(-x for x in f.rays[i]))

    def test_ray_cone_span_restriction(self):
        f = fan_punctured_affine(2)
        e1 = f.rays.index((1, 0))
        assert cone_contains(f, (e1,), (3, 0))
        assert not cone_contains(f, (e1,), (-3, 0))
        assert not cone_contains(f, (e1,), (3, 1))

    def test_zero_cone(self):
        f = fan_punctured_affine(2)
        assert cone_contains(f, (), (0, 0))
        assert not cone_contains(f, (), (1, 0))
        with pytest.raises(TypeError):
            cone_contains(f, (), (0.0, 0))

    def test_dimension_mismatch(self):
        f = fan_punctured_affine(2)
        with pytest.raises(DimensionMismatchError):
            cone_contains(f, (0,), (1, 0, 0))

    def test_bad_index(self):
        f = fan_punctured_affine(2)
        with pytest.raises(BadIndexError):
            cone_contains(f, (5,), (1, 0))

    def test_interior_of_skew_cone(self):
        f = single_cone_fan(2, [(1, 0), (1, 2)])
        assert cone_contains(f, (0, 1), (1, 1))
        assert cone_contains(f, (0, 1), (2, 1))
        assert not cone_contains(f, (0, 1), (0, 1))
        assert not cone_contains(f, (0, 1), (1, 3))

    def test_dependent_generators_get_an_answer(self):
        # Three rays in the plane are dependent.  The rays of P^2 span the
        # whole plane; (1,0), (1,1), (1,2) span the wedge 0 <= y <= 2x.
        f = fan_projective_space(2)
        assert cone_contains(f, (0, 1, 2), (3, -5))
        assert cone_contains(f, (0, 1, 2), (0, 0))
        g = make_fan(2, [(1, 0), (1, 1), (1, 2)], [(0,), (1,), (2,)])
        assert cone_contains(g, (0, 1, 2), (3, 5))
        assert not cone_contains(g, (0, 1, 2), (3, 7))
        assert not cone_contains(g, (0, 1, 2), (0, 1))
        assert not cone_contains(g, (0, 1, 2), (-1, 0))

    @settings(deadline=None, max_examples=300)
    @given(independent_cones(), st.data())
    def test_matches_cramer_oracle(self, f, data):
        cone = the_cone(f)
        gens = [f.rays[i] for i in cone]
        n, k = f.ambient_rank, len(gens)

        def combination(coeffs):
            return tuple(sum(c * g[r] for c, g in zip(coeffs, gens)) for r in range(n))

        def coefficients(low):
            return data.draw(st.lists(st.integers(low, 4), min_size=k, max_size=k))

        mixed = coefficients(-4)
        boundary = coefficients(0)
        boundary[data.draw(st.integers(0, k - 1))] = 0
        negative = coefficients(0)
        negative[data.draw(st.integers(0, k - 1))] = -data.draw(st.integers(1, 4))
        # (point, the answer it must get, or None where only the oracle knows)
        cases = [
            (combination(mixed), all(c >= 0 for c in mixed)),
            (combination(boundary), True),
            (combination(negative), False),
            ((0,) * n, True),
            (data.draw(st.tuples(*[st.integers(-6, 6)] * n)), None),
        ]
        if k < n:
            off = data.draw(
                st.tuples(*[st.integers(-3, 3)] * n).filter(
                    lambda v: rank(IntMatrix.from_rows(gens + [v])) == k + 1
                )
            )
            cases.append((tuple(a + b for a, b in zip(combination(boundary), off)), False))
        for point, expected in cases:
            want = cramer_contains(gens, point)
            if expected is not None:
                assert want is expected, (gens, point)
            assert cone_contains(f, cone, point) is want, (gens, point)


class TestQuotientGroup:
    def test_unit_cone_trivial(self):
        f = single_cone_fan(2, [(1, 0), (0, 1)])
        q = quotient_group(f, (0, 1))
        assert q.invariant_factors == ()
        assert q.order == 1
        assert q.is_trivial

    def test_index_two_cone(self):
        f = single_cone_fan(2, [(1, 0), (1, 2)])
        q = quotient_group(f, (0, 1))
        assert q.invariant_factors == (2,)
        assert q.order == 2
        assert not q.is_trivial

    def test_three_dimensional_example(self):
        f = single_cone_fan(3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
        q = quotient_group(f, (0, 1, 2))
        assert q.invariant_factors == (2,)
        assert q.order == 2

    def test_lower_dimensional_cone_rejected(self):
        f = fan_punctured_affine(2)
        with pytest.raises(NotFullDimensionalError):
            quotient_group(f, (0,))

    def test_dependent_rays_rejected(self):
        # Bypasses make_fan on purpose: the validated constructor refuses
        # dependent cones, but quotient_group must stay defensive.
        f = Fan(ambient_rank=2, rays=((-1, 0), (1, 0)), max_cones=((0, 1),))
        with pytest.raises(NotFullDimensionalError):
            quotient_group(f, (0, 1))

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)).filter(any),
            min_size=3,
            max_size=3,
        )
    )
    def test_order_agrees_across_code_paths(self, raw):
        vectors = []
        for v in raw:
            p = primitivize(v)
            if p not in vectors:
                vectors.append(p)
        m = IntMatrix.from_rows(vectors)
        if len(vectors) != 3 or det(m) == 0:
            return
        f = single_cone_fan(3, vectors)
        q = quotient_group(f, (0, 1, 2))
        gens = IntMatrix.from_rows([f.rays[i] for i in (0, 1, 2)])
        assert q.order == abs(det(gens))
        all_factors = snf(gens).invariant_factors
        assert q.order == math.prod(all_factors)
        assert q.invariant_factors == tuple(x for x in all_factors if x > 1)
