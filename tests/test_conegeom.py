"""Cone geometry tests: facet normals, membership, faces, quotients."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricflex.conegeom import (
    _span_frame,
    cone_contains,
    face_lattice,
    facet_normals,
    orbit_codim,
    quotient_group,
)
from toricflex.errors import (
    BadIndexError,
    DimensionMismatchError,
    NotFullDimensionalError,
)
from toricflex.fans import Fan, fan_punctured_affine, make_fan
from toricflex.intlinalg import IntMatrix, det, primitivize, rank, snf


def single_cone_fan(ambient_rank, vectors):
    """Fan with the given rays and one maximal cone on all of them."""
    return make_fan(ambient_rank, vectors, [tuple(range(len(vectors)))])


def the_cone(f):
    return f.max_cones[0]


class TestFacetNormals:
    def test_quadrant(self):
        f = single_cone_fan(2, [(1, 0), (0, 1)])
        # canonical ray order: (0,1) first
        assert f.rays == ((0, 1), (1, 0))
        assert facet_normals(f, (0, 1)) == ((0, 1), (1, 0))

    def test_skew_cone(self):
        f = single_cone_fan(2, [(1, 0), (1, 2)])
        assert f.rays == ((1, 0), (1, 2))
        assert facet_normals(f, (0, 1)) == ((2, -1), (0, 1))

    def test_third_quadrant_edge_cone(self):
        # Normal 0 is dual to generator (-1,-1), normal 1 to (0,1); both
        # evaluate to 0 on the other generator and 1 on their own.
        f = single_cone_fan(2, [(0, 1), (-1, -1)])
        assert f.rays == ((-1, -1), (0, 1))
        assert facet_normals(f, (0, 1)) == ((-1, 0), (-1, 1))

    def test_lower_dimensional_cone(self):
        f = fan_punctured_affine(3)
        ray_index = f.rays.index((1, 0, 0))
        (normal,) = facet_normals(f, (ray_index,))
        assert sum(a * b for a, b in zip(normal, (1, 0, 0))) > 0
        assert math.gcd(*normal) == 1

    def test_zero_cone_has_no_facets(self):
        f = fan_punctured_affine(2)
        assert facet_normals(f, ()) == ()

    def test_bad_index(self):
        f = fan_punctured_affine(2)
        with pytest.raises(BadIndexError):
            facet_normals(f, (5,))

    @settings(deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(-4, 4)] * n).filter(any),
                min_size=1,
                max_size=n,
                unique=True,
            )
        )
    )
    def test_evaluation_pattern(self, raw_vectors):
        vectors = []
        for v in raw_vectors:
            p = primitivize(v)
            if p not in vectors:
                vectors.append(p)
        n = len(raw_vectors[0])
        if rank(IntMatrix.from_rows(vectors)) != len(vectors):
            return  # dependent sample: not a simplicial cone
        f = single_cone_fan(n, vectors)
        cone = the_cone(f)
        normals = facet_normals(f, cone)
        gens = [f.rays[i] for i in cone]
        for i, normal in enumerate(normals):
            assert math.gcd(*normal) == 1
            for j, gen in enumerate(gens):
                value = sum(a * b for a, b in zip(normal, gen))
                if i == j:
                    assert value > 0
                else:
                    assert value == 0


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

    def test_dimension_mismatch(self):
        f = fan_punctured_affine(2)
        with pytest.raises(DimensionMismatchError):
            cone_contains(f, (0,), (1, 0, 0))

    def test_interior_of_skew_cone(self):
        f = single_cone_fan(2, [(1, 0), (1, 2)])
        assert cone_contains(f, (0, 1), (1, 1))
        assert cone_contains(f, (0, 1), (2, 1))
        assert not cone_contains(f, (0, 1), (0, 1))
        assert not cone_contains(f, (0, 1), (1, 3))


class TestFaceLattice:
    def test_two_dimensional_cone(self):
        lattice = face_lattice((1, 0))
        assert lattice.cone == (0, 1)
        assert lattice.faces == (
            ((), 0),
            ((0,), 1),
            ((1,), 1),
            ((0, 1), 2),
        )

    def test_sizes(self):
        lattice = face_lattice((0, 1, 2))
        assert len(lattice.faces) == 8
        assert [d for _, d in lattice.faces] == [0, 1, 1, 1, 2, 2, 2, 3]

    def test_repeated_index(self):
        with pytest.raises(BadIndexError):
            face_lattice((0, 0))

    def test_codims_match_cardinality(self):
        for face, dim in face_lattice((2, 5, 7)).faces:
            assert orbit_codim(face) == dim == len(face)


class TestOrbitCodim:
    def test_values(self):
        assert orbit_codim(()) == 0
        assert orbit_codim((3,)) == 1
        assert orbit_codim((0, 4, 9)) == 3

    def test_repeated_index(self):
        with pytest.raises(BadIndexError):
            orbit_codim((1, 1))


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


class TestSpanFrameCache:
    def test_cache_is_bounded_and_keeps_its_counters(self):
        _span_frame.cache_clear()
        f = single_cone_fan(3, [(1, 0, 0), (0, 1, 0)])
        cone_contains(f, the_cone(f), (1, 1, 0))
        cone_contains(f, the_cone(f), (0, 0, 1))
        info = _span_frame.cache_info()
        assert info.maxsize is not None and info.maxsize > 0
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        _span_frame.cache_clear()
        assert _span_frame.cache_info().currsize == 0
