"""Exact linear algebra tests.

Determinants are cross-checked against a recursive cofactor oracle and
Smith factors against the determinantal-divisor characterization (gcd of
k-by-k minors), so the fraction-free implementations never grade their
own homework.
"""

import math
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricflex import intlinalg
from toricflex.errors import DimensionMismatchError, NonSquareError, ZeroVectorError
from toricflex.intlinalg import (
    IntMatrix,
    _bareiss,
    _fraction_free_step,
    _scaled_dual_basis,
    det,
    extends_to_z_basis,
    positive_circuit,
    primitivize,
    rank,
    snf,
)

from oracles import kernel_basis, rank_prefix_pivots


def cofactor_det(m: IntMatrix) -> int:
    """Laplace expansion along the first row; independent of Bareiss."""
    n = m.rows
    if n == 1:
        return m.entries[0][0]
    total = 0
    for j in range(n):
        if m.entries[0][j] == 0:
            continue
        minor = IntMatrix.from_rows(
            [[m.entries[r][c] for c in range(n) if c != j] for r in range(1, n)]
        )
        total += (-1) ** j * m.entries[0][j] * cofactor_det(minor)
    return total


def minor_gcd(m: IntMatrix, k: int) -> int:
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix.from_rows([[m.entries[r][c] for c in cols] for r in rows])
            g = math.gcd(g, cofactor_det(sub))
    return g


def divisor_chain_factors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors via gcds of minors, the textbook characterization."""
    factors = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = minor_gcd(m, k)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


@st.composite
def int_matrices(draw, max_dim=5, bound=9):
    nr = draw(st.integers(1, max_dim))
    nc = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(st.integers(-bound, bound), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
    return IntMatrix.from_rows(rows)


class IntSubclass(int):
    pass


class TestIntMatrix:
    def test_accepts_int_subclass(self):
        m = IntMatrix.from_rows([[IntSubclass(3), 1], [0, IntSubclass(-2)]])
        assert m.entries == ((3, 1), (0, -2))
        assert det(m) == -6

    @pytest.mark.parametrize(
        "bad, name",
        [(True, "bool"), (False, "bool"), (2.0, "float"), ("1", "str"), (None, "NoneType")],
    )
    def test_refuses_other_entries_with_one_message(self, bad, name):
        # One bad entry among plain ints, in a list grid or a tuple grid.
        for rows in ([[bad]], [[1, 2, bad]], [[1, 2], [bad, 4]], ((0, 1), (1, bad))):
            with pytest.raises(TypeError) as err:
                IntMatrix.from_rows(rows)
            assert str(err.value) == f"matrix entries must be int, got {name}"

    def test_rows_as_lists_tuples_or_generators(self):
        expected = ((1, 2), (3, 4))
        assert IntMatrix.from_rows([[1, 2], [3, 4]]).entries == expected
        assert IntMatrix.from_rows(((1, 2), (3, 4))).entries == expected
        assert IntMatrix.from_rows((x for x in r) for r in expected).entries == expected
        assert IntMatrix([[1, 2], [3, 4]]).entries == expected
        assert IntMatrix.from_rows(map(list, expected)) == IntMatrix(expected)

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(DimensionMismatchError):
            IntMatrix.from_rows([])
        with pytest.raises(DimensionMismatchError):
            IntMatrix.from_rows([[]])
        with pytest.raises(DimensionMismatchError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_rejects_empty_and_ragged_generators(self):
        with pytest.raises(DimensionMismatchError):
            IntMatrix.from_rows(iter([]))
        with pytest.raises(DimensionMismatchError):
            IntMatrix.from_rows(iter(r) for r in [[1, 2], [3]])

    def test_rejects_non_int_entries(self):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1, 2.0]])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[True]])

    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).entries == ((2, 1), (4, 3))
        with pytest.raises(DimensionMismatchError):
            a @ IntMatrix.from_rows([[1, 2]])

    def test_transpose_and_column(self):
        a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert a.transpose().entries == ((1, 4), (2, 5), (3, 6))
        assert a.column(2) == (3, 6)


class TestSnf:
    def test_identity(self):
        res = snf(IntMatrix.identity(2))
        assert res.invariant_factors == (1, 1)
        assert res.d == IntMatrix.identity(2)

    def test_frozen_example(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        res = snf(m)
        assert res.invariant_factors == (2, 4)
        assert res.u @ m @ res.v == res.d

    def test_rank_one_diagonal(self):
        assert snf(IntMatrix.from_rows([[1, 0], [0, 0]])).invariant_factors == (1,)

    def test_zero_matrix(self):
        res = snf(IntMatrix.from_rows([[0, 0], [0, 0]]))
        assert res.invariant_factors == ()
        assert res.d.entries == ((0, 0), (0, 0))

    def test_deterministic(self):
        m = IntMatrix.from_rows([[3, 1, -4], [2, -7, 5]])
        assert snf(m) == snf(m)

    @settings(deadline=None)
    @given(int_matrices())
    def test_snf_invariants(self, m):
        res = snf(m)
        assert res.u @ m @ res.v == res.d
        assert abs(det(res.u)) == 1
        assert abs(det(res.v)) == 1
        for i, row in enumerate(res.d.entries):
            for j, x in enumerate(row):
                assert x >= 0
                if i != j:
                    assert x == 0
        f = res.invariant_factors
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
        assert rank(m) == len(f)

    @settings(deadline=None)
    @given(int_matrices(max_dim=4, bound=6))
    def test_factors_match_minor_gcd_oracle(self, m):
        assert snf(m).invariant_factors == divisor_chain_factors(m)


class TestDet:
    def test_frozen_examples(self):
        assert det(IntMatrix.identity(2)) == 1
        assert det(IntMatrix.from_rows([[0, 1], [-1, -1]])) == 1
        assert det(IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])) == -2

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            det(IntMatrix.from_rows([[1, 2]]))

    @settings(deadline=None)
    @given(int_matrices(max_dim=5).filter(lambda m: m.rows == m.cols))
    def test_matches_cofactor_oracle(self, m):
        assert det(m) == cofactor_det(m)

    @settings(deadline=None)
    @given(int_matrices().filter(lambda m: m.rows == m.cols))
    def test_abs_det_is_factor_product(self, m):
        res = snf(m)
        if len(res.invariant_factors) == m.rows:
            product = math.prod(res.invariant_factors)
        else:
            product = 0
        assert abs(det(m)) == product


def square_rows(n: int, bound: int):
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


@st.composite
def singular_rows(draw):
    """n x n rows, n <= 6, one of them an integer combination of the others."""
    n = draw(st.integers(1, 6))
    rows = draw(square_rows(n, 10 ** 6))[: n - 1]
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    combo = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    rows.insert(draw(st.integers(0, n - 1)), combo)
    return rows


class TestScaledDualBasis:
    """The kernel of the complete-fan test: d = det(R) and R @ Y == d I."""

    def test_examples(self):
        assert _scaled_dual_basis([[1]]) == (1, [(1,)])
        assert _scaled_dual_basis([[-3]]) == (-3, [(1,)])
        # The first pivot needs a row swap; d keeps the sign of det(R).
        assert _scaled_dual_basis([[0, 1], [1, 0]]) == (-1, [(0, -1), (-1, 0)])
        assert _scaled_dual_basis([[2, 1], [1, 1]]) == (1, [(1, -1), (-1, 2)])

    def test_singular_examples(self):
        assert _scaled_dual_basis([[0]]) is None
        assert _scaled_dual_basis([[1, 2], [2, 4]]) is None
        assert _scaled_dual_basis([[0, 1, 0], [0, 0, 1], [0, 1, 1]]) is None

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 6).flatmap(lambda n: square_rows(n, 10 ** 6)))
    def test_duals_against_cofactor_oracle(self, rows):
        expected = cofactor_det(IntMatrix.from_rows(rows))
        assume(expected != 0)
        d, cols = _scaled_dual_basis(rows)
        assert d == expected
        n = len(rows)
        assert len(cols) == n and all(len(col) == n for col in cols)
        product = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in rows]
        assert product == [[d * (i == j) for j in range(n)] for i in range(n)]

    @settings(deadline=None, max_examples=200)
    @given(singular_rows())
    def test_singular_rows_are_refused(self, rows):
        assert cofactor_det(IntMatrix.from_rows(rows)) == 0
        assert _scaled_dual_basis(rows) is None


class TestRank:
    def test_frozen_examples(self):
        assert rank(IntMatrix.identity(2)) == 2
        assert rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert rank(IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])) == 3
        assert rank(IntMatrix.from_rows([[0, 0], [0, 0]])) == 0

    @settings(deadline=None)
    @given(int_matrices())
    def test_rank_equals_transpose_rank(self, m):
        assert rank(m) == rank(m.transpose())


@st.composite
def shaped_matrices(draw, shape):
    """Wide (more columns than rows), tall (more rows than columns), or
    rank-deficient: a product through an inner dimension below both sides."""

    def grid(nr, nc):
        row = st.lists(st.integers(-5, 5), min_size=nc, max_size=nc)
        return IntMatrix.from_rows(draw(st.lists(row, min_size=nr, max_size=nr)))

    small = draw(st.integers(1, 4))
    large = draw(st.integers(small + 1, 7))
    if shape == "wide":
        return grid(small, large)
    if shape == "tall":
        return grid(large, small)
    nr, nc = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    inner = draw(st.integers(1, min(nr, nc) - 1))
    return grid(nr, inner) @ grid(inner, nc)


class TestBareissPivots:
    """_bareiss names the pivot columns cover._chart takes its added rays from."""

    def test_examples(self):
        # The signed last pivot is the minor on the pivot columns.
        assert _bareiss([[1, 2, 3], [2, 4, 7]]) == ([0, 2], 1)
        assert _bareiss([[0, 0, 1], [0, 2, 5]]) == ([1, 2], -2)
        assert _bareiss([[0, 0], [0, 0]]) == ([], 1)
        # Rows as an iterator of tuples, as cover._chart passes its columns.
        assert _bareiss(zip((1, 0), (1, 0), (0, 1))) == ([0, 2], 1)

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from(("wide", "tall", "deficient")).flatmap(shaped_matrices))
    def test_pivots_match_rank_prefix_oracle(self, m):
        pivots, _ = _bareiss(m.entries)
        assert pivots == rank_prefix_pivots(m)
        assert len(pivots) == rank(m)


@st.composite
def fraction_free_steps(draw):
    """(row, pivot_row, col, start, prev) for one Bareiss update.

    prev ranges over nonzero ints beyond +-1, so most steps do not divide
    exactly; half the time row[col] is 0 and pivot_row[col] is prev, the
    step that changes nothing.
    """
    width = draw(st.integers(1, 6))
    entry = st.integers(-12, 12)
    row = draw(st.lists(entry, min_size=width, max_size=width))
    pivot_row = draw(st.lists(entry, min_size=width, max_size=width))
    col = draw(st.integers(0, width - 1))
    start = draw(st.integers(0, width))
    prev = draw(st.integers(-6, 6).filter(bool))
    if draw(st.booleans()):
        row[col], pivot_row[col] = 0, prev
    return row, pivot_row, col, start, prev


class TestFractionFreeStep:
    @settings(max_examples=400)
    @given(fraction_free_steps())
    def test_matches_the_full_formula(self, case):
        row, pivot_row, col, start, prev = case
        p, f = pivot_row[col], row[col]
        numerators = [p * row[j] - f * pivot_row[j] for j in range(start, len(row))]
        got = list(row)
        if any(x % prev for x in numerators):
            with pytest.raises(AssertionError, match="lost exactness"):
                _fraction_free_step(got, pivot_row, col, start, prev)
            return
        _fraction_free_step(got, pivot_row, col, start, prev)
        assert got == row[:start] + [x // prev for x in numerators]


class TestKernel:
    def test_examples(self):
        assert kernel_basis(IntMatrix.from_rows([[1, 2]])) == ((-2, 1),)
        assert kernel_basis(IntMatrix.identity(3)) == ()

    @settings(deadline=None)
    @given(int_matrices())
    def test_kernel_vectors_annihilate(self, m):
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        for vec in basis:
            col = IntMatrix.from_rows([[x] for x in vec])
            assert all(x == (0,) for x in (m @ col).entries)

    @settings(deadline=None)
    @given(int_matrices())
    def test_one_dimensional_kernels_are_primitive(self, m):
        basis = kernel_basis(m)
        if len(basis) == 1:
            assert math.gcd(*basis[0]) == 1


def positive_circuits(m: IntMatrix, weights) -> set[tuple[int, ...]]:
    """Every column subset that is a circuit with a one-signed kernel
    generator and a column of nonzero weight, found by enumeration."""
    found = set()
    for size in range(1, m.cols + 1):
        for cols in combinations(range(m.cols), size):
            sub = IntMatrix.from_rows([[row[j] for j in cols] for row in m.entries])
            kern = kernel_basis(sub)
            if len(kern) != 1 or not any(weights[j] for j in cols):
                continue
            if all(x > 0 for x in kern[0]) or all(x < 0 for x in kern[0]):
                found.add(cols)
    return found


class TestPositiveCircuit:
    def test_examples(self):
        assert positive_circuit(IntMatrix.from_rows([[1, -1]]), [1, 1]) == (0, 1)
        assert positive_circuit(IntMatrix.from_rows([[1, 1]]), [1, 1]) is None
        assert positive_circuit(IntMatrix.from_rows([[1, -1]]), [0, 0]) is None
        # The zero-weight pair (1,0), (-1,0) is skipped for the one circuit
        # (1,0) + (0,1) + (-1,-1) == 0 that meets a weighted column.
        m = IntMatrix.from_rows([[1, -1, 0, -1], [0, 0, 1, -1]])
        assert positive_circuit(m, [0, 0, 1, 1]) == (0, 2, 3)

    def test_weight_count_must_match(self):
        with pytest.raises(DimensionMismatchError):
            positive_circuit(IntMatrix.from_rows([[1, -1]]), [1])

    @settings(deadline=None, max_examples=200)
    @given(int_matrices(max_dim=5, bound=2), st.data())
    def test_matches_enumeration(self, m, data):
        weights = data.draw(st.lists(st.integers(0, 2), min_size=m.cols, max_size=m.cols))
        support = positive_circuit(m, weights)
        circuits = positive_circuits(m, weights)
        if support is None:
            assert not circuits
        else:
            assert support in circuits


class TestPrimitivize:
    def test_examples(self):
        assert primitivize((2, 4)) == (1, 2)
        assert primitivize((1, 0)) == (1, 0)
        assert primitivize((-3, -6, -9)) == (-1, -2, -3)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            primitivize((0, 0, 0))

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6).filter(lambda v: any(v)))
    def test_idempotent(self, v):
        once = primitivize(v)
        assert primitivize(once) == once
        assert math.gcd(*once) == 1


def snf_extends_to_z_basis(vectors, ambient_rank: int) -> bool:
    """The Smith normal form route for every shape: independent vectors
    spanning a saturated lattice, i.e. every invariant factor 1."""
    if len(vectors) > ambient_rank:
        return False
    factors = snf(IntMatrix.from_rows(vectors)).invariant_factors
    return len(factors) == len(vectors) and all(f == 1 for f in factors)


@st.composite
def basis_candidates(draw):
    """(rows, n, kind): k <= n <= 5 integer vectors of length n.

    A unimodular kind is the first k rows of a product of elementary row
    operations, one row negated half the time so both determinant signs
    occur; scaled doubles a row of such a product (det +-2 when square),
    singular replaces a row by a combination of the others, and random
    draws entries up to a small or a very large bound.
    """
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["unimodular", "scaled", "singular", "random"]))
    if kind == "random":
        bound = draw(st.sampled_from([3, 10**30]))
        entry = st.integers(-bound, bound)
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
        return rows, n, kind
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    multiplier = st.integers(-(10**12), 10**12)
    for _ in range(draw(st.integers(0, 12)) if n > 1 else 0):
        src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        q = draw(multiplier)
        rows[dst] = [x + q * y for x, y in zip(rows[dst], rows[src])]
    if draw(st.booleans()):
        rows[0] = [-x for x in rows[0]]
    rows = rows[:k]
    target = draw(st.integers(0, k - 1))
    if kind == "scaled":
        rows[target] = [2 * x for x in rows[target]]
    elif kind == "singular":
        coeffs = [draw(st.integers(-3, 3)) if i != target else 0 for i in range(k)]
        rows[target] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    return rows, n, kind


class TestExtendsToZBasis:
    def test_examples(self):
        assert extends_to_z_basis([(1, 0), (0, 1)], 2) is True
        assert extends_to_z_basis([(1, 0), (1, 2)], 2) is False
        assert extends_to_z_basis([(2, 3)], 2) is True

    def test_square_examples_by_determinant(self):
        assert extends_to_z_basis([(0, 1), (1, 0)], 2) is True  # det -1
        assert extends_to_z_basis([(-1,)], 1) is True
        assert extends_to_z_basis([(2,)], 1) is False
        assert extends_to_z_basis([(1, 1), (1, -1)], 2) is False  # det -2
        assert extends_to_z_basis([(1, 2), (2, 4)], 2) is False  # det 0

    @settings(deadline=None, max_examples=300)
    @given(basis_candidates())
    def test_matches_snf_oracle(self, case):
        rows, n, kind = case
        got = extends_to_z_basis(rows, n)
        assert got is snf_extends_to_z_basis(rows, n)
        if kind == "unimodular":
            assert got is True
        elif kind != "random" and len(rows) == n:
            assert got is False

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    min_size=1,
                    max_size=n - 1,
                ),
                st.just(n),
            )
        )
    )
    def test_full_row_rank_matches_snf(self, case):
        # k < n independent vectors: a unit minor on Bareiss's pivot columns
        # decides True without snf; any other minor falls back to snf.
        rows, n = case
        assume(rank(IntMatrix.from_rows(rows)) == len(rows))
        with mock.patch.object(intlinalg, "snf", wraps=snf) as spy:
            got = extends_to_z_basis(rows, n)
        assert got is snf_extends_to_z_basis(rows, n)
        _, minor = _bareiss(rows)
        assert spy.call_count == (abs(minor) != 1)

    def test_too_many_vectors(self):
        assert extends_to_z_basis([(1, 0), (0, 1), (1, 1)], 2) is False

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            extends_to_z_basis([(1, 0, 0)], 2)

    @given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda v: any(v)))
    def test_single_primitive_vector_always_extends(self, v):
        assert extends_to_z_basis([primitivize(v)], 2) is True
