"""Helpers that only the tests use.

Nothing in the package calls these.  kernel_basis backs the differential
oracles (the exhaustive circuit scans in test_fans.py and
test_intlinalg.py), so it lives with the tests rather than in the library.
unimodular_bases and change_basis move test fans off the coordinate axes.
pair_scan_diagnostics is fan_diagnostics with its complete-fan fast path
turned off, the oracle the fast path is held to.
"""

from unittest import mock

from hypothesis import strategies as st

from toricflex import fans
from toricflex.intlinalg import IntMatrix, Vector, snf


def kernel_basis(m: IntMatrix) -> tuple[Vector, ...]:
    """Basis of the integer kernel {x : m @ x == 0}, possibly empty.

    The returned vectors are the trailing columns of the Smith normal form
    right transform, so they generate the full kernel lattice, not just a
    finite-index sublattice.
    """
    res = snf(m)
    r = len(res.invariant_factors)
    return tuple(res.v.column(j) for j in range(r, m.cols))


@st.composite
def unimodular_bases(draw, n: int) -> list[list[int]]:
    """An n x n integer matrix of determinant 1.

    It is the identity after up to four column operations, each adding -2,
    -1, 1 or 2 times one column to another.
    """
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.permutations(range(n)))[:2]
        scale = draw(st.sampled_from((-2, -1, 1, 2)))
        for row in basis:
            row[j] += scale * row[i]
    return basis


def change_basis(vectors, basis) -> list[Vector]:
    """Each vector v as the row vector v @ basis."""
    n = len(basis)
    return [tuple(sum(v[a] * basis[a][b] for a in range(n)) for b in range(n)) for v in vectors]


def pair_scan_diagnostics(f: fans.Fan) -> tuple[str, ...]:
    """fan_diagnostics by the pair scan alone, every fan taking the slow path."""
    with mock.patch.object(fans, "_covers_once", return_value=None):
        return fans.fan_diagnostics(f)
