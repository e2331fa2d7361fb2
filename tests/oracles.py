"""Slow reference helpers that only the tests use.

Nothing in the package calls these; they back the differential oracles
(the exhaustive circuit scans in test_fans.py and test_intlinalg.py), so
they live with the tests rather than in the library.
"""

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
