"""Helpers that only the tests use.

Nothing in the package calls these.  kernel_basis backs the differential
oracles (the exhaustive circuit scans in test_fans.py and
test_intlinalg.py), so it lives with the tests rather than in the library.
unimodular_bases and change_basis move test fans off the coordinate axes.
pair_scan_diagnostics is fan_diagnostics with its complete-fan fast path
turned off, the oracle the fast path is held to, and
complete_by_facet_pairing is the completeness verdict validate_fan is held
to.  dual_basis_covers_once is the complete-fan test by the scaled dual
basis of each cone (scaled_dual_basis) and the heights of cone 0's rays over
its facets, the oracle for fans._covers_once.  greedy_added_rays is the
chart extension as one rank test per fan ray, and rank_prefix_pivots finds
the pivot columns of an echelon form by Smith-form ranks; they are the
oracles for cover._chart and intlinalg._bareiss.  cycles_in_round_trip
counts what the data path leaves in reference cycles, the fact on which the
CLI's pause of the cycle collector rests.
"""

import gc
from collections import Counter
from itertools import combinations
from operator import mul
from unittest import mock

from hypothesis import strategies as st

from toricflex import fans
from toricflex.cover import (
    build_cover,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)
from toricflex.intlinalg import IntMatrix, Vector, _fraction_free_step, rank, snf


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


def scaled_dual_basis(rows) -> tuple[int, list[Vector]] | None:
    """d = det(R) and the columns y_i of adj(R): r_j . y_i == d * (i == j).

    Fraction-free Gauss-Jordan on [R | I], R with rows r_j, ending at
    [+-d I | +-adj(R)]; step k updates only the columns later steps read.
    None when R is singular.
    """
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign = prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return None
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        for row in a:
            if row is not a[k]:
                _fraction_free_step(row, a[k], k, k + 1, prev)
        prev = a[k][k]
    return sign * prev, [tuple(sign * row[n + i] for row in a) for i in range(n)]


def dual_basis_covers_once(f: fans.Fan) -> tuple[int, ...] | None:
    """fans._covers_once by the dual basis: det R for each maximal cone, or None.

    Each facet must lie in two cones whose opposite rays have heights
    d y_i . x of opposite signs over it, and p = sum_k M^k r_k over the rays
    of cone 0 must lie inside exactly one cone, M = 2 + max |y_i . r_k|
    exceeding the Cauchy root bound of each polynomial y_i . p.
    """
    n, cones = f.ambient_rank, f.max_cones
    if not cones or {len(c) for c in cones} != {n} or len(set(cones)) < len(cones):
        return None
    across: dict[tuple[int, ...], list[int]] = {}  # facet -> the rays opposite it
    for c in cones:
        for i in range(n):
            across.setdefault(c[:i] + c[i + 1:], []).append(c[i])
    if len({i for c in cones for i in c}) < len(f.rays) or {len(v) for v in across.values()} != {2}:
        return None
    duals = [scaled_dual_basis([f.rays[i] for i in c]) for c in cones]
    if None in duals:
        return None
    base, heights = [f.rays[i] for i in cones[0]], []  # heights: y_i . r_k, r_k in cone 0
    for c, (d, ys) in zip(cones, duals):
        for i, y in enumerate(ys):
            across_i = sum(across[c[:i] + c[i + 1:]]) - c[i]  # the ray across facet i
            if d * sum(map(mul, y, f.rays[across_i])) >= 0:
                return None
        heights.append([[sum(map(mul, y, r)) for r in base] for y in ys])
    m = 2 + max(abs(h) for hs in heights for row in hs for h in row)
    inside = sum(
        all(d * sum(h * m**k for k, h in enumerate(row)) > 0 for row in hs)
        for (d, _), hs in zip(duals, heights)
    )
    return tuple(d for d, _ in duals) if inside == 1 else None


def pair_scan_diagnostics(f: fans.Fan) -> tuple[str, ...]:
    """fan_diagnostics by the pair scan alone, every fan taking the slow path."""
    with mock.patch.object(fans, "_covers_once", return_value=None):
        return fans.fan_diagnostics(f)


def complete_by_facet_pairing(f: fans.Fan) -> bool:
    """Valid by the pair scan, pure, and complete by facet pairing.

    A valid pure fan covers all of space exactly when every facet, i.e.
    every (n-1)-subset of a maximal cone, occurs in exactly two maximal
    cones.
    """
    n = f.ambient_rank
    pure = bool(f.max_cones) and all(len(c) == n for c in f.max_cones)
    if pair_scan_diagnostics(f) != () or not pure:
        return False
    facets = Counter(facet for c in f.max_cones for facet in combinations(c, n - 1))
    return all(count == 2 for count in facets.values())


def greedy_added_rays(f: fans.Fan, cone_index: int) -> tuple[int, ...]:
    """The rays a chart adds to a maximal cone: each fan ray, in index order,
    that enlarges the span, found by one rank test per ray."""
    c = f.max_cones[cone_index]
    n = f.ambient_rank
    span = [f.rays[i] for i in c]
    added: list[int] = []
    for idx in range(len(f.rays)):
        if len(span) == n:
            break
        candidate = f.rays[idx]
        if rank(IntMatrix.from_rows(span + [candidate])) == len(span) + 1:
            span.append(candidate)
            added.append(idx)
    return tuple(added)


def rank_prefix_pivots(m: IntMatrix) -> list[int]:
    """The columns j at which the rank of the first j + 1 columns exceeds
    the rank of the first j, each rank the number of Smith invariant factors."""
    ranks = [0] + [
        len(snf(IntMatrix.from_rows([row[: j + 1] for row in m.entries])).invariant_factors)
        for j in range(m.cols)
    ]
    return [j for j in range(m.cols) if ranks[j + 1] > ranks[j]]


def cycles_in_round_trip(f: fans.Fan) -> int:
    """Objects that the collector finds in reference cycles after the fan is
    read back from JSON, covered, and its certificate written, read back and
    verified, all with the collector off.  The certificate must verify."""
    text = fans.fan_to_json(f)
    gc.collect()
    gc.disable()
    try:
        fan = fans.fan_from_json(text)
        cert = certificate_from_json(certificate_to_json(build_cover(fan)))
        passed = verify_certificate(fan, cert).passed
        del fan, cert
        found = gc.collect()
    finally:
        gc.enable()
    assert passed
    return found
