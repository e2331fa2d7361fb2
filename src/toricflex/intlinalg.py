"""Exact integer linear algebra on arbitrary-precision ints.

Everything in this module is fraction-free: no floats, no rationals.
Division only happens where an identity guarantees exactness, and each
such site asserts the remainder is zero rather than rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionMismatchError, NonSquareError, ZeroVectorError

Vector = tuple[int, ...]


def is_int(x: object) -> bool:
    """Whether x is an int; bool is an int subclass, refused so True is never 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(x: object) -> int:
    if not is_int(x):
        raise TypeError(f"matrix entries must be int, got {type(x).__name__}")
    return x


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular integer matrix.

    Rows are stored as tuples; construction validates that the grid is
    nonempty and rectangular and that every entry is an int (bool refused).
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        grid = tuple(tuple(_check_int(x) for x in row) for row in self.entries)
        if not grid or not grid[0]:
            raise DimensionMismatchError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionMismatchError("matrix rows have unequal lengths")
        object.__setattr__(self, "entries", grid)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )


@dataclass(frozen=True)
class SnfResult:
    """Diagonalization u @ m @ v == d with unimodular u, v.

    d is diagonal with nonnegative entries forming a divisibility chain;
    invariant_factors lists the nonzero diagonal entries in order.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    invariant_factors: tuple[int, ...]


def _least_nonzero(a: list[list[int]], t: int) -> tuple[int, int] | None:
    """Position of the smallest-magnitude nonzero entry of a[t:][t:].

    Ties break to the lexicographically first (row, col), which keeps the
    whole reduction deterministic.
    """
    best: tuple[int, int] | None = None
    best_abs = 0
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            x = a[i][j]
            if x != 0 and (best is None or abs(x) < best_abs):
                best = (i, j)
                best_abs = abs(x)
    return best


def _nondivisible_row(a: list[list[int]], t: int) -> int | None:
    """Row index i > t holding an entry of a[t+1:][t+1:] not divisible by a[t][t]."""
    p = a[t][t]
    for i in range(t + 1, len(a)):
        for j in range(t + 1, len(a[0])):
            if a[i][j] % p != 0:
                return i
    return None


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form with both transform matrices.

    The pivot at each stage is the smallest-magnitude nonzero entry of the
    remaining block (lex-first on ties), reduced by floored division, so
    the pivot magnitude strictly decreases until the column and row are
    clear.  When a remaining entry is not divisible by the pivot, its row
    is added to the pivot row and reduction resumes.  The procedure is
    fully deterministic: identical input yields identical u, d, v.
    """
    a = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src: int, dst: int, q: int) -> None:
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src: int, dst: int, q: int) -> None:
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        pos = _least_nonzero(a, t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        p = a[t][t]
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                add_row(t, i, -(a[i][t] // p))
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                add_col(t, j, -(a[t][j] // p))
        # Floored division leaves remainders in [0, p); any survivor is a
        # strictly smaller pivot candidate, so loop back for it.
        if any(a[i][t] for i in range(t + 1, nr)) or any(
            a[t][j] for j in range(t + 1, nc)
        ):
            continue
        bad = _nondivisible_row(a, t)
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1

    d = IntMatrix.from_rows(a)
    factors = tuple(a[i][i] for i in range(limit) if a[i][i] != 0)
    return SnfResult(
        u=IntMatrix.from_rows(u),
        d=d,
        v=IntMatrix.from_rows(v),
        invariant_factors=factors,
    )


def _fraction_free_step(row: list[int], pivot_row: list[int], col: int, start: int, prev: int):
    """The Bareiss (1968) update of row by pivot_row, from column start on.

    With p = pivot_row[col], each entry becomes (p * row[j] - row[col] *
    pivot_row[j]) / prev, prev the previous pivot.  Sylvester's identity
    makes the division exact; every elimination in this module takes its
    steps here, so this is the one place that asserts it.  When row[col]
    is 0 and p equals prev, each entry becomes p * row[j] / prev = row[j],
    so that step returns at once.
    """
    p, f = pivot_row[col], row[col]
    if f == 0 and p == prev:
        return
    for j in range(start, len(row)):
        q, rem = divmod(p * row[j] - f * pivot_row[j], prev)
        if rem:
            raise AssertionError("fraction-free step lost exactness")
        row[j] = q


def _bareiss(rows) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination with row pivoting.

    Returns the pivot columns, each independent of the columns before it
    (their number is the rank), and the last pivot with the sign of the row
    permutation applied; for a square matrix of full rank that signed
    pivot is the determinant.
    """
    a = [list(row) for row in rows]
    nr, nc = len(a), len(a[0])
    sign = prev = 1
    pivots: list[int] = []
    for col in range(nc):
        r = len(pivots)
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if a[i][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row], sign = a[pivot_row], a[r], -sign
        for i in range(r + 1, nr):
            _fraction_free_step(a[i], a[r], col, col + 1, prev)
        prev = a[r][col]
        pivots.append(col)
    return pivots, sign * prev


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise NonSquareError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    pivots, signed_pivot = _bareiss(m.entries)
    return signed_pivot if len(pivots) == m.rows else 0


def rank(m: IntMatrix) -> int:
    """Rank over the rationals, computed without leaving the integers."""
    return len(_bareiss(m.entries)[0])


def _scaled_dual_basis(rows) -> tuple[int, list[Vector]] | None:
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


def positive_circuit(m: IntMatrix, weights) -> tuple[int, ...] | None:
    """Support of a vertex of {z >= 0 : m @ z == 0, weights . z == 1}, or None.

    The support S, a sorted tuple of column indices, is a circuit of the
    columns of m (a minimal dependent set) whose kernel generator has all
    entries of one sign, and S meets a column of nonzero weight.  At a
    vertex z the columns of m stacked on weights are independent on S.  If
    the kernel of m restricted to S had dimension 2 or more, it would hold
    a nonzero y with weights . y == 0, a dependency among those stacked
    columns; so that kernel is the line through z restricted to S.  Its
    entries are all positive, so no proper subset of S is dependent, and
    weights . z == 1 rules out a support of weight-0 columns only.
    Conversely, for nonnegative weights, a sign-uniform circuit meeting a
    column of positive weight scales to a feasible point, and a feasible
    polyhedron inside the nonnegative orthant has a vertex: the result is
    None exactly when no such circuit exists.

    Phase one of the simplex method finds the vertex.  Each row gets an
    artificial variable, basic at the start; their columns are not stored,
    because one that leaves the basis is never let back in.  Bland's rule
    (lowest index enters, ties in the ratio test leave by lowest basic
    index) rules out cycling.  The tableau is kept as integers scaled by
    the current basis determinant, and each pivot divides by the previous
    determinant exactly, as in Bareiss elimination.
    """
    w = tuple(_check_int(x) for x in weights)
    if len(w) != m.cols:
        raise DimensionMismatchError(f"expected {m.cols} weights, got {len(w)}")
    return _phase_one(m.entries, w)


def _phase_one(rows, weights) -> tuple[int, ...] | None:
    """positive_circuit on plain rows and int weights, one per column."""
    nc = len(weights)
    # Row i reads: sum_j rows[i][j] * z_j + artificial_i == rows[i][-1].
    rows = [list(row) + [0] for row in rows] + [list(weights) + [1]]
    basis = [nc + i for i in range(len(rows))]
    # Reduced costs of the artificials' sum, then minus its current value.
    cost = [-sum(col) for col in zip(*rows)]
    denom = 1
    while True:
        enter = next((j for j in range(nc) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(rows):
            if row[enter] <= 0:
                continue
            if leave is None:
                leave = i
                continue
            best = rows[leave]
            # Compare the ratios row[-1] / row[enter] and best[-1] / best[enter].
            here, there = row[-1] * best[enter], best[-1] * row[enter]
            if here < there or (here == there and basis[i] < basis[leave]):
                leave = i
        if leave is None:
            raise AssertionError("phase one is bounded below by 0")
        pivot_row = rows[leave]
        for row in rows + [cost]:
            if row is not pivot_row:
                _fraction_free_step(row, pivot_row, enter, 0, denom)
        denom = pivot_row[enter]
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    return tuple(sorted(j for j, row in zip(basis, rows) if j < nc and row[-1] != 0))


def primitivize(v) -> Vector:
    """Divide a nonzero integer vector by the gcd of its entries."""
    vec = tuple(_check_int(x) for x in v)
    g = math.gcd(*vec) if vec else 0
    if g == 0:
        raise ZeroVectorError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def extends_to_z_basis(vectors, ambient_rank: int) -> bool:
    """Whether the given integer vectors extend to a basis of the full lattice.

    True exactly when the vectors are independent and the lattice they span
    is saturated, i.e. every Smith invariant factor equals 1.  One
    fraction-free elimination finds the rank k and D, the absolute k x k
    minor on the pivot columns.  The product of the factors divides every
    k x k minor, so D = 1 settles the answer as True; for as many vectors as
    the ambient rank that product is D, so D decides.  Otherwise fewer
    vectors take the Smith normal form.
    """
    vecs = tuple(tuple(row) for row in vectors)
    for vec in vecs:
        if len(vec) != ambient_rank:
            raise DimensionMismatchError(
                f"expected vectors of length {ambient_rank}, got {len(vec)}"
            )
    if not vecs:
        return True
    if len(vecs) > ambient_rank:
        return False
    m = IntMatrix.from_rows(vecs)
    pivots, minor = _bareiss(m.entries)
    if len(pivots) < len(vecs):
        return False
    if abs(minor) == 1:
        return True
    if len(vecs) == ambient_rank:
        return False
    return all(f == 1 for f in snf(m).invariant_factors)
