"""Geometry of individual simplicial cones: membership and quotients.

Functions here take the ambient fan plus a cone given as a tuple of ray
indices.  They never mutate the fan and never leave integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadIndexError, DimensionMismatchError, NotFullDimensionalError
from .intlinalg import IntMatrix, Vector, det, is_int, positive_circuit, snf

Cone = tuple[int, ...]


@dataclass(frozen=True)
class QuotientGroup:
    """Finite abelian quotient of the lattice by a full-rank sublattice.

    invariant_factors keeps only the factors bigger than 1; order is the
    product of all factors, computed independently via a determinant.
    """

    invariant_factors: tuple[int, ...]
    order: int

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors


def check_ray_indices(cone, ray_count: int, error: type[Exception]) -> Cone:
    """Return the cone as a tuple after checking that it names distinct rays.

    Each index must be a plain int (not bool) in range(ray_count), and no
    index may repeat; a violation raises the caller's exception class.
    """
    c = tuple(cone)
    for idx in c:
        if not is_int(idx) or not 0 <= idx < ray_count:
            raise error(f"ray index {idx!r} out of range for fan with {ray_count} rays")
    if len(set(c)) != len(c):
        raise error(f"cone {c} repeats a ray index")
    return c


def _generators(f: "Fan", cone) -> tuple[Vector, ...]:
    return tuple(f.rays[i] for i in check_ray_indices(cone, len(f.rays), BadIndexError))


def cone_contains(f: "Fan", cone, point) -> bool:
    """Whether an integer point lies in the closed cone spanned by the rays.

    The point lies in the cone exactly when some z >= 0 has
    sum(z_i * ray_i) == point, i.e. when the rays and the negated point have
    a nonnegative dependency with weight 1 on the point; the phase-one LP
    that validates fans decides that.  The rays need not be independent.
    """
    pt = tuple(point)
    if len(pt) != f.ambient_rank:
        raise DimensionMismatchError(
            f"point {pt} has length {len(pt)}, expected {f.ambient_rank}"
        )
    gens = _generators(f, cone)
    cols = gens + (tuple(-x for x in pt),)
    weights = (0,) * len(gens) + (1,)
    return positive_circuit(IntMatrix.from_rows(zip(*cols)), weights) is not None


def quotient_group(f: "Fan", cone) -> QuotientGroup:
    """Quotient of the ambient lattice by the sublattice the rays generate.

    Requires a full-dimensional cone.  The order comes from a fraction-free
    determinant and the factor list from Smith reduction; the two routes
    stay separate so they can cross-check each other.  The factors multiply
    to the order, so a unimodular cone has none and skips the reduction.
    """
    gens = _generators(f, cone)
    n = f.ambient_rank
    if len(gens) != n:
        raise NotFullDimensionalError(
            f"cone {tuple(cone)} has {len(gens)} rays in ambient rank {n}"
        )
    m = IntMatrix.from_rows(gens)
    d = det(m)
    if d == 0:
        raise NotFullDimensionalError(
            f"cone {tuple(cone)} has rationally dependent rays"
        )
    factors = () if abs(d) == 1 else tuple(x for x in snf(m).invariant_factors if x > 1)
    return QuotientGroup(invariant_factors=factors, order=abs(d))
