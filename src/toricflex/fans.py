"""Simplicial rational fans: construction, validation, surgery, serialization.

A fan is stored canonically: rays sorted lexicographically, each maximal
cone a sorted tuple of ray indices, and the cone list itself sorted.  Two
fans built from permuted input therefore compare equal, serialize to
identical bytes, and share one digest.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .conegeom import Cone, check_ray_indices
from .errors import (
    BadConeError,
    BadIndexError,
    BadParameterError,
    DegenerateError,
    FanFormatError,
    InvalidFanError,
    NotSimplicialError,
    NotSmoothError,
    ToolkitError,
)
from .intlinalg import (
    Vector,
    _bareiss,
    _phase_one,
    _scaled_solution,
    extends_to_z_basis,
    is_int,
    primitivize,
)
from .jsonfmt import compact_json, json_object, load_json, pretty_json


@dataclass(frozen=True)
class Fan:
    """Canonical-form fan data.  Build through make_fan, not directly."""

    ambient_rank: int
    rays: tuple[Vector, ...]
    max_cones: tuple[Cone, ...]


@dataclass(frozen=True)
class FanReport:
    """Outcome of validate_fan.

    valid is True exactly when diagnostics is empty.  simplicial is always
    True for fans this package constructs; the field exists so reports are
    explicit about what was checked.  complete is False whenever the fan is
    invalid or has a lower-dimensional maximal cone.
    """

    valid: bool
    smooth: bool
    simplicial: bool
    nondegenerate: bool
    complete: bool
    torus_factor_rank: int
    diagnostics: tuple[str, ...]


def make_fan(ambient_rank, rays, max_cones) -> Fan:
    """Validate raw fan data and return it in canonical form.

    Rays must be primitive, nonzero, pairwise distinct integer vectors of
    the given length; each maximal cone must list distinct in-range ray
    indices with rationally independent rays.  Violations raise
    InvalidFanError (NotSimplicialError for dependent generators).  The
    pairwise intersection condition is NOT checked here; that is the job
    of validate_fan, so that broken fans can still be loaded and reported.
    """
    if not is_int(ambient_rank) or ambient_rank < 1:
        raise InvalidFanError(f"ambient_rank must be a positive integer, got {ambient_rank!r}")
    ray_list: list[Vector] = []
    for pos, ray in enumerate(rays):
        vec = tuple(ray)
        for x in vec:
            if not is_int(x):
                raise InvalidFanError(f"ray {pos} has a non-integer entry {x!r}")
        if len(vec) != ambient_rank:
            raise InvalidFanError(
                f"ray {pos} {vec} has length {len(vec)}, expected {ambient_rank}"
            )
        if all(x == 0 for x in vec):
            raise InvalidFanError(f"ray {pos} is the zero vector")
        if math.gcd(*vec) != 1:
            raise InvalidFanError(f"ray {pos} {vec} is not primitive")
        ray_list.append(vec)
    if len(set(ray_list)) != len(ray_list):
        # A Counter keeps first-occurrence order: this is the first repeat in input order.
        dup = next(v for v, count in Counter(ray_list).items() if count > 1)
        raise InvalidFanError(f"ray {dup} appears more than once")

    order = sorted(range(len(ray_list)), key=lambda i: ray_list[i])
    remap = {old: new for new, old in enumerate(order)}
    canon_rays = tuple(ray_list[i] for i in order)

    canon_cones: list[Cone] = []
    for cone in max_cones:
        c = check_ray_indices(cone, len(canon_rays), InvalidFanError)
        mapped = tuple(sorted(remap[i] for i in c))
        if mapped and len(_bareiss([canon_rays[i] for i in mapped])[0]) != len(mapped):
            raise NotSimplicialError(f"maximal cone {c} has rationally dependent rays")
        canon_cones.append(mapped)
    canon_cones.sort()
    return Fan(ambient_rank=ambient_rank, rays=canon_rays, max_cones=tuple(canon_cones))


def is_smooth_cone(f: Fan, cone) -> bool:
    """Whether the indexed rays extend to a basis of the ambient lattice."""
    c = check_ray_indices(cone, len(f.rays), BadIndexError)
    return extends_to_z_basis([f.rays[i] for i in c], f.ambient_rank)


def is_smooth_fan(f: Fan) -> bool:
    # Faces of smooth simplicial cones are smooth, so maximal cones suffice.
    return first_nonsmooth_cone(f) is None


def first_nonsmooth_cone(f: Fan) -> Cone | None:
    for c in f.max_cones:
        if not is_smooth_cone(f, c):
            return c
    return None


def torus_factor_rank(f: Fan) -> int:
    """Corank of the span of all rays; 0 means the rays span the ambient space."""
    if not f.rays:
        return f.ambient_rank
    return f.ambient_rank - len(_bareiss(f.rays)[0])


def _pair_finding(f: Fan, ia: int, ib: int, eliminated=None) -> str | None:
    """Diagnostic if two maximal cones intersect beyond their shared face.

    The test looks for a rational dependency among the rays of the first
    cone and the negated rays of the second with all coefficients
    positive.  Such a dependency equates a positive combination from each
    side, i.e. exhibits a common point; the intersection condition holds
    exactly when every one of them stays within the shared rays (the
    separation lemma).  Two pre-tests pass a pair first: independent rays
    in the union, at most n of them (each dependency then pairs a shared
    ray with its negation; this decides a fan of rays), and full-dimensional
    cones on opposite sides of a shared facet (_opposite, on determinants
    from eliminated, once per scan).  Other pairs go to an exact integer
    LP (intlinalg._phase_one); only if it finds a dependency outside the
    shared rays is each unshared ray tested for membership in the other
    cone (_lies_in), for a more pointed message.  That combination is a
    feasible point of the pair LP, so the test never fires on a pair the
    LP passes.  Otherwise the diagnostic names the rays of the circuit.
    """
    eliminated = eliminated or _cone_eliminations(f)
    n, ca, cb = f.ambient_rank, f.max_cones[ia], f.max_cones[ib]
    shared = set(ca) & set(cb)
    union = sorted(set(ca) | set(cb))
    if len(union) <= n and len(_bareiss([f.rays[i] for i in union])[0]) == len(union):
        return None
    if len(ca) == len(cb) == len(shared) + 1 == n:
        (pivots_a, det_a), (pivots_b, det_b) = eliminated(ia), eliminated(ib)
        slot_a, slot_b = (next(i for i, x in enumerate(c) if x not in shared) for c in (ca, cb))
        if len(pivots_a) == len(pivots_b) == n and _opposite(det_a, slot_a, det_b, slot_b):
            return None
    cols = [f.rays[i] for i in ca] + [tuple(-x for x in f.rays[i]) for i in cb]
    support = _phase_one(zip(*cols), [int(i not in shared) for i in ca + cb])
    if support is None:
        return None
    for own, other, io in ((cb, ca, ia), (ca, cb, ib)):
        for idx in own:
            if idx not in shared and _lies_in(f, other, len(eliminated(io)[0]), f.rays[idx]):
                return (
                    f"ray {idx} {f.rays[idx]} of maximal cone {own} lies in "
                    f"maximal cone {other} but is not a shared ray"
                )
    left = [ca[j] for j in support if j < len(ca)]
    right = [cb[j - len(ca)] for j in support if j >= len(ca)]
    return (
        f"maximal cones {ca} and {cb} overlap beyond their shared rays: "
        f"a positive combination of rays {left} of the first equals "
        f"one of rays {right} of the second"
    )


def _cone_eliminations(f: Fan) -> Callable[[int], tuple[list[int], int]]:
    """Maximal cone index -> _bareiss of its rays, each found once."""
    return cache(lambda i: _bareiss([f.rays[j] for j in f.max_cones[i]]))


def _opposite(det_a: int, slot_a: int, det_b: int, slot_b: int) -> bool:
    """Whether full-dimensional cones whose rays differ only at the sorted slots
    given lie across their shared facet: det[facet; x] is linear in x (Cramer)."""
    return det_a * det_b * (-1) ** (slot_a + slot_b) < 0


def _lies_in(f: Fan, cone: Cone, rank: int, ray: Vector) -> bool:
    """Whether the ray lies in the cone: one solve, or for dependent rays the LP."""
    gens = [f.rays[i] for i in cone]
    if rank < len(gens):
        return _phase_one(zip(*gens, [-x for x in ray]), [0] * len(gens) + [1]) is not None
    solved = _scaled_solution(gens, ray)
    return solved is not None and all(solved[0] * w >= 0 for w in solved[1])


def _covers_once(f: Fan) -> tuple[int, ...] | None:
    """The complete-fan test of fan_diagnostics: det R for each maximal cone.

    None sends the fan to the pair scan.
    """
    n, cones = f.ambient_rank, f.max_cones
    if not cones or {len(c) for c in cones} != {n} or len(set(cones)) < len(cones):
        return None
    across: dict[Cone, list[tuple[int, int]]] = {}  # facet -> (cone, slot of the ray opposite)
    for a, c in enumerate(cones):
        for i in range(n):
            across.setdefault(c[:i] + c[i + 1:], []).append((a, i))
    if len({i for c in cones for i in c}) < len(f.rays) or {len(v) for v in across.values()} != {2}:
        return None
    m = 3 + math.isqrt(max(sum(x * x for x in r) for r in f.rays) ** n)
    p = [sum(f.rays[j][i] * m**k for k, j in enumerate(cones[0])) for i in range(n)]
    solved = [_scaled_solution([f.rays[i] for i in c], p) for c in cones]
    if None in solved:
        return None
    dets = tuple(d for d, _ in solved)
    if not all(_opposite(dets[a], i, dets[b], j) for (a, i), (b, j) in across.values()):
        return None
    return dets if sum(all(d * w > 0 for w in ws) for d, ws in solved) == 1 else None


def fan_diagnostics(f: Fan) -> tuple[str, ...]:
    """Check the fan axioms and return every problem found, in this order.

    No maximal cones, rays unused by every cone, duplicated maximal cones,
    maximal cones that are faces of others, and then the pairs of maximal
    cones whose intersection is not their shared face.  The fan is valid
    exactly when the tuple is empty.

    A fan that passes _covers_once is valid and gets () with no pair check.
    It is nonempty and pure, uses every ray and repeats no cone, so no cone
    is a face of another.  Each facet (n-1 rays of a maximal cone) lies in
    two maximal cones whose opposite rays lie strictly on opposite sides of
    it, by the signs of their determinants (_opposite).  And p = sum_k M^k r_k
    over cone 0's rays lies inside exactly one cone, by the signs of the w_i
    in sum_i w_i r_i = d p (_scaled_solution).  No w_i is 0: it is y_i . p,
    r_j . y_i = d (i == j), a polynomial in M whose coefficients, n x n
    minors of fan rays, are below M - 2 = 1 + isqrt(max |r|^2 ^ n) by
    Hadamard's bound, so M exceeds its Cauchy root bound.
    Proof: call a point on no facet hyperplane generic.  Paths of segments
    between generic points can miss the codimension-2 spans of n-2 rays of
    a cone and meets of two facet hyperplanes.  Where one crosses a
    hyperplane H, each cone with the crossing on its boundary holds it
    inside its one facet in H, whose other cone lies across H.  So every
    generic point lies in one cone, as p does.  Let x lie in maximal cones
    C and C'.  A path from inside C to inside C', nearer x than any cone
    without x, passes through cones holding x, each sharing a facet G with
    the next and lying across G's hyperplane from it, so x is in G.  The
    smallest face holding x is thus one ray set in C and in C': C and C'
    meet in their shared face, whatever the dimension of the meeting.
    """
    return _axioms(f)[1]


def _axioms(f: Fan) -> tuple[tuple[int, ...] | None, tuple[str, ...]]:
    """_covers_once's result and fan_diagnostics, which it makes () when not None."""
    dets = _covers_once(f)
    return dets, () if dets is not None else _pair_scan(f)


def _pair_scan(f: Fan) -> tuple[str, ...]:
    """fan_diagnostics on a fan that _covers_once does not accept."""
    diags: list[str] = []
    if not f.max_cones:
        diags.append("fan has no maximal cones")
    used = {i for c in f.max_cones for i in c}
    for i, ray in enumerate(f.rays):
        if i not in used:
            diags.append(f"ray {i} {ray} is not used by any maximal cone")

    for c, count in Counter(f.max_cones).items():
        if count > 1:
            diags.append(f"maximal cone {c} appears more than once")

    sets = [frozenset(c) for c in f.max_cones]
    eliminated = _cone_eliminations(f)
    contained: list[str] = []
    overlaps: list[str] = []
    for a, b in combinations(range(len(f.max_cones)), 2):
        if sets[a] == sets[b]:
            continue
        if sets[a] < sets[b] or sets[b] < sets[a]:
            face, cone = (a, b) if sets[a] < sets[b] else (b, a)
            contained.append(
                f"maximal cone {f.max_cones[face]} is a face of maximal cone {f.max_cones[cone]}"
            )
        else:
            finding = _pair_finding(f, a, b, eliminated)
            if finding is not None:
                overlaps.append(finding)
    return tuple(diags + contained + overlaps)


def validate_fan(f: Fan) -> FanReport:
    """The fan's diagnostics (fan_diagnostics) and its predicates.

    A fan is valid, pure and complete exactly when _covers_once accepts it
    (the proof is in fan_diagnostics), so that one test decides complete.
    """
    dets, diags = _axioms(f)
    tfr = 0 if dets is not None else torus_factor_rank(f)  # a complete fan's rays span
    return FanReport(
        valid=not diags,
        smooth=_first_nonsmooth(f, dets) is None,
        simplicial=True,
        nondegenerate=tfr == 0,
        complete=dets is not None,
        torus_factor_rank=tfr,
        diagnostics=diags,
    )


def _first_nonsmooth(f: Fan, dets: tuple[int, ...] | None) -> Cone | None:
    """first_nonsmooth_cone, given _covers_once's result (cones smooth iff |det| = 1)."""
    if dets is None:
        return first_nonsmooth_cone(f)
    return next((c for c, d in zip(f.max_cones, dets) if abs(d) != 1), None)


# Put before each failure by verify_certificate and before an exit-3 error by the CLI.
HYPOTHESIS_PREFIX = "hypothesis failure: "


def _not_smooth(cone: Cone) -> NotSmoothError:
    return NotSmoothError(f"maximal cone {cone} is not smooth")


def _hypothesis_failures(f: Fan) -> Iterator[ToolkitError]:
    """The cover hypotheses (valid, smooth, nondegenerate) the fan fails.

    Yields one error per failure in the order the exit codes are checked,
    and computes each predicate only when it gets there: build_cover raises
    the first, so an invalid fan is never scanned for smoothness, and
    verify_certificate reports each.
    """
    dets, diags = _axioms(f)
    if diags:
        yield InvalidFanError("fan is invalid: " + "; ".join(diags))
    bad = _first_nonsmooth(f, dets)
    if bad is not None:
        yield _not_smooth(bad)
    tfr = 0 if dets is not None else torus_factor_rank(f)  # a complete fan's rays span
    if tfr:
        yield DegenerateError(
            f"fan rays do not span the ambient space; torus_factor_rank = {tfr}"
        )


def star_subdivision(f: Fan, cone) -> Fan:
    """Subdivide at the primitive sum of the cone's rays.

    The cone must be a face of some maximal cone with dimension at least 2,
    and the fan must be smooth.  Every maximal cone containing the face is
    replaced by the cones obtained by swapping one face generator for the
    new ray; the result is returned in canonical form.
    """
    return _star_subdivision(f, cone, None)


def _star_subdivision(f: Fan, cone, dets: tuple[int, ...] | None) -> Fan:
    """star_subdivision, given _covers_once's result for the smoothness test."""
    c = tuple(sorted(check_ray_indices(cone, len(f.rays), BadConeError)))
    if len(c) < 2:
        raise BadConeError(
            f"cone {c} has dimension {len(c)}; star subdivision needs dimension at least 2"
        )
    cset = set(c)
    if not any(cset <= set(mc) for mc in f.max_cones):
        raise BadConeError(f"cone {c} is not a face of any maximal cone")
    bad = _first_nonsmooth(f, dets)
    if bad is not None:
        raise _not_smooth(bad)

    gens = [f.rays[i] for i in c]
    new_ray = primitivize(tuple(sum(col) for col in zip(*gens)))
    new_idx = len(f.rays)
    cones: list[Cone] = []
    for mc in f.max_cones:
        if cset <= set(mc):
            for drop in c:
                cones.append(tuple(sorted((set(mc) - {drop}) | {new_idx})))
        else:
            cones.append(mc)
    return make_fan(f.ambient_rank, f.rays + (new_ray,), cones)


def iterated_star_subdivisions(f: Fan, rounds: int) -> tuple[Fan, ...]:
    """Breadth-first star subdivisions, deduplicated by canonical form.

    Each round subdivides every distinct 2-face in every fan of the
    current frontier.  Returns the starting fan followed by each new fan
    in first-discovery order, which is deterministic.  Fans are stored
    canonically, so equal fans compare and hash equal.
    """
    _need_positive("rounds", rounds)
    seen: dict[Fan, None] = {f: None}
    frontier = [f]
    for _ in range(rounds):
        fresh: list[Fan] = []
        for fan in frontier:
            faces = sorted(
                {sub for mc in fan.max_cones for sub in combinations(mc, 2)}
            )
            for face in faces:
                child = star_subdivision(fan, face)
                if child not in seen:
                    seen[child] = None
                    fresh.append(child)
        frontier = fresh
    return tuple(seen)


def _need_positive(name: str, value) -> int:
    if not is_int(value) or value < 1:
        raise BadParameterError(f"{name} must be a positive integer, got {value!r}")
    return value


def _standard_basis(n: int) -> list[Vector]:
    """The standard basis of Z^n, once n is known to be a positive integer."""
    _need_positive("n", n)
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def fan_affine_space(n: int) -> Fan:
    """Fan of affine n-space: one maximal cone on the standard basis."""
    return make_fan(n, _standard_basis(n), [tuple(range(n))])


def fan_projective_space(n: int) -> Fan:
    """Fan of projective n-space."""
    rays = _standard_basis(n)
    rays.append(tuple(-1 for _ in range(n)))
    cones = list(combinations(range(n + 1), n))
    return make_fan(n, rays, cones)


def fan_hirzebruch(a: int) -> Fan:
    """Fan of the degree-a ruled surface over the projective line."""
    if not is_int(a) or a < 0:
        raise BadParameterError(f"twist must be a nonnegative integer, got {a!r}")
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return make_fan(2, rays, cones)


def fan_product(f: Fan, g: Fan) -> Fan:
    """Fan of the product variety: pairwise sums of cones in the direct sum."""
    n1, n2 = f.ambient_rank, g.ambient_rank
    rays = [r + (0,) * n2 for r in f.rays] + [(0,) * n1 + r for r in g.rays]
    shift = len(f.rays)
    cones = [
        ca + tuple(shift + i for i in cb)
        for ca in f.max_cones
        for cb in g.max_cones
    ]
    return make_fan(n1 + n2, rays, cones)


def fan_punctured_affine(n: int) -> Fan:
    """Fan of affine n-space minus the origin: the rays of the octant only."""
    return make_fan(n, _standard_basis(n), [(i,) for i in range(n)])


def fan_to_dict(f: Fan) -> dict:
    return {
        "rank": f.ambient_rank,
        "rays": [list(r) for r in f.rays],
        "max_cones": [list(c) for c in f.max_cones],
    }


def fan_from_dict(doc) -> Fan:
    """Build a fan from parsed JSON, checking shape before semantics.

    Shape problems (wrong types, missing keys) raise FanFormatError; value
    problems (bad rank, non-primitive ray, dependent cone) surface as
    InvalidFanError from make_fan.
    """
    json_object(doc, ("rank", "rays", "max_cones"), FanFormatError, "fan document")
    ambient = doc["rank"]
    if not is_int(ambient):
        raise FanFormatError("rank must be an integer")
    for key in ("rays", "max_cones"):
        rows = doc[key]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise FanFormatError(f"{key} must be a list of integer lists")
        for row in rows:
            for x in row:
                if not is_int(x):
                    raise FanFormatError(f"{key} entries must be integers, got {x!r}")
    return make_fan(
        ambient,
        [tuple(r) for r in doc["rays"]],
        [tuple(c) for c in doc["max_cones"]],
    )


def fan_to_json(f: Fan, pretty: bool = True) -> str:
    """Serialize a fan; FanFormatError if an entry is too long to write."""
    doc = fan_to_dict(f)
    try:
        return pretty_json(doc) if pretty else compact_json(doc)
    except ValueError as exc:
        raise FanFormatError(f"fan cannot be written as JSON: {exc}") from exc


def fan_from_json(text: str) -> Fan:
    return fan_from_dict(load_json(text, FanFormatError, "fan document"))


def canonical_fan_bytes(f: Fan) -> bytes:
    """Byte form underlying the digest; canonical fans map to equal bytes."""
    return fan_to_json(f, pretty=False).encode("utf-8")


def fan_digest(f: Fan) -> str:
    return hashlib.sha256(canonical_fan_bytes(f)).hexdigest()


def report_to_dict(r: FanReport) -> dict:
    return {
        "valid": r.valid,
        "smooth": r.smooth,
        "simplicial": r.simplicial,
        "nondegenerate": r.nondegenerate,
        "complete": r.complete,
        "torus_factor_rank": r.torus_factor_rank,
        "diagnostics": list(r.diagnostics),
    }
