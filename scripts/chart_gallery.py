#!/usr/bin/env python3
"""Walk through cover charts for a few fans where the extension matters.

For each showcase fan this prints every chart: the maximal cone, the rays
added to reach full dimension, the lattice quotient of the extended cone,
and the removed faces with their codimensions.  The punctured affine
spaces show pure complement charts, the two-ray index-2 fan shows a
nontrivial quotient, and the mixed fan shows both chart kinds at once.
"""

import argparse
import sys

from toricflex.cover import KIND_AFFINE_SPACE, build_cover
from toricflex.fans import Fan, fan_punctured_affine, make_fan


def showcase() -> list[tuple[str, Fan]]:
    return [
        ("punctured affine plane", fan_punctured_affine(2)),
        ("punctured affine 3-space", fan_punctured_affine(3)),
        ("punctured affine 4-space", fan_punctured_affine(4)),
        (
            "two rays with lattice index 2",
            make_fan(2, [(1, 0), (1, 2)], [(0,), (1,)]),
        ),
        (
            "quadrant plus an opposite half-line",
            make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)]),
        ),
    ]


def describe(name: str, fan: Fan) -> None:
    cert = build_cover(fan)
    print(f"== {name} ==")
    print(f"rank {fan.ambient_rank}, rays {list(fan.rays)}")
    for ch in cert.charts:
        cone = fan.max_cones[ch.cone_index]
        cone_rays = [fan.rays[i] for i in cone]
        print(f"  chart {ch.cone_index}: cone {cone} with rays {cone_rays}")
        if ch.kind == KIND_AFFINE_SPACE:
            print(f"    affine {fan.ambient_rank}-space, nothing to remove")
            continue
        added_rays = [fan.rays[i] for i in ch.added_ray_indices]
        print(f"    extended by rays {list(ch.added_ray_indices)} = {added_rays}")
        if ch.quotient.is_trivial:
            print("    quotient: trivial")
        else:
            print(
                f"    quotient: invariant factors {list(ch.quotient.invariant_factors)},"
                f" order {ch.quotient.order}"
            )
        for face, codim in ch.complement_faces:
            print(f"    removes face {list(face)} (codimension {codim})")
        print(f"    smallest removed codimension: {ch.min_complement_codim}")
    print(f"covered by affine spaces alone: {'yes' if cert.a_covered else 'no'}")
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args(argv)
    for name, fan in showcase():
        describe(name, fan)
    return 0


if __name__ == "__main__":
    sys.exit(main())
