#!/usr/bin/env python3
"""Build and verify flexibility cover certificates over a fan corpus.

Prints one table row per fan: its shape, hypothesis flags, whether the
cover is all affine spaces, and the verifier's verdict.  With --out-dir
the fan and certificate JSON files are written next to each other, named
by a digest prefix so repeated runs are stable.
"""

import argparse
import sys
from pathlib import Path

from toricflex.cover import (
    KIND_FLEXIBLE_COMPLEMENT,
    build_cover,
    certificate_to_json,
    verify_certificate,
)
from toricflex.fans import (
    Fan,
    fan_digest,
    fan_hirzebruch,
    fan_product,
    fan_projective_space,
    fan_punctured_affine,
    fan_to_json,
    iterated_star_subdivisions,
    validate_fan,
)


def corpus(rounds: int) -> list[tuple[str, Fan]]:
    named: list[tuple[str, Fan]] = []
    for n in range(1, 5):
        named.append((f"projective_{n}", fan_projective_space(n)))
    for a in range(4):
        named.append((f"hirzebruch_{a}", fan_hirzebruch(a)))
    named.append(
        ("product_1x2", fan_product(fan_projective_space(1), fan_projective_space(2)))
    )
    for n in (2, 3, 4):
        named.append((f"punctured_{n}", fan_punctured_affine(n)))
    family = iterated_star_subdivisions(fan_projective_space(2), rounds)
    seen = {fan_digest(f) for _, f in named}
    for f in family:
        digest = fan_digest(f)
        if digest not in seen:
            seen.add(digest)
            named.append((f"subdivided_{digest[:8]}", f))
    return named


def run(rounds: int, out_dir: Path | None) -> int:
    rows = []
    failures = 0
    for name, fan in corpus(rounds):
        report = validate_fan(fan)
        cert = build_cover(fan)
        outcome = verify_certificate(fan, cert)
        if not outcome.passed:
            failures += 1
        flex_codims = [
            ch.min_complement_codim
            for ch in cert.charts
            if ch.kind == KIND_FLEXIBLE_COMPLEMENT
        ]
        rows.append(
            (
                name,
                fan.ambient_rank,
                len(fan.rays),
                len(fan.max_cones),
                "yes" if report.complete else "no",
                "yes" if cert.a_covered else "no",
                str(min(flex_codims)) if flex_codims else "-",
                "ok" if outcome.passed else "FAILED",
            )
        )
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            stem = out_dir / f"{name}"
            stem.with_suffix(".fan.json").write_text(
                fan_to_json(fan), encoding="utf-8"
            )
            stem.with_suffix(".cert.json").write_text(
                certificate_to_json(cert), encoding="utf-8"
            )

    header = ("fan", "rank", "rays", "cones", "complete", "a_covered", "min_codim", "verify")
    widths = [
        max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))
    ]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    print(f"\n{len(rows)} fans, {failures} verification failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="iterated star subdivision rounds applied to the projective plane",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="write fan and certificate JSON files here",
    )
    args = parser.parse_args(argv)
    return run(args.rounds, args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
