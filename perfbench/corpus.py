"""Inputs, schedules and hand-derived answers for the benchmark workloads.

Every fan is written here from its textbook description, and every answer
the benchmark checks (exit code, chart count, ray and cone counts,
complement size) is derived by hand from that description.  The program's
own output is never used as an expected value; it only feeds later steps
(a subdivided fan is the parent of the next one, a certificate is tampered
with to make a known-bad input).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

EXIT_OK, EXIT_INVALID_FAN, EXIT_USAGE, EXIT_HYPOTHESIS, EXIT_VERIFY_FAILED = range(5)

Check = Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI call: what it runs, the exit code it must give, what it writes."""

    kind: str  # "cover", "verify", "reject" (a known-bad input) or "build"
    argv: tuple[str, ...]
    exit_code: int
    output: Path | None = None
    check: Check | None = None  # hand-derived check of the output bytes


@dataclass
class Chain:
    """Ops that run back to back, after the chain at index `after` if set."""

    ops: list[Op]
    after: int | None = None


@dataclass
class Workload:
    chains: list[Chain] = field(default_factory=list)

    def add(self, ops: list[Op], after: int | None = None) -> int:
        self.chains.append(Chain(ops, after))
        return len(self.chains) - 1

    def order(self, rng: random.Random) -> list[Op]:
        """One pass: every op once, chains in a random dependency-respecting order."""
        children: dict[int | None, list[int]] = {}
        for i, chain in enumerate(self.chains):
            children.setdefault(chain.after, []).append(i)
        ready = list(children.get(None, []))
        ops: list[Op] = []
        while ready:
            i = ready.pop(rng.randrange(len(ready)))
            ops.extend(self.chains[i].ops)
            ready.extend(children.get(i, []))
        return ops


def run_cli(main, argv) -> int:
    """Call the CLI in-process with stderr captured in memory."""
    with contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


# -- hand-written fans ------------------------------------------------------


def _unit(n: int, i: int) -> list[int]:
    return [int(i == j) for j in range(n)]


def _fan(rank: int, rays, cones) -> dict:
    """Fan document in canonical form: rays sorted, cone index lists sorted.

    The program loads fans in this form too, so the ray indices that churn
    passes to ``subdivide --cone`` name the same rays for both.
    """
    order = sorted(range(len(rays)), key=lambda i: list(rays[i]))
    new = {old: k for k, old in enumerate(order)}
    return {
        "rank": rank,
        "rays": [list(rays[i]) for i in order],
        "max_cones": sorted(sorted(new[i] for i in c) for c in cones),
    }


def _projective_rays(n: int) -> list[list[int]]:
    return [_unit(n, i) for i in range(n)] + [[-1] * n]


def projective(n: int) -> dict:
    """P^n: the n+1 rays e_1..e_n, -(e_1+..+e_n); every n of them span a cone."""
    return _fan(n, _projective_rays(n), combinations(range(n + 1), n))


def product(a: int, b: int) -> dict:
    """P^a x P^b: rays of each factor padded with zeros, cones paired up."""
    rays = [r + [0] * b for r in _projective_rays(a)]
    rays += [[0] * a + r for r in _projective_rays(b)]
    cones = [
        ca + tuple(a + 1 + j for j in cb)
        for ca in combinations(range(a + 1), a)
        for cb in combinations(range(b + 1), b)
    ]
    return _fan(a + b, rays, cones)


def punctured(n: int) -> dict:
    """Affine n-space minus the origin: each basis ray is its own maximal cone."""
    return _fan(n, [_unit(n, i) for i in range(n)], [(i,) for i in range(n)])


def hirzebruch(a: int) -> dict:
    return _fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc, encoding="utf-8")
    return path


# -- hand-derived output checks --------------------------------------------


def cert_check(charts: int, a_covered: bool, punctured_rank: int | None = None) -> Check:
    """A certificate lists one chart per maximal cone, and a_covered holds
    exactly when every maximal cone is full-dimensional.  For punctured
    affine n-space each chart extends one ray by the n-1 others, so it
    removes every face of the octant with at least two rays: 2^n - n - 1
    faces, the smallest of codimension 2, with a trivial quotient."""

    def check(data: bytes) -> str | None:
        doc = json.loads(data)
        if len(doc["charts"]) != charts:
            return f"{len(doc['charts'])} charts, expected {charts}"
        if doc["a_covered"] is not a_covered:
            return f"a_covered is {doc['a_covered']!r}, expected {a_covered}"
        if punctured_rank is not None:
            n = punctured_rank
            for ch in doc["charts"]:
                faces = len(ch["complement_faces"])
                if faces != 2**n - n - 1:
                    return f"chart lists {faces} complement faces, expected {2**n - n - 1}"
                if ch["min_complement_codim"] != 2:
                    return f"min_complement_codim is {ch['min_complement_codim']}, expected 2"
                if ch["quotient"]["order"] != 1:
                    return f"quotient order is {ch['quotient']['order']}, expected 1"
        return None

    return check


def subdivision_check(rank: int, rays: list[list[int]], cones: int) -> Check:
    """The child fan of a star subdivision has exactly the expected rays and
    number of maximal cones."""
    expected = sorted(rays)

    def check(data: bytes) -> str | None:
        doc = json.loads(data)
        if doc["rank"] != rank:
            return f"rank {doc['rank']}, expected {rank}"
        if sorted(doc["rays"]) != expected:
            return f"rays {doc['rays']}, expected {expected}"
        if len(doc["max_cones"]) != cones:
            return f"{len(doc['max_cones'])} maximal cones, expected {cones}"
        return None

    return check


# -- workloads ---------------------------------------------------------------


def _cover_verify(
    wl: Workload, fan: Path, charts: int, a_covered: bool, after=None, lead=(), punctured_rank=None
) -> int:
    """Add a chain: the `lead` ops, then cover and verify of `fan`."""
    cert = fan.with_suffix(".cert.json")
    check = cert_check(charts, a_covered, punctured_rank)
    cover = Op("cover", ("cover", "--input", str(fan), "--output", str(cert)), EXIT_OK, cert, check)
    verify = Op("verify", ("verify", "--input", str(fan), "--cert", str(cert)), EXIT_OK)
    return wl.add([*lead, cover, verify], after)


def _reject(wl: Workload, argv, exit_code: int) -> None:
    wl.add([Op("reject", tuple(str(a) for a in argv), exit_code)])


def _tampered(main, work: Path, name: str, fan: Path, edit) -> Path:
    """Certificate built by the program for `fan`, then broken by `edit`."""
    cert = work / f"{name}.original.cert.json"
    code = run_cli(main, ["cover", "--input", str(fan), "--output", str(cert)])
    if code != EXIT_OK:
        raise RuntimeError(f"cover on {fan.name} exited {code} while making a tampered input")
    doc = json.loads(cert.read_bytes())
    edit(doc)
    return _write(work / f"{name}.tampered.json", doc)


def pairscan(main, work: Path) -> Workload:
    wl = Workload()
    for n in (4, 5):
        _cover_verify(wl, _write(work / f"p{n}.json", projective(n)), n + 1, True)
    for a, b in ((1, 3), (2, 2)):
        fan = _write(work / f"p{a}xp{b}.json", product(a, b))
        _cover_verify(wl, fan, (a + 1) * (b + 1), True)
    # P^5 plus a 2-cone whose relative interior crosses the positive orthant.
    p5 = projective(5)
    crossed = {
        "rank": 5,
        "rays": p5["rays"] + [[2, 1, -1, 0, 0], [-1, 1, 2, 0, 0]],
        "max_cones": p5["max_cones"] + [[6, 7]],
    }
    bad = _write(work / "p5_crossed.json", crossed)
    argv = ["cover", "--input", bad, "--output", work / "p5_crossed.cert.json"]
    _reject(wl, argv, EXIT_INVALID_FAN)
    return wl


def punctured_space(main, work: Path) -> Workload:
    wl = Workload()
    fans = {}
    for n in (10, 11, 12):
        fans[n] = _write(work / f"a{n}.json", punctured(n))
        _cover_verify(wl, fans[n], n, False, punctured_rank=n)
    cert = _tampered(
        main, work, "a12", fans[12], lambda doc: doc["charts"][0]["complement_faces"].pop()
    )
    _reject(wl, ["verify", "--input", fans[12], "--cert", cert], EXIT_VERIFY_FAILED)
    return wl


def _family(main, work: Path, name: str, root: dict, rounds: int, size: int, wl: Workload) -> None:
    """Breadth-first star subdivisions at every 2-face, deduplicated.

    Setup runs each subdivision once to learn the family's tree; the pass
    then rebuilds every member from its parent with the same CLI call.  In
    a complete simplicial fan of rank n a 2-face lies in n-1 maximal cones
    (rank 2: the cone itself; rank 3: the two cones on either side of the
    facet), so each subdivision adds one ray and n-1 maximal cones.
    """
    rank = root["rank"]
    root_path = _write(work / f"{name}_0.json", root)
    members = [(root_path, root)]
    chains = [_cover_verify(wl, root_path, len(root["max_cones"]), True)]
    seen: set[bytes] = set()
    frontier = [0]
    for _ in range(rounds):
        fresh = []
        for parent in frontier:
            parent_path, parent_doc = members[parent]
            faces = sorted({f for c in parent_doc["max_cones"] for f in combinations(c, 2)})
            for face in faces:
                child_path = work / f"{name}_{len(members)}.json"
                child_path.unlink(missing_ok=True)  # see Runner.run_pass
                argv = (
                    "subdivide", "--input", str(parent_path),
                    "--cone", ",".join(map(str, face)), "--output", str(child_path),
                )
                code = run_cli(main, argv)
                if code != EXIT_OK:
                    raise RuntimeError(f"subdivide {parent_path.name} at {face} exited {code}")
                data = child_path.read_bytes()
                if data in seen:
                    continue
                seen.add(data)
                new_ray = [sum(col) for col in zip(*(parent_doc["rays"][i] for i in face))]
                cones = len(parent_doc["max_cones"]) + rank - 1
                check = subdivision_check(rank, parent_doc["rays"] + [new_ray], cones)
                build = Op("build", argv, EXIT_OK, child_path, check)
                chains.append(_cover_verify(wl, child_path, cones, True, chains[parent], [build]))
                members.append((child_path, json.loads(data)))
                fresh.append(len(members) - 1)
        frontier = fresh
    if len(members) != size:
        raise RuntimeError(f"{name} family has {len(members)} members, expected {size}")


def churn(main, work: Path) -> Workload:
    wl = Workload()
    _family(main, work, "p2", projective(2), 3, 41, wl)
    _family(main, work, "p3", projective(3), 1, 7, wl)
    for a in range(4):
        _cover_verify(wl, _write(work / f"f{a}.json", hirzebruch(a)), 4, True)
    crossing = {
        "rank": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, -1], [-1, 1, 2]],
        "max_cones": [[0, 1, 2], [3, 4]],
    }
    nonsmooth = {"rank": 2, "rays": [[1, 0], [1, 2]], "max_cones": [[0, 1]]}
    degenerate = {"rank": 2, "rays": [[1, 0]], "max_cones": [[0]]}
    for name, doc, code in (
        ("crossing", crossing, EXIT_INVALID_FAN),
        ("nonsmooth", nonsmooth, EXIT_HYPOTHESIS),
        ("degenerate", degenerate, EXIT_HYPOTHESIS),
        ("garbage", "this is not a fan {", EXIT_USAGE),
    ):
        path = _write(work / f"{name}.json", doc)
        _reject(wl, ["cover", "--input", path, "--output", work / f"{name}.cert.json"], code)
    p2 = work / "p2_0.json"
    cert = _tampered(main, work, "p2", p2, lambda doc: doc["charts"].pop(1))
    _reject(wl, ["verify", "--input", p2, "--cert", cert], EXIT_VERIFY_FAILED)
    return wl


WORKLOADS = {"pairscan": pairscan, "punctured": punctured_space, "churn": churn}


def warm_up(main, work: Path) -> None:
    """One cover and verify on P^2, so the timed passes start warm."""
    fan = _write(work / "warm.json", projective(2))
    cert = work / "warm.cert.json"
    for argv in (
        ("cover", "--input", fan, "--output", cert),
        ("verify", "--input", fan, "--cert", cert),
    ):
        code = run_cli(main, [str(a) for a in argv])
        if code != EXIT_OK:
            raise RuntimeError(f"warm-up {argv[0]} exited {code}")
