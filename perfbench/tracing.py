"""Per-layer call tracing installed from outside the program.

The wrappers replace module attributes at run time and put them back
afterwards; the program's files are not touched.  A function imported by
value (``from .intlinalg import snf``) is a separate binding in the
importing module, so each traced function is replaced at every binding in
every ``toricflex`` module that refers to it.

Each traced call is a span ``(span_id, root_id, parent_id, name, start,
end)``.  The root is the CLI operation, opened by the benchmark around
``cli.main``.  Spans stay in memory until the benchmark writes them out.
A span's self time is its duration minus the time covered by its direct
children; the layer of a span is the first part of its name.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "fans", "cover", "conegeom", "intlinalg")

# Span name -> (module, attribute).  Replaced at every binding of the function.
SPANS = {
    "intlinalg.snf": ("intlinalg", "snf"),
    "intlinalg.kernel_basis": ("intlinalg", "kernel_basis"),
    "intlinalg.rank": ("intlinalg", "rank"),
    "intlinalg.det": ("intlinalg", "det"),
    "intlinalg.adjugate": ("intlinalg", "adjugate"),
    "intlinalg.extends_to_z_basis": ("intlinalg", "extends_to_z_basis"),
    "fans.validate_fan": ("fans", "validate_fan"),
    "fans.make_fan": ("fans", "make_fan"),
    "fans.star_subdivision": ("fans", "star_subdivision"),
    "fans.fan_digest": ("fans", "fan_digest"),
    "conegeom.cone_contains": ("conegeom", "cone_contains"),
    "conegeom.quotient_group": ("conegeom", "quotient_group"),
    "conegeom.face_lattice": ("conegeom", "face_lattice"),
    "cover.build_cover": ("cover", "build_cover"),
    "cover.build_chart": ("cover", "build_chart"),
    "cover.verify_certificate": ("cover", "verify_certificate"),
}

# Span name -> (module, attribute).  Replaced at this one binding only: the
# CLI's serialization boundary, whose self time is JSON work.
CLI_SPANS = {
    "cli.fan_from_json": ("cli", "fan_from_json"),
    "cli.certificate_from_json": ("cli", "certificate_from_json"),
    "cli.certificate_to_json": ("cli", "certificate_to_json"),
}

# Counter name -> (module, attribute).  Counts calls through one binding.
COUNTERS = {
    "fans.pair_checks": ("fans", "_pair_finding"),
    "fans.circuits": ("fans", "kernel_basis"),
    "cover.validate_fan.calls": ("cover", "validate_fan"),
}

INTMATRIX = "intlinalg.intmatrix"


class Tracer:
    """Span recorder with per-name totals; install() wires it into the program."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter[str] = Counter()
        self.busy: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self.record = True  # keep spans; counts and times accumulate either way
        self._stack: list[list] = []  # [span_id, root_id, child_seconds]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def reset_totals(self) -> None:
        for counter in (self.calls, self.busy, self.self_time, self.counts):
            counter.clear()

    def call(self, name: str, fn, args, kwargs, on_result=None):
        stack = self._stack
        self._next_id += 1
        parent = stack[-1] if stack else None
        frame = [self._next_id, parent[1] if parent else self._next_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            if self.record:
                parent_id = parent[0] if parent else None
                self.spans.append((frame[0], frame[1], parent_id, name, start, end))
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - frame[2]
        if on_result is not None:
            on_result(result)
        return result

    def _wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result)

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function; a target the program lacks is listed in missing."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "toricflex" or name.startswith("toricflex."))
        }

        def target(module: str, attr: str):
            fn = getattr(modules.get(f"toricflex.{module}"), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
            return fn

        def add(key: str, attr: str):
            return lambda result: self.counts.update({key: len(getattr(result, attr))})

        hooks = {
            "conegeom.face_lattice": add("conegeom.face_lattice.faces", "faces"),
            "cover.build_chart": add("cover.complement_faces", "complement_faces"),
        }
        for name, (module, attr) in SPANS.items():
            fn = target(module, attr)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn, hooks.get(name))
            for mod in modules.values():
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    self._patch(mod, key, wrapper)
        for name, (module, attr) in CLI_SPANS.items():
            fn = target(module, attr)
            if fn is not None:
                self._patch(modules[f"toricflex.{module}"], attr, self._wrap(name, fn))
        for name, (module, attr) in COUNTERS.items():
            fn = target(module, attr)
            if fn is not None:
                self._patch(modules[f"toricflex.{module}"], attr, self._counted(name, fn))
        matrix = getattr(modules.get("toricflex.intlinalg"), "IntMatrix", None)
        post_init = vars(matrix).get("__post_init__") if matrix is not None else None
        if post_init is None:
            self.missing.append("intlinalg.IntMatrix.__post_init__")
        else:
            self._patch(matrix, "__post_init__", self._wrap(INTMATRIX, post_init))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last reset_totals()."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.busy[name]
        for name in CLI_SPANS:
            out[f"{name}.s"] = self.busy[name]
        out[f"{INTMATRIX}.count"] = self.calls[INTMATRIX]
        out[f"{INTMATRIX}.s"] = self.busy[INTMATRIX]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer
            )
        for name in (*COUNTERS, "conegeom.face_lattice.faces", "cover.complement_faces"):
            out[name] = self.counts[name]
        out["trace.spans"] = sum(self.calls.values())
        return out


def per_layer_units() -> dict[str, str]:
    """Unit of every metric pass_metrics() returns, plus those the runner adds."""
    units = {
        name: "s" if name.endswith(("_s", ".s")) else "count" for name in Tracer().pass_metrics()
    }
    units.update({f"cli.exit.{code}.count": "count" for code in range(5)})
    units.update(
        {
            "conegeom.span_frame.hits": "count",
            "conegeom.span_frame.misses": "count",
            "conegeom.span_frame.hit_ratio": "ratio",
            "trace.overhead_s": "s",
        }
    )
    return units
