#!/usr/bin/env python3
"""Benchmark for the toricflex command line, run in-process.

    python3 perfbench/run.py --workload {pairscan,punctured,churn}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One closed loop, one client, one CLI operation at a time:
``toricflex.cli.main([...])`` on fan and certificate files under
``.perfbench/<workload>/``.  A pass runs every input of the workload once,
in an order drawn from the seed; the inputs themselves are fixed.

Every operation is checked against hand-derived answers (see corpus.py);
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run times untraced passes for a
third of the time, then traced passes, and reports the per-layer metrics
and the tracing overhead.  The line before it holds the details: machine,
seed, sample counts, quartiles and the failure list.  See WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import corpus
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 5
HASH_SEED = "0"
MIN_PASSES = 3
TRACED_SHARE = 2 / 3
FAILURES_SHOWN = 20


def fresh_import():
    """Import the CLI from source as a new process would, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "toricflex" or n.startswith("toricflex.")]:
        del sys.modules[name]
    return importlib.import_module("toricflex.cli")


def set_up(workload: str, work: Path):
    """Import, input generation and warm-up; returns the CLI module and the workload."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli = fresh_import()
    wl = corpus.WORKLOADS[workload](cli.main, work)
    corpus.warm_up(cli.main, work)
    return cli, wl


class Runner:
    """Runs passes and checks every operation against its hand-derived answer."""

    def __init__(self, cli, wl: corpus.Workload, seed: int) -> None:
        self.main = cli.main
        self.conegeom = sys.modules["toricflex.conegeom"]
        self.wl = wl
        self.rng = random.Random(seed)
        self.digests: dict[Path, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.span_frame = [0, 0]  # hits, misses in the current pass

    def _fresh_process_state(self) -> None:
        # The span-frame cache would otherwise grow across fans; a real CLI
        # call starts with it empty.
        frame = getattr(self.conegeom, "_span_frame", None)
        if hasattr(frame, "cache_clear"):
            info = frame.cache_info()
            self.span_frame[0] += info.hits
            self.span_frame[1] += info.misses
            frame.cache_clear()

    def run_pass(self, tracer: tracing.Tracer | None = None) -> dict:
        ops = self.wl.order(self.rng)
        for op in ops:
            if op.output is not None:
                # Each op writes a new file: truncating one that was just
                # written makes ext4 flush it on close, which times the disk.
                op.output.unlink(missing_ok=True)
        self._fresh_process_state()
        self.span_frame = [0, 0]
        results = []
        start = perf_counter()
        for op in ops:
            self._fresh_process_state()
            t0 = perf_counter()
            try:
                if tracer is None:
                    code = corpus.run_cli(self.main, op.argv)
                else:
                    code = tracer.call("cli.main", corpus.run_cli, (self.main, op.argv), {})
            except Exception as exc:  # a traceback: the op failed, the run goes on
                code = f"{type(exc).__name__}: {exc}"
            results.append((op, code, perf_counter() - t0))
        sample = {"pass_s": perf_counter() - start}
        self._fresh_process_state()
        sample["span_frame"] = tuple(self.span_frame)
        for kind in ("cover", "verify", "reject"):
            sample[f"{kind}_s"] = sum(dt for op, _, dt in results if op.kind == kind)
        sample["cert_bytes"] = 0
        sample["exits"] = [code for _, code, _ in results]
        for op, code, _ in results:
            self.attempted += 1
            problem = self._check(op, code, sample)
            if problem is not None:
                self.failures.append(f"{' '.join(op.argv)}: {problem}")
        return sample

    def _check(self, op: corpus.Op, code, sample: dict) -> str | None:
        if code != op.exit_code:
            return f"exit {code}, expected {op.exit_code}"
        if op.output is None or code != corpus.EXIT_OK:
            return None
        try:
            data = op.output.read_bytes()
        except OSError as exc:
            return f"output not readable: {exc}"
        if op.kind == "cover":
            sample["cert_bytes"] += len(data)
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.get(op.output)
        if first is not None:
            return None if first == digest else "output bytes differ from the first pass"
        self.digests[op.output] = digest
        if op.check is None:
            return None
        try:
            return op.check(data)
        except (ValueError, KeyError, TypeError) as exc:
            return f"output does not parse as expected: {exc!r}"


def passes_until(runner: Runner, deadline: float) -> list[dict]:
    samples = []
    while len(samples) < MIN_PASSES or perf_counter() < deadline:
        samples.append(runner.run_pass())
    return samples


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "samples": len(values)}


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it (nearest rank);
    the maximum when the run has ten passes or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return {
        "value": ordered[rank - 1],
        "percentile": 100 * rank / n,
        "samples_beyond": n - rank,
        "samples": n,
    }


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_s.tail": "s",
    "cover_s": "s",
    "verify_s": "s",
    "reject_s": "s",
    "peak_rss_mb": "MB",
    "cert_bytes": "bytes",
}


def end_to_end(samples: list[dict], setup: list[float], detail: dict) -> dict[str, float]:
    values = {"setup_s": statistics.median(setup)}
    detail["setup_s"] = stats(setup)
    for key in ("pass_s", "cover_s", "verify_s", "reject_s", "cert_bytes"):
        detail[key] = stats([s[key] for s in samples])
        values[key] = detail[key]["median"]
    detail["pass_s.tail"] = tail([s["pass_s"] for s in samples])
    values["pass_s.tail"] = detail["pass_s.tail"]["value"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def per_layer(untraced: list[dict], traced: list[dict], detail: dict) -> dict[str, float]:
    values = {
        name: statistics.median(s["layers"][name] for s in traced) for name in traced[0]["layers"]
    }
    for code in range(5):
        values[f"cli.exit.{code}.count"] = statistics.median(s["exits"].count(code) for s in traced)
    hits = statistics.median(s["span_frame"][0] for s in traced)
    misses = statistics.median(s["span_frame"][1] for s in traced)
    values["conegeom.span_frame.hits"] = hits
    values["conegeom.span_frame.misses"] = misses
    values["conegeom.span_frame.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    plain = statistics.median(s["pass_s"] for s in untraced)
    with_trace = statistics.median(s["pass_s"] for s in traced)
    values["trace.overhead_s"] = with_trace - plain
    detail["pass_s.untraced"] = stats([s["pass_s"] for s in untraced])
    detail["pass_s.traced"] = stats([s["pass_s"] for s in traced])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "toricflex" / "cli.py").is_file():
        print(f"perfbench: no toricflex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / args.workload

    setup = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        cli, wl = set_up(args.workload, work)
        setup.append(perf_counter() - t0)

    runner = Runner(cli, wl, args.seed)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "loop": "closed, one client, one CLI operation at a time",
    }
    start = perf_counter()
    if args.trace:
        untraced = passes_until(runner, start + args.seconds * (1 - TRACED_SHARE))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = []
            while not traced or perf_counter() < start + args.seconds:
                tracer.reset_totals()
                sample = runner.run_pass(tracer)
                sample["layers"] = tracer.pass_metrics()
                traced.append(sample)
                tracer.record = False  # spans of the first traced pass only
        finally:
            tracer.uninstall()
        metrics = per_layer(untraced, traced, detail)
        units = tracing.per_layer_units()
        spans_file = work / "spans.jsonl"
        with open(spans_file, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        detail["spans"] = {"file": str(spans_file.relative_to(ROOT)), "count": len(tracer.spans)}
        detail["trace_targets_missing"] = tracer.missing
    else:
        samples = passes_until(runner, start + args.seconds)
        metrics = end_to_end(samples, setup, detail)
        units = E2E_UNITS

    failed = len(runner.failures)
    detail["fail_ratio"] = {"value": failed / runner.attempted, "unit": "ratio"}
    detail["failures"] = runner.failures[:FAILURES_SHOWN]
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashes are salted per process unless fixed; the salt changes
        # dict layouts and doubled the run-to-run spread of pass_s.
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
