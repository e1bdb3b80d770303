#!/usr/bin/env python3
"""latuni benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload iff-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; latuni is imported from its ``src``.  The
set-up (import latuni, generate the seeded inputs, write the documents) is
repeated SETUP_REPEATS times and its median reported as ``setup_s``.  With
``--trace 0`` the benchmark then runs whole cycles of units (a cycle is the
whole workload once) until ``--seconds`` have passed and reports the
end-to-end metrics, with every duration rescaled to a nominal machine speed
(see ``clock.py``).  With ``--trace 1`` it runs one cycle untraced and then
one traced, whatever ``--seconds`` says, so the counts repeat exactly for a
seed, and reports the per-layer metrics.  The last line of stdout is the
JSON result; the exit code is 1 when any output was wrong and 2 when there
is no latuni to import.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from clock import SpeedClock
from tracer import Tracer
from workloads import WORKLOADS, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
MODULES = ("lattice", "unary", "binop", "construct", "search", "documents", "fixtures", "cli")


def import_latuni() -> SimpleNamespace:
    """A fresh import of latuni from the checkout, one attribute per module."""
    for name in [n for n in sys.modules if n == "latuni" or n.startswith("latuni.")]:
        del sys.modules[name]
    importlib.import_module("latuni")
    return SimpleNamespace(**{m: importlib.import_module(f"latuni.{m}") for m in MODULES})


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def percentile(sorted_values, q) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(workload, seconds, rec) -> dict:
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or k % workload.cycle or perf_counter() < deadline:
        workload.run_unit(k, rec)
        k += 1
    lat = sorted(rec.latencies)
    return {
        "items_per_s": (len(lat) / rec.busy_s, "1/s"),
        "p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def trace(workload, rec) -> dict:
    def one_cycle():
        for k in range(workload.cycle):
            workload.run_unit(k, rec)

    untraced, _ = rec.timed(one_cycle)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = rec.timed(one_cycle)
    finally:
        tracer.uninstall()
    return tracer.metrics(traced - untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latuni" / "__init__.py").is_file():
        print(f"error: no latuni package under {SRC}; run from a latuni checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        def set_up():
            return WORKLOADS[args.workload](import_latuni(), args.seed, workdir, expected)

        clock = SpeedClock()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            took, workload = clock.timed(set_up)
            setup_s.append(took)
        rec = Recorder(clock)
        if args.trace:
            metrics = trace(workload, rec)
        else:
            values = measure(workload, args.seconds, rec)
            values["setup_s"] = (statistics.median(setup_s), "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    finally:
        remove_workdir(workdir)

    print(
        f"{args.workload} seed={args.seed}: {rec.attempted} items, {rec.failed} failed, "
        f"error_rate={rec.failed / max(rec.attempted, 1):.6f}",
        file=sys.stderr,
    )
    correct = rec.failed == 0
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
