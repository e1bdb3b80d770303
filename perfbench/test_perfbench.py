"""Self-test of the benchmark; about three minutes on one core.

    python3 -m pytest -q perfbench/test_perfbench.py

Not part of the repository's test suite (``testpaths`` names ``tests/``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
from clock import SpeedClock
from tracer import COUNTED_METHODS, LAYERS
from workloads import WORKLOADS, Recorder

ITEMS_PER_CYCLE = {"iff-sweep": 4 * 3513, "oracle": 398, "cli": 59}

# The layer functions each workload must reach at least once.
USES = {
    "iff-sweep": (
        "search.enumerate_unary", "search.enumerate_admissible_pairs", "unary.validate_unary",
        "unary.pointwise_leq_on", "unary.range_avoids", "construct.check_hypotheses",
        "construct.check_characteristic", "construct.construct", "binop.validate_uninorm",
        "lattice.leq", "lattice.meet", "lattice.join", "lattice.interval",
    ),
    "oracle": ("search.brute_force_uninorms", "binop.validate_uninorm", "binop.classify", "lattice.leq"),
    "cli": (
        "cli.cli_main", "lattice.build_lattice", "documents.parse_lattice", "documents.parse_operator",
        "documents.parse_binop", "documents.serialize_binop", "documents.render_table",
        "binop.validate_partial", "search.enumerate_partial_binops", "search.enumerate_unary",
        "construct.construct", "binop.validate_uninorm", "binop.classify",
    ),
}


@pytest.fixture(scope="module")
def lib():
    sys.path.insert(0, str(run.SRC))
    return run.import_latuni()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_and_counts_repeat_across_seeds(lib, name, tmp_path):
    expected = json.loads((run.HERE / "expected.json").read_text(encoding="utf-8"))
    for seed in (1, 2):
        rec = Recorder(SpeedClock())
        workload = WORKLOADS[name](lib, seed, tmp_path / str(seed), expected)
        for k in range(workload.cycle):
            workload.run_unit(k, rec)
        assert (rec.attempted, rec.failed) == (ITEMS_PER_CYCLE[name], 0), seed


def traced_calls(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3", "--trace", "1"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith((".calls", ".yielded"))}


def test_traced_calls_repeat_and_cover_every_layer():
    reached = set()
    for workload, uses in USES.items():
        first = traced_calls(workload, 1)
        assert traced_calls(workload, 2) == first, workload
        for name in uses:
            assert first[f"{name}.calls"] >= 1, (workload, name)
        reached.update(k.removesuffix(".calls") for k, v in first.items() if k.endswith(".calls") and v)
    every = {f"{m}.{f}" for m, fs in LAYERS.items() for f in fs} | {f"lattice.{m}" for m in COUNTED_METHODS}
    assert every <= reached
