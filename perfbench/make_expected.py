#!/usr/bin/env python3
"""Regenerate ``expected.json``: the outputs the benchmark checks.

    python3 perfbench/make_expected.py

Everything is recorded in canonical labels: per-family sweep counts on l2,
per-search uninorm and class counts of the oracle, the operator pairs the
``cli`` workload constructs from, and the exit code and a digest of each
canonicalised ``cli`` output.  Run it only when latuni's intended outputs change; a benchmark run
on a relabelled seed must reproduce every value.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from importlib import resources

import run
from inputs import chain_product
from workloads import CHAIN_PRODUCTS, cli_requests, expectation, run_request


def iff_counts_and_pairs(lib):
    fx = lib.fixtures.FIXTURES["l2"]()
    counts, pairs = {}, {}
    for family in lib.construct.Family:
        if family.closure_based:
            boundary = lib.binop.join_tconorm(fx.lattice, fx.e)
        else:
            boundary = lib.binop.meet_tnorm(fx.lattice, fx.e)
        c = {"pairs": 0, "uninorms": 0, "mismatches": 0}
        picks = {}
        for spec, char_pass in lib.search.enumerate_admissible_pairs(fx.lattice, fx.e, family, boundary):
            valid = lib.binop.validate_uninorm(lib.construct.construct(spec)).ok
            c["pairs"] += 1
            c["uninorms"] += valid
            c["mismatches"] += valid != char_pass
            verdict = "pass" if char_pass else "fail"
            if verdict not in picks and spec.op_low != spec.op_inc:
                picks[verdict] = [spec.op_low.mapping, spec.op_inc.mapping]
        counts[family.value] = c
        pairs[family.value] = {"pass": picks["pass"], "fail": picks["fail"]}
    return counts, pairs


def oracle_counts(lib):
    out = {}
    for name, make in lib.fixtures.SMALL_LATTICES.items():
        lat = make()
        for e in lat.elements:
            if e in (lat.bottom, lat.top):
                continue
            classes = Counter()
            found = 0
            for table in lib.search.brute_force_uninorms(lat, e):
                found += 1
                flags = lib.binop.classify(table).flags
                classes.update(n for n, f in flags.items() if f.member)
            out[f"{name}/{e}"] = {"uninorms": found, "classes": dict(classes)}
    return out


def check_km_against_reference(lib, summaries):
    """The recorded km-s/km-t outputs must be the independent Karacal-Mesiar tables."""
    for a, b, e, _ in CHAIN_PRODUCTS:
        lat = chain_product(lib, a, b)
        for side, partial in (("s", lib.binop.join_tconorm), ("t", lib.binop.meet_tnorm)):
            ref = lib.construct.reference_karacal_mesiar(lat, e, partial(lat, e), side)
            label = f"construct:p{a}x{b}:km-{side}"
            table = summaries[label]["out"][0]["table"]
            if any(table[x][y] != ref(x, y) for x in lat.elements for y in lat.elements):
                raise SystemExit(f"{label}: output differs from reference_karacal_mesiar")


def check_reproduce_against_golden(lib, summaries):
    """The recorded reproduce outputs must be the packaged golden tables."""
    data = resources.files(lib.cli.__package__) / "data"
    for name in lib.fixtures.FIXTURES:
        golden = (data / f"{name}.table.txt").read_text(encoding="utf-8")
        if summaries[f"reproduce:{name}"]["out"] != golden:
            raise SystemExit(f"reproduce {name}: output differs from the golden table")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = run.import_latuni()
    counts, pairs = iff_counts_and_pairs(lib)
    workdir = run.WORK / "expected"
    try:
        requests = cli_requests(lib, None, workdir, pairs)
        summaries = {req.label: req.summarize(*run_request(lib, req)) for req in requests}
    finally:
        run.remove_workdir(workdir)
    check_km_against_reference(lib, summaries)
    check_reproduce_against_golden(lib, summaries)
    digests = {label: expectation(summary) for label, summary in summaries.items()}
    expected = {
        "iff-sweep": counts,
        "oracle": oracle_counts(lib),
        "cli": {"pairs": pairs, "digests": digests},
    }
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
