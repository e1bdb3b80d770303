#!/usr/bin/env python3
"""Exhaustive sweep: characteristic conditions vs actual uninorm validity.

For each bundled fixture lattice and each construction family, enumerate
every operator pair passing the structural hypotheses, build the table,
and compare validate_uninorm against the characteristic verdict the pair
generator yields.  That verdict is read off per-operator verdicts, each
decided by check_characteristic on the diagonal pair (op, op).  A
mismatch would refute the if-and-only-if claim the library is built
around, or the per-operator reading of the conditions.  Each
run prints its time split into pair admission (inside the pair generator)
and build (construct plus validate_uninorm).

    PYTHONPATH=src python scripts/run_iff_sweep.py [--fixture l2] [--family clo2]
"""

import argparse
import sys
import time

from latuni import Family, construct, join_tconorm, meet_tnorm, validate_uninorm
from latuni.fixtures import FIXTURES
from latuni.search import enumerate_admissible_pairs


def sweep(fixture_name, family):
    fx = FIXTURES[fixture_name]()
    if family.closure_based:
        boundary = join_tconorm(fx.lattice, fx.e)
    else:
        boundary = meet_tnorm(fx.lattice, fx.e)
    total = passed = mismatches = 0
    # Admission is the time spent inside the pair generator; build is
    # construct plus validate_uninorm on each pair it yields.
    admit = build = 0.0
    pairs = enumerate_admissible_pairs(fx.lattice, fx.e, family, boundary)
    while True:
        start = time.perf_counter()
        pair = next(pairs, None)
        admit += time.perf_counter() - start
        if pair is None:
            break
        spec, char_pass = pair
        start = time.perf_counter()
        valid = validate_uninorm(construct(spec)).ok
        build += time.perf_counter() - start
        total += 1
        passed += valid
        mismatches += valid != char_pass
    print(
        f"{fixture_name:4s} {family.value:12s} pairs={total:6d} "
        f"uninorms={passed:6d} mismatches={mismatches} "
        f"({admit + build:.1f}s: admission {admit:.2f}s, build {build:.2f}s)"
    )
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fixture", choices=sorted(FIXTURES), action="append", default=None,
        help="restrict to one or more fixtures (default: all)",
    )
    parser.add_argument(
        "--family", choices=[f.value for f in Family], action="append", default=None,
        help="restrict to one or more families (default: all)",
    )
    args = parser.parse_args(argv)
    fixtures = args.fixture or sorted(FIXTURES)
    families = [Family(f) for f in args.family] if args.family else list(Family)

    bad = 0
    start = time.perf_counter()
    for name in fixtures:
        for family in families:
            bad += sweep(name, family)
    if bad:
        print(f"FAILED: {bad} mismatching pairs")
    else:
        print("all sweeps clean: characteristic pass == uninorm validity")
    print(f"total elapsed: {time.perf_counter() - start:.1f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
