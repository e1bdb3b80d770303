"""One sha256 over every table the two brute-force searches yield.

In order: every uninorm ``brute_force_uninorms`` finds for every e of every
``SMALL_LATTICES`` member, then every t-norm and t-conorm
``enumerate_partial_binops`` finds on every interval of at most
``MAX_UNINORM_LATTICE`` elements of those lattices and of the fixtures
l1-l3, the one cap of the uninorm search that finds them.
Each record names its search and holds the table's cells row-major.  A
change to the shared table search that keeps every leaf and its order
keeps the digest.

Run as a script for the digest and the number of tables:
``PYTHONPATH=src python tests/search_digest.py``.
"""

from __future__ import annotations

import hashlib
import json

from latuni import TCONORM, TNORM, IntervalSpec
from latuni.fixtures import FIXTURES, SMALL_LATTICES
from latuni.search import MAX_UNINORM_LATTICE, brute_force_uninorms, enumerate_partial_binops


def _records():
    small = [(name, make()) for name, make in sorted(SMALL_LATTICES.items())]
    fixtures = [(name, make().lattice) for name, make in sorted(FIXTURES.items())]
    for name, lat in small:
        for e in lat.elements:
            for u in brute_force_uninorms(lat, e):
                yield name, e, [u(x, y) for x in lat.elements for y in lat.elements]
    for name, lat in small + fixtures:
        for low in lat.elements:
            for high in lat.elements:
                if not lat.leq(low, high):
                    continue
                domain = IntervalSpec(low, high)
                dom = lat.interval(domain)
                if len(dom) > MAX_UNINORM_LATTICE:
                    continue
                for role in (TNORM, TCONORM):
                    for p in enumerate_partial_binops(lat, domain, role):
                        yield name, low, high, role, [p(x, y) for x in dom for y in dom]


def search_digest() -> tuple[str, int]:
    """The hex digest over every record, and the number of tables."""
    digest = hashlib.sha256()
    count = 0
    for record in _records():
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
        count += 1
    return digest.hexdigest(), count


if __name__ == "__main__":
    print(*search_digest())
