"""One sha256 over everything the construction layer reports.

For each fixture l1-l3 and each of the four families, every pair of the
first ``pool_cap`` operators of the family's kind is made into a spec; the
digest covers its hypotheses report, its characteristic report (when the
hypotheses pass), its built table and its structural class predicate, the
region label of every element, and the hypotheses reports of specs with
operators of the wrong kind or a boundary of the wrong role.  A refactor
of ``construct.py`` that keeps every answer keeps the digest.

Run as a script for the digest over the full operator pools:
``PYTHONPATH=src python tests/report_digest.py``.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice

from latuni import (
    CLOSURE,
    INTERIOR,
    ConstructionSpec,
    Family,
    check_characteristic,
    check_hypotheses,
    construct,
    join_tconorm,
    meet_tnorm,
    region_of,
    structural_class_predicate,
)
from latuni.fixtures import FIXTURES
from latuni.search import enumerate_unary


def _records(pool_cap):
    for name, make in sorted(FIXTURES.items()):
        fx = make()
        lat, e = fx.lattice, fx.e
        pools = {
            kind: list(islice(enumerate_unary(lat, kind), pool_cap))
            for kind in (CLOSURE, INTERIOR)
        }
        boundaries = {CLOSURE: join_tconorm(lat, e), INTERIOR: meet_tnorm(lat, e)}
        for family in Family:
            right, wrong = (CLOSURE, INTERIOR) if family.closure_based else (INTERIOR, CLOSURE)
            pool, boundary = pools[right], boundaries[right]
            first = ConstructionSpec(family, lat, e, boundary, pool[0], pool[0])
            yield name, family.value, [region_of(first, x).name for x in lat.elements]
            for op_low in pool:
                for op_inc in pool:
                    spec = ConstructionSpec(family, lat, e, boundary, op_low, op_inc)
                    hyp = check_hypotheses(spec)
                    char = check_characteristic(spec).as_dict() if hyp.passed else None
                    table = construct(spec)
                    cells = [table(x, y) for x in lat.elements for y in lat.elements]
                    yield hyp.as_dict(), char, cells, structural_class_predicate(spec)
            odd = pools[wrong][-1]
            for bnd, low, inc in [
                (boundaries[wrong], pool[0], pool[-1]),
                (boundary, odd, pool[0]),
                (boundary, pool[0], odd),
                (boundaries[wrong], odd, odd),
            ]:
                yield check_hypotheses(ConstructionSpec(family, lat, e, bnd, low, inc)).as_dict()


def report_digest(pool_cap=None) -> str:
    """The hex digest over the first ``pool_cap`` operators of each pool (all with None)."""
    digest = hashlib.sha256()
    for record in _records(pool_cap):
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    print(report_digest())
