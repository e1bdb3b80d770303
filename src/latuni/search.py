"""Brute-force enumeration oracles.

Everything here is filtered generation with early pruning: candidate maps
are produced depth-first in lexicographic order over the declared element
order, partial assignments are pruned against cheap necessary conditions,
and every survivor is re-certified by the real validator before being
emitted.  Correctness over speed; hard size guards keep runtimes sane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .binop import (
    FullBinOpTable,
    PartialBinOpTable,
    TNORM,
    validate_partial,
    validate_uninorm,
)
from .construct import ConstructionSpec, Family, check_characteristic, check_hypotheses
from .errors import AxiomViolation, DomainTooLarge, LatticeTooLarge
from .lattice import BoundedLattice, IntervalSpec
from .unary import CLOSURE, INTERIOR, UnaryOpTable, validate_unary

MAX_UNARY_LATTICE = 12
MAX_BINOP_DOMAIN = 5
MAX_UNINORM_LATTICE = 5


@dataclass(frozen=True)
class SearchConstraints:
    """Filters applied during unary-operator enumeration.

    range_avoidance: (region, forbidden interval) — emitted operators map
    the region outside the interval.  fixed_points: a partial map the
    operator must extend.  comparability: (other mapping, region,
    direction) with direction "below" meaning op(x) <= other(x) on the
    region, "above" the reverse.
    """

    kind: str = CLOSURE
    range_avoidance: Optional[tuple] = None
    fixed_points: Optional[tuple] = None
    comparability: Optional[tuple] = None

    def fixed_map(self) -> dict:
        return dict(self.fixed_points) if self.fixed_points else {}


def enumerate_unary(lat: BoundedLattice, constraints: SearchConstraints) -> Iterator[UnaryOpTable]:
    """All certified closure/interior operators passing the constraints.

    Deterministic lexicographic order over the declared element order;
    the identity map is always among the results when unconstrained.
    """
    if len(lat) > MAX_UNARY_LATTICE:
        raise LatticeTooLarge(f"unary enumeration capped at {MAX_UNARY_LATTICE} elements")
    kind = constraints.kind
    # The interior operators of lat are the closure operators of its dual,
    # so one closure search runs on ``order``; leaves are certified on lat.
    order = lat if kind == CLOSURE else lat.dual()
    els = lat.elements
    n = len(els)
    fixed = constraints.fixed_map()

    candidates = {x: [y for y in els if order.leq(x, y)] for x in els}
    for x, v in fixed.items():
        candidates[x] = [v] if v in candidates[x] else []

    banned = None
    region = None
    if constraints.range_avoidance:
        reg, forbidden = constraints.range_avoidance
        region = set(reg)
        # Read on lat: the same elements as the reversed interval of order.
        banned = set(lat.interval(forbidden))

    cmp_map = cmp_region = cmp_below = None
    if constraints.comparability:
        other, reg, direction = constraints.comparability
        cmp_map = dict(other)
        cmp_region = set(reg)
        # "below" in lat is "above" in the dual order.
        cmp_below = (direction == "below") == (kind == CLOSURE)

    def consistent(assign, x):
        v = assign[x]
        if banned is not None and x in region and v in banned:
            return False
        if cmp_map is not None and x in cmp_region:
            if cmp_below and not order.leq(v, cmp_map[x]):
                return False
            if not cmp_below and not order.leq(cmp_map[x], v):
                return False
        for y in assign:
            if y == x:
                continue
            # Monotonicity against everything already assigned.
            if order.leq(x, y) and not order.leq(v, assign[y]):
                return False
            if order.leq(y, x) and not order.leq(assign[y], v):
                return False
            # Join preservation when the join is assigned.
            z = order.join(x, y)
            if z in assign and assign[z] != order.join(v, assign[y]):
                return False
        # Partial idempotence: the image must be fixed pointwise.
        if v in assign and assign[v] != v:
            return False
        if v != x and any(w == x for w in assign.values()):
            return False
        return True

    def rec(i, assign):
        if i == n:
            try:
                yield validate_unary(lat, kind, assign)
            except AxiomViolation:
                pass
            return
        x = els[i]
        for v in candidates[x]:
            assign[x] = v
            if consistent(assign, x):
                yield from rec(i + 1, assign)
            del assign[x]

    yield from rec(0, {})


def enumerate_admissible_pairs(
    lat: BoundedLattice,
    e: str,
    family: Family,
    boundary: PartialBinOpTable,
    *,
    pool_cap: Optional[int] = None,
) -> Iterator[tuple]:
    """All operator pairs passing the family's hypotheses.

    Yields (spec, characteristic_pass) in lexicographic pool order.  The
    operator pool may be capped (first pool_cap operators in enumeration
    order) to bound quadratic pair growth on larger lattices.
    """
    kind = CLOSURE if family.closure_based else INTERIOR
    pool = []
    for op in enumerate_unary(lat, SearchConstraints(kind=kind)):
        pool.append(op)
        if pool_cap is not None and len(pool) >= pool_cap:
            break
    for op_low in pool:
        for op_inc in pool:
            spec = ConstructionSpec(family, lat, e, boundary, op_low, op_inc)
            hyp = check_hypotheses(spec)
            if not hyp.passed:
                continue
            char = check_characteristic(spec, hypotheses=hyp)
            yield spec, char.passed


def enumerate_partial_binops(lat: BoundedLattice, domain: IntervalSpec, role: str) -> Iterator[PartialBinOpTable]:
    """All certified t-norms or t-conorms on a small closed interval."""
    dom = lat.interval(domain)
    if len(dom) > MAX_BINOP_DOMAIN:
        raise DomainTooLarge(f"binop enumeration capped at {MAX_BINOP_DOMAIN} elements")
    neutral = domain.high if role == TNORM else domain.low
    cells = [
        (x, y) for i, x in enumerate(dom) for y in dom[i:]
        if x != neutral and y != neutral
    ]

    def rec(i, table):
        if i == len(cells):
            try:
                yield validate_partial(lat, domain, role, table)
            except AxiomViolation:
                pass
            return
        x, y = cells[i]
        for v in dom:
            table[x, y] = v
            table[y, x] = v
            if _monotone_so_far(lat, dom, table):
                yield from rec(i + 1, table)
        del table[x, y]
        if (y, x) in table:
            del table[y, x]

    base = {}
    for x in dom:
        base[neutral, x] = x
        base[x, neutral] = x
    yield from rec(0, base)


def _monotone_so_far(lat, dom, table) -> bool:
    for x in dom:
        for y in dom:
            if not lat.leq(x, y):
                continue
            for z in dom:
                a, b = table.get((x, z)), table.get((y, z))
                if a is not None and b is not None and not lat.leq(a, b):
                    return False
    return True


def brute_force_uninorms(lat: BoundedLattice, e: str) -> Iterator[FullBinOpTable]:
    """Every commutative total table with neutral e passing all axioms.

    Ground truth for class-inclusion and construction-coverage tests;
    guarded to tiny lattices.
    """
    if len(lat) > MAX_UNINORM_LATTICE:
        raise LatticeTooLarge(f"uninorm search capped at {MAX_UNINORM_LATTICE} elements")
    els = lat.elements
    cells = [
        (x, y) for i, x in enumerate(els) for y in els[i:]
        if x != e and y != e
    ]

    def rec(i, table):
        if i == len(cells):
            candidate = FullBinOpTable(lat, dict(table), neutral=e)
            if validate_uninorm(candidate).ok:
                yield candidate
            return
        x, y = cells[i]
        for v in els:
            table[x, y] = v
            table[y, x] = v
            if _monotone_so_far(lat, els, table):
                yield from rec(i + 1, table)
        del table[x, y]
        if (y, x) in table:
            del table[y, x]

    base = {}
    for x in els:
        base[e, x] = x
        base[x, e] = x
    yield from rec(0, base)
