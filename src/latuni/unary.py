"""Closure and interior operator tables.

An operator is stored as one explicit total map, on positions, and cannot
exist uncertified: :func:`validate_unary` is the only constructor, and it
checks the three defining axioms before returning.  Monotonicity is not
checked apart: it follows from axiom 2, since x <= y gives f(y) =
f(x v y) = f(x) v f(y) >= f(x).  Witnesses for a failed axiom come from
the first violation in declared element order.

Interior operators are the closure operators of the dual lattice: there is
one axiom check, the closure one, and an interior map is checked by running
it in the order :func:`order_of` gives, ``lat.dual()``, with the axiom names
mapped CL -> IN.  The search and the constructions likewise read an interior
map in that order; only :func:`dualize_operator` re-certifies an operator on
the dual lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AxiomViolation, MismatchedLattice, UnknownElement
from .lattice import BoundedLattice, IntervalSpec

CLOSURE = "closure"
INTERIOR = "interior"


@dataclass(frozen=True)
class UnaryOpTable:
    """A certified closure or interior operator on a finite lattice."""

    lattice: BoundedLattice
    kind: str
    # The map on positions: image[i] is the position of op(elements[i]).
    image: tuple

    @property
    def mapping(self) -> dict:
        """The map on ids, in element order."""
        els = self.lattice.elements
        return {x: els[v] for x, v in zip(els, self.image)}

    def __call__(self, x) -> str:
        lat = self.lattice
        return lat.elements[self.image[lat.positions[x]]]


def order_of(lat: BoundedLattice, kind: str) -> BoundedLattice:
    """The order an operator of ``kind`` is a closure operator of: ``lat``
    for a closure operator, ``lat.dual()`` for an interior one."""
    if kind not in (CLOSURE, INTERIOR):
        raise ValueError(f"kind must be {CLOSURE!r} or {INTERIOR!r}, got {kind!r}")
    return lat if kind == CLOSURE else lat.dual()


def validate_unary(lat: BoundedLattice, kind: str, mapping) -> UnaryOpTable:
    """Certify a self-map as a closure or interior operator.

    Raises AxiomViolation naming the first violated axiom (CL1/CL2/CL3 or
    IN1/IN2/IN3) with witness elements.  Monotonicity follows from axiom 2
    and is not checked apart.
    """
    order = order_of(lat, kind)
    mapping = dict(mapping)
    for x in lat.elements:
        if x not in mapping:
            raise UnknownElement(x)
    for x, v in mapping.items():
        if x not in lat or v not in lat:
            raise UnknownElement(v if x in lat else x)

    # One check serves both kinds: an interior operator is a closure
    # operator of the dual lattice.  Only the axiom names differ.  Axiom 1
    # asks the order once per element; the other scans run on positions.
    # All go in declared element order, so each witness is the first
    # violation in that order.
    name = "CL" if kind == CLOSURE else "IN"
    els, joins = lat.elements, order.joins
    n = len(els)
    f = tuple(lat.positions[mapping[x]] for x in els)
    everything = range(n)
    for x in everything:
        if not order.leq(els[x], els[f[x]]):
            raise AxiomViolation(f"{name}1", (els[x],))
    for x in everything:
        # f(x v y) and f(x) v f(y), for every y.
        left = [f[z] for z in joins[x * n:x * n + n]]
        row = joins[f[x] * n:f[x] * n + n]
        right = [row[v] for v in f]
        if left != right:
            y = next(y for y in everything if left[y] != right[y])
            raise AxiomViolation(f"{name}2", (els[x], els[y]))
    for x in everything:
        if f[f[x]] != f[x]:
            raise AxiomViolation(f"{name}3", (els[x],))
    return UnaryOpTable(lat, kind, f)


def identity_operator(lat: BoundedLattice, kind: str) -> UnaryOpTable:
    return validate_unary(lat, kind, {x: x for x in lat.elements})


def _region_ids(lat: BoundedLattice, region) -> set:
    """``region`` as a set; UnknownElement names its first foreign id."""
    region = tuple(region)
    ids = set(region)
    if not lat.positions.keys() >= ids:
        raise lat._unknown(*region)
    return ids


def pointwise_leq_on(op1: UnaryOpTable, op2: UnaryOpTable, region):
    """Is op1(x) <= op2(x) for every x in region?  Returns (flag, witnesses);
    an id of region that is not an element raises UnknownElement."""
    if op1.lattice != op2.lattice:
        raise MismatchedLattice("operators live on different lattices")
    lat = op1.lattice
    up = lat.up
    region = _region_ids(lat, region)
    witnesses = tuple(
        x for x, u, v in zip(lat.elements, op1.image, op2.image)
        if x in region and not up[u] >> v & 1
    )
    return not witnesses, witnesses


def range_avoids(op: UnaryOpTable, region, forbidden: IntervalSpec):
    """Does op map every element of region outside the forbidden interval?
    An id of region that is not an element raises UnknownElement."""
    lat = op.lattice
    if forbidden.low not in lat or forbidden.high not in lat:
        raise MismatchedLattice("forbidden interval references a foreign element")
    banned = sum(1 << lat.positions[x] for x in lat.interval(forbidden))
    region = _region_ids(lat, region)
    witnesses = tuple(
        x for x, v in zip(lat.elements, op.image) if x in region and banned >> v & 1
    )
    return not witnesses, witnesses


def dualize_operator(op: UnaryOpTable, dual_lat: BoundedLattice) -> UnaryOpTable:
    """View the same map on the dual lattice, with kind flipped.

    Re-validates; a failure here signals an internal bug, since closure
    axioms on a lattice are exactly interior axioms on its dual.
    """
    if dual_lat != op.lattice.dual():
        raise MismatchedLattice("argument is not the dual of the operator's lattice")
    flipped = INTERIOR if op.kind == CLOSURE else CLOSURE
    return validate_unary(dual_lat, flipped, op.mapping)
