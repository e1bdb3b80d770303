"""Uninorm constructions from boundary operations and operator pairs.

Four families:

* ``clo2``        — t-conorm on [e,1] plus two comparable closure operators.
* ``int2``        — t-norm on [0,e] plus two comparable interior operators.
* ``clo2-strict`` — the closure variant with the top element annihilating.
* ``int2-strict`` — the interior variant with the bottom element annihilating.

The interior families are the closure families on the dual lattice.  An
``int2``/``int2-strict`` spec is checked, partitioned and built as the
``clo2``/``clo2-strict`` spec of its order dual (:attr:`ConstructionSpec.dual`),
so only closure logic is written here; reports are restated in the spec's
own interior terms, and region labels are mirrored back.

``construct`` always builds the table, even when the characteristic
conditions fail: that is what lets the verifier exhibit the concrete
associativity counterexamples showing the conditions are necessary.

No spec or table holds a cache: a sweep keeps thousands of specs alive,
so anything stored per spec is paid that many times.  What depends on the
order alone (intervals, the cell plan of each neutral element) is
memoised on the lattice, and what depends on an operator (its dual, its
map on positions) on the operator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import product

from .binop import (
    FullBinOpTable,
    PartialBinOpTable,
    TCONORM,
    TNORM,
    strictness_check,
)
from .errors import HypothesesNotChecked, InvalidArgument, MismatchedLattice
from .lattice import BoundedLattice, IntervalSpec
from .unary import CLOSURE, INTERIOR, UnaryOpTable, pointwise_leq_on, range_avoids


class Family(str, enum.Enum):
    CLO = "clo2"
    INT = "int2"
    CLO_STRICT = "clo2-strict"
    INT_STRICT = "int2-strict"

    @property
    def closure_based(self) -> bool:
        return self in (Family.CLO, Family.CLO_STRICT)

    @property
    def strict(self) -> bool:
        return self in (Family.CLO_STRICT, Family.INT_STRICT)


_DUAL_FAMILY = {
    Family.CLO: Family.INT,
    Family.INT: Family.CLO,
    Family.CLO_STRICT: Family.INT_STRICT,
    Family.INT_STRICT: Family.CLO_STRICT,
}


class RegionLabel(enum.Enum):
    ZERO = "zero"
    LOW_HALFOPEN = "low_halfopen"  # [0,e[
    LOW_OPEN = "low_open"        # ]0,e[
    E = "e"
    INC = "inc"                  # I_e
    HIGH_HALFOPEN = "high_halfopen"  # ]e,1]
    HIGH_OPEN = "high_open"      # ]e,1[
    TOP = "top"


# The label of the same set of elements in the dual lattice's partition.
_MIRROR = {
    RegionLabel.ZERO: RegionLabel.TOP,
    RegionLabel.TOP: RegionLabel.ZERO,
    RegionLabel.LOW_HALFOPEN: RegionLabel.HIGH_HALFOPEN,
    RegionLabel.HIGH_HALFOPEN: RegionLabel.LOW_HALFOPEN,
    RegionLabel.LOW_OPEN: RegionLabel.HIGH_OPEN,
    RegionLabel.HIGH_OPEN: RegionLabel.LOW_OPEN,
    RegionLabel.E: RegionLabel.E,
    RegionLabel.INC: RegionLabel.INC,
}


@dataclass(frozen=True, slots=True)
class ConstructionSpec:
    """Inputs of one construction: family, neutral element, boundary op, operator pair.

    ``op_low`` is consulted on ]0,e[ (closure families) or ]e,1[ (interior
    families); ``op_inc`` on the incomparability region I_e.
    """

    family: Family
    lattice: BoundedLattice
    e: str
    boundary: PartialBinOpTable
    op_low: UnaryOpTable
    op_inc: UnaryOpTable

    def __post_init__(self):
        lat = self.lattice
        if self.e not in lat:
            raise MismatchedLattice(f"neutral element {self.e!r} not in the lattice")
        if self.e in (lat.bottom, lat.top):
            raise InvalidArgument("the neutral element must be strictly between the bounds")
        for op in (self.op_low, self.op_inc):
            if op.lattice != lat:
                raise MismatchedLattice("operator lattice differs from the spec lattice")
        if self.boundary.lattice != lat:
            raise MismatchedLattice("boundary operation lattice differs from the spec lattice")

    @property
    def dual(self) -> "ConstructionSpec":
        """The same spec on ``lattice.dual()``.

        The family swaps clo2 <-> int2 and clo2-strict <-> int2-strict; the
        operators and the boundary are the same maps, re-certified there.
        """
        return ConstructionSpec(
            _DUAL_FAMILY[self.family], self.lattice.dual(), self.e,
            self.boundary.dual, self.op_low.dual, self.op_inc.dual,
        )

    # Region shorthands, all in declared element order.
    @property
    def low_open(self):
        return self.lattice.interval(IntervalSpec(self.lattice.bottom, self.e, True, True))

    @property
    def high_halfopen(self):
        return self.lattice.interval(IntervalSpec(self.e, self.lattice.top, low_open=True))

    @property
    def high_open(self):
        return self.lattice.interval(IntervalSpec(self.e, self.lattice.top, True, True))

    @property
    def inc(self):
        return self.lattice.incomparables(self.e)

    @property
    def upper_closed(self):
        return self.lattice.interval(IntervalSpec(self.e, self.lattice.top))


def _closure_side(spec: ConstructionSpec) -> ConstructionSpec:
    """The closure-family spec that decides ``spec``: itself, or its dual."""
    return spec if spec.family.closure_based else spec.dual


@dataclass
class ConditionRow:
    name: str
    statement: str
    passed: bool
    witnesses: tuple = ()
    vacuous: bool = False


@dataclass
class ConditionReport:
    rows: list
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def row(self, name: str) -> ConditionRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "rows": [
                {
                    "name": r.name,
                    "statement": r.statement,
                    "passed": r.passed,
                    "witnesses": list(r.witnesses),
                    "vacuous": r.vacuous,
                }
                for r in self.rows
            ],
            "notes": self.notes,
        }


# What each row states for the interior families.  Their rows are computed
# as the closure rows of the dual spec, where "upper" reads "lower", ]0,e[
# reads ]e,1[, and kinds and roles read flipped.
_INTERIOR_STATEMENTS = {
    "operator_kinds": f"both operators are {INTERIOR} operators",
    "boundary_domain": f"boundary operation is a {TNORM} on the family's boundary interval",
    "comparability": "second operator below first outside the lower interval",
    "range_low": "first operator avoids the lower interval on ]e,1[",
    "range_inc": "second operator avoids the lower interval on the incomparables of e",
    "boundary_strict": "t-norm stays above the bottom on the open interval",
}
_FLIPPED = {CLOSURE: INTERIOR, INTERIOR: CLOSURE, TCONORM: TNORM, TNORM: TCONORM}


def _in_own_terms(spec: ConstructionSpec, report: ConditionReport) -> ConditionReport:
    """Restate a report computed on the closure side in ``spec``'s terms."""
    if spec.family.closure_based:
        return report
    for row in report.rows:
        row.statement = _INTERIOR_STATEMENTS[row.name]
        if row.name in ("operator_kinds", "boundary_domain"):
            row.witnesses = tuple(_FLIPPED[w] for w in row.witnesses)
    return report


def check_hypotheses(spec: ConstructionSpec) -> ConditionReport:
    """Structural preconditions of the spec's family; failures are data."""
    clo = _closure_side(spec)
    lat = clo.lattice
    kinds_ok = clo.op_low.kind == CLOSURE and clo.op_inc.kind == CLOSURE
    dom_ok = clo.boundary.role == TCONORM and clo.boundary.domain == IntervalSpec(clo.e, lat.top)
    upper = set(clo.upper_closed)
    cmp_ok, cmp_wit = pointwise_leq_on(
        clo.op_low, clo.op_inc, [x for x in lat.elements if x not in upper]
    )
    rows = [
        ConditionRow(
            "operator_kinds",
            f"both operators are {CLOSURE} operators",
            kinds_ok,
            () if kinds_ok else (clo.op_low.kind, clo.op_inc.kind),
        ),
        ConditionRow(
            "boundary_domain",
            f"boundary operation is a {TCONORM} on the family's boundary interval",
            dom_ok,
            () if dom_ok else (clo.boundary.role,),
        ),
        ConditionRow(
            "comparability",
            "first operator below second outside the upper interval",
            cmp_ok,
            cmp_wit,
        ),
    ]
    return _in_own_terms(spec, ConditionReport(rows))


def check_characteristic(spec: ConstructionSpec, *, hypotheses: ConditionReport | None = None) -> ConditionReport:
    """The family's if-and-only-if conditions for the built table to be a uninorm.

    For the strict families, when the relevant open interval is empty the
    operator values never enter the table, so no operator condition is
    characteristic there; the rows are still reported, marked vacuous, and
    the overall verdict passes.  The emptiness flag is recorded in notes.
    """
    hyp = hypotheses if hypotheses is not None else check_hypotheses(spec)
    if not hyp.passed:
        raise HypothesesNotChecked("construction hypotheses do not hold")
    clo = _closure_side(spec)
    forbidden = IntervalSpec(clo.e, clo.lattice.top)
    ok_low, wit_low = range_avoids(clo.op_low, clo.low_open, forbidden)
    ok_inc, wit_inc = range_avoids(clo.op_inc, clo.inc, forbidden)
    notes = {}
    vacuous = False
    if clo.family.strict:
        # Strict constructions only consult the operators against the open
        # boundary interval; with it empty, no operator condition binds.
        vacuous = not clo.high_open
        notes["open_boundary_interval_empty"] = vacuous
    rows = [
        ConditionRow(
            "range_low",
            "first operator avoids the upper interval on ]0,e[",
            ok_low or vacuous,
            wit_low,
            vacuous,
        ),
        ConditionRow(
            "range_inc",
            "second operator avoids the upper interval on the incomparables of e",
            ok_inc or vacuous,
            wit_inc,
            vacuous,
        ),
    ]
    if clo.family.strict:
        strict_ok, strict_wit = strictness_check(clo.boundary)
        rows.append(
            ConditionRow(
                "boundary_strict",
                "t-conorm stays below the top on the open interval",
                strict_ok,
                strict_wit,
                vacuous,
            )
        )
    return _in_own_terms(spec, ConditionReport(rows, notes))


def region_of(spec: ConstructionSpec, x) -> RegionLabel:
    """The region of x in the family's case partition of the lattice.

    An interior family's partition is the mirror of its dual closure
    family's: [0,e[ is one region, LOW_HALFOPEN, for ``int2``.
    """
    if not spec.family.closure_based:
        return _MIRROR[region_of(spec.dual, x)]
    lat = spec.lattice
    if x == spec.e:
        return RegionLabel.E
    if spec.family.strict and x == lat.top:
        return RegionLabel.TOP
    if x == lat.bottom:
        return RegionLabel.ZERO
    if lat.incomparable(x, spec.e):
        return RegionLabel.INC
    if lat.lt(x, spec.e):
        return RegionLabel.LOW_OPEN
    return RegionLabel.HIGH_OPEN if spec.family.strict else RegionLabel.HIGH_HALFOPEN


# The closure families' upper block [e,1], without the strict top, and the
# regions whose operator values enter the table.
_UPPER = {RegionLabel.E, RegionLabel.HIGH_HALFOPEN, RegionLabel.HIGH_OPEN}
_OPERATED = {RegionLabel.LOW_OPEN, RegionLabel.INC}


def _plan(spec: ConstructionSpec):
    """The cell plan of a closure-family spec, memoised on its lattice.

    The value of a cell is keyed by the regions of its two arguments: a
    strict top annihilates; cells inside the upper block [e,1] take the
    boundary; e is neutral, so the cell is the other argument; an argument
    a in ]0,e[ or I_e against ]e,1] gives the row value of a,
    op(a) ^ (a v e), with op_low on ]0,e[ and op_inc on I_e; every other
    cell is the bottom.

    The plan depends on the lattice, e and strictness alone.  Cells are
    numbered row-major: ``base`` holds each cell's fixed value, or None;
    ``boundary`` the cells taken from the boundary operation; ``mixed``
    each (cell, a) taking the row value of a; ``rows`` each (a, region)
    whose row value is needed.  It holds no cell keys, to stay small on
    every lattice a sweep visits.
    """
    lat = spec.lattice

    def make():
        els = lat.elements
        region = [region_of(spec, x) for x in els]
        base, boundary, mixed = [], [], []
        for x, rx in zip(els, region):
            for y, ry in zip(els, region):
                k = len(base)
                base.append(None)
                if RegionLabel.TOP in (rx, ry):
                    base[k] = lat.top
                elif rx in _UPPER and ry in _UPPER:
                    boundary.append(k)
                elif rx is RegionLabel.E:
                    base[k] = y
                elif ry is RegionLabel.E:
                    base[k] = x
                elif rx in _OPERATED and ry in _UPPER:
                    mixed.append((k, x))
                elif ry in _OPERATED and rx in _UPPER:
                    mixed.append((k, y))
                else:
                    base[k] = lat.bottom
        rows = tuple((a, r) for a, r in zip(els, region) if r in _OPERATED)
        return tuple(base), tuple(boundary), tuple(mixed), rows

    return lat.derived(("construct", spec.e, spec.family.strict), make)


def construct(spec: ConstructionSpec) -> FullBinOpTable:
    """Build the family's full table from the cell plan.

    An interior spec is built as its dual closure spec: the two tables are
    the same.  Does not check the characteristic conditions: when they
    fail, the returned table fails validate_uninorm with the expected
    witnesses.
    """
    clo = _closure_side(spec)
    lat = clo.lattice
    els = lat.elements
    n = len(els)
    base, boundary, mixed, rows = _plan(clo)
    ops = {RegionLabel.LOW_OPEN: clo.op_low, RegionLabel.INC: clo.op_inc}
    # op(a) ^ (a v e) does not depend on the column: one value per row a.
    row_value = {a: lat.meet(ops[r](a), lat.join(a, clo.e)) for a, r in rows}
    values = list(base)
    for k in boundary:
        values[k] = clo.boundary(els[k // n], els[k % n])
    for k, a in mixed:
        values[k] = row_value[a]
    return FullBinOpTable(spec.lattice, dict(zip(product(els, repeat=2), values)), neutral=spec.e)


def reference_karacal_mesiar(lat: BoundedLattice, e: str, boundary: PartialBinOpTable, side: str) -> FullBinOpTable:
    """The classical identity-operator degenerate uninorms U_s and U_t.

    side "s": t-conorm on [e,1]; side "t": t-norm on [0,e].  These serve
    as independent oracles for the identity-operator collapse of the
    constructions.
    """
    if side not in ("s", "t"):
        raise ValueError("side must be 's' or 't'")
    upper = set(lat.interval(IntervalSpec(e, lat.top)))
    lower = set(lat.interval(IntervalSpec(lat.bottom, e)))
    inc = set(lat.incomparables(e))
    table = {}
    if side == "s":
        outside = inc | (lower - {e})
        for x in lat.elements:
            for y in lat.elements:
                if x in upper and y in upper:
                    table[x, y] = boundary(x, y)
                elif x in outside and y in upper:
                    table[x, y] = x
                elif x in upper and y in outside:
                    table[x, y] = y
                else:
                    table[x, y] = lat.bottom
    else:
        outside = inc | (upper - {e})
        for x in lat.elements:
            for y in lat.elements:
                if x in lower and y in lower:
                    table[x, y] = boundary(x, y)
                elif x in outside and y in lower:
                    table[x, y] = x
                elif x in lower and y in outside:
                    table[x, y] = y
                else:
                    table[x, y] = lat.top
    return FullBinOpTable(lat, table, neutral=e)


def _is_antichain(lat: BoundedLattice, xs) -> bool:
    xs = list(xs)
    return all(
        lat.incomparable(x, y) for i, x in enumerate(xs) for y in xs[i + 1 :]
    )


def structural_class_predicate(spec: ConstructionSpec) -> bool:
    """Lattice-shape side condition forcing the constructed uninorm into
    the matching boundary class.

    Non-strict families: the relevant open interval is empty, a singleton,
    or an antichain.  Strict families additionally require the same of the
    incomparability region.  Sufficient only, never necessary.
    """
    clo = _closure_side(spec)
    side = clo.low_open
    side_ok = len(side) <= 1 or _is_antichain(clo.lattice, side)
    if not clo.family.strict:
        return side_ok
    inc = clo.inc
    inc_ok = len(inc) <= 1 or _is_antichain(clo.lattice, inc)
    return side_ok and inc_ok
