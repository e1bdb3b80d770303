"""Uninorm constructions from boundary operations and operator pairs.

Four families:

* ``clo2``        — t-conorm on [e,1] plus two comparable closure operators.
* ``int2``        — t-norm on [0,e] plus two comparable interior operators.
* ``clo2-strict`` — the closure variant with the top element annihilating.
* ``int2-strict`` — the interior variant with the bottom element annihilating.

The interior families are the closure families on the dual lattice.  An
``int2``/``int2-strict`` spec is checked, partitioned and built by the
closure logic run in the order ``lattice.dual()`` (``unary.order_of``)
over its own operators and boundary; reports are written in the spec's
own terms, and region labels are mirrored back.

A closure family splits the order around e into ]0,e[, I_e and [e,1], the
strict one also splitting off the top.  Every check, the cell plan,
``region_of`` and ``binop.classify`` read their regions from that one
case partition, :func:`latuni.lattice.case_partition`.

``construct`` always builds the table, even when the characteristic
conditions fail: that is what lets the verifier exhibit the concrete
associativity counterexamples showing the conditions are necessary.

No spec or table holds a cache: a sweep keeps thousands of specs alive,
so anything stored per spec is paid that many times.  What depends on the
order alone (intervals, the partition and cell plan of each neutral
element) is memoised on the lattice, and an operator carries its map on
positions from the start.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from itertools import product

from .binop import (
    FullBinOpTable,
    PartialBinOpTable,
    TCONORM,
    TNORM,
    strictness_check,
)
from .errors import HypothesesNotChecked, InvalidArgument, MismatchedLattice
from .lattice import BoundedLattice, IntervalSpec, RegionLabel, case_partition
from .unary import CLOSURE, INTERIOR, UnaryOpTable, order_of, pointwise_leq_on, range_avoids


class Family(str, enum.Enum):
    """A family, with its operators' ``kind`` and its boundary's ``role``."""

    CLO = "clo2"
    INT = "int2"
    CLO_STRICT = "clo2-strict"
    INT_STRICT = "int2-strict"

    def __init__(self, value):
        # Plain attributes, not properties: the checks read them per spec.
        self.closure_based = value.startswith("clo")
        self.strict = value.endswith("-strict")
        self.kind = CLOSURE if self.closure_based else INTERIOR
        self.role = TCONORM if self.closure_based else TNORM


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


def _boundary_interval(spec: ConstructionSpec) -> IntervalSpec:
    """[e,1] of the order, in the spec's lattice: the boundary's domain, and what operators avoid."""
    lat, e = spec.lattice, spec.e
    return IntervalSpec(e, lat.top) if spec.family.closure_based else IntervalSpec(lat.bottom, e)


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
        rows = [{**asdict(r), "witnesses": list(r.witnesses)} for r in self.rows]
        return {"passed": self.passed, "rows": rows, "notes": self.notes}


# What each row states, in the terms of the closure (True) or the interior
# (False) families.  An interior row is decided in the dual order, where
# "upper" reads "lower", ]0,e[ reads ]e,1[, and kinds and roles flip.
_STATEMENTS = {
    True: {
        "operator_kinds": f"both operators are {CLOSURE} operators",
        "boundary_domain": f"boundary operation is a {TCONORM} on the family's boundary interval",
        "comparability": "first operator below second outside the upper interval",
        "range_low": "first operator avoids the upper interval on ]0,e[",
        "range_inc": "second operator avoids the upper interval on the incomparables of e",
        "boundary_strict": "t-conorm stays below the top on the open interval",
    },
    False: {
        "operator_kinds": f"both operators are {INTERIOR} operators",
        "boundary_domain": f"boundary operation is a {TNORM} on the family's boundary interval",
        "comparability": "second operator below first outside the lower interval",
        "range_low": "first operator avoids the lower interval on ]e,1[",
        "range_inc": "second operator avoids the lower interval on the incomparables of e",
        "boundary_strict": "t-norm stays above the bottom on the open interval",
    },
}


def _row(spec: ConstructionSpec, name: str, passed: bool, witnesses=(), vacuous=False) -> ConditionRow:
    return ConditionRow(name, _STATEMENTS[spec.family.closure_based][name], passed, witnesses, vacuous)


def comparability_region(spec: ConstructionSpec) -> tuple:
    """Where op_low must lie below op_inc in the spec's order: the bottom,
    ]0,e[ and I_e of the order's partition, everything outside its [e,1]."""
    part = case_partition(order_of(spec.lattice, spec.family.kind), spec.e, spec.family.strict).members
    return part[RegionLabel.ZERO] + part[RegionLabel.LOW_OPEN] + part[RegionLabel.INC]


def check_hypotheses(spec: ConstructionSpec) -> ConditionReport:
    """Structural preconditions of the spec's family; failures are data."""
    family, op_low, op_inc, boundary = spec.family, spec.op_low, spec.op_inc, spec.boundary
    kinds_ok = op_low.kind == family.kind and op_inc.kind == family.kind
    dom_ok = boundary.role == family.role and boundary.domain == _boundary_interval(spec)
    # op_low below op_inc in the order: the reverse on an interior lattice.
    below, above = (op_low, op_inc) if family.closure_based else (op_inc, op_low)
    cmp_ok, cmp_wit = pointwise_leq_on(below, above, comparability_region(spec))
    return ConditionReport([
        _row(spec, "operator_kinds", kinds_ok, () if kinds_ok else (op_low.kind, op_inc.kind)),
        _row(spec, "boundary_domain", dom_ok, () if dom_ok else (boundary.role,)),
        _row(spec, "comparability", cmp_ok, cmp_wit),
    ])


def check_characteristic(spec: ConstructionSpec) -> ConditionReport:
    """The family's if-and-only-if conditions for the built table to be a uninorm.

    They hold only under the family's hypotheses, so this decides the
    spec's own first and raises HypothesesNotChecked when they fail.

    Each row reads one input of the spec besides the lattice and e:
    range_low reads only op_low, range_inc only op_inc, and
    boundary_strict (strict families) and the vacuous flag only the
    boundary and the case partition.  Pair admission in ``search`` relies
    on this to decide each operator once, from the report of (op, op).

    For the strict families, when the relevant open interval is empty the
    operator values never enter the table, so no operator condition is
    characteristic there; the rows are still reported, marked vacuous, and
    the overall verdict passes.  The emptiness flag is recorded in notes.
    """
    if not check_hypotheses(spec).passed:
        raise HypothesesNotChecked("construction hypotheses do not hold")
    strict = spec.family.strict
    part = case_partition(order_of(spec.lattice, spec.family.kind), spec.e, strict).members
    forbidden = _boundary_interval(spec)
    ok_low, wit_low = range_avoids(spec.op_low, part[RegionLabel.LOW_OPEN], forbidden)
    ok_inc, wit_inc = range_avoids(spec.op_inc, part[RegionLabel.INC], forbidden)
    # Strict constructions only consult the operators against the open
    # boundary interval; with it empty, no operator condition binds.
    vacuous = strict and not part[RegionLabel.HIGH_OPEN]
    notes = {"open_boundary_interval_empty": vacuous} if strict else {}
    rows = [
        _row(spec, "range_low", ok_low or vacuous, wit_low, vacuous),
        _row(spec, "range_inc", ok_inc or vacuous, wit_inc, vacuous),
    ]
    if strict:
        rows.append(_row(spec, "boundary_strict", *strictness_check(spec.boundary), vacuous))
    return ConditionReport(rows, notes)


def region_of(spec: ConstructionSpec, x) -> RegionLabel:
    """The region of x in the family's case partition of the lattice.

    An interior family's partition is the mirror of its dual closure
    family's: [0,e[ is one region, LOW_HALFOPEN, for ``int2``.
    """
    order = order_of(spec.lattice, spec.family.kind)
    label = case_partition(order, spec.e, spec.family.strict).labels[spec.lattice.index(x)]
    return label if spec.family.closure_based else _MIRROR[label]


# The closure families' upper block [e,1], without the strict top, and the
# regions whose operator values enter the table.
_UPPER = {RegionLabel.E, RegionLabel.HIGH_HALFOPEN, RegionLabel.HIGH_OPEN}
_OPERATED = {RegionLabel.LOW_OPEN, RegionLabel.INC}


def _plan(lat: BoundedLattice, e: str, strict: bool):
    """The closure-family cell plan of ``lat`` around e, memoised on it.

    The value of a cell is keyed by the regions of its two arguments: a
    strict top annihilates; cells inside the upper block [e,1] take the
    boundary; e is neutral, so the cell is the other argument; an argument
    a in ]0,e[ or I_e against ]e,1] gives the row value of a,
    op(a) ^ (a v e), with op_low on ]0,e[ and op_inc on I_e; every other
    cell is the bottom.

    Cells are numbered row-major: ``base`` holds each cell's fixed value,
    or None; ``boundary`` the cells taken from the boundary operation;
    ``mixed`` each (cell, a) taking the row value of a; ``rows`` each
    (a, region) whose row value is needed.  It holds no cell keys, to stay
    small on every lattice a sweep visits.
    """

    def make():
        els = lat.elements
        region = case_partition(lat, e, strict).labels
        # The region tests, made once per element rather than once per cell.
        tested = [
            (x, r is RegionLabel.TOP, r in _UPPER, r is RegionLabel.E, r in _OPERATED)
            for x, r in zip(els, region)
        ]
        base, boundary, mixed = [], [], []
        for x, top_x, upper_x, e_x, operated_x in tested:
            for y, top_y, upper_y, e_y, operated_y in tested:
                k = len(base)
                base.append(None)
                if top_x or top_y:
                    base[k] = lat.top
                elif upper_x and upper_y:
                    boundary.append(k)
                elif e_x:
                    base[k] = y
                elif e_y:
                    base[k] = x
                elif operated_x and upper_y:
                    mixed.append((k, x))
                elif operated_y and upper_x:
                    mixed.append((k, y))
                else:
                    base[k] = lat.bottom
        rows = tuple((a, r) for a, r in zip(els, region) if r in _OPERATED)
        return tuple(base), tuple(boundary), tuple(mixed), rows

    return lat.derived(("construct", e, strict), make)


def construct(spec: ConstructionSpec) -> FullBinOpTable:
    """Build the family's full table from the cell plan.

    An interior spec is built in the dual order, with meet and join
    exchanged.  Does not check the characteristic conditions: when they
    fail, the returned table fails validate_uninorm with the expected
    witnesses.
    """
    order, e = order_of(spec.lattice, spec.family.kind), spec.e
    els = order.elements
    n = len(els)
    base, boundary, mixed, rows = _plan(order, e, spec.family.strict)
    ops = {RegionLabel.LOW_OPEN: spec.op_low, RegionLabel.INC: spec.op_inc}
    # op(a) ^ (a v e) does not depend on the column: one value per row a.
    row_value = {a: order.meet(ops[r](a), order.join(a, e)) for a, r in rows}
    values = list(base)
    for k in boundary:
        values[k] = spec.boundary(els[k // n], els[k % n])
    for k, a in mixed:
        values[k] = row_value[a]
    return FullBinOpTable(spec.lattice, dict(zip(product(els, repeat=2), values)), neutral=e)


def reference_karacal_mesiar(lat: BoundedLattice, e: str, boundary: PartialBinOpTable, side: str) -> FullBinOpTable:
    """The classical identity-operator degenerate uninorms U_s and U_t.

    side "s": t-conorm on [e,1]; side "t": t-norm on [0,e].  These serve
    as independent oracles for the identity-operator collapse of the
    constructions.
    """
    if side not in ("s", "t"):
        raise ValueError("side must be 's' or 't'")
    if side == "s":
        block, fill = set(lat.interval(IntervalSpec(e, lat.top))), lat.bottom
    else:
        block, fill = set(lat.interval(IntervalSpec(lat.bottom, e))), lat.top
    table = {}
    for x in lat.elements:
        for y in lat.elements:
            if x in block and y in block:
                table[x, y] = boundary(x, y)
            elif x in block or y in block:
                table[x, y] = y if x in block else x
            else:
                table[x, y] = fill
    return FullBinOpTable(lat, table, neutral=e)


def structural_class_predicate(spec: ConstructionSpec) -> bool:
    """Lattice-shape side condition forcing the constructed uninorm into
    the matching boundary class.

    Non-strict families: the relevant open interval is empty, a singleton,
    or an antichain.  Strict families additionally require the same of the
    incomparability region.  Sufficient only, never necessary.
    """
    strict = spec.family.strict
    part = case_partition(order_of(spec.lattice, spec.family.kind), spec.e, strict).members
    regions = [RegionLabel.LOW_OPEN, RegionLabel.INC] if strict else [RegionLabel.LOW_OPEN]
    return all(
        spec.lattice.incomparable(x, y)
        for r in regions for i, x in enumerate(part[r]) for y in part[r][i + 1 :]
    )
