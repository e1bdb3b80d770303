"""Finite bounded lattices given by Hasse covers.

Elements are symbolic string ids at the API and positions 0..n-1 inside.
The order is the reflexive-transitive closure of the cover relation, kept
as two bitmasks per element: bit j of ``up[i]`` is set when element i is
below element j, and ``down[i]`` is its transpose.  :func:`build_lattice`
computes both in one topological order of the covers, each up-set the
union of its upper covers' up-sets and each down-set that of its lower
covers' down-sets, and falls back to a search per element only to name a
cycle.  Meet and join are flat row-major tables of positions,
``meets[i * n + j]``, computed for j >= i and mirrored.  The row scans of
the certifiers read such tables as rows in the one form
:func:`packed_positions` gives, ``bytes`` up to 256 positions, and read
one row through another with its ``translate``.  Every public method
takes and returns ids at the cost of one index lookup; the per-cell and
per-triple scans of the other modules read the integer views directly.
Intervals, case partitions and other tables that depend on the order
alone are memoised on the lattice.  Iteration order is always the
declared element order, which makes witness reporting and all exports
deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    BoundsNotComparable,
    InvalidArgument,
    NotALattice,
    NotAPartialOrder,
    NotBounded,
    UnknownElement,
)


@dataclass(frozen=True)
class IntervalSpec:
    """The closed interval [low, high] of a lattice.  The open regions
    around an element come from :func:`case_partition`."""

    low: str
    high: str


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class BoundedLattice:
    """Immutable finite bounded lattice.

    Do not instantiate directly; use :func:`build_lattice`, which verifies
    the partial order, the bounds, and the existence of unique meets and
    joins before any table is trusted.  :meth:`dual` derives its tables
    from those certified ones, and :meth:`interval_lattice` builds the
    interval with :func:`build_lattice`.
    """

    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    bottom: str
    top: str
    positions: dict[str, int]
    up: tuple[int, ...]
    down: tuple[int, ...]
    meets: tuple[int, ...]
    joins: tuple[int, ...]
    _dual: BoundedLattice | None = field(default=None, init=False)
    _memo: dict = field(default_factory=dict, init=False)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.positions

    def __eq__(self, other):
        return other is self or (
            isinstance(other, BoundedLattice)
            and self.elements == other.elements
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.elements, self.up))

    def __repr__(self):
        return f"BoundedLattice({list(self.elements)!r})"

    def _unknown(self, *xs) -> UnknownElement:
        return UnknownElement(next(x for x in xs if x not in self.positions))

    def index(self, x) -> int:
        try:
            return self.positions[x]
        except KeyError:
            raise UnknownElement(x) from None

    def leq(self, x, y) -> bool:
        pos = self.positions
        try:
            return self.up[pos[x]] >> pos[y] & 1 == 1
        except KeyError:
            raise self._unknown(x, y) from None

    def incomparable(self, x, y) -> bool:
        pos = self.positions
        try:
            i, j = pos[x], pos[y]
        except KeyError:
            raise self._unknown(x, y) from None
        return (self.up[i] | self.down[i]) >> j & 1 == 0

    def meet(self, x, y) -> str:
        pos = self.positions
        try:
            return self.elements[self.meets[pos[x] * len(pos) + pos[y]]]
        except KeyError:
            raise self._unknown(x, y) from None

    def join(self, x, y) -> str:
        pos = self.positions
        try:
            return self.elements[self.joins[pos[x] * len(pos) + pos[y]]]
        except KeyError:
            raise self._unknown(x, y) from None

    def derived(self, key, make):
        """``make()``, computed once per lattice and ``key``.

        Holds tables that depend on the order alone, such as intervals and
        the cell plans of ``construct``; nothing derived from an operator
        or a spec.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def interval(self, spec: IntervalSpec) -> tuple[str, ...]:
        """Elements of the subinterval, in declared element order."""
        return self.derived(spec, lambda: self._interval(spec))

    def _interval(self, spec: IntervalSpec) -> tuple[str, ...]:
        pos = self.positions
        if spec.low not in pos or spec.high not in pos:
            raise self._unknown(spec.low, spec.high)
        lo, hi = pos[spec.low], pos[spec.high]
        if not self.up[lo] >> hi & 1:
            raise BoundsNotComparable(f"{spec.low!r} is not below {spec.high!r}")
        inside = self.up[lo] & self.down[hi]
        return tuple(x for i, x in enumerate(self.elements) if inside >> i & 1)

    def interval_lattice(self, spec: IntervalSpec) -> "BoundedLattice":
        """The closed interval ``spec`` as a bounded lattice of its own, with
        bounds ``spec.low`` and ``spec.high``: a t-(co)norm on it is a
        uninorm on this lattice.

        It is :func:`build_lattice` of the interval's elements and the
        covers inside it, memoised: an interval is convex, so those covers
        are its Hasse covers.
        """

        def make():
            dom = self.interval(spec)
            inside = set(dom)
            covers = [(lo, hi) for lo, hi in self.covers if lo in inside and hi in inside]
            return build_lattice(dom, covers, spec.low, spec.high)

        return self.derived(("interval lattice", spec), make)

    def dual(self) -> "BoundedLattice":
        """Order-reversed lattice: bounds swapped, meet and join exchanged.

        Built once from the certified tables and memoised both ways, so
        ``lat.dual().dual() is lat``.
        """
        if self._dual is None:
            dual = BoundedLattice(
                self.elements, tuple((hi, lo) for lo, hi in self.covers), self.top, self.bottom,
                self.positions, self.down, self.up, self.joins, self.meets,
            )
            object.__setattr__(dual, "_dual", self)
            object.__setattr__(self, "_dual", dual)
        return self._dual


class _WideRow(tuple):
    """A row of positions past 256, read as a ``bytes`` row is: a slice of
    it is a row, and ``translate(table)`` reads ``table`` at each entry,
    through one ``itemgetter`` built on the first read."""

    def __getitem__(self, key):
        item = tuple.__getitem__(self, key)
        return _WideRow(item) if isinstance(key, slice) else item

    @cached_property
    def _read(self):
        return itemgetter(*self)

    def translate(self, table):
        return self._read(table)


def packed_positions(values, m: int):
    """A row of positions 0..m-1 in the one form the row scans read.

    Up to 256 positions it is ``bytes``, whose ``translate`` reads a
    256-byte table in one C call and whose comparison is one memcmp; past
    that, a tuple with the same ``translate`` and slices.  Row y read
    through row x is ``ry.translate(rx + translation_pad(m))`` in both."""
    return bytes(values) if m <= 256 else _WideRow(values)


def translation_pad(m: int):
    """What turns a row of m positions into a ``translate`` table: the 256 -
    m bytes ``bytes.translate`` needs, never read since every entry is
    below m, and nothing past 256."""
    return bytes(256 - m) if m <= 256 else ()


def first_difference(a, b) -> int:
    """The first index at which two equal-length rows differ."""
    return next(i for i, (u, v) in enumerate(zip(a, b)) if u != v)


class RegionLabel(enum.Enum):
    ZERO = "zero"
    LOW_HALFOPEN = "low_halfopen"  # [0,e[
    LOW_OPEN = "low_open"        # ]0,e[
    E = "e"
    INC = "inc"                  # I_e
    HIGH_HALFOPEN = "high_halfopen"  # ]e,1]
    HIGH_OPEN = "high_open"      # ]e,1[
    TOP = "top"


class _Partition(NamedTuple):
    labels: tuple  # the RegionLabel of each element, by position
    members: dict  # each RegionLabel's elements, in declared order


def case_partition(lat: BoundedLattice, e: str, strict: bool) -> _Partition:
    """The closure-family case partition of ``lat`` around e, memoised on it.

    e is E; in the strict family the top is TOP; the bottom is ZERO; the
    elements incomparable with e are INC, those below e LOW_OPEN, and those
    above e HIGH_OPEN (strict) or HIGH_HALFOPEN.
    """

    def make():
        i = lat.index(e)
        below, above = lat.down[i], lat.up[i]
        labels = []
        for j, x in enumerate(lat.elements):
            if j == i:
                labels.append(RegionLabel.E)
            elif strict and x == lat.top:
                labels.append(RegionLabel.TOP)
            elif x == lat.bottom:
                labels.append(RegionLabel.ZERO)
            elif below >> j & 1:
                labels.append(RegionLabel.LOW_OPEN)
            elif above >> j & 1:
                labels.append(RegionLabel.HIGH_OPEN if strict else RegionLabel.HIGH_HALFOPEN)
            else:
                labels.append(RegionLabel.INC)
        members = {
            r: tuple(x for x, label in zip(lat.elements, labels) if label is r) for r in RegionLabel
        }
        return _Partition(tuple(labels), members)

    return lat.derived(("partition", e, strict), make)


def _cycle(elements, succs) -> NotAPartialOrder:
    """The error naming the first element on a cycle of ``succs`` and the
    first other element on a cycle with it, both in declared order.

    Only a failed topological sort calls this, so some cycle exists; a DFS
    from each element finds it.
    """
    n = len(elements)
    up = []
    for i in range(n):
        seen, stack = 1 << i, [i]
        while stack:
            for k in succs[stack.pop()]:
                if not seen >> k & 1:
                    seen |= 1 << k
                    stack.append(k)
        up.append(seen)
    i, j = next((i, j) for i in range(n) for j in range(n) if i != j and up[i] >> j & 1 and up[j] >> i & 1)
    return NotAPartialOrder(f"cycle through {elements[i]!r} and {elements[j]!r}")


def build_lattice(elements, covers, bottom, top) -> BoundedLattice:
    """Build and certify a bounded lattice from its Hasse cover pairs.

    Raises InvalidArgument naming the first repeated element id,
    UnknownElement for a cover or bound that is not an element,
    NotAPartialOrder on a cycle, NotBounded when the declared
    bottom/top is not least/greatest, and NotALattice (reporting the first
    offending pair in declared order, meet before join) when some pair
    lacks a unique meet or join.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        repeated = next(x for i, x in enumerate(elements) if x in elements[:i])
        raise InvalidArgument(f"element {repeated!r} is repeated")
    pos = {x: i for i, x in enumerate(elements)}
    for lo, hi in covers:
        if lo not in pos or hi not in pos:
            raise UnknownElement(lo if lo not in pos else hi)
    if bottom not in pos:
        raise UnknownElement(bottom)
    if top not in pos:
        raise UnknownElement(top)

    n = len(elements)
    succs = [[] for _ in elements]
    preds = [[] for _ in elements]
    for lo, hi in covers:
        i, j = pos[lo], pos[hi]
        if i != j:  # a self-cover adds nothing to a reflexive order
            succs[i].append(j)
            preds[j].append(i)

    # Kahn's algorithm: a topological order of the covers.  Each down-set is
    # the union of its predecessors', in that order; each up-set the union
    # of its successors', in the reverse order.
    waiting = [len(p) for p in preds]
    order = [i for i in range(n) if not waiting[i]]
    for i in order:
        for k in succs[i]:
            waiting[k] -= 1
            if not waiting[k]:
                order.append(k)
    if len(order) < n:
        raise _cycle(elements, succs)
    up, down = [0] * n, [0] * n
    for i in order:
        mask = 1 << i
        for k in preds[i]:
            mask |= down[k]
        down[i] = mask
    for i in reversed(order):
        mask = 1 << i
        for k in succs[i]:
            mask |= up[k]
        up[i] = mask

    for j, x in enumerate(elements):
        if not up[pos[bottom]] >> j & 1:
            raise NotBounded(f"declared bottom {bottom!r} is not below {x!r}")
        if not down[pos[top]] >> j & 1:
            raise NotBounded(f"declared top {top!r} is not above {x!r}")

    # In a partial order an element is fixed by its down-set (and by its
    # up-set), so the meet of i and j exists exactly when their common
    # lower bounds are the down-set of some element, and is that element.
    # Row i is computed for j >= i; its first i entries are column i of
    # the rows above.  A pair (i, j) with j < i fails only if (j, i) failed
    # in an earlier row, so the first failure in row-major order, meet
    # before join, lies at j >= i.
    by_down = {mask: i for i, mask in enumerate(down)}.get
    by_up = {mask: i for i, mask in enumerate(up)}.get
    meets, joins = [], []
    for i in range(n):
        d, u = down[i], up[i]
        meet_row = [by_down(d & other) for other in down[i:]]
        join_row = [by_up(u & other) for other in up[i:]]
        if None in meet_row or None in join_row:
            j = next(j for j, (m, v) in enumerate(zip(meet_row, join_row)) if m is None or v is None)
            kind = "meet" if meet_row[j] is None else "join"
            raise NotALattice((elements[i], elements[i + j]), kind)
        meets += meets[i::n]
        meets += meet_row
        joins += joins[i::n]
        joins += join_row
    return BoundedLattice(
        elements, tuple(covers), bottom, top, pos, tuple(up), tuple(down), tuple(meets), tuple(joins)
    )
