"""Finite bounded lattices given by Hasse covers.

Elements are symbolic string ids.  The order is the reflexive-transitive
closure of the cover relation; meet and join are precomputed into dense
tables at build time, so every later query is a dict lookup.  Iteration
order is always the declared element order, which makes witness reporting
and all exports deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BoundsNotComparable,
    NotALattice,
    NotAPartialOrder,
    NotBounded,
    UnknownElement,
)


@dataclass(frozen=True)
class IntervalSpec:
    """A subinterval of a lattice, with independently open/closed ends."""

    low: str
    high: str
    low_open: bool = False
    high_open: bool = False


class BoundedLattice:
    """Immutable finite bounded lattice.

    Do not instantiate directly; use :func:`build_lattice`, which verifies
    the partial order, the bounds, and the existence of unique meets and
    joins before any table is trusted.
    """

    __slots__ = ("elements", "covers", "bottom", "top", "_leq", "_meet", "_join", "_index", "_dual")

    def __init__(self, elements, covers, bottom, top, leq, meet, join):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "covers", tuple(covers))
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "_leq", leq)
        object.__setattr__(self, "_meet", meet)
        object.__setattr__(self, "_join", join)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.elements)})
        object.__setattr__(self, "_dual", None)

    def __setattr__(self, name, value):
        raise AttributeError("BoundedLattice is immutable")

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def __eq__(self, other):
        return other is self or (
            isinstance(other, BoundedLattice)
            and self.elements == other.elements
            and self._leq == other._leq
        )

    def __hash__(self):
        return hash((self.elements, frozenset(self._leq)))

    def __repr__(self):
        return f"BoundedLattice({list(self.elements)!r})"

    def index(self, x) -> int:
        self._require(x)
        return self._index[x]

    def _require(self, *xs):
        for x in xs:
            if x not in self._index:
                raise UnknownElement(x)

    def leq(self, x, y) -> bool:
        self._require(x, y)
        return (x, y) in self._leq

    def lt(self, x, y) -> bool:
        return x != y and self.leq(x, y)

    def incomparable(self, x, y) -> bool:
        self._require(x, y)
        return (x, y) not in self._leq and (y, x) not in self._leq

    def meet(self, x, y) -> str:
        self._require(x, y)
        return self._meet[x, y]

    def join(self, x, y) -> str:
        self._require(x, y)
        return self._join[x, y]

    def interval(self, spec: IntervalSpec) -> tuple[str, ...]:
        """Elements of the subinterval, in declared element order."""
        self._require(spec.low, spec.high)
        if not self.leq(spec.low, spec.high):
            raise BoundsNotComparable(f"{spec.low!r} is not below {spec.high!r}")
        out = []
        for x in self.elements:
            if not self.leq(spec.low, x) or not self.leq(x, spec.high):
                continue
            if spec.low_open and x == spec.low:
                continue
            if spec.high_open and x == spec.high:
                continue
            out.append(x)
        return tuple(out)

    def incomparables(self, a) -> tuple[str, ...]:
        """All elements incomparable with ``a``, in declared element order."""
        self._require(a)
        return tuple(x for x in self.elements if self.incomparable(a, x))

    def dual(self) -> "BoundedLattice":
        """Order-reversed lattice: bounds swapped, meet and join exchanged.

        Built once from the certified tables and memoised both ways, so
        ``lat.dual().dual() is lat``.
        """
        if self._dual is None:
            dual = BoundedLattice(
                self.elements, [(hi, lo) for lo, hi in self.covers], self.top, self.bottom,
                frozenset((y, x) for x, y in self._leq), self._join, self._meet,
            )
            object.__setattr__(dual, "_dual", self)
            object.__setattr__(self, "_dual", dual)
        return self._dual


def build_lattice(elements, covers, bottom, top) -> BoundedLattice:
    """Build and certify a bounded lattice from its Hasse cover pairs.

    Raises NotAPartialOrder on a cycle, NotBounded when the declared
    bottom/top is not least/greatest, and NotALattice (reporting the first
    offending pair in declared order) when some pair lacks a unique meet
    or join.
    """
    elements = tuple(elements)
    if not elements:
        raise NotALattice(("", ""), "meet")
    if len(set(elements)) != len(elements):
        raise UnknownElement("duplicate element id")
    known = set(elements)
    for lo, hi in covers:
        if lo not in known or hi not in known:
            raise UnknownElement(lo if lo not in known else hi)
    if bottom not in known:
        raise UnknownElement(bottom)
    if top not in known:
        raise UnknownElement(top)

    succs = {x: [] for x in elements}
    for lo, hi in covers:
        succs[lo].append(hi)

    # Reflexive-transitive closure by DFS from each element.
    leq = set()
    for x in elements:
        stack, seen = [x], {x}
        while stack:
            y = stack.pop()
            leq.add((x, y))
            for z in succs[y]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    for x in elements:
        for y in elements:
            if x != y and (x, y) in leq and (y, x) in leq:
                raise NotAPartialOrder(f"cycle through {x!r} and {y!r}")

    for x in elements:
        if (bottom, x) not in leq:
            raise NotBounded(f"declared bottom {bottom!r} is not below {x!r}")
        if (x, top) not in leq:
            raise NotBounded(f"declared top {top!r} is not above {x!r}")

    meet, join = {}, {}
    for x in elements:
        for y in elements:
            lower = [z for z in elements if (z, x) in leq and (z, y) in leq]
            glb = [z for z in lower if all((w, z) in leq for w in lower)]
            if len(glb) != 1:
                raise NotALattice((x, y), "meet")
            meet[x, y] = glb[0]
            upper = [z for z in elements if (x, z) in leq and (y, z) in leq]
            lub = [z for z in upper if all((z, w) in leq for w in upper)]
            if len(lub) != 1:
                raise NotALattice((x, y), "join")
            join[x, y] = lub[0]

    return BoundedLattice(elements, covers, bottom, top, frozenset(leq), meet, join)
