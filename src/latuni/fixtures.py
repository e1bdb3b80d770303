"""Bundled worked-example lattices and operators.

Three 9-to-11 element lattices (l1, l2, l3) with their closure-operator
pairs and join-based boundary t-conorms, read from the lattice and
operator documents bundled in ``data/``, plus a handful of small standard
lattices used by the property suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .binop import PartialBinOpTable, join_tconorm
from .construct import ConstructionSpec, Family
from .documents import parse_lattice, parse_operator
from .lattice import BoundedLattice, build_lattice
from .unary import UnaryOpTable


@dataclass(frozen=True)
class Fixture:
    name: str
    lattice: BoundedLattice
    e: str
    cl1: UnaryOpTable
    cl2: UnaryOpTable
    tconorm: PartialBinOpTable
    family: Family

    def spec(self) -> ConstructionSpec:
        return ConstructionSpec(
            self.family, self.lattice, self.e, self.tconorm, self.cl1, self.cl2
        )


_DATA = resources.files(__package__) / "data"


def _worked_example(name: str, family: Family) -> Fixture:
    """The example ``name`` read from its lattice and operator documents in
    ``data/``, with neutral element e and the join t-conorm as boundary."""
    def read(doc: str) -> str:
        return (_DATA / f"{name}.{doc}.json").read_text(encoding="utf-8")

    lat = parse_lattice(read("lattice"))
    cl1, cl2 = (parse_operator(read(f"{op}.op"), lat) for op in ("cl1", "cl2"))
    return Fixture(name, lat, "e", cl1, cl2, join_tconorm(lat, "e"), family)


def l1() -> Fixture:
    return _worked_example("l1", Family.CLO)


def l2() -> Fixture:
    return _worked_example("l2", Family.CLO)


def l3() -> Fixture:
    return _worked_example("l3", Family.CLO_STRICT)


FIXTURES = {"l1": l1, "l2": l2, "l3": l3}


# -- small standard lattices -------------------------------------------------

def chain(n: int) -> BoundedLattice:
    """A chain c0 < c1 < ... < c(n-1)."""
    names = [f"c{i}" for i in range(n)]
    covers = [(names[i], names[i + 1]) for i in range(n - 1)]
    return build_lattice(names, covers, names[0], names[-1])


def chain_product(a: int, b: int) -> BoundedLattice:
    """The product of chains of a and b elements, ids ``p<i>_<j>``."""
    name = "p{}_{}".format
    elements = [name(i, j) for i in range(a) for j in range(b)]
    covers = [(name(i, j), name(i + 1, j)) for i in range(a - 1) for j in range(b)]
    covers += [(name(i, j), name(i, j + 1)) for i in range(a) for j in range(b - 1)]
    return build_lattice(elements, covers, name(0, 0), name(a - 1, b - 1))


def diamond() -> BoundedLattice:
    """M2: two incomparable atoms between the bounds."""
    return build_lattice(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
        "0",
        "1",
    )


def m3() -> BoundedLattice:
    """Three incomparable atoms between the bounds."""
    return build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        "0",
        "1",
    )


def n5() -> BoundedLattice:
    """The pentagon: a < b on one side, c alone on the other."""
    return build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
        "0",
        "1",
    )


SMALL_LATTICES = {
    "chain3": lambda: chain(3),
    "chain4": lambda: chain(4),
    "chain5": lambda: chain(5),
    "m2": diamond,
    "m3": m3,
    "n5": n5,
}
