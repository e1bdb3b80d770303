import itertools
import random

import pytest
from hypothesis import given, strategies as st

from latuni import IntervalSpec, build_lattice, lattice
from latuni.errors import (
    BoundsNotComparable,
    InvalidArgument,
    NotALattice,
    NotAPartialOrder,
    NotBounded,
    UnknownElement,
)
from latuni.fixtures import SMALL_LATTICES, chain, diamond, l1, l2, l3


def test_build_diamond():
    lat = diamond()
    assert lat.bottom == "0" and lat.top == "1"
    assert lat.meet("a", "b") == "0"
    assert lat.join("a", "b") == "1"


def test_build_rejects_cycle():
    with pytest.raises(NotAPartialOrder):
        build_lattice(["x", "y"], [("x", "y"), ("y", "x")], "x", "y")


def test_build_rejects_unreachable_top():
    with pytest.raises(NotBounded):
        build_lattice(["0", "a", "b", "1"], [("0", "a"), ("0", "b")], "0", "1")


def test_build_rejects_no_unique_join():
    # a and b share two minimal upper bounds c and d, so join(a, b) is ambiguous
    with pytest.raises(NotALattice) as err:
        build_lattice(
            ["0", "a", "b", "c", "d", "1"],
            [
                ("0", "a"), ("0", "b"),
                ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"),
                ("c", "1"), ("d", "1"),
            ],
            "0",
            "1",
        )
    assert err.value.pair == ("a", "b")


def test_build_rejects_unknown_cover_element():
    with pytest.raises(UnknownElement):
        build_lattice(["0", "1"], [("0", "z")], "0", "1")


def test_build_rejects_an_empty_element_list_at_its_bottom():
    """No elements: the declared bottom is the first unknown element."""
    with pytest.raises(UnknownElement) as err:
        build_lattice([], [], "0", "1")
    assert err.value.element == "0"


def test_build_rejects_a_repeated_element_id():
    with pytest.raises(InvalidArgument) as err:
        build_lattice(["0", "b", "a", "b", "a", "1"], [("0", "a"), ("a", "b"), ("b", "1")], "0", "1")
    assert str(err.value) == "element 'b' is repeated"


def test_leq_and_incomparables_on_l1(fx_l1):
    lat = fx_l1.lattice
    assert lat.leq("m", "j")
    assert not lat.leq("m", "e")
    assert lat.incomparables("e") == ("m", "k", "s", "n")
    for x in lat.elements:
        assert lat.leq(x, x)


def test_meet_join_values(fx_l1, fx_l3):
    assert fx_l1.lattice.join("m", "e") == "j"
    assert fx_l3.lattice.join("b", "e") == "1"
    lat = fx_l1.lattice
    for x in lat.elements:
        assert lat.meet(x, lat.top) == x


def test_intervals(fx_l1, fx_l3):
    lat = fx_l1.lattice
    assert lat.interval(IntervalSpec("e", "1", low_open=True)) == ("j", "1")
    assert fx_l3.lattice.interval(IntervalSpec("0", "e", True, True)) == ("r", "a")
    for x in lat.elements:
        assert lat.interval(IntervalSpec(x, x)) == (x,)


def test_interval_bounds_not_comparable(fx_l1):
    with pytest.raises(BoundsNotComparable):
        fx_l1.lattice.interval(IntervalSpec("e", "m"))


def test_chain_has_no_incomparables():
    lat = chain(5)
    for x in lat.elements:
        assert lat.incomparables(x) == ()


def test_unknown_element_queries(fx_l1):
    with pytest.raises(UnknownElement):
        fx_l1.lattice.leq("zz", "e")
    with pytest.raises(UnknownElement):
        fx_l1.lattice.incomparables("zz")


def test_dual_involution(fx_l1):
    lat = fx_l1.lattice
    assert lat.dual().dual() == lat
    assert lat.dual().dual() is lat and lat.dual() is lat.dual()


def test_lattice_fields_can_be_neither_assigned_nor_deleted():
    lat = diamond()
    dual = lat.dual()
    spec = IntervalSpec("0", "a")
    span = lat.interval(spec)
    for name in ("top", "up", "_memo"):
        with pytest.raises(AttributeError):
            setattr(lat, name, None)
        with pytest.raises(AttributeError):
            delattr(lat, name)
    assert lat.top == "1" and lat.dual() is dual and dual.dual() is lat
    assert lat.interval(spec) is span


def test_dual_equals_lattice_built_from_reversed_covers(fx_l1, fx_l3):
    for lat in (fx_l1.lattice, fx_l3.lattice):
        rebuilt = build_lattice(
            lat.elements, [(hi, lo) for lo, hi in lat.covers], lat.top, lat.bottom
        )
        dual = lat.dual()
        assert dual == rebuilt and dual.covers == rebuilt.covers
        for x in lat.elements:
            for y in lat.elements:
                assert dual.meet(x, y) == rebuilt.meet(x, y)
                assert dual.join(x, y) == rebuilt.join(x, y)


def test_dual_swaps_meet_and_join(fx_l2):
    lat = fx_l2.lattice
    dual = lat.dual()
    assert dual.bottom == lat.top and dual.top == lat.bottom
    for x in lat.elements:
        for y in lat.elements:
            assert dual.join(x, y) == lat.meet(x, y)
            assert dual.meet(x, y) == lat.join(x, y)
            assert dual.leq(x, y) == lat.leq(y, x)


def test_dual_diamond_swaps_bounds():
    lat = diamond()
    dual = lat.dual()
    assert dual.bottom == "1" and dual.top == "0"
    assert dual.join("a", "b") == "0"


class TestLatticeLaws:
    """Full scans of the lattice identities over every bundled fixture."""

    def _lattices(self, fx_l1, fx_l2, fx_l3, small_lattices):
        return [fx_l1.lattice, fx_l2.lattice, fx_l3.lattice, *small_lattices.values()]

    def test_associativity_and_absorption(self, fx_l1, fx_l2, fx_l3, small_lattices):
        for lat in self._lattices(fx_l1, fx_l2, fx_l3, small_lattices):
            for x, y, z in itertools.product(lat.elements, repeat=3):
                assert lat.meet(x, lat.meet(y, z)) == lat.meet(lat.meet(x, y), z)
                assert lat.join(x, lat.join(y, z)) == lat.join(lat.join(x, y), z)
            for x, y in itertools.product(lat.elements, repeat=2):
                assert lat.meet(x, lat.join(x, y)) == x
                assert lat.join(x, lat.meet(x, y)) == x

    def test_order_agrees_with_meet_and_join(self, fx_l1, fx_l2, fx_l3, small_lattices):
        for lat in self._lattices(fx_l1, fx_l2, fx_l3, small_lattices):
            for x, y in itertools.product(lat.elements, repeat=2):
                assert lat.leq(x, y) == (lat.meet(x, y) == x)
                assert lat.leq(x, y) == (lat.join(x, y) == y)

    def test_open_interval_is_closed_minus_endpoints(self, fx_l1):
        lat = fx_l1.lattice
        for x in lat.elements:
            for y in lat.elements:
                if not lat.leq(x, y):
                    continue
                open_iv = set(lat.interval(IntervalSpec(x, y, True, True)))
                closed = set(lat.interval(IntervalSpec(x, y)))
                assert open_iv == closed - {x, y}

    def test_incomparables_disjoint_from_principal_intervals(self, fx_l1, fx_l3):
        for lat in (fx_l1.lattice, fx_l3.lattice):
            for a in lat.elements:
                inc = set(lat.incomparables(a))
                below = set(lat.interval(IntervalSpec(lat.bottom, a)))
                above = set(lat.interval(IntervalSpec(a, lat.top)))
                assert not inc & below
                assert not inc & above


def test_interval_lattice_is_the_closed_interval(fx_l1, fx_l2, fx_l3, small_lattices):
    """Every closed interval [low, high] as a lattice of its own: its
    elements in declared order, the covers inside it, low and high as its
    bounds and the parent's order; memoised, and the whole lattice for
    [bottom, top]."""
    lattices = [fx_l1.lattice, fx_l2.lattice, fx_l3.lattice, *small_lattices.values()]
    for lat in lattices:
        for low, high in itertools.product(lat.elements, repeat=2):
            if not lat.leq(low, high):
                continue
            spec = IntervalSpec(low, high)
            sub = lat.interval_lattice(spec)
            inside = [x for x in lat.elements if lat.leq(low, x) and lat.leq(x, high)]
            assert sub.elements == tuple(inside)
            assert sub.covers == tuple((a, b) for a, b in lat.covers if a in inside and b in inside)
            assert (sub.bottom, sub.top) == (low, high)
            for x, y in itertools.product(inside, repeat=2):
                assert sub.leq(x, y) == lat.leq(x, y), (low, high, x, y)
            assert lat.interval_lattice(IntervalSpec(low, high)) is sub
        assert lat.interval_lattice(IntervalSpec(lat.bottom, lat.top)) == lat


def test_interval_lattice_equals_build_lattice_of_the_interval():
    """The interval lattice equals build_lattice of the same interval field
    by field; an open interval raises UnknownElement naming the first
    bound it leaves out."""
    lattices = [fx().lattice for fx in (l1, l2, l3)] + [make() for make in SMALL_LATTICES.values()]
    fields = ("elements", "covers", "bottom", "top", "positions", "up", "down", "meets", "joins")
    for lat in lattices:
        for low, high in itertools.product(lat.elements, repeat=2):
            if not lat.leq(low, high):
                continue
            sub = lat.interval_lattice(IntervalSpec(low, high))
            inside = lat.interval(IntervalSpec(low, high))
            built = build_lattice(inside, [(a, b) for a, b in lat.covers if a in inside and b in inside], low, high)
            for name in fields:
                assert getattr(sub, name) == getattr(built, name), (low, high, name)
            for low_open, high_open in ((True, False), (False, True), (True, True)):
                with pytest.raises(UnknownElement) as err:
                    lat.interval_lattice(IntervalSpec(low, high, low_open, high_open))
                assert err.value.element == (low if low_open else high)


@pytest.mark.parametrize("m", (1, 2, 9, 255, 256, 257, 300))
def test_a_row_translated_by_a_padded_row_reads_it_at_each_entry(m):
    """In either row form, past 256 positions too, row r translated by row
    x plus its pad is x read at r's entries, a row of the same form, and a
    slice of a row is a row."""
    rng = random.Random(m)
    r, x = ([rng.randrange(m) for _ in range(m)] for _ in range(2))
    row = lattice.packed_positions(r, m)
    table = lattice.packed_positions(x, m) + lattice.translation_pad(m)
    got = row.translate(table)
    assert list(got) == [x[i] for i in r]
    assert got == lattice.packed_positions([x[i] for i in r], m)
    assert list(row[1:].translate(table)) == [x[i] for i in r[1:]]


@given(data=st.data())
def test_meet_join_commutative_sampled(fx_l1, data):
    lat = fx_l1.lattice
    x = data.draw(st.sampled_from(lat.elements))
    y = data.draw(st.sampled_from(lat.elements))
    assert lat.meet(x, y) == lat.meet(y, x)
    assert lat.join(x, y) == lat.join(y, x)
