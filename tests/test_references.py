"""The integer lattice kernel against the naive string-keyed references.

``naive.py`` holds the order, meet/join and axiom scans as plain set and
dict computations; here they are compared with ``build_lattice`` and
``validate_uninorm`` on the bundled lattices, on every table of an l2
sweep, on one-cell corruptions of the golden tables, and on drawn inputs.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from latuni import (
    Family,
    FullBinOpTable,
    IntervalSpec,
    build_lattice,
    construct,
    join_tconorm,
    validate_uninorm,
)
from latuni.errors import LatuniError, UnknownElement
from latuni.fixtures import FIXTURES, SMALL_LATTICES
from latuni.search import enumerate_admissible_pairs
from naive import naive_lattice, naive_uninorm_report
from reference_tables import TABLES


def _naive(lat):
    return naive_lattice(lat.elements, lat.covers, lat.bottom, lat.top)


def _assert_same_lattice(lat, naive):
    leq, meet, join = naive
    for x, y in itertools.product(lat.elements, repeat=2):
        assert lat.leq(x, y) == ((x, y) in leq), (x, y)
        assert lat.meet(x, y) == meet[x, y], (x, y)
        assert lat.join(x, y) == join[x, y], (x, y)


def test_kernel_matches_naive_lattice_on_bundled_lattices():
    lattices = [FIXTURES[name]().lattice for name in sorted(FIXTURES)]
    lattices += [make() for make in SMALL_LATTICES.values()]
    for lat in lattices:
        for order in (lat, lat.dual()):
            _assert_same_lattice(order, _naive(order))


@st.composite
def cover_lists(draw):
    """Drawn cover lists in three shapes: any covers and bounds (often
    cyclic or unbounded); covers going up the declared order with the
    bounds joined to everything (always a bounded poset); and two or three
    middle layers, each element covered by and covering at least one
    element of the next and previous layer, declared in any order (often
    without unique meets or joins, sometimes both for one pair)."""
    shape = draw(st.sampled_from(["any", "upward", "layered"]))
    if shape == "layered":
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
        layers = [[f"m{k}_{i}" for i in range(size)] for k, size in enumerate(sizes)]
        covers = [("0", x) for x in layers[0]] + [(x, "1") for x in layers[-1]]
        for below, above in zip(layers, layers[1:]):
            for x in below:
                ups = draw(st.lists(st.sampled_from(above), min_size=1, unique=True))
                covers += [(x, y) for y in ups]
            covered = {y for _, y in covers}
            covers += [(draw(st.sampled_from(below)), y) for y in above if y not in covered]
        els = draw(st.permutations(["0", *(x for layer in layers for x in layer), "1"]))
        return els, draw(st.permutations(covers)), "0", "1"
    n = draw(st.integers(1, 6))
    els = [f"v{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    if shape == "upward":
        covers = [(els[min(p)], els[max(p)]) for p in pairs if p[0] != p[1]]
        covers += [(els[0], x) for x in els[1:]] + [(x, els[-1]) for x in els[1:-1]]
        return els, draw(st.permutations(covers)), els[0], els[-1]
    covers = [(els[i], els[j]) for i, j in pairs]
    return els, covers, draw(st.sampled_from(els)), draw(st.sampled_from(els))


@settings(max_examples=400, deadline=None)
@given(cover_lists())
def test_kernel_matches_naive_lattice_on_drawn_covers(doc):
    try:
        naive = naive_lattice(*doc)
    except LatuniError as exc:
        with pytest.raises(LatuniError) as err:
            build_lattice(*doc)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        assert getattr(err.value, "pair", None) == getattr(exc, "pair", None)
        return
    _assert_same_lattice(build_lattice(*doc), naive)


def _assert_same_report(table: FullBinOpTable, leq):
    lat = table.lattice
    expected = naive_uninorm_report(lat.elements, leq, table.table, table.neutral)
    assert validate_uninorm(table).as_dict() == expected


def test_validate_uninorm_matches_naive_on_l2_sweep():
    fx = FIXTURES["l2"]()
    leq, _, _ = _naive(fx.lattice)
    boundary = join_tconorm(fx.lattice, fx.e)
    tables = 0
    for spec, _ in enumerate_admissible_pairs(fx.lattice, fx.e, Family.CLO, boundary):
        _assert_same_report(construct(spec), leq)
        tables += 1
    assert tables == 3513


@pytest.mark.parametrize("name", sorted(TABLES))
def test_validate_uninorm_matches_naive_on_corrupted_golden_tables(name):
    lat = FIXTURES[name]().lattice
    leq, _, _ = _naive(lat)
    _, golden = TABLES[name]
    _assert_same_report(FullBinOpTable(lat, dict(golden), neutral="e"), leq)
    for cell, value in golden.items():
        for other in lat.elements:
            if other != value:
                _assert_same_report(FullBinOpTable(lat, {**golden, cell: other}, neutral="e"), leq)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_uninorm_matches_naive_on_drawn_tables(data):
    lat = SMALL_LATTICES[data.draw(st.sampled_from(sorted(SMALL_LATTICES)))]()
    els = lat.elements
    e = data.draw(st.sampled_from(els))
    value = st.sampled_from(els)
    table = {}
    # Mostly commutative tables with e neutral, so that the associativity
    # and monotonicity scans run past their first cells.
    symmetric, neutral = data.draw(st.booleans()), data.draw(st.booleans())
    for x in els:
        for y in els:
            mirrored = symmetric and (y, x) in table
            table[x, y] = table[y, x] if mirrored else data.draw(value)
    if neutral:
        for x in els:
            table[e, x] = table[x, e] = x
    _assert_same_report(FullBinOpTable(lat, table, neutral=e), _naive(lat)[0])


# -- unknown elements ---------------------------------------------------------

def _unknown(call, *args):
    with pytest.raises(UnknownElement) as err:
        call(*args)
    return err.value.element


def test_lattice_queries_name_the_first_unknown_element(fx_l1):
    lat = fx_l1.lattice
    for order in (lat, lat.dual()):
        for query in (order.leq, order.meet, order.join, order.incomparable):
            assert _unknown(query, "zz", "yy") == "zz"
            assert _unknown(query, "zz", "e") == "zz"
            assert _unknown(query, "e", "yy") == "yy"
        assert _unknown(order.interval, IntervalSpec("zz", "yy")) == "zz"
        assert _unknown(order.interval, IntervalSpec("0", "yy")) == "yy"
        assert _unknown(order.index, "zz") == "zz"
        assert _unknown(order.incomparables, "zz") == "zz"
    assert lat.dual().dual() is lat


def test_validate_uninorm_names_the_first_missing_cell_or_unknown_value(fx_l1):
    lat = fx_l1.lattice
    _, golden = TABLES["l1"]
    # Row-major over l1's declared order 0 a b e m k s n j 1: row k before row j.
    missing = {cell: v for cell, v in golden.items() if cell not in (("j", "a"), ("k", "0"))}
    assert _unknown(validate_uninorm, FullBinOpTable(lat, missing, neutral="e")) == ("k", "0")
    strange = {**golden, ("j", "a"): "yy", ("k", "0"): "zz"}
    assert _unknown(validate_uninorm, FullBinOpTable(lat, strange, neutral="e")) == "zz"
    both = {**missing, ("b", "0"): "ww"}
    assert _unknown(validate_uninorm, FullBinOpTable(lat, both, neutral="e")) == "ww"
    assert _unknown(validate_uninorm, FullBinOpTable(lat, dict(golden), neutral="zz")) == "zz"
