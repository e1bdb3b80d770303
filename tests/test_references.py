"""The integer lattice kernel against the naive string-keyed references.

``naive.py`` holds the order, meet/join and axiom scans as plain set and
dict computations; here they are compared with ``build_lattice``,
``validate_uninorm``, ``validate_unary``, ``validate_partial`` and
``classify`` on the bundled lattices, on every table of an l2 sweep, on
every self-map of the small lattices, on every uninorm of the small
lattices, on one-cell corruptions of the golden tables and of the join
t-conorms and meet t-norms, on operators of chains of 256 and 257
elements, and on drawn inputs.
"""

import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from latuni import (
    CLOSURE,
    INTERIOR,
    TCONORM,
    TNORM,
    Family,
    FullBinOpTable,
    IntervalSpec,
    build_lattice,
    classify,
    construct,
    join_tconorm,
    meet_tnorm,
    reference_karacal_mesiar,
    validate_partial,
    validate_unary,
    validate_uninorm,
)
from latuni.errors import AxiomViolation, LatuniError, UnknownElement
from latuni.fixtures import FIXTURES, SMALL_LATTICES, chain, chain_product
from latuni.lattice import case_partition
from latuni.search import brute_force_uninorms, enumerate_admissible_pairs
from naive import (
    naive_classify,
    naive_lattice,
    naive_uninorm_report,
    naive_validate_partial,
    naive_validate_unary,
)
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


def test_kernel_matches_naive_lattice_on_chain_products():
    """Products of chains up to 4x4 and 4x5, each also built in its dual
    from the reversed covers."""
    shapes = [(a, b) for a in range(1, 5) for b in range(1, 5)] + [(4, 5)]
    for a, b in shapes:
        lat = chain_product(a, b)
        dual_covers = [(hi, lo) for lo, hi in lat.covers]
        for doc in ((lat.elements, lat.covers, lat.bottom, lat.top), (lat.elements, dual_covers, lat.top, lat.bottom)):
            _assert_same_lattice(build_lattice(*doc), naive_lattice(*doc))


def _assert_same_classes(u: FullBinOpTable, leq):
    """classify's flags and whole witness lists, in order, against the naive rule."""
    lat = u.lattice
    expected = naive_classify(lat.elements, leq, u.table, u.neutral, lat.bottom, lat.top)
    assert classify(u).as_dict() == expected


@pytest.mark.parametrize("name", sorted(SMALL_LATTICES))
def test_classify_matches_naive_on_every_small_uninorm(name):
    lat = SMALL_LATTICES[name]()
    leq, _, _ = _naive(lat)
    found = 0
    for e in lat.elements:
        for u in brute_force_uninorms(lat, e):
            _assert_same_classes(u, leq)
            found += 1
    assert found


@pytest.mark.parametrize("name", sorted(TABLES))
def test_classify_matches_naive_on_golden_and_meet_tables(name):
    """The golden table at e, and the meet table with the top as neutral
    element, where nothing lies above the neutral element."""
    lat = FIXTURES[name]().lattice
    leq, _, _ = _naive(lat)
    _, golden = TABLES[name]
    _assert_same_classes(FullBinOpTable(lat, dict(golden), neutral="e"), leq)
    meet = {(x, y): lat.meet(x, y) for x in lat.elements for y in lat.elements}
    _assert_same_classes(FullBinOpTable(lat, meet, neutral=lat.top), leq)


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
# A repeated id is reported first, naming its first repeat in declared order.
@example((["0", "b", "a", "b", "a", "1"], [("0", "a"), ("a", "b"), ("b", "1")], "0", "1"))
@example((["0", "0", "1"], [("0", "z")], "0", "1"))
# No elements: the bottom is reported as unknown, not a fabricated pair.
@example(([], [], "0", "1"))
# A self-cover is no cycle: a one-element lattice, and a cycle beside a
# self-cover is named by its own elements.
@example((["v0"], [("v0", "v0")], "v0", "v0"))
@example((["v0", "v1", "v2"], [("v0", "v0"), ("v0", "v1"), ("v1", "v2"), ("v2", "v1")], "v0", "v2"))
# A repeated cover is one cover.
@example((["0", "a", "1"], [("0", "a"), ("a", "1"), ("0", "a")], "0", "1"))
# a and b have neither a unique meet nor a unique join: the meet is named.
@example((
    ["0", "a", "b", "p", "q", "r", "s", "1"],
    [("0", "p"), ("0", "q"), ("p", "a"), ("p", "b"), ("q", "a"), ("q", "b"),
     ("a", "r"), ("a", "s"), ("b", "r"), ("b", "s"), ("r", "1"), ("s", "1")],
    "0",
    "1",
))
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


# -- operators and t-(co)norms ------------------------------------------------

# (lattice, neutral element): the fixtures and three chain products.
SITES = {
    **{name: (lambda name=name: FIXTURES[name]().lattice, "e") for name in sorted(FIXTURES)},
    "p4x5": (lambda: chain_product(4, 5), "p2_2"),
    "p5x6": (lambda: chain_product(5, 6), "p2_3"),
    "p6x7": (lambda: chain_product(6, 7), "p3_3"),
}
MISSING = object()


@functools.cache
def _site(name):
    """The lattice of a site and its naive (leq, meet, join), built once."""
    make, e = SITES[name]
    lat = make()
    return lat, e, _naive(lat)


def _assert_same_outcome(call, reference):
    """Both return the same value, or both raise the same exception type
    with the same message and attributes (axiom name, witness, element).
    A TypeError, such as an unhashable id, counts as an outcome too."""
    try:
        expected = reference()
    except (LatuniError, TypeError) as exc:
        with pytest.raises((LatuniError, TypeError)) as err:
            call()
        assert type(err.value) is type(exc)
        assert vars(err.value) == vars(exc)
        assert str(err.value) == str(exc)
    else:
        assert call() == expected


def _assert_same_unary(lat, naive, kind, mapping):
    leq, meet, join = naive
    _assert_same_outcome(
        lambda: validate_unary(lat, kind, mapping).mapping,
        lambda: naive_validate_unary(lat.elements, leq, meet, join, kind, mapping),
    )


def _assert_same_partial(lat, leq, domain, role, table):
    _assert_same_outcome(
        lambda: validate_partial(lat, domain, role, table).table,
        lambda: naive_validate_partial(lat.elements, leq, domain.low, domain.high, role, table),
    )


def test_validate_uninorm_matches_naive_on_corrupted_chain_product_table():
    """Monotonicity is decided on the covers, and a failing table rescanned
    at the columns where a cover fails: every one-cell corruption of the
    Karacal-Mesiar table on the 4x5 chain product keeps the naive report."""
    lat, e, (leq, _, _) = _site("p4x5")
    km = reference_karacal_mesiar(lat, e, join_tconorm(lat, e), "s").table
    _assert_same_report(FullBinOpTable(lat, km, neutral=e), leq)
    for cell, value in km.items():
        for other in lat.elements:
            if other != value:
                _assert_same_report(FullBinOpTable(lat, {**km, cell: other}, neutral=e), leq)


def test_validate_uninorm_matches_naive_on_sampled_corruptions_of_the_6x7_table():
    """The 42-element Karacal-Mesiar table on the 6x7 chain product and a
    seeded sample of its one-cell corruptions, ten in its first 21 rows
    and ten past them."""
    lat, e, (leq, _, _) = _site("p6x7")
    els = lat.elements
    km = reference_karacal_mesiar(lat, e, join_tconorm(lat, e), "s").table
    _assert_same_report(FullBinOpTable(lat, km, neutral=e), leq)
    rng = random.Random(0)
    for rows in (els[:21], els[21:]):
        for _ in range(10):
            cell = rng.choice(rows), rng.choice(els)
            other = rng.choice([v for v in els if v != km[cell]])
            _assert_same_report(FullBinOpTable(lat, {**km, cell: other}, neutral=e), leq)


@pytest.mark.parametrize("name", ["p4x5", "p5x6", "p6x7"])
def test_classify_matches_naive_on_karacal_mesiar_tables(name):
    lat, e, (leq, _, _) = _site(name)
    for side, boundary in (("s", join_tconorm(lat, e)), ("t", meet_tnorm(lat, e))):
        _assert_same_classes(reference_karacal_mesiar(lat, e, boundary, side), leq)


def test_validate_uninorm_matches_naive_with_a_transitive_cover():
    """A cover list may hold more than the Hasse edges; any generating set
    of the order decides monotonicity the same.  The join and meet tables
    of the pentagon with one cell changed, or a cell and its mirror, so that
    a table fails at one column or at two."""
    elements = ["0", "a", "b", "c", "1"]
    covers = [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1"), ("0", "b")]
    lat = build_lattice(elements, covers, "0", "1")
    assert len(lat.covers) == 6
    leq, _, _ = _naive(lat)
    for op in (lat.join, lat.meet):
        table = {(x, y): op(x, y) for x in elements for y in elements}
        for (x, y), other in itertools.product(table, elements):
            for bad in ({**table, (x, y): other}, {**table, (x, y): other, (y, x): other}):
                for e in elements:
                    _assert_same_report(FullBinOpTable(lat, bad, neutral=e), leq)


@pytest.mark.parametrize("name", sorted(SMALL_LATTICES))
def test_validate_unary_matches_naive_on_every_self_map(name):
    lat = SMALL_LATTICES[name]()
    naive = _naive(lat)
    for values in itertools.product(lat.elements, repeat=len(lat)):
        mapping = dict(zip(lat.elements, values))
        for kind in (CLOSURE, INTERIOR):
            _assert_same_unary(lat, naive, kind, mapping)


@st.composite
def unary_cases(draw):
    """A site, a kind and a join-with-k closure or meet-with-k interior
    operator with a few values changed, then sometimes an entry dropped, a
    value unknown or an unknown key added, so that each axiom and each
    unknown-id check fails somewhere."""
    name = draw(st.sampled_from(sorted(SITES)))
    lat = _site(name)[0]
    els = lat.elements
    kind = draw(st.sampled_from([CLOSURE, INTERIOR]))
    k = draw(st.sampled_from(els))
    with_k = lat.join if kind == CLOSURE else lat.meet
    mapping = {x: with_k(x, k) for x in els}
    changes = st.tuples(st.sampled_from(els), st.sampled_from(els))
    for x, v in draw(st.lists(changes, max_size=3)):
        mapping[x] = v
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        defect = draw(st.sampled_from(["missing", "unknown value", "unknown key"]))
        x = draw(st.sampled_from(els))
        if defect == "missing":
            mapping.pop(x, None)
        elif defect == "unknown value":
            mapping[x] = "zz"
        else:
            mapping["yy"] = x
    return name, kind, mapping


# l2's identity map with ids changed.  The map's ids are read in one pass,
# and a map that fails it is rescanned for the first error: a missing
# element wins over an unknown key, also when the two keep the map's size.
_L2 = ("0", "a", "e", "m", "k", "s", "n", "b", "1")
_L2_IDENTITY = {x: x for x in _L2}


@settings(max_examples=300, deadline=None)
@given(unary_cases())
@example(("l2", CLOSURE, {**{x: x for x in _L2 if x != "e"}, "yy": "e"}))
@example(("l2", INTERIOR, {**{x: x for x in _L2 if x != "e"}, "yy": "e"}))
# Every element and one unknown key.
@example(("l2", CLOSURE, {**_L2_IDENTITY, "yy": "0"}))
# An unknown value; an unknown value after an unknown key.
@example(("l2", CLOSURE, {**_L2_IDENTITY, "k": "zz"}))
@example(("l2", INTERIOR, {**_L2_IDENTITY, "yy": "0", "k": "zz"}))
# An unhashable value raises TypeError; an unknown key before it wins, and
# so does a missing element after it, also when the two keep the map's size.
@example(("l2", CLOSURE, {**_L2_IDENTITY, "k": ["k"]}))
@example(("l2", CLOSURE, {"yy": "0", **_L2_IDENTITY, "k": ["k"]}))
@example(("l2", CLOSURE, {**{x: x for x in _L2 if x != "1"}, "a": ["a"], "yy": "1"}))
# A map given as a list of pairs: an operator, and one failing CL2.
@example(("l2", CLOSURE, list(_L2_IDENTITY.items())))
@example(("l2", CLOSURE, [*_L2_IDENTITY.items(), ("0", "b")]))
def test_validate_unary_matches_naive_on_drawn_maps(case):
    name, kind, mapping = case
    lat, _, naive = _site(name)
    _assert_same_unary(lat, naive, kind, mapping)


def _naive_chain(n):
    """The naive (leq, meet, join) of ``fixtures.chain(n)``, given by index:
    c_i <= c_j when i <= j.  ``naive_lattice`` takes tens of seconds past
    256 elements."""
    names = [f"c{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    leq = {(names[i], names[j]) for i, j in pairs if i <= j}
    meet = {(names[i], names[j]): names[min(i, j)] for i, j in pairs}
    join = {(names[i], names[j]): names[max(i, j)] for i, j in pairs}
    return leq, meet, join


@pytest.mark.parametrize("n", [256, 257])
def test_validate_unary_matches_naive_on_long_chains(n):
    """At 256 elements the rows are bytes, one past it wide rows.  A join-with-k
    closure and a meet-with-k interior operator on the chain, and one-value
    corruptions of each that fail axiom 1, 2 and 3."""
    lat = chain(n)
    naive = _naive_chain(n)
    c = lat.elements
    m = n // 2
    # (element, new value) for each kind: the value below the element
    # breaks CL1; an image raised to the top breaks CL2 (the map is no
    # longer monotone); the fixed point k moved one step out breaks CL3.
    # Dually for the interior operator.
    corruptions = {
        CLOSURE: [(c[m + 3], c[m + 2]), (c[m - 3], c[-1]), (c[m], c[m + 1])],
        INTERIOR: [(c[m - 3], c[m - 2]), (c[m + 3], c[0]), (c[m], c[m - 1])],
    }
    for kind, with_k in ((CLOSURE, lat.join), (INTERIOR, lat.meet)):
        op = {x: with_k(x, c[m]) for x in c}
        _assert_same_unary(lat, naive, kind, op)
        name = "CL" if kind == CLOSURE else "IN"
        for (x, v), axiom in zip(corruptions[kind], "123"):
            bad = {**op, x: v}
            with pytest.raises(AxiomViolation) as err:
                validate_unary(lat, kind, bad)
            assert err.value.axiom == f"{name}{axiom}"
            _assert_same_unary(lat, naive, kind, bad)


@pytest.mark.parametrize("name", sorted(SITES))
def test_validate_partial_matches_naive_on_corrupted_boundaries(name):
    lat, e, (leq, _, _) = _site(name)
    for boundary in (join_tconorm(lat, e), meet_tnorm(lat, e)):
        good = boundary.table
        _assert_same_partial(lat, leq, boundary.domain, boundary.role, good)
        for cell, value in good.items():
            for other in lat.elements:
                if other != value:
                    table = {**good, cell: other}
                    _assert_same_partial(lat, leq, boundary.domain, boundary.role, table)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_partial_matches_naive_on_drawn_tables(data):
    """A commutative table with the role's neutral element on a drawn
    interval, values in the interval, then up to three cells changed to any
    element, to an unknown id, or dropped."""
    names = sorted(SMALL_LATTICES) + sorted(FIXTURES)
    name = data.draw(st.sampled_from(names))
    lat = SMALL_LATTICES[name]() if name in SMALL_LATTICES else FIXTURES[name]().lattice
    els = lat.elements
    low = data.draw(st.sampled_from(els))
    high = data.draw(st.sampled_from([y for y in els if lat.leq(low, y)]))
    role = data.draw(st.sampled_from([TNORM, TCONORM]))
    domain = IntervalSpec(low, high)
    dom = lat.interval(domain)
    neutral = high if role == TNORM else low
    table = {}
    for x in dom:
        for y in dom:
            if x == neutral or y == neutral:
                table[x, y] = y if x == neutral else x
            else:
                table[x, y] = table[y, x] if (y, x) in table else data.draw(st.sampled_from(dom))
    cells = st.tuples(st.sampled_from(dom), st.sampled_from(dom))
    changes = st.tuples(cells, st.sampled_from(els + ("zz", MISSING)))
    for cell, v in data.draw(st.lists(changes, max_size=3)):
        if v is MISSING:
            table.pop(cell, None)
        else:
            table[cell] = v
    _assert_same_partial(lat, _naive(lat)[0], domain, role, table)


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
        assert _unknown(case_partition, order, "zz", False) == "zz"
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
