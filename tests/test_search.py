import hashlib
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from latuni import (
    CLOSURE,
    INTERIOR,
    BoundedLattice,
    ConstructionSpec,
    Family,
    FullBinOpTable,
    IntervalSpec,
    TCONORM,
    TNORM,
    Uninorm,
    binop,
    build_lattice,
    check_characteristic,
    check_hypotheses,
    classify,
    construct,
    join_tconorm,
    meet_tnorm,
    search,
    validate_partial,
    validate_uninorm,
)
from latuni.errors import (
    AxiomViolation,
    InvalidArgument,
    LatticeTooLarge,
    MismatchedLattice,
    NotAUninorm,
    UnknownElement,
)
from latuni.fixtures import FIXTURES, SMALL_LATTICES, chain, chain_product, diamond, m3, n5
from latuni.search import (
    _monotone_commutative_tables,
    brute_force_uninorms,
    enumerate_admissible_pairs,
    enumerate_partial_binops,
    enumerate_unary,
)
from naive import naive_lattice, naive_uninorm_report, naive_validate_partial
from reference_tables import L1_TABLE, L2_TABLE
from search_digest import search_digest


def all_unary_maps(lat, kind):
    """Independent oracle: filter every self-map by the raw axioms of kind.

    Closure: extensive, join-preserving, idempotent.  Interior:
    contractive, meet-preserving, idempotent.
    """
    if kind == CLOSURE:
        below, op = (lambda x, fx: lat.leq(x, fx)), lat.join
    else:
        below, op = (lambda x, fx: lat.leq(fx, x)), lat.meet
    out = []
    for values in itertools.product(lat.elements, repeat=len(lat.elements)):
        f = dict(zip(lat.elements, values))
        if not all(below(x, f[x]) for x in lat.elements):
            continue
        if not all(
            f[op(x, y)] == op(f[x], f[y])
            for x in lat.elements
            for y in lat.elements
        ):
            continue
        if not all(f[f[x]] == f[x] for x in lat.elements):
            continue
        out.append(f)
    return out


# -- unary enumeration -------------------------------------------------------

def capped_diamond():
    """The diamond 0 < x0, x1 < x2 under a new top 1: the smallest lattice
    where a closure search that checks f(x0 v x1) = f(x0) v f(x1) only at
    the node assigning x1 would let through the map fixing 0, x0 and x1 and
    sending x2 and 1 to 1."""
    return build_lattice(
        ["0", "x0", "x1", "x2", "1"],
        [("0", "x0"), ("0", "x1"), ("x0", "x2"), ("x1", "x2"), ("x2", "1")],
        "0",
        "1",
    )


# Each lattice with its closure and interior operator counts.
ORACLE_CASES = [(diamond, 7, 7), (m3, 12, 12), (n5, 13, 13), (capped_diamond, 13, 14)]


@pytest.mark.parametrize(
    "kind,factory,count",
    [pytest.param(CLOSURE, f, c, id=f"{f.__name__}-{c}") for f, c, _ in ORACLE_CASES]
    + [pytest.param(INTERIOR, f, c, id=f"interior-{f.__name__}-{c}") for f, _, c in ORACLE_CASES],
)
def test_closure_counts_match_all_maps_oracle(kind, factory, count):
    lat = factory()
    expected = all_unary_maps(lat, kind)
    got = list(enumerate_unary(lat, kind))
    assert len(expected) == count
    assert sorted(op.mapping.items() for op in got) == sorted(
        f.items() for f in expected
    )


def test_enumeration_is_deterministic():
    lat = n5()
    first = [op.mapping for op in enumerate_unary(lat, CLOSURE)]
    second = [op.mapping for op in enumerate_unary(lat, CLOSURE)]
    assert first == second


def test_identity_comes_first():
    lat = diamond()
    ops = enumerate_unary(lat, CLOSURE)
    assert next(iter(ops)).mapping == {x: x for x in lat.elements}


def test_interior_enumeration_duals_closure_enumeration():
    lat = n5()
    closures = {op.image for op in enumerate_unary(lat, CLOSURE)}
    assert closures == {op.image for op in enumerate_unary(lat.dual(), INTERIOR)}


def test_unary_guard():
    with pytest.raises(LatticeTooLarge):
        next(iter(enumerate_unary(chain(13), CLOSURE)))


def _unary_search_lattices():
    """The small lattices, l1-l3 and the capped diamond, by name."""
    lattices = {name: make() for name, make in sorted(SMALL_LATTICES.items())}
    lattices.update((name, make().lattice) for name, make in sorted(FIXTURES.items()))
    lattices["capped_diamond"] = capped_diamond()
    return lattices


def test_unary_search_certifies_each_leaf_once(monkeypatch):
    """The operator search decides the closure axioms as it goes, so every
    leaf is an operator: validate_unary is called once per yielded operator."""
    calls = []
    validate_unary = search.validate_unary

    def counted(*args):
        calls.append(args)
        return validate_unary(*args)

    monkeypatch.setattr(search, "validate_unary", counted)
    for name, lat in _unary_search_lattices().items():
        for kind in (CLOSURE, INTERIOR):
            calls.clear()
            assert len(list(enumerate_unary(lat, kind))) == len(calls), (name, kind)


def test_unary_search_matches_pinned_digest():
    """One sha256 over every operator enumerate_unary yields, in order, of
    both kinds, on the lattices above and the 3x4 and 2x6 chain products:
    a prune that cuts only subtrees without an operator keeps it."""
    lattices = _unary_search_lattices()
    lattices.update(chain3x4=chain_product(3, 4), chain2x6=chain_product(2, 6))
    records = [
        [name, kind, list(op.image)]
        for name, lat in lattices.items()
        for kind in (CLOSURE, INTERIOR)
        for op in enumerate_unary(lat, kind)
    ]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (digest, len(records)) == ("fa0a0af21b4bc7ab2fe04536b137d61316999d93850d9788ce7aa50c463b7b1a", 2740)


# -- pair sweeps -------------------------------------------------------------

def test_admissible_pairs_tags_match_construction_on_diamond():
    lat = diamond()
    boundary = join_tconorm(lat, "a")
    seen = 0
    for spec, char_pass in enumerate_admissible_pairs(
        lat, "a", Family.CLO, boundary
    ):
        seen += 1
        assert validate_uninorm(construct(spec)).ok == char_pass
    assert seen > 0


def test_iff_sweep_script_runs_one_sweep_clean(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_iff_sweep.py"
    spec = importlib.util.spec_from_file_location("run_iff_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--fixture", "l2", "--family", "clo2"]) == 0
    out = capsys.readouterr().out
    assert "pairs=  3513 uninorms=   792 mismatches=0" in out
    assert "all sweeps clean" in out


def test_admissible_pairs_raise_the_spec_errors_on_the_first_pair(fx_l2):
    lat = fx_l2.lattice
    boundary = join_tconorm(lat, "e")

    def first(e, boundary):
        return next(enumerate_admissible_pairs(lat, e, Family.CLO, boundary), None)

    with pytest.raises(MismatchedLattice):
        first("zz", boundary)
    for bound in (lat.bottom, lat.top):
        with pytest.raises(InvalidArgument):
            first(bound, boundary)
    with pytest.raises(MismatchedLattice):
        first("e", join_tconorm(lat.dual(), "e"))


def reference_pairs(lat, e, family, boundary):
    """Independent reference: every ordered pool pair, in pool order, that
    passes the hypotheses, with its characteristic verdict."""
    pool = list(enumerate_unary(lat, family.kind))
    for op_low in pool:
        for op_inc in pool:
            spec = ConstructionSpec(family, lat, e, boundary, op_low, op_inc)
            if check_hypotheses(spec).passed:
                yield spec, check_characteristic(spec).passed


def _family_boundary(lat, e, family):
    return join_tconorm(lat, e) if family.closure_based else meet_tnorm(lat, e)


def _certified_boundaries(lat, e, family):
    """Every certified boundary of the family at e, in enumeration order."""
    domain = IntervalSpec(e, lat.top) if family.closure_based else IntervalSpec(lat.bottom, e)
    return list(enumerate_partial_binops(lat, domain, family.role))


def _stream_lattice(name):
    return FIXTURES[name]().lattice if name in FIXTURES else SMALL_LATTICES[name]()


def _other_boundaries(name, e, family):
    """The positions of the certified boundaries other than join/meet."""
    lat = _stream_lattice(name)
    usual = _family_boundary(lat, e, family).table
    return [k for k, b in enumerate(_certified_boundaries(lat, e, family)) if b.table != usual]


# Join/meet never fails boundary_strict; the strict families also run over
# every other certified boundary, some of which do (l2's at e, and some on
# chain4, chain5 and n5), so that a dropped boundary row shows.  Each run
# takes the whole operator pool; its id ends in "capNone" for that reason.
STREAM_CASES = [
    pytest.param(name, e, family, None, id=f"{name}-{e}-{family.value}-capNone")
    for name, e in [
        (name, e) for name, make in sorted(SMALL_LATTICES.items()) for e in make().elements[1:-1]
    ] + [("l2", "e")]
    for family in Family
] + [
    pytest.param(name, e, family, k, id=f"{name}-{e}-{family.value}-boundary{k}-capNone")
    for name, e in [
        (name, e) for name, make in sorted(SMALL_LATTICES.items()) for e in make().elements[1:-1]
    ] + [("l2", "e")]
    for family in (Family.CLO_STRICT, Family.INT_STRICT)
    for k in _other_boundaries(name, e, family)
]


@pytest.mark.parametrize("name,e,family,boundary_at", STREAM_CASES)
def test_admissible_pairs_match_checking_every_pair(name, e, family, boundary_at, monkeypatch):
    """The search yields the reference stream, which checks every pool
    pair's hypotheses, and calls ``check_hypotheses`` once per run: its
    comparability filter is exact.  ``boundary_at`` picks a certified
    boundary by position; None is join/meet."""
    lat = _stream_lattice(name)
    if boundary_at is None:
        boundary = _family_boundary(lat, e, family)
    else:
        boundary = _certified_boundaries(lat, e, family)[boundary_at]

    def stream(pairs):
        return [(s.op_low.mapping, s.op_inc.mapping, verdict) for s, verdict in pairs]

    expected = stream(reference_pairs(lat, e, family, boundary))
    checked = []

    def counted(spec):
        checked.append(spec)
        return check_hypotheses(spec)

    monkeypatch.setattr(search, "check_hypotheses", counted)
    assert stream(enumerate_admissible_pairs(lat, e, family, boundary)) == expected
    assert len(checked) == 1


@pytest.mark.parametrize("family", list(Family))
def test_admissible_pairs_on_a_wrong_boundary_domain_are_none(fx_l2, family):
    lat = fx_l2.lattice
    boundary = _family_boundary(lat, "a", family)
    assert list(reference_pairs(lat, "e", family, boundary)) == []
    assert list(enumerate_admissible_pairs(lat, "e", family, boundary)) == []


@pytest.mark.parametrize("family", list(Family))
def test_admission_checks_the_characteristic_once_per_pool_operator(fx_l2, family, monkeypatch):
    """Each pool operator's characteristic rows are decided exactly once
    per run, and none are when nothing is admitted."""
    lat = fx_l2.lattice
    calls = []

    def counted(spec):
        calls.append(spec)
        return check_characteristic(spec)

    monkeypatch.setattr(search, "check_characteristic", counted)
    boundary = _family_boundary(lat, "e", family)
    pool = len(list(enumerate_unary(lat, family.kind)))
    pairs = list(enumerate_admissible_pairs(lat, "e", family, boundary))
    assert len(pairs) > pool and len(calls) == pool
    calls.clear()
    assert list(enumerate_admissible_pairs(lat, "e", family, _family_boundary(lat, "a", family))) == []
    assert calls == []


def test_admissible_pairs_includes_fixture_pair(fx_l2):
    lat = fx_l2.lattice
    target = (fx_l2.cl1.mapping, fx_l2.cl2.mapping)
    hits = [
        char_pass
        for spec, char_pass in enumerate_admissible_pairs(
            lat, "e", Family.CLO, fx_l2.tconorm
        )
        if (spec.op_low.mapping, spec.op_inc.mapping) == target
    ]
    assert hits == [True]


def test_admissible_pairs_excludes_join_with_e_as_fail(fx_l2):
    lat = fx_l2.lattice
    push = {x: lat.join(x, "e") for x in lat.elements}
    hits = [
        char_pass
        for spec, char_pass in enumerate_admissible_pairs(
            lat, "e", Family.CLO, fx_l2.tconorm
        )
        if spec.op_low.mapping == push and spec.op_inc.mapping == push
    ]
    assert hits == [False]


# -- binop enumeration -------------------------------------------------------

def test_two_element_domain_has_unique_tconorm():
    lat = chain(3)
    domain = IntervalSpec("c1", "c2")
    ops = list(enumerate_partial_binops(lat, domain, TCONORM))
    assert len(ops) == 1
    assert ops[0]("c1", "c2") == "c2"


def test_three_chain_tconorms():
    lat = chain(3)
    domain = IntervalSpec("c0", "c2")
    ops = list(enumerate_partial_binops(lat, domain, TCONORM))
    assert len(ops) == 2
    assert any(
        all(op(x, y) == lat.join(x, y) for x in lat.elements for y in lat.elements)
        for op in ops
    )


def test_tnorm_enumeration_duals_tconorm():
    lat = chain(4)
    n_conorms = len(list(enumerate_partial_binops(lat, IntervalSpec("c0", "c3"), TCONORM)))
    n_norms = len(list(enumerate_partial_binops(lat, IntervalSpec("c0", "c3"), TNORM)))
    assert n_conorms == n_norms


def commutative_tables(dom, neutral):
    """Independent oracle: every commutative table on ``dom`` with identity
    ``neutral``, the cells off the neutral row and column taken upper
    triangle row-major, each over ``dom`` in order, in lexicographic order."""
    cells = [(x, y) for i, x in enumerate(dom) for y in dom[i:] if neutral not in (x, y)]
    for values in itertools.product(dom, repeat=len(cells)):
        table = {(neutral, x): x for x in dom}
        table.update({(x, neutral): x for x in dom})
        for (x, y), v in zip(cells, values):
            table[x, y] = table[y, x] = v
        yield table


def _naive_leq(lat):
    return naive_lattice(lat.elements, lat.covers, lat.bottom, lat.top)[0]


# The members of SMALL_LATTICES with at most 4 elements: at most 4**6
# commutative tables for each neutral element.
SMALL_DFS_LATTICES = {name: make for name, make in SMALL_LATTICES.items() if len(make()) <= 4}


@pytest.mark.parametrize("name", sorted(SMALL_DFS_LATTICES) + sorted(FIXTURES))
def test_partial_binops_match_filtering_every_commutative_table(name):
    """On every interval of at most 4 elements, both roles: the search's
    leaves are exactly the monotone associative tables, and its
    t-(co)norms the tables the naive checks certify, both in lexicographic
    order."""
    lat = SMALL_DFS_LATTICES[name]() if name in SMALL_DFS_LATTICES else FIXTURES[name]().lattice
    leq = _naive_leq(lat)
    intervals = 0
    for low, high in itertools.product(lat.elements, repeat=2):
        if (low, high) not in leq:
            continue
        domain = IntervalSpec(low, high)
        dom = lat.interval(domain)
        if len(dom) > 4:
            continue
        intervals += 1
        for role, neutral in ((TNORM, high), (TCONORM, low)):
            leaves, expected = [], []
            for table in commutative_tables(dom, neutral):
                report = naive_uninorm_report(dom, leq, table, neutral)
                if report["monotone"]["ok"] and report["associative"]["ok"]:
                    leaves.append(table)
                try:
                    naive_validate_partial(lat.elements, leq, low, high, role, table)
                except AxiomViolation:
                    continue
                expected.append(table)
            assert list(_monotone_commutative_tables(lat.interval_lattice(domain), neutral)) == leaves, (low, high, role)
            got = [p.table for p in enumerate_partial_binops(lat, domain, role)]
            assert got == expected, (low, high, role)
    assert intervals


@pytest.mark.parametrize("low_open, high_open", [(True, False), (False, True)])
@pytest.mark.parametrize("role", [TNORM, TCONORM])
def test_partial_binops_on_an_open_domain_raise_before_the_search(role, low_open, high_open, monkeypatch):
    """An open domain raises validate_partial's ValueError before the cap
    (chain(7)'s [c0,c6] has 7 elements) and before any table is searched."""
    monkeypatch.setattr(search, "_monotone_commutative_tables", None)
    for lat, domain in ((chain(4), IntervalSpec("c1", "c3", low_open, high_open)),
                        (chain(7), IntervalSpec("c0", "c6", low_open, high_open))):
        with pytest.raises(ValueError) as err:
            next(iter(enumerate_partial_binops(lat, domain, role)))
        assert str(err.value) == "partial operation domains must be closed intervals"
        with pytest.raises(ValueError) as err:
            validate_partial(lat, domain, role, {})
        assert str(err.value) == "partial operation domains must be closed intervals"


def test_binop_guard(monkeypatch):
    """A domain past the uninorm search's cap raises its LatticeTooLarge
    before any table is searched."""
    monkeypatch.setattr(search, "_monotone_commutative_tables", None)
    for role in (TNORM, TCONORM):
        with pytest.raises(LatticeTooLarge) as err:
            next(iter(enumerate_partial_binops(chain(6), IntervalSpec("c0", "c5"), role)))
        assert str(err.value) == "uninorm search capped at 5 elements"


def test_a_domain_past_the_cap_leaves_no_interval_lattice():
    """The cap is decided on the interval before its lattice is derived, so
    a refused search memoises no interval lattice on the parent."""
    for lat, spec in ((FIXTURES["l2"]().lattice, IntervalSpec("0", "1")), (chain(6), IntervalSpec("c0", "c5"))):
        with pytest.raises(LatticeTooLarge):
            next(iter(enumerate_partial_binops(lat, spec, TCONORM)))
        assert ("interval lattice", spec) not in lat._memo


# -- full uninorm search -----------------------------------------------------

def test_brute_force_uninorms_are_valid_and_deterministic():
    lat = diamond()
    first = list(brute_force_uninorms(lat, "a"))
    second = list(brute_force_uninorms(lat, "a"))
    assert first == second and first
    for u in first:
        report = validate_uninorm(u)
        assert report.ok and u.neutral == "a"


@pytest.mark.parametrize("name", sorted(SMALL_DFS_LATTICES))
def test_brute_force_uninorms_match_filtering_every_commutative_table(name):
    """The search's leaves are exactly the monotone associative tables,
    and its uninorms the tables passing every axiom, both in lexicographic
    order."""
    lat = SMALL_DFS_LATTICES[name]()
    leq = _naive_leq(lat)
    for e in lat.elements:
        tables = list(commutative_tables(lat.elements, e))
        reports = [naive_uninorm_report(lat.elements, leq, table, e) for table in tables]
        leaves = [
            table for table, report in zip(tables, reports)
            if report["monotone"]["ok"] and report["associative"]["ok"]
        ]
        expected = [
            table for table, report in zip(tables, reports)
            if all(check["ok"] for check in report.values())
        ]
        assert list(_monotone_commutative_tables(lat, e)) == leaves, e
        got = list(brute_force_uninorms(lat, e))
        assert [u.table for u in got] == expected and all(u.neutral == e for u in got), e


def test_searches_certify_only_the_tables_they_yield(monkeypatch):
    """The table search rejects the non-associative leaves itself, and a
    t-(co)norm is a uninorm on its interval lattice, so each
    validate_uninorm call certifies a uninorm or a t-(co)norm that is then
    yielded, and validate_partial is never called."""
    calls = {"uninorm": 0, "partial": 0}

    def counting(name, validator):
        def counted(*args):
            calls[name] += 1
            return validator(*args)
        return counted

    monkeypatch.setattr(search, "validate_uninorm", counting("uninorm", search.validate_uninorm))
    monkeypatch.setattr(binop, "validate_partial", counting("partial", binop.validate_partial))
    uninorms = partials = 0
    for make in SMALL_LATTICES.values():
        lat = make()
        for e in lat.elements:
            uninorms += len(list(brute_force_uninorms(lat, e)))
        for low, high in itertools.product(lat.elements, repeat=2):
            domain = IntervalSpec(low, high)
            if not lat.leq(low, high) or len(lat.interval(domain)) > 4:
                continue
            for role in (TNORM, TCONORM):
                partials += len(list(enumerate_partial_binops(lat, domain, role)))
    assert uninorms and partials and calls["uninorm"] == uninorms + partials
    assert calls["partial"] == 0 and not hasattr(search, "validate_partial")


def test_table_searches_ask_the_order_nothing(monkeypatch):
    """The table search reads the order from its lattice's bitmasks, so
    brute_force_uninorms and enumerate_partial_binops, whose validators
    read them too, make no BoundedLattice.leq call."""
    lattices = [make() for make in SMALL_LATTICES.values()]
    domains = [
        (lat, IntervalSpec(low, high))
        for lat in lattices
        for low, high in itertools.product(lat.elements, repeat=2)
        if lat.leq(low, high)
    ]
    calls = []
    leq = BoundedLattice.leq

    def counted(self, x, y):
        calls.append((x, y))
        return leq(self, x, y)

    monkeypatch.setattr(BoundedLattice, "leq", counted)
    found = 0
    for lat in lattices:
        for e in lat.elements:
            found += len(list(brute_force_uninorms(lat, e)))
    for lat, domain in domains:
        for role in (TNORM, TCONORM):
            found += len(list(enumerate_partial_binops(lat, domain, role)))
    assert found and calls == []


def test_classify_certifies_each_uninorm_once(monkeypatch, fx_l1):
    """classify checks the axioms of a plain table once and of a Uninorm
    from the search not again; the two are equal either way round, hash
    the same and get the same flags, and a broken plain table still raises
    NotAUninorm."""
    uninorms = []
    for make in SMALL_LATTICES.values():
        lat = make()
        for e in lat.elements:
            uninorms += brute_force_uninorms(lat, e)
    calls = []

    def counted(candidate):
        calls.append(candidate)
        return validate_uninorm(candidate)

    monkeypatch.setattr(binop, "validate_uninorm", counted)
    for u in uninorms:
        assert isinstance(u, Uninorm)
        plain = FullBinOpTable(u.lattice, dict(u.table), neutral=u.neutral)
        assert u == plain and plain == u and hash(u) == hash(plain)
        calls.clear()
        flags = classify(u).as_dict()
        assert len(calls) == 0
        assert classify(plain).as_dict() == flags
        assert len(calls) == 1
    broken = dict(L1_TABLE)
    broken["a", "j"] = broken["j", "a"] = "j"
    calls.clear()
    with pytest.raises(NotAUninorm):
        classify(FullBinOpTable(fx_l1.lattice, broken, neutral="e"))
    assert len(calls) == 1


def test_classify_reads_a_certified_table_by_id(monkeypatch, fx_l1, fx_l2):
    """classify reads a search Uninorm by id, with no _positions call, and
    a plain table with only the one validate_uninorm makes."""
    tables = [FullBinOpTable(fx_l1.lattice, dict(L1_TABLE), "e"), FullBinOpTable(fx_l2.lattice, dict(L2_TABLE), "e")]
    for make in SMALL_LATTICES.values():
        lat = make()
        for e in lat.elements:
            tables += brute_force_uninorms(lat, e)
    calls = []
    positions = binop._positions

    def counted(*args):
        calls.append(args)
        return positions(*args)

    monkeypatch.setattr(binop, "_positions", counted)
    for u in tables:
        calls.clear()
        classify(u)
        assert len(calls) == (0 if isinstance(u, Uninorm) else 1)


def test_searches_match_pinned_digest():
    """Every table both searches yield, in order, on the small lattices and
    l1-l3 (``search_digest.py``)."""
    assert search_digest() == ("8bbd20bca551624a3def962a295ff9c11270053c8998a2dc5dd3697653ef2b09", 1448)


@pytest.mark.parametrize(
    "make, counts",
    [(lambda: chain(6), [68, 51, 51, 68]), (lambda: chain_product(2, 3), [48, 123, 123, 48])],
    ids=["chain6", "chain2x3"],
)
def test_table_search_past_the_uninorm_cap(make, counts):
    """Six elements, past the brute-force cap of 5: at every e strictly
    between the bounds, every table the search yields is a uninorm, by
    validate_uninorm and by the naive checks, and their number is pinned."""
    lat = make()
    leq = _naive_leq(lat)
    found = []
    for e in lat.elements[1:-1]:
        tables = list(_monotone_commutative_tables(lat, e))
        for table in tables:
            assert validate_uninorm(FullBinOpTable(lat, table, neutral=e)).ok, (e, table)
            assert all(check["ok"] for check in naive_uninorm_report(lat.elements, leq, table, e).values())
        found.append(len(tables))
    assert found == counts


def test_table_search_order_past_the_uninorm_cap():
    """At every e strictly between the bounds of two 6-element and two
    7-element lattices, the table search's leaves are pinned in order: their
    counts, and one sha256 over each leaf's e and cells row-major.  Only at
    these sizes does the search backtrack across many completed rows."""
    digest = hashlib.sha256()
    counts = []
    for lat in (chain(6), chain_product(2, 3), chain(7), chain_product(2, 4)):
        els = lat.elements
        found = []
        for e in els[1:-1]:
            tables = list(_monotone_commutative_tables(lat, e))
            for table in tables:
                digest.update(json.dumps([e, [table[x, y] for x in els for y in els]]).encode() + b"\n")
            found.append(len(tables))
        counts.append(found)
    assert counts == [[68, 51, 51, 68], [48, 123, 123, 48], [308, 217, 194, 217, 308], [669, 510, 2489, 2489, 510, 669]]
    assert digest.hexdigest() == "7acc1881103a35cd0ec5f4101936944a03fc37cffbca55a1cd62a3248c20ccef"


def test_table_search_prunes_at_pinned_row_ends(monkeypatch):
    """The table search decides associativity at each row end, and how many
    row ends it reaches and passes is pinned: over the 14 (lattice, e) pairs
    of the small lattices with e strictly inside, then at every interior e
    of chain(6), chain_product(2, 3) and chain(7).  A check that defers a
    failing triple to a later row yields the same tables but visits more
    nodes, and is caught here."""
    checks = []
    row_associative = search._row_associative

    def counted(*args):
        checks.append(row_associative(*args))
        return checks[-1]

    monkeypatch.setattr(search, "_row_associative", counted)
    groups = [[make() for make in SMALL_LATTICES.values()], [chain(6)], [chain_product(2, 3)], [chain(7)]]
    found = []
    for lattices in groups:
        checks.clear()
        for lat in lattices:
            for e in lat.elements[1:-1]:
                for _ in _monotone_commutative_tables(lat, e):
                    pass
        found.append((len(checks), sum(checks)))
    assert found == [(1894, 1068), (1982, 829), (2886, 1171), (17040, 5008)]


def test_constructed_tables_appear_in_brute_force(fx_l1):
    lat = diamond()
    boundary = join_tconorm(lat, "a")
    everything = list(brute_force_uninorms(lat, "a"))
    for spec, char_pass in enumerate_admissible_pairs(lat, "a", Family.CLO, boundary):
        if char_pass:
            assert construct(spec) in everything


@pytest.mark.parametrize("factory,e", [(diamond, "a"), (n5, "b"), (n5, "c")])
def test_class_inclusions_hold_for_every_uninorm(factory, e):
    # membership in the plain or reversed boundary class forces membership
    # in the corresponding starred class
    lat = factory()
    for u in brute_force_uninorms(lat, e):
        m = classify(u)
        if m["u_max"].member or m["u_min_r"].member:
            assert m["u_max_star"].member
        if m["u_min"].member or m["u_max_r"].member:
            assert m["u_min_star"].member


def test_uninorm_guard():
    with pytest.raises(LatticeTooLarge):
        next(iter(brute_force_uninorms(chain(6), "c1")))


def test_brute_force_uninorms_rejects_an_unknown_neutral():
    uninorms = brute_force_uninorms(diamond(), "zz")
    with pytest.raises(UnknownElement) as info:
        next(uninorms)
    assert info.value.element == "zz"
