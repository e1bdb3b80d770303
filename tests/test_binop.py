import random
from dataclasses import replace
from itertools import islice

import pytest

from latuni import (
    ConstructionSpec,
    Family,
    FullBinOpTable,
    IntervalSpec,
    TCONORM,
    TNORM,
    check_associativity_partitioned,
    check_hypotheses,
    classify,
    construct,
    join_tconorm,
    meet_tnorm,
    strictness_check,
    validate_partial,
    validate_uninorm,
)
from latuni.errors import (
    AxiomViolation,
    NotAPartition,
    NotAUninorm,
    NotCommutative,
    OutOfDomainOutput,
)
from latuni.fixtures import FIXTURES, chain, m3, n5
from latuni.search import enumerate_unary
from naive import associativity_witnesses
from reference_tables import L1_TABLE, L2_TABLE


def partition_around(lat, e):
    """{bottom} / ]bottom,e[ / {e} / incomparables / ]e,top]."""
    return [
        (lat.bottom,),
        lat.interval(IntervalSpec(lat.bottom, e, True, True)),
        (e,),
        lat.incomparables(e),
        lat.interval(IntervalSpec(e, lat.top, low_open=True)),
    ]


# -- partial tables ----------------------------------------------------------

def test_join_is_a_tconorm_on_upper_interval(fx_l1):
    s = fx_l1.tconorm
    assert s.role == TCONORM
    assert s("j", "1") == "1" and s("e", "j") == "j"


def test_meet_is_a_tnorm_on_lower_interval(fx_l1):
    lat = fx_l1.lattice
    t = meet_tnorm(lat, "e")
    assert t.role == TNORM
    assert t("a", "b") == "a" and t("e", "b") == "b"


def test_partial_tables_name_their_neutral_element(fx_l1):
    lat = fx_l1.lattice
    assert join_tconorm(lat, "e").neutral == meet_tnorm(lat, "e").neutral == "e"
    assert join_tconorm(lat, "0").neutral == "0" and meet_tnorm(lat, "1").neutral == "1"


def test_partial_tables_are_equal_when_their_fields_are(fx_l1):
    lat, s = fx_l1.lattice, fx_l1.tconorm
    again = join_tconorm(lat, "e")
    assert again is not s and again == s and hash(again) == hash(s)
    for other in (
        replace(s, table={**s.table, ("j", "j"): "1"}),
        replace(s, role=TNORM),
        replace(s, domain=IntervalSpec("e", "j")),
        replace(s, lattice=lat.dual()),
        FullBinOpTable(lat, dict(s.table), neutral="e"),
    ):
        assert s != other and other != s


def test_partial_rejects_out_of_domain_output(fx_l1):
    lat = fx_l1.lattice
    dom = lat.interval(IntervalSpec("e", "1"))
    table = {(x, y): lat.join(x, y) for x in dom for y in dom}
    table["j", "j"] = "m"
    with pytest.raises(OutOfDomainOutput):
        validate_partial(lat, IntervalSpec("e", "1"), TCONORM, table)


def test_partial_rejects_broken_axiom(fx_l1):
    lat = fx_l1.lattice
    dom = lat.interval(IntervalSpec("e", "1"))
    table = {(x, y): lat.join(x, y) for x in dom for y in dom}
    table["j", "1"] = "j"  # breaks commutativity against (1, j)
    with pytest.raises(AxiomViolation):
        validate_partial(lat, IntervalSpec("e", "1"), TCONORM, table)


@pytest.mark.parametrize("role", [TCONORM, TNORM])
def test_partial_on_a_one_element_domain(fx_l1, role):
    # [e, e] has one cell, so each axiom scan reads a one-element row.
    lat, domain = fx_l1.lattice, IntervalSpec("e", "e")
    assert validate_partial(lat, domain, role, {("e", "e"): "e"})("e", "e") == "e"
    with pytest.raises(OutOfDomainOutput):
        validate_partial(lat, domain, role, {("e", "e"): "1"})


def test_l3_tconorm_strict_below_top(fx_l3):
    ok, wit = strictness_check(fx_l3.tconorm)
    assert ok and wit == ()


def test_strictness_trivial_when_interior_empty():
    # ]c1,c2[ is empty, so no pair can violate strictness
    lat = chain(3)
    s = join_tconorm(lat, "c1")
    ok, _ = strictness_check(s)
    assert ok


def test_strictness_fails_on_collapsing_tconorm():
    lat = chain(4)  # c1 < c2 < c3 with e = c1
    dom = lat.interval(IntervalSpec("c1", "c3"))
    table = {(x, y): lat.join(x, y) for x in dom for y in dom}
    table["c2", "c2"] = "c3"
    s = validate_partial(lat, IntervalSpec("c1", "c3"), TCONORM, table)
    ok, wit = strictness_check(s)
    assert not ok and wit == (("c2", "c2"),)


# -- full tables -------------------------------------------------------------

def test_reference_table_passes_all_axioms(fx_l1):
    table = FullBinOpTable(fx_l1.lattice, dict(L1_TABLE), neutral="e")
    report = validate_uninorm(table)
    assert report.ok


def test_full_tables_are_equal_when_their_fields_are(fx_l1):
    lat = fx_l1.lattice
    u = FullBinOpTable(lat, dict(L1_TABLE), neutral="e")
    again = FullBinOpTable(lat, dict(L1_TABLE), neutral="e")
    assert again is not u and again == u and hash(again) == hash(u)
    assert construct(fx_l1.spec()) == u
    for other in (
        FullBinOpTable(lat, {**L1_TABLE, ("a", "j"): "1"}, neutral="e"),
        FullBinOpTable(lat, dict(L1_TABLE), neutral="j"),
        FullBinOpTable(lat.dual(), dict(L1_TABLE), neutral="e"),
        fx_l1.tconorm,
    ):
        assert u != other and other != u


def test_mutated_cell_is_detected(fx_l1):
    broken = dict(L1_TABLE)
    broken["a", "j"] = "j"
    broken["j", "a"] = "j"
    report = validate_uninorm(FullBinOpTable(fx_l1.lattice, broken, neutral="e"))
    assert not report.ok


def test_meet_is_a_uninorm_with_top_neutral(fx_l1):
    lat = fx_l1.lattice
    table = {(x, y): lat.meet(x, y) for x in lat.elements for y in lat.elements}
    report = validate_uninorm(FullBinOpTable(lat, table, neutral=lat.top))
    assert report.ok


def test_validate_uninorm_past_256_elements_reports_as_below():
    """Up to 256 elements the scans read bytes rows, past that the wide
    rows of ``packed_positions``.
    The max table on chain(257), with c0 neutral, is a uninorm; each
    one-cell corruption among the low elements fails with the report it
    has on chain(256), as every first witness lies in the block the two
    chains share.  Between them the corruptions break all four axioms."""
    big, small = chain(257), chain(256)

    def max_table(lat):
        els = lat.elements
        return {(x, y): els[max(i, j)] for i, x in enumerate(els) for j, y in enumerate(els)}

    assert validate_uninorm(FullBinOpTable(big, max_table(big), neutral="c0")).ok
    corruptions = ((("c1", "c2"), "c0"), (("c3", "c1"), "c5"), (("c2", "c2"), "c1"), (("c0", "c4"), "c3"))
    for cell, value in corruptions:
        reports = [
            validate_uninorm(FullBinOpTable(lat, {**max_table(lat), cell: value}, neutral="c0")).as_dict()
            for lat in (big, small)
        ]
        assert not all(check["ok"] for check in reports[0].values())
        assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "cell, value, report",
    [
        (("c256", "c200"), "c3", (("c200", "c256"), ("c4", "c256", "c200"), ("c0", "c200", "c256"), None)),
        (("c255", "c256"), "c255", (("c255", "c256"), None, ("c0", "c255", "c256"), None)),
    ],
)
def test_validate_uninorm_witnesses_past_position_256(cell, value, report):
    """A one-cell corruption of the max table on chain(257), c0 neutral,
    whose witnesses read rows and columns past position 256."""
    lat = chain(257)
    els = lat.elements
    table = {(x, y): els[max(i, j)] for i, x in enumerate(els) for j, y in enumerate(els)}
    got = validate_uninorm(FullBinOpTable(lat, {**table, cell: value}, neutral="c0"))
    checks = (got.commutative, got.associative, got.monotone, got.neutral)
    assert tuple(check.witness for check in checks) == report
    assert all(check.ok == (witness is None) for check, witness in zip(checks, report))


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_restriction_to_the_boundary_domain_is_the_boundary(name, family):
    # Whether or not the built table is a uninorm, it agrees with its
    # boundary t-conorm (or t-norm) on the boundary's domain.
    fx = FIXTURES[name]()
    lat = fx.lattice
    boundary = join_tconorm(lat, fx.e) if family.closure_based else meet_tnorm(lat, fx.e)
    dom = boundary.domain_elements
    # The admitted pairs of the first 8 operators of the family's kind.
    pool = list(islice(enumerate_unary(lat, family.kind), 8))
    specs = [ConstructionSpec(family, lat, fx.e, boundary, low, inc) for low in pool for inc in pool]
    specs = [spec for spec in specs if check_hypotheses(spec).passed]
    assert specs
    if family is fx.family:
        specs.append(fx.spec())  # the worked example, whose operators may come later
    for spec in specs:
        u = construct(spec)
        table = {(x, y): u(x, y) for x in dom for y in dom}
        assert validate_partial(lat, boundary.domain, boundary.role, table) == boundary


# -- partitioned associativity ----------------------------------------------

def test_partitioned_matches_full_scan_on_reference(fx_l1):
    table = FullBinOpTable(fx_l1.lattice, dict(L1_TABLE), neutral="e")
    blocks = partition_around(fx_l1.lattice, "e")
    ok, wit = check_associativity_partitioned(table, blocks)
    assert ok and wit is None


def test_single_block_partition_equals_full_scan(fx_l2):
    table = FullBinOpTable(fx_l2.lattice, dict(L2_TABLE), neutral="e")
    ok, _ = check_associativity_partitioned(table, [fx_l2.lattice.elements])
    assert ok


def test_partitioned_detects_mutation(fx_l1):
    broken = dict(L1_TABLE)
    broken["a", "j"] = "j"
    broken["j", "a"] = "j"
    table = FullBinOpTable(fx_l1.lattice, broken, neutral="e")
    blocks = partition_around(fx_l1.lattice, "e")
    ok, wit = check_associativity_partitioned(table, blocks)
    full = associativity_witnesses(table)
    assert not ok
    assert bool(full)
    # the witness refutes either plain associativity or its exchange form,
    # which are equivalent up to commutativity
    x, y, z = wit
    t = broken
    assert t[x, t[y, z]] != t[t[x, y], z] or t[x, t[y, z]] != t[y, t[x, z]]


def test_partitioned_rejects_bad_partition(fx_l1):
    table = FullBinOpTable(fx_l1.lattice, dict(L1_TABLE), neutral="e")
    with pytest.raises(NotAPartition):
        check_associativity_partitioned(table, [("0", "a"), ("a", "b")])


def test_partitioned_rejects_noncommutative(fx_l1):
    broken = dict(L1_TABLE)
    broken["a", "j"] = "j"  # one-sided edit
    table = FullBinOpTable(fx_l1.lattice, broken, neutral="e")
    with pytest.raises(NotCommutative):
        check_associativity_partitioned(table, [fx_l1.lattice.elements])


def random_commutative_table(lat, rng):
    table = {}
    for i, x in enumerate(lat.elements):
        for y in lat.elements[i:]:
            v = rng.choice(lat.elements)
            table[x, y] = v
            table[y, x] = v
    return FullBinOpTable(lat, table, neutral=lat.elements[0])


@pytest.mark.parametrize("lattice_factory,e", [(m3, "a"), (n5, "b"), (lambda: chain(5), "c2")])
def test_partitioned_agrees_on_random_tables(lattice_factory, e):
    lat = lattice_factory()
    rng = random.Random(20240811)
    blocks = partition_around(lat, e)
    for _ in range(200):
        table = random_commutative_table(lat, rng)
        ok, _ = check_associativity_partitioned(table, blocks)
        assert ok == (not associativity_witnesses(table))


# -- classification ----------------------------------------------------------

def test_classify_reference_tables(fx_l1, fx_l2):
    m1 = classify(FullBinOpTable(fx_l1.lattice, dict(L1_TABLE), neutral="e"))
    assert not m1["u_min_star"].member
    assert m1["u_min_star"].witnesses[0] == ("j", "a", "b")
    assert not m1["u_min_1"].member

    m2 = classify(FullBinOpTable(fx_l2.lattice, dict(L2_TABLE), neutral="e"))
    assert m2["u_min_star"].member
    assert not m2["u_min"].member
    assert ("b", "s", "n") in m2["u_min"].witnesses
    assert not m2["u_max_r"].member
    assert ("a", "s", "0") in m2["u_max_r"].witnesses


def test_classify_meet_with_top_neutral_is_u_min(fx_l1):
    lat = fx_l1.lattice
    table = {(x, y): lat.meet(x, y) for x in lat.elements for y in lat.elements}
    membership = classify(FullBinOpTable(lat, table, neutral=lat.top))
    assert membership["u_min"].member  # vacuous: nothing lies above the neutral


def test_classify_rejects_non_uninorm(fx_l1):
    broken = dict(L1_TABLE)
    broken["a", "j"] = "j"
    broken["j", "a"] = "j"
    with pytest.raises(NotAUninorm):
        classify(FullBinOpTable(fx_l1.lattice, broken, neutral="e"))


def test_classify_flags_match_direct_reevaluation(fx_l1):
    lat = fx_l1.lattice
    u = FullBinOpTable(lat, dict(L1_TABLE), neutral="e")
    membership = classify(u)
    above = lat.interval(IntervalSpec("e", "1", low_open=True))
    below = lat.interval(IntervalSpec("0", "e", high_open=True))
    direct = all(u(x, y) == y for x in above for y in below)
    assert membership["u_min_star"].member == direct
    for name, flag in membership.flags.items():
        for x, y, v in flag.witnesses:
            assert u(x, y) == v
