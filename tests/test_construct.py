from itertools import product

import pytest

from latuni import (
    CLOSURE,
    INTERIOR,
    TCONORM,
    TNORM,
    ConstructionSpec,
    Family,
    IntervalSpec,
    RegionLabel,
    build_lattice,
    check_characteristic,
    check_hypotheses,
    classify,
    construct,
    dualize_operator,
    identity_operator,
    join_tconorm,
    meet_tnorm,
    range_avoids,
    reference_karacal_mesiar,
    region_of,
    strictness_check,
    structural_class_predicate,
    validate_unary,
    validate_uninorm,
)
from latuni.errors import HypothesesNotChecked, MismatchedLattice
from latuni.fixtures import SMALL_LATTICES
from latuni.search import enumerate_admissible_pairs, enumerate_unary
from family_specs import dual_spec, family_boundary
from naive import naive_case_partition, naive_construct, naive_lattice
from test_acceptance import IFF_COUNTS
from test_search import _declared_top_first
from reference_tables import INTERIOR_TABLES, TABLES
from report_digest import report_digest


def join_with(lat, k):
    return validate_unary(lat, CLOSURE, {x: lat.join(x, k) for x in lat.elements})


# -- worked examples ---------------------------------------------------------

@pytest.mark.parametrize("name", ["l1", "l2", "l3"])
def test_construction_reproduces_reference_tables(name, request):
    fx = request.getfixturevalue(f"fx_{name}")
    _, expected = TABLES[name]
    built = construct(fx.spec())
    mismatches = [
        (x, y, built(x, y), expected[x, y])
        for x in fx.lattice.elements
        for y in fx.lattice.elements
        if built(x, y) != expected[x, y]
    ]
    assert mismatches == []


@pytest.mark.parametrize("key", sorted(INTERIOR_TABLES))
def test_interior_construction_reproduces_reference_tables(key, request):
    fx = request.getfixturevalue(f"fx_{key.split('/')[0]}")
    family, low, inc, expected = INTERIOR_TABLES[key]
    lat = fx.lattice
    spec = ConstructionSpec(
        Family(family), lat, "e", meet_tnorm(lat, "e"),
        validate_unary(lat, INTERIOR, low), validate_unary(lat, INTERIOR, inc),
    )
    built = construct(spec)
    mismatches = [
        (x, y, built(x, y), expected[x, y])
        for x in lat.elements
        for y in lat.elements
        if built(x, y) != expected[x, y]
    ]
    assert mismatches == []
    assert check_characteristic(spec).passed
    assert validate_uninorm(built).ok


@pytest.mark.parametrize("name", ["l1", "l2", "l3"])
def test_worked_examples_pass_hypotheses_and_characteristic(name, request):
    fx = request.getfixturevalue(f"fx_{name}")
    hyp = check_hypotheses(fx.spec())
    assert hyp.passed
    char = check_characteristic(fx.spec())
    assert char.passed
    assert validate_uninorm(construct(fx.spec())).ok


# Recorded on the code before the case partition was memoised: every report,
# table, predicate and region label over the first 40 operators of each pool.
PINNED_DIGEST = "22540fb93190723cd934cd47f7bf1ca3b6eaba9bec62399db6291b7f21ed501c"


def test_reports_tables_and_regions_match_pinned_digest():
    assert report_digest(40) == PINNED_DIGEST


# -- spec validation and regions ---------------------------------------------

def test_spec_rejects_boundary_neutral(fx_l1):
    lat = fx_l1.lattice
    with pytest.raises(ValueError):
        ConstructionSpec(Family.CLO, lat, "1", fx_l1.tconorm, fx_l1.cl1, fx_l1.cl2)


def test_spec_rejects_foreign_operator(fx_l1, fx_l2):
    with pytest.raises(MismatchedLattice):
        ConstructionSpec(
            Family.CLO, fx_l1.lattice, "e", fx_l1.tconorm, fx_l2.cl1, fx_l1.cl2
        )


def test_region_partition_covers_lattice(fx_l1, fx_l3):
    for fx in (fx_l1, fx_l3):
        spec = fx.spec()
        for x in fx.lattice.elements:
            assert isinstance(region_of(spec, x), RegionLabel)


def test_regions_on_l1(fx_l1):
    spec = fx_l1.spec()
    assert region_of(spec, "0") is RegionLabel.ZERO
    assert region_of(spec, "a") is RegionLabel.LOW_OPEN
    assert region_of(spec, "e") is RegionLabel.E
    assert region_of(spec, "m") is RegionLabel.INC
    assert region_of(spec, "j") is RegionLabel.HIGH_HALFOPEN
    assert region_of(spec, "1") is RegionLabel.HIGH_HALFOPEN


def test_regions_on_l3_strict(fx_l3):
    spec = fx_l3.spec()
    assert region_of(spec, "1") is RegionLabel.TOP
    assert region_of(spec, "t") is RegionLabel.HIGH_OPEN
    assert region_of(spec, "c") is RegionLabel.INC
    assert region_of(spec, "r") is RegionLabel.LOW_OPEN
    assert region_of(spec, "0") is RegionLabel.ZERO


def _interior_spec(fx, family, op_low, op_inc):
    lat = fx.lattice
    return ConstructionSpec(family, lat, "e", meet_tnorm(lat, "e"), op_low, op_inc)


def meet_with(lat, k):
    return validate_unary(lat, INTERIOR, {x: lat.meet(x, k) for x in lat.elements})


def test_regions_on_l1_interior(fx_l1):
    ident = identity_operator(fx_l1.lattice, INTERIOR)
    spec = _interior_spec(fx_l1, Family.INT, ident, ident)
    labels = {x: region_of(spec, x).name for x in fx_l1.lattice.elements}
    assert labels == {
        "0": "LOW_HALFOPEN", "a": "LOW_HALFOPEN", "b": "LOW_HALFOPEN", "e": "E",
        "m": "INC", "k": "INC", "s": "INC", "n": "INC", "j": "HIGH_OPEN", "1": "TOP",
    }


def test_regions_on_l3_strict_interior(fx_l3):
    ident = identity_operator(fx_l3.lattice, INTERIOR)
    spec = _interior_spec(fx_l3, Family.INT_STRICT, ident, ident)
    labels = {x: region_of(spec, x).name for x in fx_l3.lattice.elements}
    assert labels == {
        "0": "ZERO", "r": "LOW_OPEN", "a": "LOW_OPEN", "e": "E", "l": "INC",
        "m": "INC", "n": "INC", "b": "INC", "c": "INC", "t": "HIGH_OPEN", "1": "TOP",
    }


# -- hypotheses and characteristic conditions --------------------------------

def test_hypotheses_fail_when_operators_swapped(fx_l1):
    spec = ConstructionSpec(
        Family.CLO, fx_l1.lattice, "e", fx_l1.tconorm, fx_l1.cl2, fx_l1.cl1
    )
    hyp = check_hypotheses(spec)
    assert not hyp.passed
    row = hyp.row("comparability")
    assert not row.passed and row.witnesses[0] == "0"
    with pytest.raises(HypothesesNotChecked):
        check_characteristic(spec)


def test_report_row_with_an_unknown_name_raises_key_error(fx_l1):
    hyp = check_hypotheses(fx_l1.spec())
    with pytest.raises(KeyError) as err:
        hyp.row("range_low")  # a characteristic row, not a hypothesis
    assert err.value.args == ("range_low",)


def _row(name, statement, passed, witnesses=(), vacuous=False):
    return {
        "name": name, "statement": statement, "passed": passed,
        "witnesses": list(witnesses), "vacuous": vacuous,
    }


KINDS_ROW = "both operators are interior operators"
DOMAIN_ROW = "boundary operation is a tnorm on the family's boundary interval"
CMP_ROW = "second operator below first outside the lower interval"
LOW_ROW = "first operator avoids the lower interval on ]e,1["
INC_ROW = "second operator avoids the lower interval on the incomparables of e"


@pytest.mark.parametrize("family", [Family.INT, Family.INT_STRICT])
def test_interior_hypotheses_report_when_operators_swapped(family, fx_l2):
    _, low, inc, _ = INTERIOR_TABLES["l2/int2"]
    lat = fx_l2.lattice
    spec = _interior_spec(
        fx_l2, family, validate_unary(lat, INTERIOR, inc), validate_unary(lat, INTERIOR, low)
    )
    assert check_hypotheses(spec).as_dict() == {
        "passed": False,
        "rows": [
            _row("operator_kinds", KINDS_ROW, True),
            _row("boundary_domain", DOMAIN_ROW, True),
            _row("comparability", CMP_ROW, False, ["b", "1"]),
        ],
        "notes": {},
    }


def test_interior_hypotheses_report_wrong_kinds_and_role(fx_l2):
    spec = ConstructionSpec(
        Family.INT, fx_l2.lattice, "e", fx_l2.tconorm, fx_l2.cl1, fx_l2.cl2
    )
    assert check_hypotheses(spec).as_dict() == {
        "passed": False,
        "rows": [
            _row("operator_kinds", KINDS_ROW, False, ["closure", "closure"]),
            _row("boundary_domain", DOMAIN_ROW, False, ["tconorm"]),
            _row("comparability", CMP_ROW, False, ["m", "s", "b"]),
        ],
        "notes": {},
    }


def test_interior_characteristic_report_fails(fx_l1):
    op = meet_with(fx_l1.lattice, "e")  # pushes ]e,1[ and I_e into [0,e]
    spec = _interior_spec(fx_l1, Family.INT, op, op)
    assert check_characteristic(spec).as_dict() == {
        "passed": False,
        "rows": [
            _row("range_low", LOW_ROW, False, ["j"]),
            _row("range_inc", INC_ROW, False, ["m", "k", "s", "n"]),
        ],
        "notes": {},
    }
    assert not validate_uninorm(construct(spec)).ok


def test_strict_interior_characteristic_report_fails(fx_l3):
    op = meet_with(fx_l3.lattice, "e")
    spec = _interior_spec(fx_l3, Family.INT_STRICT, op, op)
    assert check_characteristic(spec).as_dict() == {
        "passed": False,
        "rows": [
            _row("range_low", LOW_ROW, False, ["t"]),
            _row("range_inc", INC_ROW, False, ["l", "m", "n", "b", "c"]),
            _row("boundary_strict", "t-norm stays above the bottom on the open interval", True),
        ],
        "notes": {"open_boundary_interval_empty": False},
    }
    assert not validate_uninorm(construct(spec)).ok


def test_hypotheses_fail_on_wrong_boundary_domain(fx_l1):
    bad_boundary = meet_tnorm(fx_l1.lattice, "e")  # t-norm, wrong role and side
    spec = ConstructionSpec(
        Family.CLO, fx_l1.lattice, "e", bad_boundary, fx_l1.cl1, fx_l1.cl2
    )
    hyp = check_hypotheses(spec)
    assert not hyp.row("boundary_domain").passed


def test_characteristic_fails_for_operator_entering_upper_interval(fx_l1):
    lat = fx_l1.lattice
    op = join_with(lat, "e")  # pushes ]0,e[ up to e and I_e into ]e,1]
    spec = ConstructionSpec(Family.CLO, lat, "e", fx_l1.tconorm, op, op)
    char = check_characteristic(spec)
    assert not char.passed
    assert char.row("range_low").witnesses == ("a", "b")
    assert char.row("range_inc").witnesses == ("m", "k", "s", "n")


def test_failed_characteristic_yields_non_uninorm(fx_l1):
    lat = fx_l1.lattice
    op = join_with(lat, "e")
    spec = ConstructionSpec(Family.CLO, lat, "e", fx_l1.tconorm, op, op)
    table = construct(spec)
    report = validate_uninorm(table)
    assert not report.ok
    assert not report.associative.ok or not report.monotone.ok


def test_characteristic_strict_rows_present(fx_l3):
    char = check_characteristic(fx_l3.spec())
    row = char.row("boundary_strict")
    assert row.passed and not row.vacuous
    assert char.notes["open_boundary_interval_empty"] is False


def test_characteristic_vacuous_when_open_boundary_empty():
    # ]e,1[ is empty: the operators never enter the strict table, so the
    # range conditions cannot bind even when they fail pointwise.
    lat = build_lattice(
        ["0", "p", "e", "q", "1"],
        [("0", "p"), ("p", "e"), ("e", "1"), ("0", "q"), ("q", "1")],
        "0",
        "1",
    )
    op = join_with(lat, "e")  # op(p) = e and op(q) = 1 land in [e,1]
    spec = ConstructionSpec(
        Family.CLO_STRICT, lat, "e", join_tconorm(lat, "e"), op, op
    )
    char = check_characteristic(spec)
    assert char.notes["open_boundary_interval_empty"] is True
    assert char.row("range_low").vacuous and char.row("range_low").passed
    assert char.row("range_inc").vacuous and char.row("range_inc").passed
    assert char.row("boundary_strict").vacuous
    assert char.passed
    assert validate_uninorm(construct(spec)).ok


def test_comparability_is_needed_for_the_characteristic_verdict():
    """On 0 < x0 < x1 < e < 1, x0 < x2 < 1, a clo2 pair that only fails
    comparability passes both range conditions, yet builds a table that
    is not monotone; so the conditions are no verdict for it, and pair
    admission leaves it out."""
    lat = build_lattice(
        ["0", "x0", "x1", "e", "x2", "1"],
        [("0", "x0"), ("x0", "x1"), ("x1", "e"), ("e", "1"), ("x0", "x2"), ("x2", "1")],
        "0",
        "1",
    )
    op_low = validate_unary(lat, CLOSURE, {"0": "0", "x0": "x1", "x1": "x1", "e": "e", "x2": "1", "1": "1"})
    op_inc = identity_operator(lat, CLOSURE)
    spec = ConstructionSpec(Family.CLO, lat, "e", join_tconorm(lat, "e"), op_low, op_inc)
    hyp = check_hypotheses(spec)
    assert [r.name for r in hyp.rows if not r.passed] == ["comparability"]
    assert hyp.row("comparability").witnesses == ("x0", "x2")
    upper = IntervalSpec("e", "1")
    for op, label in ((op_low, RegionLabel.LOW_OPEN), (op_inc, RegionLabel.INC)):
        region = [x for x in lat.elements if region_of(spec, x) == label]
        assert region and range_avoids(op, region, upper) == (True, ())
    with pytest.raises(HypothesesNotChecked):
        check_characteristic(spec)
    report = validate_uninorm(construct(spec)).as_dict()
    assert [name for name, check in report.items() if not check["ok"]] == ["monotone"]
    assert report["monotone"]["witness"] == ("x0", "x2", "1")
    pairs = [(s.op_low, s.op_inc) for s, _ in enumerate_admissible_pairs(lat, "e", Family.CLO, spec.boundary)]
    assert pairs and (op_low, op_inc) not in pairs


def test_comparability_is_needed_for_the_strict_characteristic_verdict():
    """On 0 < x0 < x1 < e < h < 1, x0 < x2 < 1, a clo2-strict pair that
    only fails comparability passes range_low, range_inc and a non-vacuous
    boundary_strict, yet builds a table that is not monotone; pair
    admission leaves it out."""
    lat = build_lattice(
        ["0", "x0", "x1", "e", "h", "x2", "1"],
        [("0", "x0"), ("x0", "x1"), ("x1", "e"), ("e", "h"), ("h", "1"), ("x0", "x2"), ("x2", "1")],
        "0",
        "1",
    )
    op_low = validate_unary(lat, CLOSURE, {"0": "0", "x0": "x1", "x1": "x1", "e": "e", "h": "h", "x2": "1", "1": "1"})
    op_inc = identity_operator(lat, CLOSURE)
    spec = ConstructionSpec(Family.CLO_STRICT, lat, "e", join_tconorm(lat, "e"), op_low, op_inc)
    hyp = check_hypotheses(spec)
    assert [r.name for r in hyp.rows if not r.passed] == ["comparability"]
    assert hyp.row("comparability").witnesses == ("x0", "x2")
    upper = IntervalSpec("e", "1")
    for op, label in ((op_low, RegionLabel.LOW_OPEN), (op_inc, RegionLabel.INC)):
        region = [x for x in lat.elements if region_of(spec, x) == label]
        assert region and range_avoids(op, region, upper) == (True, ())
    assert [x for x in lat.elements if region_of(spec, x) == RegionLabel.HIGH_OPEN] == ["h"]
    assert strictness_check(spec.boundary) == (True, ())
    with pytest.raises(HypothesesNotChecked):
        check_characteristic(spec)
    report = validate_uninorm(construct(spec)).as_dict()
    assert [name for name, check in report.items() if not check["ok"]] == ["monotone"]
    assert report["monotone"]["witness"] == ("x0", "x2", "h")
    pairs = [(s.op_low, s.op_inc) for s, _ in enumerate_admissible_pairs(lat, "e", Family.CLO_STRICT, spec.boundary)]
    assert pairs and (op_low, op_inc) not in pairs


# -- structure facts of the built tables -------------------------------------

def test_neutral_row_and_boundary_block(fx_l1):
    spec = fx_l1.spec()
    u = construct(spec)
    lat = spec.lattice
    for x in lat.elements:
        assert u(x, "e") == x and u("e", x) == x
    upper = lat.interval(IntervalSpec(spec.e, lat.top))
    for x in upper:
        for y in upper:
            assert u(x, y) == spec.boundary(x, y)


def _naive_regions(lat, e):
    """The closure-family regions around e, read off the naive order."""
    leq = naive_lattice(lat.elements, lat.covers, lat.bottom, lat.top)[0]
    return naive_case_partition(lat.elements, leq, lat.bottom, lat.top, e, False)


def test_mixed_cells_follow_operator_formula(fx_l1):
    spec = fx_l1.spec()
    u = construct(spec)
    lat = spec.lattice
    regions = _naive_regions(lat, spec.e)
    for x in regions["low_open"]:
        for y in regions["high_halfopen"]:
            assert u(x, y) == lat.meet(spec.op_low(x), lat.join(x, spec.e))
            assert not lat.leq("e", u(x, y))  # stays outside [e,1]
    for x in regions["inc"]:
        for y in regions["high_halfopen"]:
            assert u(x, y) == lat.meet(spec.op_inc(x), lat.join(x, spec.e))
            assert not lat.leq("e", u(x, y))


def test_remaining_cells_collapse_to_bottom(fx_l1):
    spec = fx_l1.spec()
    u = construct(spec)
    lat = spec.lattice
    regions = _naive_regions(lat, spec.e)
    outside = regions["zero"] + regions["low_open"] + regions["inc"]
    for x in outside:
        for y in outside:
            assert u(x, y) == lat.bottom


def test_strict_family_top_annihilates(fx_l3):
    u = construct(fx_l3.spec())
    lat = fx_l3.lattice
    for x in lat.elements:
        assert u(x, "1") == "1" and u("1", x) == "1"


# -- row values and the naive cell rule --------------------------------------

def row_value_key(lat, e, family):
    """A function giving an admitted pair's row values, its class: op(a) ^
    (a v e) over ]0,e[ and I_e for a closure family, op(a) v (a ^ e) over
    ]e,1[ and I_e for an interior one.  The regions and values come from
    the lattice's public leq, meet and join, not from the cell plan or the
    case partition that ``construct`` reads."""
    els = lat.elements
    inc = [a for a in els if not lat.leq(a, e) and not lat.leq(e, a)]
    if family.closure_based:
        low = [a for a in els if a not in (lat.bottom, e) and lat.leq(a, e)]
        value = lambda op, a: lat.meet(op(a), lat.join(a, e))
    else:
        low = [a for a in els if a not in (lat.top, e) and lat.leq(e, a)]
        value = lambda op, a: lat.join(op(a), lat.meet(a, e))
    return lambda spec: (
        tuple(value(spec.op_low, a) for a in low), tuple(value(spec.op_inc, a) for a in inc)
    )


def admitted_pairs_with_keys(fx, family):
    """(row values, spec, characteristic verdict) of every admitted pair of
    fixture ``fx`` in ``family``, with the family's usual boundary."""
    key = row_value_key(fx.lattice, fx.e, family)
    boundary = family_boundary(fx.lattice, fx.e, family)
    for spec, char_pass in enumerate_admissible_pairs(fx.lattice, fx.e, family, boundary):
        yield key(spec), spec, char_pass


# Row-value classes of each fixture's admitted pairs, in Family order.
ROW_VALUE_CLASSES = {
    "l1": (52, 14, 52, 14),
    "l2": (26, 26, 26, 26),
    "l3": (59, 36, 59, 36),
}


@pytest.mark.parametrize("name", sorted(ROW_VALUE_CLASSES))
def test_tables_depend_on_the_pair_only_through_its_row_values(name, request):
    """Every admitted pair builds the table, and has the characteristic
    verdict, of the first pair with its row values."""
    fx = request.getfixturevalue(f"fx_{name}")
    classes, disagreements = [], []
    for family in Family:
        first, pairs = {}, 0
        for key, spec, char_pass in admitted_pairs_with_keys(fx, family):
            pairs += 1
            got = (construct(spec), char_pass)
            if first.setdefault(key, got) != got:
                disagreements.append((family.value, key))
        assert pairs == IFF_COUNTS[name, family.value][0]
        classes.append(len(first))
    assert disagreements == []
    assert tuple(classes) == ROW_VALUE_CLASSES[name]


def _naive_order(lat):
    return naive_lattice(lat.elements, lat.covers, lat.bottom, lat.top)


def first_differing_cell(spec, naive_order):
    """The first cell, with both values, where ``construct`` differs from
    ``naive_construct`` on ``naive_order``, the (leq, meet, join) of
    ``naive_lattice`` on the spec's lattice; None when they agree."""
    family = spec.family
    expected = naive_construct(
        spec.lattice.elements, *naive_order, spec.e, family.closure_based, family.strict,
        spec.boundary, spec.op_low, spec.op_inc,
    )
    built = construct(spec).table
    return next(((k, built[k], v) for k, v in expected.items() if built[k] != v), None)


@pytest.mark.parametrize("name", sorted(ROW_VALUE_CLASSES))
def test_construct_matches_the_naive_cell_rule_on_each_row_value_class(name, request):
    """The first admitted pair of each row-value class, in all four families."""
    fx = request.getfixturevalue(f"fx_{name}")
    naive_order = _naive_order(fx.lattice)
    checked, bad = 0, []
    for family in Family:
        seen = set()
        for key, spec, _ in admitted_pairs_with_keys(fx, family):
            if key not in seen:
                seen.add(key)
                checked += 1
                diff = first_differing_cell(spec, naive_order)
                if diff:
                    bad.append((family.value, key, diff))
    assert bad == []
    assert checked == sum(ROW_VALUE_CLASSES[name])


SMALL_DECLARATIONS = {
    **SMALL_LATTICES,
    **{f"{name}-top-first": _declared_top_first(make) for name, make in SMALL_LATTICES.items()},
}


@pytest.mark.parametrize("name", sorted(SMALL_DECLARATIONS))
def test_construct_matches_the_naive_cell_rule_on_small_lattices(name):
    """Every admitted pair at every interior e, in all four families, with
    the join or meet boundary, on declarations that are and that are not
    linear extensions of the order."""
    lat = SMALL_DECLARATIONS[name]()
    naive_order = _naive_order(lat)
    checked, bad = 0, []
    for e in lat.elements:
        if e in (lat.bottom, lat.top):
            continue
        for family in Family:
            boundary = family_boundary(lat, e, family)
            for spec, _ in enumerate_admissible_pairs(lat, e, family, boundary):
                checked += 1
                diff = first_differing_cell(spec, naive_order)
                if diff:
                    bad.append((e, family.value, spec.op_low.image, spec.op_inc.image, diff))
    assert bad == []
    assert checked > 0


# -- degenerate collapses ----------------------------------------------------

def test_equal_operators_still_construct_uninorm(fx_l1):
    spec = ConstructionSpec(
        Family.CLO, fx_l1.lattice, "e", fx_l1.tconorm, fx_l1.cl1, fx_l1.cl1
    )
    assert check_characteristic(spec).passed
    assert validate_uninorm(construct(spec)).ok


def test_identity_operators_collapse_to_classical_table(fx_l1):
    lat = fx_l1.lattice
    ident = identity_operator(lat, CLOSURE)
    spec = ConstructionSpec(Family.CLO, lat, "e", fx_l1.tconorm, ident, ident)
    built = construct(spec)
    expected = reference_karacal_mesiar(lat, "e", fx_l1.tconorm, "s")
    assert built == expected
    assert validate_uninorm(built).ok


def test_identity_interior_operators_collapse_to_classical_table(fx_l1):
    lat = fx_l1.lattice
    ident = identity_operator(lat, INTERIOR)
    tnorm = meet_tnorm(lat, "e")
    spec = ConstructionSpec(Family.INT, lat, "e", tnorm, ident, ident)
    built = construct(spec)
    expected = reference_karacal_mesiar(lat, "e", tnorm, "t")
    assert built == expected
    assert validate_uninorm(built).ok


def test_reference_karacal_mesiar_rejects_a_bad_side(fx_l1):
    for side in ("S", "st"):
        with pytest.raises(ValueError) as err:
            reference_karacal_mesiar(fx_l1.lattice, "e", fx_l1.tconorm, side)
        assert str(err.value) == "side must be 's' or 't'"


def test_identity_low_operator_only(fx_l1):
    lat = fx_l1.lattice
    ident = identity_operator(lat, CLOSURE)
    spec = ConstructionSpec(Family.CLO, lat, "e", fx_l1.tconorm, ident, fx_l1.cl2)
    assert check_characteristic(spec).passed
    assert validate_uninorm(construct(spec)).ok


# -- duality ----------------------------------------------------------------

def test_interior_construction_is_dual_of_closure(fx_l1):
    original = construct(fx_l1.spec())
    dual_table = construct(dual_spec(fx_l1.spec(), Family.INT))
    for x in fx_l1.lattice.elements:
        for y in fx_l1.lattice.elements:
            assert dual_table(x, y) == original(x, y)


def test_strict_interior_construction_is_dual_of_strict_closure(fx_l3):
    original = construct(fx_l3.spec())
    dual_table = construct(dual_spec(fx_l3.spec(), Family.INT_STRICT))
    for x in fx_l3.lattice.elements:
        for y in fx_l3.lattice.elements:
            assert dual_table(x, y) == original(x, y)


def _rows(report):
    # Everything in a row but its statement, which is in the family's terms.
    return [(r.name, r.passed, r.witnesses, r.vacuous) for r in report.rows]


def test_dual_hypotheses_and_characteristic_agree(fx_l1, fx_l3):
    spec = fx_l1.spec()
    dual = dual_spec(fx_l1.spec(), Family.INT)
    assert check_hypotheses(dual).passed == check_hypotheses(spec).passed
    assert check_characteristic(dual).passed == check_characteristic(spec).passed
    # An interior spec against the closure spec built here on the dual
    # lattice from the same maps: every row, the notes and the built table
    # agree, over the first and the last ten interior operators squared
    # (the characteristic conditions fail on the first, and hold on some
    # pairs of the last).
    cases = [(fx_l1, Family.INT, Family.CLO), (fx_l3, Family.INT_STRICT, Family.CLO_STRICT)]
    for fx, family, closure_family in cases:
        lat, e = fx.lattice, fx.e
        dual = lat.dual()
        pool = list(enumerate_unary(lat, INTERIOR))
        pool = pool[:10] + pool[-10:]
        mirrored = {op: dualize_operator(op, dual) for op in pool}
        boundary = meet_tnorm(lat, e)
        dual_boundary = join_tconorm(dual, e)  # the same table: join in the dual is meet
        passed = {"hypotheses": 0, "characteristic": 0}
        for op_low, op_inc in product(pool, repeat=2):
            spec = ConstructionSpec(family, lat, e, boundary, op_low, op_inc)
            ref = ConstructionSpec(closure_family, dual, e, dual_boundary, mirrored[op_low], mirrored[op_inc])
            hyp, ref_hyp = check_hypotheses(spec), check_hypotheses(ref)
            assert _rows(hyp) == _rows(ref_hyp)
            if hyp.passed:
                char, ref_char = check_characteristic(spec), check_characteristic(ref)
                assert _rows(char) == _rows(ref_char) and char.notes == ref_char.notes
                passed["hypotheses"] += 1
                passed["characteristic"] += char.passed
            assert construct(spec).table == construct(ref).table
        assert 0 < passed["characteristic"] < passed["hypotheses"] < len(pool) ** 2


def test_family_members_carry_kind_and_role():
    expected = {
        Family.CLO: (True, False, CLOSURE, TCONORM),
        Family.INT: (False, False, INTERIOR, TNORM),
        Family.CLO_STRICT: (True, True, CLOSURE, TCONORM),
        Family.INT_STRICT: (False, True, INTERIOR, TNORM),
    }
    assert list(expected) == list(Family)
    for family, attributes in expected.items():
        assert (family.closure_based, family.strict, family.kind, family.role) == attributes
        assert Family(family.value) is family


# -- structural class predicate ----------------------------------------------

def test_structural_predicate_values(fx_l1, fx_l2, fx_l3):
    assert not structural_class_predicate(fx_l1.spec())  # a < b inside ]0,e[
    assert structural_class_predicate(fx_l2.spec())      # ]0,e[ = {a}
    assert not structural_class_predicate(fx_l3.spec())  # r < a inside ]0,e[


def test_structural_predicate_implies_membership(fx_l2):
    # sufficient direction: predicate holds on l2 and the table lands in
    # the matching boundary class
    assert structural_class_predicate(fx_l2.spec())
    membership = classify(construct(fx_l2.spec()))
    assert membership["u_min_star"].member


def test_structural_predicate_is_not_necessary(fx_l1):
    # collapse the operators to the identity: membership holds even though
    # the predicate still rejects the lattice shape
    lat = fx_l1.lattice
    ident = identity_operator(lat, CLOSURE)
    spec = ConstructionSpec(Family.CLO, lat, "e", fx_l1.tconorm, ident, ident)
    assert not structural_class_predicate(spec)
    membership = classify(construct(spec))
    assert membership["u_min_star"].member
