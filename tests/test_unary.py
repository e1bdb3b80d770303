import itertools
from dataclasses import replace

import pytest

from latuni import (
    CLOSURE,
    INTERIOR,
    FullBinOpTable,
    IntervalSpec,
    dualize_operator,
    identity_operator,
    join_tconorm,
    parse_operator,
    pointwise_leq_on,
    range_avoids,
    serialize_operator,
    validate_unary,
)
from latuni.errors import AxiomViolation, MismatchedLattice, UnknownElement
from latuni.fixtures import diamond
from latuni.search import enumerate_unary
from latuni.unary import order_of
from naive import naive_lattice, naive_validate_unary


def test_table_cl_operators_certify(fx_l1):
    assert fx_l1.cl1.kind == CLOSURE
    assert fx_l1.cl2.kind == CLOSURE
    assert fx_l1.cl1("a") == "b" and fx_l1.cl1("m") == "k" and fx_l1.cl1("s") == "n"


def test_join_with_fixed_element_is_closure(fx_l2):
    lat = fx_l2.lattice
    op = validate_unary(lat, CLOSURE, {x: lat.join(x, "k") for x in lat.elements})
    assert op("0") == "k" and op("s") == "n"


def test_identity_is_closure_and_interior(fx_l1):
    for kind in (CLOSURE, INTERIOR):
        op = identity_operator(fx_l1.lattice, kind)
        assert all(op(x) == x for x in fx_l1.lattice.elements)


def _agrees_with_naive_on_diamond_maps(kind):
    """Every self-map of M2 and of its dual, whose declared order runs from
    the top down: validate_unary accepts exactly the maps the naive oracle
    accepts, and otherwise names the same axiom and witness."""
    for lat in (diamond(), diamond().dual()):
        leq, meet, join = naive_lattice(lat.elements, lat.covers, lat.bottom, lat.top)
        for values in itertools.product(lat.elements, repeat=len(lat.elements)):
            mapping = dict(zip(lat.elements, values))
            try:
                naive_validate_unary(lat.elements, leq, meet, join, kind, mapping)
            except AxiomViolation as expected:
                with pytest.raises(AxiomViolation) as err:
                    validate_unary(lat, kind, mapping)
                assert (err.value.axiom, err.value.witnesses) == (expected.axiom, expected.witnesses)
            else:
                assert validate_unary(lat, kind, mapping).mapping == mapping


def test_validator_agrees_with_brute_force_on_diamond_maps():
    _agrees_with_naive_on_diamond_maps(CLOSURE)


def test_interior_validator_agrees_with_brute_force_on_diamond_maps():
    _agrees_with_naive_on_diamond_maps(INTERIOR)


def test_violation_carries_named_axiom_and_witness(fx_l1):
    lat = fx_l1.lattice
    bad = {x: x for x in lat.elements}
    bad["j"] = "e"  # not expansive
    with pytest.raises(AxiomViolation) as err:
        validate_unary(lat, CLOSURE, bad)
    assert err.value.axiom == "CL1"
    assert err.value.witnesses == ("j",)


def test_operators_are_equal_when_lattice_kind_and_map_are(fx_l1):
    lat, op = fx_l1.lattice, fx_l1.cl1
    again = validate_unary(lat, CLOSURE, dict(reversed(op.mapping.items())))
    assert again is not op and again == op and hash(again) == hash(op)
    # The map on ids comes back in element order and survives a document round trip.
    assert list(again.mapping) == list(lat.elements)
    assert parse_operator(serialize_operator(again), lat) == op
    a = lat.index("a")
    for other in (
        replace(op, image=op.image[:a] + (lat.index("e"),) + op.image[a + 1:]),
        replace(op, kind=INTERIOR),
        replace(op, lattice=lat.dual()),
        join_tconorm(lat, "e"),
        FullBinOpTable(lat, {(x, y): lat.join(x, y) for x in lat.elements for y in lat.elements}, neutral="0"),
    ):
        assert op != other and other != op


def test_order_of_reads_an_interior_operator_in_the_dual(fx_l1):
    lat = fx_l1.lattice
    assert order_of(lat, CLOSURE) is lat and order_of(lat, INTERIOR) is lat.dual()
    message = "kind must be 'closure' or 'interior', got 'bogus'"
    for call in (
        lambda: order_of(lat, "bogus"),
        lambda: validate_unary(lat, "bogus", {x: x for x in lat.elements}),
        lambda: next(enumerate_unary(lat, "bogus")),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_pointwise_leq_on_l1(fx_l1):
    lat = fx_l1.lattice
    region = [x for x in lat.elements if x not in set(lat.interval(IntervalSpec("e", "1")))]
    ok, wit = pointwise_leq_on(fx_l1.cl1, fx_l1.cl2, region)
    assert ok and wit == ()
    ok, wit = pointwise_leq_on(fx_l1.cl1, fx_l1.cl1, lat.elements)
    assert ok
    ok, wit = pointwise_leq_on(fx_l1.cl2, fx_l1.cl1, ["0"])
    assert not ok and wit == ("0",)


def test_pointwise_leq_rejects_foreign_operator(fx_l1, fx_l2):
    with pytest.raises(MismatchedLattice):
        pointwise_leq_on(fx_l1.cl1, fx_l2.cl1, ["0"])


@pytest.mark.parametrize("region,unknown", [(["zz"], "zz"), (["0", "yy", "zz"], "yy"), (("zz", "0", "yy"), "zz")])
def test_pointwise_leq_rejects_an_unknown_region_id(fx_l2, region, unknown):
    # cl2 is not below cl1 on l2, so an ignored unknown id would read as a pass.
    with pytest.raises(UnknownElement) as info:
        pointwise_leq_on(fx_l2.cl2, fx_l2.cl1, region)
    assert info.value.element == unknown


@pytest.mark.parametrize("region,unknown", [(["zz"], "zz"), (["a", "yy", "zz"], "yy"), (("zz", "a", "yy"), "zz")])
def test_range_avoids_rejects_an_unknown_region_id(fx_l1, region, unknown):
    with pytest.raises(UnknownElement) as info:
        range_avoids(fx_l1.cl1, region, IntervalSpec("e", "1"))
    assert info.value.element == unknown


def test_range_avoids_on_l1(fx_l1):
    lat = fx_l1.lattice
    forbidden = IntervalSpec("e", "1")
    ok, _ = range_avoids(fx_l1.cl1, ["a", "b"], forbidden)
    assert ok
    ok, _ = range_avoids(fx_l1.cl2, ["m", "k", "s", "n"], forbidden)  # I_e
    assert ok
    join_e = validate_unary(lat, CLOSURE, {x: lat.join(x, "e") for x in lat.elements})
    ok, wit = range_avoids(join_e, ["a", "b"], forbidden)
    assert not ok and wit == ("a", "b")
    ok, wit = range_avoids(fx_l1.cl1, [], forbidden)
    assert ok and wit == ()


def test_range_avoids_rejects_a_forbidden_interval_off_the_lattice(fx_l1, fx_l2):
    # "j" is an element of l1 but not of l2, and "zz" of neither.
    for forbidden in (IntervalSpec("j", "1"), IntervalSpec("e", "zz")):
        with pytest.raises(MismatchedLattice) as err:
            range_avoids(fx_l2.cl1, ["a"], forbidden)
        assert str(err.value) == "forbidden interval references a foreign element"


def test_dualize_identity(fx_l1):
    lat = fx_l1.lattice
    op = identity_operator(lat, CLOSURE)
    dual = dualize_operator(op, lat.dual())
    assert dual.kind == INTERIOR
    assert all(dual(x) == x for x in lat.elements)


def test_dualize_join_with_k(fx_l2):
    lat = fx_l2.lattice
    op = validate_unary(lat, CLOSURE, {x: lat.join(x, "k") for x in lat.elements})
    dual_lat = lat.dual()
    dual = dualize_operator(op, dual_lat)
    assert dual.kind == INTERIOR
    for x in lat.elements:
        assert dual(x) == dual_lat.meet(x, "k")


def test_dualize_round_trip(fx_l1):
    lat = fx_l1.lattice
    back = dualize_operator(dualize_operator(fx_l1.cl1, lat.dual()), lat)
    assert back == fx_l1.cl1


def test_dualize_rejects_a_lattice_that_is_not_the_dual(fx_l1, fx_l2):
    lat = fx_l1.lattice
    for other in (lat, fx_l2.lattice.dual()):
        with pytest.raises(MismatchedLattice) as err:
            dualize_operator(fx_l1.cl1, other)
        assert str(err.value) == "argument is not the dual of the operator's lattice"


class TestOperatorLemmas:
    """Structure facts every certified operator must satisfy, full scans."""

    def _closures(self, lat, cap=None):
        ops = enumerate_unary(lat, CLOSURE)
        return itertools.islice(ops, cap) if cap else ops

    def test_absorbing_meet_lemma(self, fx_l1):
        # cl(cl(x) ^ y) = cl(x) whenever x <= y
        lat = fx_l1.lattice
        for op in (fx_l1.cl1, fx_l1.cl2):
            for x in lat.elements:
                for y in lat.elements:
                    if lat.leq(x, y):
                        assert op(lat.meet(op(x), y)) == op(x)

    def test_dual_absorbing_join_lemma(self, fx_l1):
        lat = fx_l1.lattice.dual()
        for base in (fx_l1.cl1, fx_l1.cl2):
            op = dualize_operator(base, lat)
            for x in lat.elements:
                for y in lat.elements:
                    if lat.leq(y, x):
                        assert op(lat.join(op(x), y)) == op(x)

    def test_monotone_consequence(self, small_lattices):
        for lat in small_lattices.values():
            for op in self._closures(lat):
                for x in lat.elements:
                    for y in lat.elements:
                        if lat.leq(x, y):
                            assert lat.leq(op(x), op(y))

    def test_fixed_points_are_exactly_the_image(self, small_lattices):
        for lat in small_lattices.values():
            for op in self._closures(lat):
                image = {op(x) for x in lat.elements}
                fixed = {x for x in lat.elements if op(x) == x}
                assert image == fixed
