"""``documents.dumps`` writes ``json.dumps(value, indent=2)`` byte for byte.

The oracle is ``json.dumps`` itself, on every report shape the command
line emits with ``--json``, on every document ``serialize_*`` writes, and
on drawn nested values.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from latuni import (
    ConstructionSpec,
    Family,
    check_characteristic,
    check_hypotheses,
    classify,
    construct,
    identity_operator,
    join_tconorm,
    meet_tnorm,
    serialize_binop,
    serialize_lattice,
    serialize_operator,
    validate_uninorm,
)
from latuni.binop import FullBinOpTable
from latuni.construct import reference_karacal_mesiar
from latuni.documents import dumps
from latuni.fixtures import FIXTURES, chain_product, l2
from latuni.search import enumerate_admissible_pairs


def corrupted(table: FullBinOpTable) -> FullBinOpTable:
    """``table`` with its first off-diagonal cell set to the top."""
    els = table.lattice.elements
    cells = dict(table.table)
    cells[els[1], els[2]] = table.lattice.top
    return FullBinOpTable(table.lattice, cells, table.neutral)


def _fixture_cases():
    """(name, spec, built table) for l1-l3 and the Karacal-Mesiar tables
    of the 4x5, 5x6 and 6x7 chain products."""
    cases = []
    for name, make in FIXTURES.items():
        fx = make()
        spec = fx.spec()
        cases.append((name, spec, construct(spec)))
    for a, b, e, side in ((4, 5, "p2_2", "s"), (5, 6, "p2_3", "t"), (6, 7, "p3_3", "s")):
        lat = chain_product(a, b)
        family, boundary = (Family.CLO, join_tconorm(lat, e)) if side == "s" else (Family.INT, meet_tnorm(lat, e))
        op = identity_operator(lat, family.kind)
        spec = ConstructionSpec(family, lat, e, boundary, op, op)
        cases.append((f"p{a}x{b}", spec, reference_karacal_mesiar(lat, e, boundary, side)))
    return cases


CASES = _fixture_cases()
IDS = [name for name, _, _ in CASES]


def _same_as_json(value) -> None:
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("name,spec,table", CASES, ids=IDS)
def test_reports_match_json(name, spec, table):
    _same_as_json(check_hypotheses(spec).as_dict())
    _same_as_json(check_characteristic(spec).as_dict())
    _same_as_json(validate_uninorm(table).as_dict())
    _same_as_json(validate_uninorm(corrupted(table)).as_dict())
    _same_as_json(classify(table).as_dict())


def test_failing_reports_match_json():
    fx = l2()
    swapped = ConstructionSpec(fx.family, fx.lattice, fx.e, fx.tconorm, fx.cl2, fx.cl1)
    report = check_hypotheses(swapped)
    assert not report.passed
    _same_as_json(report.as_dict())
    spec = next(spec for spec, passed in enumerate_admissible_pairs(fx.lattice, fx.e, fx.family, fx.tconorm) if not passed)
    report = check_characteristic(spec)
    assert not report.passed
    _same_as_json(report.as_dict())


@pytest.mark.parametrize("name,spec,table", CASES, ids=IDS)
def test_documents_match_json(name, spec, table):
    for text in (
        serialize_lattice(spec.lattice),
        serialize_operator(spec.op_low),
        serialize_binop(spec.boundary),
        serialize_binop(table),
    ):
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


STRINGS = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\n\t\x7fé 𐏿\U0001f600'),
    max_size=4,
)
SCALARS = st.none() | st.booleans() | st.integers() | STRINGS


def _nested(inner):
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(STRINGS, inner, max_size=4)
        # The flat runs: a table row, a list of str, witness triples.
        | st.dictionaries(STRINGS, STRINGS, max_size=4)
        | st.lists(STRINGS, max_size=4)
        | st.lists(st.tuples(STRINGS, STRINGS, STRINGS) | st.lists(STRINGS, max_size=2), max_size=4)
    )


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.recursive(SCALARS, _nested, max_leaves=12))
def test_drawn_values_match_json(value):
    _same_as_json(value)


# The object() case gets a fixed id: its repr holds a memory address that differs between runs.
@pytest.mark.parametrize(
    "value",
    [1.5, {1: "a"}, ["a", {None: 1}], pytest.param({"a": object()}, id="{'a': object()}")],
    ids=repr,
)
def test_other_values_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps(value)
