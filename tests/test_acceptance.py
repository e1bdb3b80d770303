"""End-to-end acceptance suite.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output of a failure) and asserts the same verdict, so the
summary and the exit status always agree.
"""

import hashlib
import json
import random
import time

from latuni import (
    CLOSURE,
    ConstructionSpec,
    Family,
    FullBinOpTable,
    INTERIOR,
    build_lattice,
    check_associativity_partitioned,
    check_characteristic,
    classify,
    construct,
    identity_operator,
    join_tconorm,
    meet_tnorm,
    reference_karacal_mesiar,
    validate_unary,
    validate_uninorm,
)
from latuni.cli import cli_main
from latuni.fixtures import chain, diamond, l1, m3, n5
from latuni.lattice import case_partition
from latuni.search import (
    brute_force_uninorms,
    enumerate_admissible_pairs,
    enumerate_unary,
)
from family_specs import dual_spec, family_boundary
from naive import associativity_witnesses
from reference_tables import TABLES


def _verdict(number, description, ok):
    print(f"acceptance {number:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def _golden(name):
    from importlib import resources

    return (resources.files("latuni") / "data" / f"{name}.table.txt").read_text()


def _reproduction(number, name, cells, request, capsys):
    fx = request.getfixturevalue(f"fx_{name}")
    _, expected = TABLES[name]
    start = time.perf_counter()
    built = construct(fx.spec())
    elapsed = time.perf_counter() - start
    exact = all(
        built(x, y) == expected[x, y]
        for x in fx.lattice.elements
        for y in fx.lattice.elements
    )
    assert len(expected) == cells
    rc = cli_main(["reproduce", name])
    rendered = capsys.readouterr().out
    _verdict(
        number,
        f"{name} table reproduced exactly ({cells} cells, {elapsed:.3f}s)",
        exact and rc == 0 and rendered == _golden(name) and elapsed < 1.0,
    )


def test_01_first_worked_example_reproduction(request, capsys):
    _reproduction(1, "l1", 100, request, capsys)


def test_02_second_worked_example_reproduction(request, capsys):
    _reproduction(2, "l2", 81, request, capsys)


def test_03_strict_worked_example_reproduction(request, capsys):
    fx = request.getfixturevalue("fx_l3")
    _reproduction(3, "l3", 121, request, capsys)
    built = construct(fx.spec())
    assert built("0", "1") == "1" and built("1", "0") == "1"


def test_04_classification_witnesses(fx_l1, fx_l2):
    m1 = classify(construct(fx_l1.spec()))
    first_ok = (
        not m1["u_min_star"].member
        and not m1["u_min_1"].member
        and ("j", "a", "b") in m1["u_min_star"].witnesses
        and ("j", "a", "b") in m1["u_min_1"].witnesses
    )
    m2 = classify(construct(fx_l2.spec()))
    second_ok = (
        m2["u_min_star"].member
        and not m2["u_min"].member
        and ("b", "s", "n") in m2["u_min"].witnesses
        and not m2["u_max_r"].member
        and ("a", "s", "0") in m2["u_max_r"].witnesses
    )
    _verdict(4, "class membership and refutation witnesses", first_ok and second_ok)


# (admitted pairs, uninorms) of every fixture and family.
IFF_COUNTS = {
    ("l1", "clo2"): (4731, 792),
    ("l1", "clo2-strict"): (4731, 792),
    ("l1", "int2"): (15012, 4818),
    ("l1", "int2-strict"): (15012, 4818),
    ("l2", "clo2"): (3513, 792),
    ("l2", "clo2-strict"): (3513, 792),
    ("l2", "int2"): (3513, 792),
    ("l2", "int2-strict"): (3513, 792),
    ("l3", "clo2"): (14683, 7210),
    ("l3", "clo2-strict"): (14683, 7210),
    ("l3", "int2"): (15363, 504),
    ("l3", "int2-strict"): (15363, 504),
}
# sha256 of the admitted stream of those runs, in order: each pair's
# fixture, family, op_low and op_inc images in element order, and
# characteristic verdict, as one JSON array.
IFF_STREAM_SHA256 = "26f955182533d7928bd15b4512848a27ee14be2e35cebb65d42bc462391b08db"


def test_05_characteristic_conditions_are_iff(fx_l1, fx_l2, fx_l3):
    mismatches = 0
    checked = 0
    counts = {}
    stream = hashlib.sha256()
    for fx in (fx_l1, fx_l2, fx_l3):
        els = fx.lattice.elements
        for family in Family:
            boundary = family_boundary(fx.lattice, fx.e, family)
            pairs = uninorms = 0
            for spec, char_pass in enumerate_admissible_pairs(
                fx.lattice, fx.e, family, boundary
            ):
                pairs += 1
                stream.update(json.dumps([
                    fx.name, family.value, [spec.op_low(x) for x in els],
                    [spec.op_inc(x) for x in els], char_pass,
                ]).encode())
                valid = validate_uninorm(construct(spec)).ok
                uninorms += valid
                if valid != char_pass:
                    mismatches += 1
            checked += pairs
            counts[fx.name, family.value] = (pairs, uninorms)
    _verdict(
        5,
        f"characteristic pass equals uninorm validity on all {checked} admissible pairs",
        checked > 0 and mismatches == 0 and counts == IFF_COUNTS
        and stream.hexdigest() == IFF_STREAM_SHA256,
    )


def test_06_necessity_counterexample(fx_l1):
    lat = fx_l1.lattice
    push = validate_unary(lat, CLOSURE, {x: lat.join(x, "e") for x in lat.elements})
    spec = ConstructionSpec(Family.CLO, lat, "e", fx_l1.tconorm, push, fx_l1.cl2)
    table = construct(spec)
    witnesses = associativity_witnesses(table)
    has_proof_shape = any(w in witnesses for w in (("1", "a", "a"), ("1", "b", "b")))
    _verdict(
        6,
        "operator entering the upper interval breaks associativity with the expected triple",
        bool(witnesses) and has_proof_shape and not validate_uninorm(table).ok,
    )


def test_07_duality_round_trip(fx_l1, fx_l2, fx_l3):
    pairs = [
        (fx_l1, Family.CLO, Family.INT),
        (fx_l2, Family.CLO, Family.INT),
        (fx_l3, Family.CLO_STRICT, Family.INT_STRICT),
    ]
    bad = 0
    checked = 0
    for fx, family, dual_family in pairs:
        boundary = family_boundary(fx.lattice, fx.e, family)
        for spec, char_pass in enumerate_admissible_pairs(
            fx.lattice, fx.e, family, boundary
        ):
            if not char_pass:
                continue
            checked += 1
            original = construct(spec)
            mirrored = construct(dual_spec(spec, dual_family))
            if any(
                mirrored(x, y) != original(x, y)
                for x in fx.lattice.elements
                for y in fx.lattice.elements
            ):
                bad += 1
    _verdict(
        7,
        f"interior construction on the dual matches on all {checked} passing specs",
        checked > 0 and bad == 0,
    )


def test_08_identity_collapse(fx_l1, fx_l2, fx_l3):
    ok = True
    for fx in (fx_l1, fx_l2, fx_l3):
        lat = fx.lattice
        ident_c = identity_operator(lat, CLOSURE)
        ident_i = identity_operator(lat, INTERIOR)
        s = join_tconorm(lat, fx.e)
        t = meet_tnorm(lat, fx.e)
        upper = construct(ConstructionSpec(Family.CLO, lat, fx.e, s, ident_c, ident_c))
        lower = construct(ConstructionSpec(Family.INT, lat, fx.e, t, ident_i, ident_i))
        ok = ok and upper == reference_karacal_mesiar(lat, fx.e, s, "s")
        ok = ok and lower == reference_karacal_mesiar(lat, fx.e, t, "t")
    _verdict(8, "identity operators collapse to the classical tables", ok)


def test_09_operator_lemma_suite():
    violations = 0
    scanned = 0
    for lat in (diamond(), n5(), m3(), l1().lattice):
        for op in enumerate_unary(lat, CLOSURE):
            scanned += 1
            for x in lat.elements:
                for y in lat.elements:
                    if lat.leq(x, y) and op(lat.meet(op(x), y)) != op(x):
                        violations += 1
        dual = lat.dual()
        for op in enumerate_unary(dual, INTERIOR):
            scanned += 1
            for x in dual.elements:
                for y in dual.elements:
                    if dual.leq(y, x) and op(dual.join(op(x), y)) != op(x):
                        violations += 1
    _verdict(
        9,
        f"absorption lemma holds for all {scanned} enumerated operators",
        scanned > 0 and violations == 0,
    )


def test_10_partitioned_associativity_equivalence():
    rng = random.Random(20240811)
    disagreements = 0
    for lat, e in ((m3(), "a"), (n5(), "b"), (chain(5), "c2")):
        # {bottom} / ]bottom,e[ / {e} / I_e / ]e,top]
        blocks = [block for block in case_partition(lat, e, False).members.values() if block]
        for _ in range(200):
            table = {}
            for i, x in enumerate(lat.elements):
                for y in lat.elements[i:]:
                    v = rng.choice(lat.elements)
                    table[x, y] = v
                    table[y, x] = v
            candidate = FullBinOpTable(lat, table, neutral=lat.bottom)
            ok, _ = check_associativity_partitioned(candidate, blocks)
            if ok != (not associativity_witnesses(candidate)):
                disagreements += 1
    _verdict(
        10,
        "block case analysis agrees with the full scan on 600 random commutative tables",
        disagreements == 0,
    )


def test_11_class_inclusions(small_lattices):
    violations = 0
    scanned = 0
    for lat in small_lattices.values():
        for e in lat.elements:
            for u in brute_force_uninorms(lat, e):
                scanned += 1
                m = classify(u)
                if (m["u_max"].member or m["u_min_r"].member) and not m["u_max_star"].member:
                    violations += 1
                if (m["u_min"].member or m["u_max_r"].member) and not m["u_min_star"].member:
                    violations += 1
    _verdict(
        11,
        f"boundary-class membership forces starred membership on all {scanned} uninorms",
        scanned > 0 and violations == 0,
    )


def test_12_vacuous_strictness_when_top_covers_neutral():
    lat = build_lattice(
        ["0", "p", "e", "q", "1"],
        [("0", "p"), ("p", "e"), ("e", "1"), ("0", "q"), ("q", "1")],
        "0",
        "1",
    )
    boundary = join_tconorm(lat, "e")
    vacuous_ok = True
    mismatches = 0
    checked = 0
    for spec, char_pass in enumerate_admissible_pairs(
        lat, "e", Family.CLO_STRICT, boundary
    ):
        checked += 1
        char = check_characteristic(spec)
        vacuous_ok = vacuous_ok and char.row("boundary_strict").vacuous
        vacuous_ok = vacuous_ok and char.notes["open_boundary_interval_empty"]
        if validate_uninorm(construct(spec)).ok != char_pass:
            mismatches += 1
    _verdict(
        12,
        f"empty open boundary interval: strictness vacuous, validity matches on {checked} specs",
        checked > 0 and vacuous_ok and mismatches == 0,
    )
