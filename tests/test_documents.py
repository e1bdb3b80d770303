import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import latuni
from latuni import (
    CLOSURE,
    INTERIOR,
    TCONORM,
    TNORM,
    ConstructionSpec,
    Family,
    build_lattice,
    check_characteristic,
    check_hypotheses,
    construct,
    export_dot,
    identity_operator,
    join_tconorm,
    meet_tnorm,
    parse_binop,
    parse_lattice,
    parse_operator,
    render_table,
    serialize_binop,
    serialize_lattice,
    serialize_operator,
)
from latuni import cli
from latuni.cli import cli_main
from latuni.construct import reference_karacal_mesiar
from latuni.errors import ParseError, ReferenceToUnknownElement
from latuni.fixtures import chain, chain_product, l2
from latuni.search import enumerate_admissible_pairs, enumerate_partial_binops

DATA = resources.files("latuni") / "data"


def data_path(name: str) -> str:
    return str(DATA / name)


def data_text(name: str) -> str:
    return (DATA / name).read_text()


# -- round trips -------------------------------------------------------------

def test_lattice_round_trip(fx_l1):
    lat = fx_l1.lattice
    assert parse_lattice(serialize_lattice(lat)) == lat


def test_bundled_lattice_documents_match_fixtures(fx_l1, fx_l2, fx_l3):
    # The fixtures are read from the bundled lattice and operator documents;
    # the t-conorm documents are not, so they are checked against the join
    # t-conorm each fixture builds.
    for fx in (fx_l1, fx_l2, fx_l3):
        assert parse_binop(data_text(f"{fx.name}.tconorm.json"), fx.lattice, role=TCONORM) == fx.tconorm


def test_operator_round_trip(fx_l1):
    for op in (fx_l1.cl1, fx_l1.cl2):
        assert parse_operator(serialize_operator(op), fx_l1.lattice) == op


def test_partial_binop_round_trip(fx_l1):
    s = fx_l1.tconorm
    back = parse_binop(serialize_binop(s), fx_l1.lattice, role=TCONORM)
    assert back == s


def test_serialize_binop_writes_the_bundled_tconorm_documents(fx_l1, fx_l2, fx_l3):
    for fx in (fx_l1, fx_l2, fx_l3):
        assert serialize_binop(fx.tconorm) == data_text(f"{fx.name}.tconorm.json")


def test_full_binop_round_trip(fx_l1):
    u = construct(fx_l1.spec())
    assert parse_binop(serialize_binop(u), fx_l1.lattice) == u


# -- parse errors ------------------------------------------------------------

def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_lattice("{\n  broken\n}")
    assert err.value.line == 2


def test_missing_key_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_lattice('{"elements": ["0", "1"]}')


def test_cover_with_unknown_element(fx_l1):
    doc = json.loads(serialize_lattice(fx_l1.lattice))
    doc["covers"].append(["0", "zz"])
    with pytest.raises(ReferenceToUnknownElement):
        parse_lattice(json.dumps(doc))


@pytest.mark.parametrize(
    "covers,message",
    [
        ([["0", "a"], ["a", "1"], ["0", "a"]], "cover ['0', 'a'] is repeated"),
        ([["0", "a"], ["a", "1"], ["0", "1"]], "cover ['0', '1'] is not a Hasse edge"),
        ([["0", "a"], ["a", "a"], ["a", "1"]], "cover ['a', 'a'] is not a Hasse edge"),
        ([["0", "a"], ["a", "1"], ["0", "1"], ["0", "a"]], "cover ['0', 'a'] is repeated"),
    ],
)
def test_covers_must_be_hasse_edges(covers, message):
    with pytest.raises(ParseError) as err:
        parse_lattice(json.dumps({**CHAIN3, "covers": covers}))
    assert str(err.value) == message


def test_operator_presets(fx_l2):
    lat = fx_l2.lattice
    op = parse_operator('{"kind": "closure", "preset": "join-with:k"}', lat)
    assert op == fx_l2.cl2
    ident = parse_operator('{"kind": "closure", "preset": "identity"}', lat)
    assert ident == fx_l2.cl1
    with pytest.raises(ParseError):
        parse_operator('{"kind": "closure", "preset": "nonsense"}', lat)
    with pytest.raises(ReferenceToUnknownElement):
        parse_operator('{"kind": "closure", "preset": "join-with:zz"}', lat)


def test_operator_map_missing_element(fx_l1):
    doc = json.loads(serialize_operator(fx_l1.cl1))
    del doc["map"]["a"]
    with pytest.raises(ParseError) as err:
        parse_operator(json.dumps(doc), fx_l1.lattice)
    assert "'a'" in str(err.value)


def test_binop_missing_cell_names_the_cell(fx_l1):
    doc = json.loads(serialize_binop(construct(fx_l1.spec())))
    del doc["table"]["j"]["a"]
    with pytest.raises(ParseError) as err:
        parse_binop(json.dumps(doc), fx_l1.lattice)
    assert "'j'" in str(err.value) and "'a'" in str(err.value)


@pytest.mark.parametrize("role,neutral", [(TCONORM, "1"), (TCONORM, "a"), (TNORM, "0"), (TNORM, "j")])
def test_tconorm_or_tnorm_document_declares_its_domain_bound_as_neutral(fx_l1, role, neutral):
    lat = fx_l1.lattice
    op = fx_l1.tconorm if role == TCONORM else meet_tnorm(lat, "e")
    doc = json.loads(serialize_binop(op))
    doc["neutral"] = neutral
    with pytest.raises(ParseError) as err:
        parse_binop(json.dumps(doc), lat, role=role)
    assert str(err.value).endswith(f"has neutral element 'e', not {neutral!r}")


def test_binop_unknown_value(fx_l1):
    doc = json.loads(serialize_binop(construct(fx_l1.spec())))
    doc["table"]["j"]["a"] = "zz"
    with pytest.raises(ReferenceToUnknownElement):
        parse_binop(json.dumps(doc), fx_l1.lattice)


def _km_s_6x7():
    """The Karacal-Mesiar U_s table on the 6x7 chain product, e = p3_3."""
    lat = chain_product(6, 7)
    ident = identity_operator(lat, CLOSURE)
    return construct(ConstructionSpec(Family.CLO, lat, "p3_3", join_tconorm(lat, "p3_3"), ident, ident))


# Each kind of bad cell (x, y) in a table document, with the error
# parse_binop raises for it.  The first two break the whole row x.
BAD_CELLS = {
    "missing row": (ParseError, "table is missing row {x!r}"),
    "non-object row": (ParseError, "table row {x!r} must be an object"),
    "missing cell": (ParseError, "table is missing cell ({x!r}, {y!r})"),
    "unknown id": (ReferenceToUnknownElement, "table cell ({x!r}, {y!r}) = 'zz' references an unknown element"),
    "number": (ParseError, "table cell ({x!r}, {y!r}) must be a string"),
    "null": (ParseError, "table cell ({x!r}, {y!r}) must be a string"),
    "array": (ParseError, "table cell ({x!r}, {y!r}) must be a string"),
    "object": (ParseError, "table cell ({x!r}, {y!r}) must be a string"),
}
ROW_KINDS = ("missing row", "non-object row")


def _break_cell(table: dict, kind: str, x: str, y: str) -> None:
    if kind == "missing row":
        del table[x]
    elif kind == "non-object row":
        table[x] = list(table[x].values())
    elif kind == "missing cell":
        del table[x][y]
    else:
        table[x][y] = {"unknown id": "zz", "number": 3, "null": None, "array": [y], "object": {y: y}}[kind]


@pytest.mark.parametrize("name", ["l1", "6x7"])
def test_parse_binop_reports_the_first_bad_cell_in_row_major_order(fx_l1, name):
    """Two bad cells of any kinds: the error is the one of the cell first in
    row-major order, with its type and exact message."""
    table = construct(fx_l1.spec()) if name == "l1" else _km_s_6x7()
    lat = table.lattice
    els = lat.elements
    n = len(els)
    good = json.loads(serialize_binop(table))
    # Pairs of cells, the first before the second in row-major order: in
    # different rows, with the second's column before or after the first's,
    # and in one row.
    placements = [((1, n - 1), (2, 0)), ((0, 0), (n - 1, n - 1)), ((2, 1), (2, 3))]
    for first, second in itertools.product(BAD_CELLS, repeat=2):
        for (i, j), (k, m) in placements:
            if i == k and (first in ROW_KINDS or second in ROW_KINDS):
                continue
            doc = json.loads(json.dumps(good))
            _break_cell(doc["table"], second, els[k], els[m])
            _break_cell(doc["table"], first, els[i], els[j])
            kind, message = BAD_CELLS[first]
            with pytest.raises(ParseError) as err:
                parse_binop(json.dumps(doc), lat)
            assert type(err.value) is kind
            assert str(err.value) == message.format(x=els[i], y=els[j]), (first, second, (i, j), (k, m))


def test_km_s_table_on_the_6x7_product_round_trips():
    table = _km_s_6x7()
    assert parse_binop(serialize_binop(table), table.lattice) == table


# -- rendering and export ----------------------------------------------------

@pytest.mark.parametrize("name", ["l1", "l2", "l3"])
def test_render_matches_bundled_golden(name, request):
    fx = request.getfixturevalue(f"fx_{name}")
    assert render_table(construct(fx.spec())) == data_text(f"{name}.table.txt")


def test_render_layout(fx_l1):
    text = render_table(construct(fx_l1.spec()))
    lines = text.splitlines()
    assert lines[0].split() == ["U"] + list(fx_l1.lattice.elements)
    assert set(lines[1]) == {"-"}
    assert len(lines) == len(fx_l1.lattice.elements) + 2


def test_export_dot_edges(fx_l1):
    dot = export_dot(fx_l1.lattice)
    assert dot.startswith("digraph hasse {")
    edges = [line for line in dot.splitlines() if "->" in line]
    assert len(edges) == len(fx_l1.lattice.covers) == 11
    assert '  "e" -> "j";' in edges


def test_export_dot_escapes_quotes_and_backslashes():
    doc = {
        "elements": ["0", 'a"b', "c\\", "1"],
        "covers": [["0", 'a"b'], ["0", "c\\"], ['a"b', "1"], ["c\\", "1"]],
        "bottom": "0",
        "top": "1",
    }
    lines = export_dot(parse_lattice(json.dumps(doc))).splitlines()
    assert lines[3:] == [
        '  "0";',
        '  "a\\"b";',
        '  "c\\\\";',
        '  "1";',
        '  "0" -> "a\\"b";',
        '  "0" -> "c\\\\";',
        '  "a\\"b" -> "1";',
        '  "c\\\\" -> "1";',
        "}",
    ]


def test_export_dot_dual_reverses_edges(fx_l1):
    edges = {
        line.strip() for line in export_dot(fx_l1.lattice).splitlines() if "->" in line
    }
    dual_edges = {
        line.strip()
        for line in export_dot(fx_l1.lattice.dual()).splitlines()
        if "->" in line
    }
    assert dual_edges == {
        f'"{b}" -> "{a}";'
        for e in edges
        for a, b in [e.rstrip(";").replace('"', "").split(" -> ")]
    }


# -- CLI ---------------------------------------------------------------------

def test_cli_validate_lattice(capsys):
    assert cli_main(["validate", "--lattice", data_path("l1.lattice.json")]) == 0
    assert "valid bounded lattice" in capsys.readouterr().out


def test_cli_validate_operator_json(capsys):
    rc = cli_main(
        [
            "--json",
            "validate",
            "--lattice",
            data_path("l1.lattice.json"),
            "--operator",
            data_path("l1.cl1.op.json"),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"valid": True, "kind": "closure"}


def test_cli_missing_file_is_exit_2(capsys):
    assert cli_main(["validate", "--lattice", "/nonexistent.json"]) == 2


def test_cli_bad_usage_is_exit_2(capsys):
    assert cli_main(["no-such-command"]) == 2


CHAIN3 = {"elements": ["0", "a", "1"], "covers": [["0", "a"], ["a", "1"]], "bottom": "0", "top": "1"}
# A full table on CHAIN3: well formed, but no t-(co)norm document.
CHAIN3_JOIN = {"0": {"0": "0", "a": "a", "1": "1"}, "a": {"0": "a", "a": "a", "1": "1"}, "1": {"0": "1", "a": "1", "1": "1"}}
# The join on [a, 1]: a t-conorm with neutral element a.
CHAIN3_UPPER_JOIN = {"a": {"a": "a", "1": "1"}, "1": {"a": "1", "1": "1"}}


@pytest.mark.parametrize(
    "patch,operator",
    [
        ({"elements": [["a"]]}, None),
        ({"elements": "0a1"}, None),
        ({"elements": ["0", "a", "a", "1"]}, None),
        ({"elements": [0, 1], "covers": [[0, 1]], "bottom": 0, "top": 1}, None),
        ({"covers": 5}, None),
        ({"covers": [["0", "a", "1"]]}, None),
        ({"covers": ["0a"]}, None),
        ({"covers": [["0", 1]]}, None),
        ({"bottom": ["0"]}, None),
        ({}, {"kind": "bogus", "preset": "identity"}),
        ({}, {"kind": ["closure"], "preset": "identity"}),
        ({"covers": [["0", "a"], ["a", "1"], ["0", "a"]]}, None),
        ({"covers": [["0", "a"], ["a", "1"], ["0", "1"]]}, None),
    ],
)
def test_cli_malformed_document_is_exit_2(tmp_path, capsys, patch, operator):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({**CHAIN3, **patch}))
    argv = ["validate", "--lattice", str(lattice)]
    if operator is not None:
        op = tmp_path / "op.json"
        op.write_text(json.dumps(operator))
        argv += ["--operator", str(op)]
    assert cli_main(argv) == 2
    _assert_one_error_line(capsys)


def test_cli_document_not_utf8_is_exit_2(tmp_path, capsys):
    # CHAIN3 with "a" renamed to an e-acute, written in Latin-1.
    text = json.dumps(CHAIN3).replace('"a"', '"\u00e9"')
    lattice = tmp_path / "lattice.json"
    lattice.write_bytes(text.encode("latin-1"))
    assert cli_main(["validate", "--lattice", str(lattice)]) == 2
    _assert_one_error_line(capsys)


# A diamond whose side element is a lone surrogate: valid JSON, written in
# ASCII, but no UTF-8 stream can write the id.
SURROGATE = "\ud800"
DIAMOND = {
    "elements": ["0", SURROGATE, "e", "1"],
    "covers": [["0", SURROGATE], ["0", "e"], [SURROGATE, "1"], ["e", "1"]],
    "bottom": "0",
    "top": "1",
}


def test_element_id_not_encodable_as_utf8_is_a_parse_error():
    with pytest.raises(ParseError, match=re.escape(repr(SURROGATE))):
        parse_lattice(json.dumps(DIAMOND))


@pytest.mark.parametrize("command", ["export-dot", "classify", "validate"])
def test_cli_element_id_not_encodable_as_utf8_is_exit_2(tmp_path, capsys, command):
    # A StringIO stdout takes any str, so the request writes to a strict
    # UTF-8 stream, as a terminal or a pipe is.
    elements, covers = DIAMOND["elements"], [tuple(c) for c in DIAMOND["covers"]]
    lat = build_lattice(elements, covers, "0", "1")
    lattice, table = tmp_path / "lattice.json", tmp_path / "table.json"
    lattice.write_text(json.dumps(DIAMOND))
    table.write_text(serialize_binop(reference_karacal_mesiar(lat, "e", join_tconorm(lat, "e"), "s")))
    argv = [command, "--lattice", str(lattice)] + (["--binop", str(table)] if command == "classify" else [])
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    with contextlib.redirect_stdout(stdout):
        rc = cli_main(argv)
        stdout.flush()
    assert rc == 2
    _assert_one_error_line(capsys)


def _run_latuni(argv, env=None, **kwargs):
    """``python -m latuni.cli argv`` in a child process importing this
    latuni; stdout and stderr are captured as bytes unless redirected."""
    env = {**os.environ, "PYTHONPATH": str(Path(latuni.__file__).parents[1]), **(env or {})}
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "latuni.cli", *argv], env=env, stderr=subprocess.PIPE, timeout=120, **kwargs
    )


@pytest.mark.parametrize("command", ["export-dot", "classify"])
def test_cli_element_id_not_encodable_on_an_ascii_stdout_is_exit_2(tmp_path, command):
    """A diamond whose side id is an e-acute, written to an ASCII stdout:
    one ASCII error line, no traceback and nothing on stdout."""
    acute = {SURROGATE: "\u00e9"}
    elements = [acute.get(x, x) for x in DIAMOND["elements"]]
    covers = [tuple(acute.get(x, x) for x in c) for c in DIAMOND["covers"]]
    lat = build_lattice(elements, covers, "0", "1")
    lattice, table = tmp_path / "lattice.json", tmp_path / "table.json"
    lattice.write_text(serialize_lattice(lat), encoding="utf-8")
    table.write_text(serialize_binop(reference_karacal_mesiar(lat, "e", join_tconorm(lat, "e"), "s")))
    argv = [command, "--lattice", str(lattice)] + (["--binop", str(table)] if command == "classify" else [])
    done = _run_latuni(argv, env={"PYTHONIOENCODING": "ascii"})
    err = done.stderr.decode("ascii")
    assert done.returncode == 2 and done.stdout == b""
    assert err == "error: the ascii encoding of stdout cannot write '\\xe9'\n"


def test_cli_closed_stdout_pipe_is_exit_1_without_a_traceback():
    """The reader of stdout has gone, as after ``| head -2``: exit 1, and
    nothing on stderr."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_latuni(["search-closures", "--lattice", data_path("l1.lattice.json")], stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 1 and done.stderr == b""


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,document",
    [
        ("operator", {"kind": "closure", "map": 5}),
        ("operator", {"kind": "closure", "map": [1]}),
        ("operator", {"kind": "closure", "map": {"0": "0", "a": ["a"], "1": "1"}}),
        ("operator", {"kind": "closure", "preset": 5}),
        ("verify", {"neutral": "a", "table": 5}),
        ("verify", {"neutral": "a", "table": {"0": 5}}),
        ("verify", {"neutral": "a", "table": {"0": {"0": ["0"]}}}),
        ("verify", {"neutral": ["a"], "table": {}}),
        ("boundary", {"neutral": "a", "domain": 5, "table": {}}),
        ("boundary", {"neutral": "a", "domain": {"low": 0, "high": "1"}, "table": {}}),
        ("boundary", {"neutral": "a", "domain": {"low": "a", "high": ["1"]}, "table": {}}),
        ("boundary", {"neutral": "a", "domain": {"low": "zz", "high": "1"}, "table": {}}),
        ("boundary", {"neutral": "a", "table": CHAIN3_JOIN}),
        ("boundary", {"neutral": "a", "domain": None, "table": CHAIN3_JOIN}),
        ("boundary-clo2", {"neutral": "a", "table": CHAIN3_JOIN}),
        ("search-pairs", {"neutral": "a", "table": CHAIN3_JOIN}),
        ("search-pairs", {"neutral": "a", "domain": None, "table": CHAIN3_JOIN}),
        # Raw text: too deep for the JSON parser, or an integer past its digit limit.
        pytest.param("lattice", "[" * 100000 + "]" * 100000, id="lattice-too-deep"),
        pytest.param("lattice", '{"elements": ' + "1" * 5000 + "}", id="lattice-huge-integer"),
        pytest.param("verify", "[" * 100000 + "]" * 100000, id="verify-too-deep"),
        ("boundary", {"neutral": "1", "domain": {"low": "a", "high": "1"}, "table": CHAIN3_UPPER_JOIN}),
        ("boundary", {"neutral": "0", "domain": {"low": "a", "high": "1"}, "table": CHAIN3_UPPER_JOIN}),
        ("boundary", {"neutral": "1", "domain": {"low": "1", "high": "a"}, "table": CHAIN3_UPPER_JOIN}),
    ],
)
def test_cli_malformed_operator_or_binop_is_exit_2(tmp_path, capsys, command, document):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps(CHAIN3))
    path = tmp_path / "doc.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"kind": "closure", "preset": "identity"}))
    argv = {
        "lattice": ["validate", "--lattice", str(path)],
        "operator": ["validate", "--lattice", str(lattice), "--operator", str(path)],
        "verify": ["verify", "--lattice", str(lattice), "--binop", str(path)],
        "boundary": [
            "construct", "--family", "km-s", "--lattice", str(lattice),
            "--e", "a", "--boundary", str(path),
        ],
        "boundary-clo2": [
            "construct", "--family", "clo2", "--lattice", str(lattice), "--e", "a",
            "--boundary", str(path), "--op-low", str(identity), "--op-inc", str(identity),
        ],
        "search-pairs": [
            "search-pairs", "--family", "int2", "--lattice", str(lattice),
            "--e", "a", "--boundary", str(path),
        ],
    }[command]
    assert cli_main(argv) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "operator,message",
    [
        (
            {"kind": "closure", "map": {"0": "zz", "a": "a", "1": "1"}},
            "operator map entry '0' -> 'zz' references an unknown element",
        ),
        ({"kind": "interior", "preset": "meet-with:zz"}, "preset element 'zz' unknown"),
    ],
)
def test_cli_operator_with_unknown_element_is_exit_2(tmp_path, capsys, operator, message):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps(CHAIN3))
    op = tmp_path / "op.json"
    op.write_text(json.dumps(operator))
    assert cli_main(["validate", "--lattice", str(lattice), "--operator", str(op)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_verify_partial_binop_without_role_is_exit_2(capsys):
    # l1's t-conorm document is partial; verify names no role for it.
    argv = ["verify", "--lattice", data_path("l1.lattice.json"), "--binop", data_path("l1.tconorm.json")]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "error: a partial binop document needs a role to certify against\n"


def test_cli_construct_matches_library(fx_l1, capsys):
    rc = cli_main(
        [
            "construct",
            "--family",
            "clo2",
            "--lattice",
            data_path("l1.lattice.json"),
            "--e",
            "e",
            "--boundary",
            data_path("l1.tconorm.json"),
            "--op-low",
            data_path("l1.cl1.op.json"),
            "--op-inc",
            data_path("l1.cl2.op.json"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert parse_binop(out, fx_l1.lattice) == construct(fx_l1.spec())


def test_cli_construct_km_preset_needs_no_operators(capsys):
    rc = cli_main(
        [
            "construct",
            "--family",
            "km-s",
            "--lattice",
            data_path("l1.lattice.json"),
            "--e",
            "e",
            "--boundary",
            data_path("l1.tconorm.json"),
        ]
    )
    assert rc == 0


def test_cli_construct_without_a_required_operator_is_exit_2(capsys):
    argv = [
        "construct", "--family", "clo2", "--lattice", data_path("l1.lattice.json"),
        "--e", "e", "--boundary", data_path("l1.tconorm.json"),
    ]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "error: --family clo2 requires --op-low\n"


def test_cli_construct_reports_a_failed_hypothesis(capsys):
    # l2's operators swapped: op_low = x v k is not below op_inc = x outside [e, 1].
    argv = [
        "construct", "--family", "clo2", "--lattice", data_path("l2.lattice.json"),
        "--e", "e", "--boundary", data_path("l2.tconorm.json"),
        "--op-low", data_path("l2.cl2.op.json"), "--op-inc", data_path("l2.cl1.op.json"),
    ]
    assert cli_main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "hypotheses: FAIL"
    assert out[3].startswith("  comparability: FAIL  ")
    assert out[4] == "    witnesses: 0, a, m, s"


def _library_construct(spec):
    """The exit code and the ``--json`` output of ``construct`` on ``spec``."""
    report = check_hypotheses(spec)
    if report.passed:
        report = check_characteristic(spec)
    if not report.passed:
        return 1, json.dumps(report.as_dict(), indent=2) + "\n"
    return 0, serialize_binop(construct(spec))


@pytest.mark.parametrize(
    "preset,low,inc,family,operators",
    [
        ("single-clo", "l1.cl1.op.json", None, Family.CLO, ("low", "low")),
        ("single-clo", {"kind": "closure", "preset": "join-with:e"}, None, Family.CLO, ("low", "low")),
        ("clo-id", None, "l1.cl2.op.json", Family.CLO, ("identity", "inc")),
        ("single-int", {"kind": "interior", "preset": "meet-with:k"}, None, Family.INT, ("low", "low")),
        ("int-id", None, {"kind": "interior", "preset": "meet-with:e"}, Family.INT, ("identity", "inc")),
    ],
)
def test_cli_construct_operator_presets_match_library(
    tmp_path, capsys, fx_l1, preset, low, inc, family, operators
):
    lat = fx_l1.lattice
    boundary = fx_l1.tconorm if family.closure_based else meet_tnorm(lat, "e")
    boundary_path = tmp_path / "boundary.json"
    boundary_path.write_text(serialize_binop(boundary))
    argv = [
        "--json", "construct", "--family", preset, "--lattice", data_path("l1.lattice.json"),
        "--e", "e", "--boundary", str(boundary_path),
    ]
    given = {}
    for flag, doc in (("low", low), ("inc", inc)):
        if doc is None:
            continue
        text = data_text(doc) if isinstance(doc, str) else json.dumps(doc)
        path = tmp_path / f"{flag}.json"
        path.write_text(text)
        given[flag] = parse_operator(text, lat)
        argv += [f"--op-{flag}", str(path)]
    kind = CLOSURE if family.closure_based else INTERIOR
    given["identity"] = identity_operator(lat, kind)
    spec = ConstructionSpec(family, lat, "e", boundary, *(given[op] for op in operators))
    rc = cli_main(argv)
    assert (rc, capsys.readouterr().out) == _library_construct(spec)


@pytest.mark.parametrize("command,family", [("construct", "km-s"), ("search-pairs", "clo2")])
@pytest.mark.parametrize("e", ["0", "1", "zz"])
def test_cli_neutral_at_a_bound_is_exit_2(capsys, command, family, e):
    argv = [
        command, "--family", family, "--lattice", data_path("l1.lattice.json"),
        "--e", e, "--boundary", data_path("l1.tconorm.json"),
    ]
    assert cli_main(argv) == 2
    _assert_one_error_line(capsys)


def test_cli_construct_force(tmp_path, capsys, fx_l1):
    bad_op = tmp_path / "bad.op.json"
    bad_op.write_text('{"kind": "closure", "preset": "join-with:e"}\n')
    argv = [
        "construct",
        "--family",
        "clo2",
        "--lattice",
        data_path("l1.lattice.json"),
        "--e",
        "e",
        "--boundary",
        data_path("l1.tconorm.json"),
        "--op-low",
        str(bad_op),
        "--op-inc",
        str(bad_op),
    ]
    assert cli_main(argv) == 1
    assert "FAIL" in capsys.readouterr().out
    assert cli_main(argv + ["--force"]) == 0
    forced = parse_binop(capsys.readouterr().out, fx_l1.lattice)
    # the forced table must then fail verification
    from latuni import validate_uninorm

    assert not validate_uninorm(forced).ok


def test_cli_verify_exit_codes(tmp_path, capsys, fx_l1):
    good = tmp_path / "good.json"
    good.write_text(serialize_binop(construct(fx_l1.spec())))
    rc = cli_main(
        ["verify", "--lattice", data_path("l1.lattice.json"), "--binop", str(good)]
    )
    assert rc == 0 and "associative: pass" in capsys.readouterr().out

    doc = json.loads(good.read_text())
    doc["table"]["a"]["j"] = "j"
    doc["table"]["j"]["a"] = "j"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = cli_main(
        ["verify", "--lattice", data_path("l1.lattice.json"), "--binop", str(bad)]
    )
    assert rc == 1 and "FAIL" in capsys.readouterr().out


def test_cli_classify_json(tmp_path, capsys, fx_l2):
    table = tmp_path / "u.json"
    table.write_text(serialize_binop(construct(fx_l2.spec())))
    rc = cli_main(
        [
            "--json",
            "classify",
            "--lattice",
            data_path("l2.lattice.json"),
            "--binop",
            str(table),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["u_min_star"]["member"] is True
    assert payload["u_min"]["member"] is False


def test_cli_search_closures(tmp_path, capsys):
    lattice = tmp_path / "m2.json"
    lattice.write_text(
        json.dumps(
            {
                "elements": ["0", "a", "b", "1"],
                "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
                "bottom": "0",
                "top": "1",
            }
        )
    )
    assert cli_main(["search-closures", "--lattice", str(lattice)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert all(json.loads(line)["kind"] == "closure" for line in lines)


def test_cli_search_pairs(tmp_path, capsys):
    lattice = tmp_path / "m2.json"
    lattice.write_text(
        json.dumps(
            {
                "elements": ["0", "a", "b", "1"],
                "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
                "bottom": "0",
                "top": "1",
            }
        )
    )
    boundary = tmp_path / "s.json"
    boundary.write_text(
        json.dumps(
            {
                "neutral": "a",
                "domain": {"low": "a", "high": "1"},
                "table": {"a": {"a": "a", "1": "1"}, "1": {"a": "1", "1": "1"}},
            }
        )
    )
    rc = cli_main(
        [
            "search-pairs",
            "--lattice",
            str(lattice),
            "--family",
            "clo2",
            "--e",
            "a",
            "--boundary",
            str(boundary),
        ]
    )
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines and all(isinstance(l["characteristic_pass"], bool) for l in lines)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_cli_search_pairs_prints_the_library_stream_on_l2(tmp_path, capsys, family):
    lat = l2().lattice
    text = data_text("l2.tconorm.json") if family.closure_based else serialize_binop(meet_tnorm(lat, "e"))
    boundary = tmp_path / "boundary.json"
    boundary.write_text(text)
    argv = [
        "search-pairs", "--lattice", data_path("l2.lattice.json"), "--family", family.value,
        "--e", "e", "--boundary", str(boundary),
    ]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3513
    assert sum('"characteristic_pass": true' in line for line in out) == 792
    expected = [
        {"op_low": spec.op_low.mapping, "op_inc": spec.op_inc.mapping, "characteristic_pass": verdict}
        for spec, verdict in enumerate_admissible_pairs(lat, "e", family, parse_binop(text, lat, role=family.role))
    ]
    assert [json.loads(line) for line in out] == expected


def test_cli_search_pairs_takes_no_pool_cap(capsys):
    argv = [
        "search-pairs", "--lattice", data_path("l2.lattice.json"), "--family", "clo2",
        "--e", "e", "--boundary", data_path("l2.tconorm.json"), "--pool-cap", "1",
    ]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == ""


def test_cli_search_pairs_strict_fails_every_pair_of_a_non_strict_tconorm(tmp_path, capsys):
    """l2's t-conorm on [e,1] other than the join reaches the top on ]e,1[,
    so under clo2-strict it admits the join's pairs and passes none."""
    lat = l2().lattice
    join = parse_binop(data_text("l2.tconorm.json"), lat, role=TCONORM)
    (other,) = [s for s in enumerate_partial_binops(lat, join.domain, TCONORM) if s.table != join.table]
    boundary = tmp_path / "s.json"
    boundary.write_text(serialize_binop(other))

    def lines(path):
        argv = [
            "search-pairs", "--lattice", data_path("l2.lattice.json"), "--family", "clo2-strict",
            "--e", "e", "--boundary", path,
        ]
        assert cli_main(argv) == 0
        return capsys.readouterr().out.splitlines()

    got = lines(str(boundary))
    assert got and all('"characteristic_pass": false' in line for line in got)
    assert len(got) == len(lines(data_path("l2.tconorm.json")))


def test_cli_search_tconorms(tmp_path, capsys):
    lattice = tmp_path / "chain3.json"
    lattice.write_text(
        json.dumps(
            {
                "elements": ["c0", "c1", "c2"],
                "covers": [["c0", "c1"], ["c1", "c2"]],
                "bottom": "c0",
                "top": "c2",
            }
        )
    )
    rc = cli_main(
        ["search-tconorms", "--lattice", str(lattice), "--low", "c0", "--high", "c2"]
    )
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_cli_search_tconorms_on_a_one_element_interval(capsys):
    argv = ["search-tconorms", "--lattice", data_path("l2.lattice.json"), "--low", "e", "--high", "e"]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == '{"domain": ["e"], "table": {"e": {"e": "e"}}}\n'


@pytest.mark.parametrize("low,high", [("zz", "1"), ("0", "zz"), ("1", "0"), ("a", "m")])
def test_cli_search_tconorms_bad_interval_is_exit_2(capsys, low, high):
    argv = ["search-tconorms", "--lattice", data_path("l1.lattice.json"), "--low", low, "--high", high]
    assert cli_main(argv) == 2
    _assert_one_error_line(capsys)


def test_cli_request_past_an_enumeration_cap_is_exit_2(tmp_path, capsys):
    # [0,1] of l1 has 10 elements, past the uninorm search cap of 5.
    argv = ["search-tconorms", "--lattice", data_path("l1.lattice.json"), "--low", "0", "--high", "1"]
    assert cli_main(argv) == 2
    _assert_one_error_line(capsys)
    # [c0,c5] of a 6-chain has 6 elements, one past that cap.
    lattice = tmp_path / "chain6.json"
    lattice.write_text(serialize_lattice(chain(6)))
    assert cli_main(["search-tconorms", "--lattice", str(lattice), "--low", "c0", "--high", "c5"]) == 2
    assert capsys.readouterr() == ("", "error: uninorm search capped at 5 elements\n")
    # 13 elements, past the unary lattice cap of 12.
    lattice = tmp_path / "chain13.json"
    lattice.write_text(serialize_lattice(chain(13)))
    for kind in ("closure", "interior"):
        assert cli_main(["search-closures", "--lattice", str(lattice), "--kind", kind]) == 2
        _assert_one_error_line(capsys)


@pytest.mark.parametrize("name", ["l1", "l2", "l3"])
def test_cli_reproduce_matches_golden(name, capsys):
    assert cli_main(["reproduce", name]) == 0
    assert capsys.readouterr().out == data_text(f"{name}.table.txt")


def test_cli_export_dot(capsys):
    assert cli_main(["export-dot", "--lattice", data_path("l1.lattice.json")]) == 0
    assert capsys.readouterr().out.count("->") == 11


def test_cli_shared_parser_keeps_no_state_between_calls(tmp_path, fx_l1):
    """A sequence of calls on the one parser of the process gives, call by
    call, what each call gives alone on a freshly built parser."""
    table = tmp_path / "u.json"
    table.write_text(serialize_binop(construct(fx_l1.spec())))
    verify = ["verify", "--lattice", data_path("l1.lattice.json"), "--binop", str(table)]
    sequence = [
        ["--json", *verify],
        verify,
        ["verify", "--lattice", data_path("l1.lattice.json")],
        ["--help"],
        [
            "construct", "--family", "km-s", "--lattice", data_path("l1.lattice.json"),
            "--e", "e", "--boundary", data_path("l1.tconorm.json"),
        ],
    ]

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
        return rc, out.getvalue(), err.getvalue()

    alone = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in sequence] == alone
    assert [rc for rc, _, _ in alone] == [0, 0, 2, 0, 0]
    assert cli.build_parser.cache_info().misses == 1
