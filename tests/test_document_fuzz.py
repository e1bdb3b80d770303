"""Fuzz the document boundary of the command line.

Each example takes one valid l2 document, breaks it (deletes a key or an
entry, swaps a value for arbitrary JSON, nulls the binop ``domain``, or
writes bytes that are not UTF-8), and runs every subcommand that reads
that document.  Whatever the document, a request ends in exit code 0, 1
or 2 with at most one line on stderr, and no exception escapes
``cli_main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import given, settings, strategies as st

from latuni import construct, meet_tnorm, serialize_binop
from latuni.cli import cli_main
from latuni.fixtures import l2

DATA = resources.files("latuni") / "data"


def _documents() -> dict:
    fx = l2()
    texts = {
        "lattice": (DATA / "l2.lattice.json").read_text(),
        "closure": (DATA / "l2.cl1.op.json").read_text(),
        "interior": json.dumps({"kind": "interior", "preset": "meet-with:e"}),
        "tconorm": (DATA / "l2.tconorm.json").read_text(),
        "tnorm": serialize_binop(meet_tnorm(fx.lattice, "e")),
        "uninorm": serialize_binop(construct(fx.spec())),
    }
    return {name: json.loads(text) for name, text in texts.items()}


DOCUMENTS = _documents()
ELEMENTS = DOCUMENTS["lattice"]["elements"]

L = ("--lattice", "{lattice}")
COMMANDS = [
    ("validate", *L),
    ("validate", *L, "--operator", "{closure}"),
    ("validate", *L, "--operator", "{interior}"),
    ("construct", "--family", "clo2", *L, "--e", "e", "--boundary", "{tconorm}",
     "--op-low", "{closure}", "--op-inc", "{closure}"),
    ("construct", "--family", "int2-strict", *L, "--e", "e", "--boundary", "{tnorm}",
     "--op-low", "{interior}", "--op-inc", "{interior}"),
    ("construct", "--family", "km-s", *L, "--e", "e", "--boundary", "{tconorm}"),
    ("construct", "--family", "km-t", *L, "--e", "e", "--boundary", "{tnorm}"),
    # A full table where a t-(co)norm document belongs.
    ("construct", "--family", "km-s", *L, "--e", "e", "--boundary", "{uninorm}"),
    ("verify", *L, "--binop", "{uninorm}"),
    ("classify", *L, "--binop", "{uninorm}"),
    ("search-closures", *L, "--kind", "interior"),
    ("search-pairs", "--family", "clo2", *L, "--e", "e", "--boundary", "{tconorm}"),
    ("search-pairs", "--family", "int2", *L, "--e", "e", "--boundary", "{tnorm}"),
    ("search-pairs", "--family", "int2", *L, "--e", "e", "--boundary", "{uninorm}"),
    ("search-tconorms", *L, "--low", "e", "--high", "1"),
    ("export-dot", *L),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3) | st.sampled_from(ELEMENTS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(ELEMENTS), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Every position inside a JSON value, the root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def broken_documents(draw):
    """(document name, the bytes written in its place)."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    mutation = draw(st.sampled_from(["null-domain", "not-utf-8", "delete", "swap"]))
    if mutation == "null-domain":
        doc["domain"] = None
    elif mutation == "delete":
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        del _parent(doc, path)[path[-1]]
    elif mutation == "swap":
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(JSON_VALUES)
        if path:
            _parent(doc, path)[path[-1]] = value
        else:
            doc = value
    data = json.dumps(doc, indent=2).encode()
    if mutation == "not-utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3(", b"\x80"])) + data[at:]
    return name, data


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(broken_documents())
def test_cli_survives_broken_documents(broken):
    name, data = broken
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for doc_name, doc in DOCUMENTS.items():
            paths[doc_name] = Path(tmp) / f"{doc_name}.json"
            paths[doc_name].write_text(json.dumps(doc))
        paths[name].write_bytes(data)
        for command in COMMANDS:
            if "{" + name + "}" not in command:
                continue
            argv = [arg.format(**paths) for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_main(argv)
            assert rc in (0, 1, 2), (argv, rc)
            assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
