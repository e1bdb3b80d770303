"""JSON document formats, table rendering, and DOT export.

Three document kinds:

* lattice document: ``{"elements": [...], "covers": [[lo, hi], ...],
  "bottom": id, "top": id}``, each cover a Hasse edge listed once
* operator document: ``{"kind": "closure"|"interior", "map": {id: id}}``
  or ``{"kind": ..., "preset": "identity"|"join-with:<k>"|"meet-with:<k>"}``
* binop document: ``{"neutral": id, "domain": {"low": id, "high": id}?,
  "table": {row: {col: id}}}``

Element order inside documents is semantic: it fixes scan, witness, and
rendering order, so canonical serialization preserves it.  Documents and
``--json`` reports are written by :func:`dumps`, whose output is
``json.dumps(value, indent=2)`` byte for byte.
"""

from __future__ import annotations

import json

from .binop import FullBinOpTable, PartialBinOpTable, role_neutral, validate_partial
from .errors import ParseError, ReferenceToUnknownElement
from .lattice import BoundedLattice, IntervalSpec, build_lattice
from .unary import CLOSURE, INTERIOR, UnaryOpTable, validate_unary


# The C string escaper of ``json.dumps`` with ensure_ascii, its default.
# It takes only str, and raises TypeError on anything else.
_escape = json.encoder.encode_basestring_ascii


def dumps(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the values latuni
    writes: dicts with str keys, lists and tuples, str, int, bool and None.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is
    given.  This writer escapes strings with the same C escaper and writes
    each flat run with one ``str.join``: a dict whose values are all str
    (a table row), a list of str, and a list of lists or tuples of str
    (witness triples).  Any other value, or a key that is not a str,
    raises TypeError.
    """
    out = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value, nl: str, out: list) -> None:
    """Append ``value`` to ``out``.  ``nl`` is a newline and the indent of
    the line ``value`` starts on; its members go one level deeper."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        inner = nl + "  "
        if not value:
            out.append("[]")
        elif (run := _flat_members(value, inner)) is not None:
            out.append(f"[{inner}{run}{nl}]")
        else:
            out.append("[")
            sep = inner
            for item in value:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif isinstance(value, dict):
        inner = nl + "  "
        if not value:
            out.append("{}")
        elif (run := _flat_entries(value, inner)) is not None:
            out.append(f"{{{inner}{run}{nl}}}")
        else:
            out.append("{")
            sep = inner
            for key, item in value.items():
                out.append(f"{sep}{_escape(key)}: ")
                _write(item, inner, out)
                sep = "," + inner
            out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _flat_entries(value: dict, nl: str) -> str | None:
    """The entries of a dict of str values, each on its own line ``nl``;
    None when some value is not a str."""
    try:
        return ("," + nl).join([f"{_escape(key)}: {_escape(item)}" for key, item in value.items()])
    except TypeError:
        return None


def _flat_members(items, nl: str) -> str | None:
    """The members of a list of str, or of a list of lists or tuples of
    str, each on its own line ``nl``; None for any other list."""
    sep = "," + nl
    try:
        return sep.join(map(_escape, items))
    except TypeError:
        pass
    if not all(isinstance(item, (list, tuple)) for item in items):
        return None
    deeper = nl + "  "
    inner_sep = "," + deeper
    try:
        return sep.join([f"[{deeper}{inner_sep.join(map(_escape, item))}{nl}]" if item else "[]" for item in items])
    except TypeError:
        return None


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, too deep
        raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be a JSON object")
    return doc


def _require_keys(doc: dict, keys) -> None:
    for key in keys:
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def element(lat: BoundedLattice, x: str, what: str) -> str:
    """``x``, an element id given from outside (``what`` names where), when
    ``lat`` has it; ReferenceToUnknownElement otherwise."""
    if x not in lat:
        raise ReferenceToUnknownElement(f"{what} {x!r} is not a lattice element")
    return x


def closed_interval(lat: BoundedLattice, low: str, high: str, low_name: str, high_name: str) -> IntervalSpec:
    """[low, high], an interval named from outside, when both ends are
    elements of ``lat`` and low <= high; a ParseError otherwise."""
    if not lat.leq(element(lat, low, low_name), element(lat, high, high_name)):
        raise ParseError(f"{low_name} {low!r} is not below {high_name} {high!r}")
    return IntervalSpec(low, high)


# -- lattice documents -------------------------------------------------------

def parse_lattice(text: str) -> BoundedLattice:
    doc = _load_json(text)
    _require_keys(doc, ("elements", "covers", "bottom", "top"))
    elements = doc["elements"]
    if not _is_string_list(elements) or len(set(elements)) != len(elements):
        raise ParseError("'elements' must be an array of unique strings")
    for x in elements:
        # JSON's \u escapes can spell a lone surrogate, which no UTF-8 stream
        # can write; every id reaches the output, so it is refused here.
        try:
            x.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"element id {x!r} is not encodable as UTF-8") from None
    known = set(elements)
    if not isinstance(doc["covers"], list):
        raise ParseError("'covers' must be an array")
    covers = []
    for pair in doc["covers"]:
        if not _is_string_list(pair) or len(pair) != 2:
            raise ParseError(f"cover entry {pair!r} is not an array of two strings")
        lo, hi = pair
        if lo not in known or hi not in known:
            raise ReferenceToUnknownElement(f"cover {pair!r} references an unknown element")
        covers.append((lo, hi))
    if len(set(covers)) != len(covers):
        pair = next(c for i, c in enumerate(covers) if c in covers[:i])
        raise ParseError(f"cover {list(pair)!r} is repeated")
    for key in ("bottom", "top"):
        if not isinstance(doc[key], str) or doc[key] not in known:
            raise ReferenceToUnknownElement(f"{key} {doc[key]!r} is not a declared element")
    lat = build_lattice(elements, covers, doc["bottom"], doc["top"])
    # A cover is a Hasse edge when nothing lies strictly between its ends:
    # the interval [lo, hi] holds exactly two elements.
    pos = lat.positions
    for lo, hi in covers:
        if (lat.up[pos[lo]] & lat.down[pos[hi]]).bit_count() != 2:
            raise ParseError(f"cover {[lo, hi]!r} is not a Hasse edge")
    return lat


def serialize_lattice(lat: BoundedLattice) -> str:
    doc = {
        "elements": list(lat.elements),
        "covers": [list(c) for c in lat.covers],
        "bottom": lat.bottom,
        "top": lat.top,
    }
    return dumps(doc) + "\n"


# -- operator documents ------------------------------------------------------

def parse_operator(text: str, lat: BoundedLattice) -> UnaryOpTable:
    doc = _load_json(text)
    _require_keys(doc, ("kind",))
    kind = doc["kind"]
    if kind not in (CLOSURE, INTERIOR):
        raise ParseError(f"unknown operator kind {kind!r}")
    if "preset" in doc:
        if not isinstance(doc["preset"], str):
            raise ParseError("'preset' must be a string")
        mapping = _expand_preset(doc["preset"], lat)
    elif "map" in doc:
        mapping = doc["map"]
        if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
            raise ParseError("'map' must be an object from element ids to element ids")
        for x, v in mapping.items():
            if x not in lat or v not in lat:
                raise ReferenceToUnknownElement(
                    f"operator map entry {x!r} -> {v!r} references an unknown element"
                )
        for x in lat.elements:
            if x not in mapping:
                raise ParseError(f"operator map is missing element {x!r}")
    else:
        raise ParseError("operator document needs a 'map' or a 'preset'")
    return validate_unary(lat, kind, mapping)


def _expand_preset(preset: str, lat: BoundedLattice) -> dict:
    if preset == "identity":
        return {x: x for x in lat.elements}
    if preset.startswith("join-with:"):
        k = preset.split(":", 1)[1]
        if k not in lat:
            raise ReferenceToUnknownElement(f"preset element {k!r} unknown")
        return {x: lat.join(x, k) for x in lat.elements}
    if preset.startswith("meet-with:"):
        k = preset.split(":", 1)[1]
        if k not in lat:
            raise ReferenceToUnknownElement(f"preset element {k!r} unknown")
        return {x: lat.meet(x, k) for x in lat.elements}
    raise ParseError(f"unknown operator preset {preset!r}")


def serialize_operator(op: UnaryOpTable) -> str:
    doc = {
        "kind": op.kind,
        "map": op.mapping,
    }
    return dumps(doc) + "\n"


# -- binop documents ---------------------------------------------------------

def parse_binop(text: str, lat: BoundedLattice, *, role: str | None = None):
    """Parse a binop document.

    With a role, a certified PartialBinOpTable on the "domain" the document
    must give; without one, a FullBinOpTable over the whole lattice.
    """
    doc = _load_json(text)
    _require_keys(doc, ("neutral", "table"))
    neutral = doc["neutral"]
    if not isinstance(neutral, str):
        raise ParseError("'neutral' must be a string")
    element(lat, neutral, "neutral")
    if "domain" in doc and doc["domain"] is not None:
        dom_doc = doc["domain"]
        if not isinstance(dom_doc, dict):
            raise ParseError("'domain' must be an object")
        _require_keys(dom_doc, ("low", "high"))
        if not _is_string_list([dom_doc["low"], dom_doc["high"]]):
            raise ParseError("domain 'low' and 'high' must be strings")
        spec = closed_interval(lat, dom_doc["low"], dom_doc["high"], "domain low", "domain high")
        if role is not None and neutral != (want := role_neutral(role, spec)):
            raise ParseError(f"a {role} on [{spec.low}, {spec.high}] has neutral element {want!r}, not {neutral!r}")
        rows = lat.interval(spec)
    elif role is not None:
        raise ParseError(f"a {role} document needs a 'domain'")
    else:
        spec = None
        rows = lat.elements
    raw = doc["table"]
    if not isinstance(raw, dict):
        raise ParseError("'table' must be an object of rows")
    # Each row is read whole and accepted when every cell is a known id (a
    # set of ids is a subset of the positions' keys only when each is a
    # str).  A row that is missing, not an object, or has a missing,
    # unhashable or unknown cell is scanned again cell by cell for its
    # first error; the rows before it have none.
    known = lat.positions.keys()
    table = {}
    for x in rows:
        try:
            row = raw[x]
            cells = [row[y] for y in rows]
            whole = known >= set(cells)
        except (KeyError, TypeError):
            whole = False
        if not whole:
            _reject_row(lat, raw, x, rows)
        for y, v in zip(rows, cells):
            table[x, y] = v
    if spec is not None:
        if role is None:
            raise ParseError("a partial binop document needs a role to certify against")
        return validate_partial(lat, spec, role, table)
    return FullBinOpTable(lat, table, neutral=neutral)


def _reject_row(lat: BoundedLattice, raw: dict, x: str, rows) -> None:
    """Raise the first error of table row ``x``, scanning its cells in order."""
    if x not in raw:
        raise ParseError(f"table is missing row {x!r}")
    if not isinstance(raw[x], dict):
        raise ParseError(f"table row {x!r} must be an object")
    for y in rows:
        if y not in raw[x]:
            raise ParseError(f"table is missing cell ({x!r}, {y!r})")
        v = raw[x][y]
        if not isinstance(v, str):
            raise ParseError(f"table cell ({x!r}, {y!r}) must be a string")
        if v not in lat:
            raise ReferenceToUnknownElement(
                f"table cell ({x!r}, {y!r}) = {v!r} references an unknown element"
            )


def serialize_binop(op) -> str:
    lat = op.lattice
    if isinstance(op, PartialBinOpTable):
        rows = op.domain_elements
        domain = {"low": op.domain.low, "high": op.domain.high}
    else:
        rows = lat.elements
        domain = None
    t = op.table
    doc = {"neutral": op.neutral, "domain": domain, "table": {x: {y: t[x, y] for y in rows} for x in rows}}
    return dumps(doc) + "\n"


# -- rendering ---------------------------------------------------------------

CORNER = "U"


def render_table(binop: FullBinOpTable) -> str:
    """Fixed-width grid with header row/column in declared element order."""
    els = binop.lattice.elements
    width = max(len(CORNER), *(len(x) for x in els))
    for x in els:
        for y in els:
            width = max(width, len(binop(x, y)))

    def cell(s):
        return s.rjust(width)

    lines = [" ".join([cell(CORNER)] + [cell(y) for y in els])]
    lines.append("-" * len(lines[0]))
    for x in els:
        lines.append(" ".join([cell(x)] + [cell(binop(x, y)) for y in els]))
    return "\n".join(lines) + "\n"


def _dot_id(x: str) -> str:
    """A DOT quoted string: backslash and double quote escaped."""
    return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(lat: BoundedLattice) -> str:
    """Hasse diagram as a DOT digraph, cover edges bottom-to-top."""
    lines = [
        "digraph hasse {",
        "  rankdir=BT;",
        "  node [shape=circle];",
    ]
    for x in lat.elements:
        lines.append(f"  {_dot_id(x)};")
    for lo, hi in lat.covers:
        lines.append(f"  {_dot_id(lo)} -> {_dot_id(hi)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
