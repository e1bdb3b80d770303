"""Command-line surface.

Exit codes: 0 success, 1 check failure, 2 usage or parse error (among
them an unknown element id, or an interval whose low is not below its
high, named on the command line or in a document) or an argument the
library rejects (a bound as the neutral element, a lattice or interval
past an enumeration cap), or output that stdout's encoding cannot write
(an element id outside ASCII on an ASCII stdout).
With --json, machine-readable reports go to stdout; human-readable
summaries otherwise.  All output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import documents
from .binop import TCONORM, classify, validate_uninorm
from .construct import (
    ConstructionSpec,
    Family,
    check_characteristic,
    check_hypotheses,
    construct,
)
from .errors import HypothesesNotChecked, InvalidArgument, LatticeTooLarge, LatuniError, ParseError
from .fixtures import FIXTURES
from .search import (
    enumerate_admissible_pairs,
    enumerate_partial_binops,
    enumerate_unary,
)
from .unary import CLOSURE, INTERIOR, identity_operator

FAMILY_PRESETS = {
    # preset -> (family, op_low source, op_inc source); "arg" means taken
    # from the matching --op flag, "identity" forces the identity map, and
    # "low" reuses op_low.
    "clo2": (Family.CLO, "arg", "arg"),
    "int2": (Family.INT, "arg", "arg"),
    "clo2-strict": (Family.CLO_STRICT, "arg", "arg"),
    "int2-strict": (Family.INT_STRICT, "arg", "arg"),
    "single-clo": (Family.CLO, "arg", "low"),
    "clo-id": (Family.CLO, "identity", "arg"),
    "single-int": (Family.INT, "arg", "low"),
    "int-id": (Family.INT, "identity", "arg"),
    "km-s": (Family.CLO, "identity", "low"),
    "km-t": (Family.INT, "identity", "low"),
}


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def cmd_validate(args) -> int:
    lat = documents.parse_lattice(_read(args.lattice))
    if args.operator:
        op = documents.parse_operator(_read(args.operator), lat)
        _emit(args, {"valid": True, "kind": op.kind}, f"valid {op.kind} operator")
    else:
        _emit(args, {"valid": True, "elements": len(lat)}, f"valid bounded lattice ({len(lat)} elements)")
    return 0


def cmd_construct(args) -> int:
    family, low_src, inc_src = FAMILY_PRESETS[args.family]
    lat = documents.parse_lattice(_read(args.lattice))
    boundary = documents.parse_binop(_read(args.boundary), lat, role=family.role)

    def pick(src, flag_value, flag_name):
        if src == "identity":
            return identity_operator(lat, family.kind)
        if src == "low":
            return op_low
        if flag_value is None:
            raise ParseError(f"--family {args.family} requires {flag_name}")
        return documents.parse_operator(_read(flag_value), lat)

    op_low = pick(low_src, args.op_low, "--op-low")
    op_inc = pick(inc_src, args.op_inc, "--op-inc")
    spec = ConstructionSpec(family, lat, documents.element(lat, args.e, "--e"), boundary, op_low, op_inc)

    try:
        char = check_characteristic(spec)
    except HypothesesNotChecked:
        hyp = check_hypotheses(spec)
        _emit(args, hyp.as_dict(), _report_text("hypotheses", hyp))
        return 1
    if not char.passed and not args.force:
        _emit(args, char.as_dict(), _report_text("characteristic conditions", char))
        return 1
    table = construct(spec)
    sys.stdout.write(documents.serialize_binop(table))
    return 0


def cmd_verify(args) -> int:
    lat = documents.parse_lattice(_read(args.lattice))
    table = documents.parse_binop(_read(args.binop), lat)
    report = validate_uninorm(table)
    _emit(args, report.as_dict(), _axiom_text(report))
    return 0 if report.ok else 1


def cmd_classify(args) -> int:
    lat = documents.parse_lattice(_read(args.lattice))
    table = documents.parse_binop(_read(args.binop), lat)
    membership = classify(table)
    lines = []
    for name, flag in membership.flags.items():
        if flag.member:
            lines.append(f"{name}: member")
        else:
            x, y, v = flag.witnesses[0]
            lines.append(f"{name}: not a member (witness U({x},{y})={v})")
    _emit(args, membership.as_dict(), "\n".join(lines))
    return 0


def cmd_search_closures(args) -> int:
    lat = documents.parse_lattice(_read(args.lattice))
    for op in enumerate_unary(lat, args.kind):
        print(json.dumps({"kind": op.kind, "map": op.mapping}))
    return 0


def cmd_search_pairs(args) -> int:
    lat = documents.parse_lattice(_read(args.lattice))
    family = Family(args.family)
    boundary = documents.parse_binop(_read(args.boundary), lat, role=family.role)
    e = documents.element(lat, args.e, "--e")
    for spec, tag in enumerate_admissible_pairs(lat, e, family, boundary):
        print(
            json.dumps(
                {
                    "op_low": spec.op_low.mapping,
                    "op_inc": spec.op_inc.mapping,
                    "characteristic_pass": tag,
                }
            )
        )
    return 0


def cmd_search_tconorms(args) -> int:
    lat = documents.parse_lattice(_read(args.lattice))
    domain = documents.closed_interval(lat, args.low, args.high, "--low", "--high")
    for op in enumerate_partial_binops(lat, domain, TCONORM):
        dom = op.domain_elements
        print(json.dumps({"domain": list(dom), "table": {x: {y: op(x, y) for y in dom} for x in dom}}))
    return 0


def cmd_reproduce(args) -> int:
    fx = FIXTURES[args.fixture]()
    table = construct(fx.spec())
    sys.stdout.write(documents.render_table(table))
    return 0


def cmd_export_dot(args) -> int:
    lat = documents.parse_lattice(_read(args.lattice))
    sys.stdout.write(documents.export_dot(lat))
    return 0


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(documents.dumps(payload))
    else:
        print(text)


def _report_text(label: str, report) -> str:
    lines = [f"{label}: {'pass' if report.passed else 'FAIL'}"]
    for row in report.rows:
        lines.append(f"  {row.name}: {'pass' if row.passed else 'FAIL'}  {row.statement}")
        if row.witnesses and not row.passed:
            lines.append(f"    witnesses: {', '.join(map(str, row.witnesses))}")
    return "\n".join(lines)


def _axiom_text(report) -> str:
    lines = []
    for name, check in report.as_dict().items():
        if check["ok"]:
            lines.append(f"{name}: pass")
        else:
            lines.append(f"{name}: FAIL (witness {check['witness']})")
    return "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser shared by every ``cli_main`` call of the process.

    Built on first use, not at import: building it costs many times what
    parsing one command line does, and parsing leaves it unchanged.
    """
    parser = argparse.ArgumentParser(prog="latuni")
    parser.add_argument("--json", action="store_true", help="machine-readable reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a lattice (and optionally an operator) document")
    p.add_argument("--lattice", required=True)
    p.add_argument("--operator")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("construct", help="build a uninorm table from a construction spec")
    p.add_argument("--family", required=True, choices=sorted(FAMILY_PRESETS))
    p.add_argument("--lattice", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--boundary", required=True)
    p.add_argument("--op-low")
    p.add_argument("--op-inc")
    p.add_argument("--force", action="store_true", help="build even when characteristic conditions fail")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check the uninorm axioms of a table document")
    p.add_argument("--lattice", required=True)
    p.add_argument("--binop", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="class membership of a verified uninorm")
    p.add_argument("--lattice", required=True)
    p.add_argument("--binop", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("search-closures", help="enumerate closure/interior operators as JSON lines")
    p.add_argument("--lattice", required=True)
    p.add_argument("--kind", choices=(CLOSURE, INTERIOR), default=CLOSURE)
    p.set_defaults(func=cmd_search_closures)

    p = sub.add_parser("search-pairs", help="enumerate admissible operator pairs as JSON lines")
    p.add_argument("--lattice", required=True)
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--e", required=True)
    p.add_argument("--boundary", required=True)
    p.set_defaults(func=cmd_search_pairs)

    p = sub.add_parser("search-tconorms", help="enumerate t-conorms on a small interval as JSON lines")
    p.add_argument("--lattice", required=True)
    p.add_argument("--low", required=True)
    p.add_argument("--high", required=True)
    p.set_defaults(func=cmd_search_tconorms)

    p = sub.add_parser("reproduce", help="render a bundled worked example's table")
    p.add_argument("fixture", choices=sorted(FIXTURES))
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("export-dot", help="emit the Hasse diagram as DOT")
    p.add_argument("--lattice", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, InvalidArgument, LatticeTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatuniError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeEncodeError as exc:
        # ascii(): the message must encode where the output did not.
        chars = ascii(exc.object[exc.start:exc.end])
        print(f"error: the {exc.encoding} encoding of stdout cannot write {chars}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush
        # at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
