"""The three workloads: ``iff-sweep``, ``oracle`` and ``cli``.

Each workload is built from the loaded latuni modules, a seed, a scratch
directory and the expected outputs (``expected.json``).  Building it is the
set-up: it generates the seeded inputs and writes the documents.
``run_unit(k, rec)`` then runs unit ``k``, a deterministic group of items,
and reports each item's latency and verdict to the recorder; units
``0..cycle-1`` cover the whole workload once.  Every call into latuni is
made through a module attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from clock import SpeedClock
from inputs import chain_product, relabel, unlabel

_END = object()
# Unit k of iff-sweep and oracle runs on relabelling k mod RELABELLINGS of
# the seed.  How the search work splits into items, and so the latency
# tail, depends on the element order; pooling several orders in a run keeps
# p99_ms from following one order's luck.
RELABELLINGS = 16


class Recorder:
    """Latencies, program time and failures of the items run so far.

    Durations are measured by the recorder's clock, rescaled to a nominal
    machine speed (see ``clock.py``).
    """

    def __init__(self, clock: SpeedClock):
        self.timed = clock.timed
        self.latencies = []
        self.busy_s = 0.0  # program time, including work that completes no item
        self.attempted = 0
        self.failed = 0

    def item(self, seconds: float, ok: bool, describe: Callable[[], str]) -> None:
        self.latencies.append(seconds)
        self.busy_s += seconds
        self.attempted += 1
        if not ok:
            self.fail(describe())

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        """A count checked after a group of items; a wrong count is one failure."""
        if not ok:
            self.fail(describe())

    def error(self, where: str) -> None:
        """An uncaught exception from latuni: one attempted, failed item."""
        self.attempted += 1
        self.fail(f"{where}: {traceback.format_exc()}")

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL {message}", file=sys.stderr)


def _search_items(rec, gen, finish):
    """Time each resumption of a latuni generator plus ``finish(item)``.

    Returns (latency, item, result) triples; the work after the last yield
    counts as program time but completes no item.
    """
    out = []

    def step():
        item = next(gen, _END)
        return item, None if item is _END else finish(item)

    while True:
        took, (item, result) = rec.timed(step)
        if item is _END:
            rec.busy_s += took
            return out
        out.append((took, item, result))


class IffSweep:
    """Pair admission, construction and validation on fixture l2, four families."""

    name = "iff-sweep"
    cycle = 4  # units: one family each

    def __init__(self, lib, seed, workdir, expected):
        self.lib = lib
        fx = lib.fixtures.FIXTURES["l2"]()
        rng = random.Random(seed)
        self.copies = []
        for _ in range(RELABELLINGS):
            lat, fwd = relabel(lib, fx.lattice, rng)
            e = fwd[fx.e]
            boundary = {True: lib.binop.join_tconorm(lat, e), False: lib.binop.meet_tnorm(lat, e)}
            self.copies.append((lat, e, boundary))
        self.expected = expected[self.name]

    def run_unit(self, k, rec):
        lib = self.lib
        family = list(lib.construct.Family)[k % self.cycle]
        lat, e, boundary = self.copies[k % RELABELLINGS]
        pairs = lib.search.enumerate_admissible_pairs(lat, e, family, boundary[family.closure_based])
        build = lambda pair: lib.binop.validate_uninorm(lib.construct.construct(pair[0])).ok
        try:
            items = _search_items(rec, pairs, build)
        except Exception:
            rec.error(f"{self.name} {family.value}")
            return
        counts = {"pairs": 0, "uninorms": 0, "mismatches": 0}
        for took, (spec, char_pass), valid in items:
            counts["pairs"] += 1
            counts["uninorms"] += valid
            counts["mismatches"] += valid != char_pass
            rec.item(took, valid == char_pass, lambda: (
                f"{self.name} {family.value}: characteristic={char_pass} uninorm={valid} "
                f"op_low={json.dumps(spec.op_low.mapping)} op_inc={json.dumps(spec.op_inc.mapping)}"
            ))
        want = self.expected[family.value]
        rec.check(counts == want, lambda: f"{self.name} {family.value}: counts {counts} != {want}")


def _order(lat):
    return {(x, y) for x in lat.elements for y in lat.elements if lat.leq(x, y)}


def _is_uninorm(els, order, t, e) -> bool:
    """The four uninorm axioms of table ``t``, checked by the benchmark itself."""
    return (
        all(t[e, x] == x for x in els)
        and all(t[x, y] == t[y, x] for x in els for y in els)
        and all(t[x, t[y, z]] == t[t[x, y], z] for x in els for y in els for z in els)
        and all((t[x, z], t[y, z]) in order for x, y in order for z in els)
    )


class Oracle:
    """Brute-force uninorm search and classification on every small lattice."""

    name = "oracle"
    cycle = 1

    def __init__(self, lib, seed, workdir, expected):
        self.lib = lib
        rng = random.Random(seed)
        canons = {name: make() for name, make in lib.fixtures.SMALL_LATTICES.items()}
        self.copies = []
        for _ in range(RELABELLINGS):
            searches = []
            for name, canon in canons.items():
                lat, fwd = relabel(lib, canon, rng)
                order = _order(lat)
                for e in canon.elements:
                    if e not in (canon.bottom, canon.top):
                        searches.append((f"{name}/{e}", lat, fwd[e], order))
            self.copies.append(searches)
        self.expected = expected[self.name]

    def run_unit(self, k, rec):
        lib = self.lib
        for label, lat, e, order in self.copies[k % RELABELLINGS]:
            try:
                items = _search_items(rec, lib.search.brute_force_uninorms(lat, e), lib.binop.classify)
            except Exception:
                rec.error(f"{self.name} {label}")
                continue
            classes = Counter()
            for took, table, membership in items:
                classes.update(name for name, flag in membership.flags.items() if flag.member)
                rec.item(
                    took,
                    _is_uninorm(lat.elements, order, table.table, e),
                    lambda: f"{self.name} {label}: not a uninorm: {table.table}",
                )
            got = {"uninorms": len(items), "classes": dict(classes)}
            want = self.expected[label]
            rec.check(got == want, lambda: f"{self.name} {label}: {got} != {want}")


# -- cli ----------------------------------------------------------------------

# (a, b, e, side): the product of chains of a and b elements, its neutral
# element, and the side of the Karacal-Mesiar uninorm whose table is
# verified and classified.
CHAIN_PRODUCTS = ((4, 5, "p2_2", "s"), (5, 6, "p2_3", "t"), (6, 7, "p3_3", "s"))
UNORDERED = ("witnesses", "domain")  # lists whose order follows the element order


@dataclass
class Request:
    label: str
    argv: list
    summarize: Callable  # (rc, stdout, stderr) -> canonical JSON value


def run_request(lib, req):
    """Run one request in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.cli_main(req.argv)
    return rc, out.getvalue(), err.getvalue()


def _key(value) -> str:
    return json.dumps(value, sort_keys=True)


def expectation(summary) -> dict:
    """What expected.json records of a request: exit code and output digest."""
    return {"rc": summary["rc"], "digest": hashlib.sha256(_key(summary).encode()).hexdigest()[:16]}


def _canonical(obj):
    if isinstance(obj, dict):
        return {
            k: sorted(map(_canonical, v), key=_key)
            if k in UNORDERED and isinstance(v, list) else _canonical(v)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    return obj


def _plain(rc, out, err):
    return {"rc": rc, "out": out, "err": err}


def _json_out(inv, lines=False):
    def summarize(rc, out, err):
        docs = [json.loads(line) for line in out.splitlines()] if lines else [json.loads(out)]
        docs = [_canonical(unlabel(doc, inv)) for doc in docs]
        return {"rc": rc, "out": sorted(docs, key=_key), "err": err}

    return summarize


def _refuted(axiom, w, t, e, order) -> bool:
    if axiom == "neutral":
        return t[e, w[0]] != w[0] or t[w[0], e] != w[0]
    if axiom == "commutative":
        return t[w[0], w[1]] != t[w[1], w[0]]
    x, y, z = w
    if axiom == "associative":
        return t[x, t[y, z]] != t[t[x, y], z]
    return x != y and (x, y) in order and not (
        (t[x, z], t[y, z]) in order and (t[z, x], t[z, y]) in order
    )


class Site:
    """One relabelled lattice and the documents written for it."""

    def __init__(self, lib, name, canon, e, rng, workdir):
        self.lat, self.fwd = relabel(lib, canon, rng)
        self.inv = {v: k for k, v in self.fwd.items()}
        self.canon = canon
        self.e = self.fwd[e]
        self.dir = workdir / name
        self.dir.mkdir(parents=True)
        lat, binop, documents = self.lat, lib.binop, lib.documents
        self.lattice = self.write("lattice", documents.serialize_lattice(lat))
        self.tconorm = self.write("tconorm", documents.serialize_binop(binop.join_tconorm(lat, self.e)))
        self.tnorm = self.write("tnorm", documents.serialize_binop(binop.meet_tnorm(lat, self.e)))

    def write(self, stem, text) -> str:
        path = self.dir / f"{stem}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def operator(self, stem, kind, canon_map) -> str:
        doc = {"kind": kind, "map": {self.fwd[x]: self.fwd[v] for x, v in canon_map.items()}}
        return self.write(stem, json.dumps(doc))

    def table(self, stem, table) -> str:
        els = self.lat.elements
        doc = {"neutral": self.e, "domain": None, "table": {x: {y: table[x, y] for y in els} for x in els}}
        return self.write(stem, json.dumps(doc))

    def corrupted(self, table) -> dict:
        """The table with one cell changed, chosen in canonical labels."""
        canon_e, bounds = self.inv[self.e], (self.canon.bottom, self.canon.top)
        inner = [x for x in self.canon.elements if x != canon_e and x not in bounds]
        x, y = self.fwd[inner[0]], self.fwd[inner[1]]
        bad = dict(table)
        bad[x, y] = self.lat.bottom if table[x, y] != self.lat.bottom else self.lat.top
        return bad


def cli_requests(lib, rng, workdir, pairs) -> list:
    """The request mix, over documents written to ``workdir``.

    ``rng=None`` keeps the canonical labels; ``pairs`` holds, per family,
    one characteristic-passing and one failing operator pair on l2.
    """
    closure, interior = lib.unary.CLOSURE, lib.unary.INTERIOR
    requests = []

    def add(label, argv, summarize):
        requests.append(Request(label, [str(a) for a in argv], summarize))

    def tables(site, stem, table):
        """verify and classify of a built table and of a one-cell corruption."""
        order, bad = _order(site.lat), site.corrupted(table)
        path, bad_path = site.table(stem, table), site.table(f"{stem}-bad", bad)

        def bad_verify(rc, out, err):
            doc = json.loads(out)
            refuted = all(
                _refuted(axiom, check["witness"], bad, site.e, order)
                for axiom, check in doc.items() if not check["ok"]
            )
            return {"rc": rc, "ok": {a: c["ok"] for a, c in doc.items()}, "refuted": refuted, "err": err}

        args = ["--lattice", site.lattice, "--binop"]
        add(f"verify:{stem}", ["--json", "verify", *args, path], _json_out(site.inv))
        add(f"classify:{stem}", ["--json", "classify", *args, path], _json_out(site.inv))
        add(f"verify:{stem}-bad", ["--json", "verify", *args, bad_path], bad_verify)
        add(f"classify:{stem}-bad", ["--json", "classify", *args, bad_path], _plain)

    for name in ("l1", "l2", "l3"):
        fx = lib.fixtures.FIXTURES[name]()
        site = Site(lib, name, fx.lattice, fx.e, rng, workdir)
        cl1 = site.operator("cl1", closure, fx.cl1.mapping)
        cl2 = site.operator("cl2", closure, fx.cl2.mapping)
        add(f"validate:{name}", ["validate", "--lattice", site.lattice], _plain)
        add(f"validate:{name}:cl2", ["validate", "--lattice", site.lattice, "--operator", cl2], _plain)
        add(
            f"construct:{name}",
            ["construct", "--family", fx.family.value, "--lattice", site.lattice, "--e", site.e,
             "--boundary", site.tconorm, "--op-low", cl1, "--op-inc", cl2],
            _json_out(site.inv),
        )
        add(f"reproduce:{name}", ["reproduce", name], _plain)
        add(
            f"search-tconorms:{name}",
            ["search-tconorms", "--lattice", site.lattice, "--low", site.e, "--high", site.lat.top],
            _json_out(site.inv, lines=True),
        )
        ops = [lib.unary.validate_unary(site.lat, closure, {site.fwd[x]: site.fwd[v] for x, v in op.mapping.items()})
               for op in (fx.cl1, fx.cl2)]
        spec = lib.construct.ConstructionSpec(
            fx.family, site.lat, site.e, lib.binop.join_tconorm(site.lat, site.e), *ops
        )
        tables(site, name, lib.construct.construct(spec).table)
        if name != "l2":
            continue
        add("search-closures:l2", ["search-closures", "--lattice", site.lattice], _json_out(site.inv, lines=True))
        for family, picks in pairs.items():
            kind = closure if family.startswith("clo") else interior
            boundary = site.tconorm if kind == closure else site.tnorm
            for verdict, (low, inc) in picks.items():
                argv = ["--json", "construct", "--family", family, "--lattice", site.lattice,
                        "--e", site.e, "--boundary", boundary,
                        "--op-low", site.operator(f"{family}-{verdict}-low", kind, low),
                        "--op-inc", site.operator(f"{family}-{verdict}-inc", kind, inc)]
                add(f"construct:l2:{family}:{verdict}", argv, _json_out(site.inv))
        int2 = site.operator("int2-pass-inc", interior, pairs["int2"]["pass"][1])
        add("validate:l2:interior", ["validate", "--lattice", site.lattice, "--operator", int2], _plain)

    for a, b, e, km_side in CHAIN_PRODUCTS:
        name = f"p{a}x{b}"
        site = Site(lib, name, chain_product(lib, a, b), e, rng, workdir)
        add(f"validate:{name}", ["validate", "--lattice", site.lattice], _plain)
        for family, boundary in (("km-s", site.tconorm), ("km-t", site.tnorm)):
            add(
                f"construct:{name}:{family}",
                ["construct", "--family", family, "--lattice", site.lattice, "--e", site.e, "--boundary", boundary],
                _json_out(site.inv),
            )
        partial = lib.binop.join_tconorm if km_side == "s" else lib.binop.meet_tnorm
        km = lib.construct.reference_karacal_mesiar(site.lat, site.e, partial(site.lat, site.e), km_side)
        tables(site, f"{name}-km-{km_side}", km.table)
        if name == "p4x5":
            low = site.fwd[f"p{a - 2}_{b - 2}"]
            add(
                f"search-tconorms:{name}",
                ["search-tconorms", "--lattice", site.lattice, "--low", low, "--high", site.lat.top],
                _json_out(site.inv, lines=True),
            )
    return requests


class Cli:
    """In-process ``cli_main`` requests over seeded documents."""

    name = "cli"
    cycle = 1

    def __init__(self, lib, seed, workdir, expected):
        self.lib = lib
        self.seed = seed
        self.expected = expected[self.name]["digests"]
        self.requests = cli_requests(lib, random.Random(seed), workdir, expected[self.name]["pairs"])

    def run_unit(self, k, rec):
        order = list(self.requests)
        random.Random(f"{self.seed}/{k}").shuffle(order)
        for req in order:
            try:
                took, output = rec.timed(run_request, self.lib, req)
                summary = req.summarize(*output)
            except Exception:
                rec.error(f"{self.name} {req.label}")
                continue
            rec.item(
                took,
                expectation(summary) == self.expected[req.label],
                lambda: f"{self.name} {req.label}: {req.argv} -> {_key(summary)[:500]}",
            )


WORKLOADS = {w.name: w for w in (IffSweep, Oracle, Cli)}
