"""Brute-force enumeration oracles.

Candidate maps are produced depth-first in lexicographic order over the
declared element order, and each search decides its axioms as it goes,
so every leaf is certified once, by the real validator, before it is
emitted.  The operator search decides CL1-CL3 on the partial map, so
each leaf is an operator.  The table search walks its cells with an
explicit stack of remaining value masks, fixes the neutral element,
commutativity and monotonicity as it goes, and decides associativity
row by row: when a row completes it is stored once as ``bytes``, each
triple it makes final is one ``bytes.translate`` of a stored row and one
compare, and a failing subtree is cut.  So every complete
table is associative, and only those are built and certified, once,
by ``brute_force_uninorms``.  A t-(co)norm is a uninorm on its domain's
interval lattice, so the t-(co)norm search is that search there, under
its one cap, ``MAX_UNINORM_LATTICE``.  Pair admission decides each
hypothesis once, where it varies: the boundary's domain once per run,
comparability by bitmasks over the pool, and each characteristic row,
which reads one operator, once per pool operator.  Correctness over
speed; one size cap per search keeps runtimes sane.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from .binop import FullBinOpTable, PartialBinOpTable, Uninorm, role_neutral, validate_uninorm
from .construct import (
    ConstructionSpec,
    Family,
    check_characteristic,
    check_hypotheses,
    comparability_region,
)
from .errors import LatticeTooLarge, UnknownElement
from .lattice import BoundedLattice, IntervalSpec, translation_pad
from .unary import UnaryOpTable, order_of, validate_unary

MAX_UNARY_LATTICE = 12
MAX_UNINORM_LATTICE = 5


def enumerate_unary(lat: BoundedLattice, kind: str) -> Iterator[UnaryOpTable]:
    """All certified closure or interior operators of ``lat``, by ``kind``.

    Deterministic lexicographic order over the declared element order;
    the identity map is always among the results.  The search decides
    each axiom at the node that assigns the last element it reads, so
    every leaf is an operator, certified once by ``validate_unary``.
    """
    if len(lat) > MAX_UNARY_LATTICE:
        raise LatticeTooLarge(f"unary enumeration capped at {MAX_UNARY_LATTICE} elements")
    # The interior operators of lat are the closure operators of its dual,
    # so one closure search runs on ``order``; leaves are certified on lat.
    # The search runs on positions; ``assign[i]`` is the image of element i.
    order = order_of(lat, kind)
    els = lat.elements
    up, joins = order.up, order.joins
    n = len(els)
    candidates = [[j for j in range(n) if up[i] >> j & 1] for i in range(n)]
    # Join preservation is decided for each pair j < k at the node that
    # assigns the last of j, k and z = j v k.  For comparable j and k, z is
    # one of them, so this decides monotonicity too.
    pairs = [[] for _ in range(n)]
    for k in range(n):
        for j in range(k):
            z = joins[j * n + k]
            pairs[max(k, z)].append((j, k, z))

    def consistent(assign, i):
        for j, k, z in pairs[i]:
            if assign[z] != joins[assign[j] * n + assign[k]]:
                return False
        # Partial idempotence: the image must be fixed pointwise.
        v = assign[i]
        if v <= i and assign[v] != v:
            return False
        if v != i and i in assign:
            return False
        return True

    def rec(i, assign):
        if i == n:
            yield validate_unary(lat, kind, {x: els[v] for x, v in zip(els, assign)})
            return
        for v in candidates[i]:
            assign.append(v)
            if consistent(assign, i):
                yield from rec(i + 1, assign)
            assign.pop()

    yield from rec(0, [])


def enumerate_admissible_pairs(
    lat: BoundedLattice,
    e: str,
    family: Family,
    boundary: PartialBinOpTable,
) -> Iterator[tuple]:
    """All operator pairs passing the family's hypotheses.

    Yields (spec, characteristic_pass) in lexicographic pool order.  The
    pool is every operator of the family's kind and holds the identity, so
    operator_kinds holds.  boundary_domain is the same for every pair:
    ``check_hypotheses`` decides it once, and on a failure nothing is
    yielded.  Comparability is bit operations alone, which find each
    op_low's partners at once: the pool operators b with op_low(x) <= b(x)
    in the family's order on the comparability region.  A spec is built
    only for those pairs.  A pair's characteristic verdict is read off its
    op_low's verdict as op_low and its op_inc's as op_inc, each decided
    once per pool operator (:func:`_slot_verdicts`).
    """
    pool = list(enumerate_unary(lat, family.kind))
    # The first spec checks e and the boundary's lattice before any mask is
    # built.  The pool holds only the family's kind and op <= op, so only
    # the boundary's domain can fail its hypotheses, and then every pair's.
    first = ConstructionSpec(family, lat, e, boundary, pool[0], pool[0])
    if not check_hypotheses(first).passed:
        return
    as_low, as_inc = _slot_verdicts(first, pool)
    # The up-sets of the family's order: lat's down-sets for an interior family.
    up = order_of(lat, family.kind).up
    partners = [(1 << len(pool)) - 1] * len(pool)
    for x in map(lat.index, comparability_region(first)):
        # at_least[v]: the b with v <= b(x), a union of the b with b(x) = w over w >= v.
        with_image = [0] * len(lat)
        for k, b in enumerate(pool):
            with_image[b.image[x]] |= 1 << k
        at_least = [sum(m for w, m in enumerate(with_image) if above >> w & 1) for above in up]
        for k, a in enumerate(pool):
            partners[k] &= at_least[a.image[x]]
    for k, mask in enumerate(partners):
        while mask:
            bit = mask & -mask
            mask ^= bit
            j = bit.bit_length() - 1
            yield ConstructionSpec(family, lat, e, boundary, pool[k], pool[j]), as_low[k] and as_inc[j]


def _slot_verdicts(spec: ConstructionSpec, pool: list) -> tuple:
    """Each pool operator's characteristic verdict as op_low and as op_inc.

    Each row of ``check_characteristic`` reads one input: range_low reads
    op_low, range_inc op_inc, and the others the boundary and the partition.
    So the report of the diagonal spec (op, op) decides op in either slot:
    a pair (a, b) passes when a's report passes every row but range_inc and
    b's passes range_inc.  ``spec`` gives the family, e and boundary.
    """
    reports = [check_characteristic(replace(spec, op_low=op, op_inc=op)) for op in pool]
    as_low = [all(r.passed for r in report.rows if r.name != "range_inc") for report in reports]
    as_inc = [report.row("range_inc").passed for report in reports]
    return as_low, as_inc


def enumerate_partial_binops(lat: BoundedLattice, domain: IntervalSpec, role: str) -> Iterator[PartialBinOpTable]:
    """All t-norms or t-conorms on a small closed interval: the uninorms
    ``brute_force_uninorms`` finds and certifies on its interval lattice,
    neutral at a bound, under that search's one cap.  A bad role or an
    open domain raises ``role_neutral``'s ValueError first."""
    neutral = role_neutral(role, domain)
    # The cap is decided on the interval before its lattice is derived, so
    # a refused domain leaves no interval lattice in ``lat``'s memo.
    _check_uninorm_cap(len(lat.interval(domain)))
    for u in brute_force_uninorms(lat.interval_lattice(domain), neutral):
        yield PartialBinOpTable(lat, domain, role, u.table)


def _monotone_commutative_tables(lat: BoundedLattice, neutral) -> Iterator[dict]:
    """Every associative commutative table on ``lat`` with identity
    ``neutral`` whose partial fillings all stay monotone.

    Depth-first over the cells off the neutral row and column, upper
    triangle in row-major order, walked with an explicit stack: ``masks[c]``
    holds the values cell c has left to try.  Cells and values are
    positions in ``lat``, whose order is read from its ``up`` and ``down``
    bitmasks.  Every filled cell already agrees with the others, so a cell
    (i, j) may take the values monotone against the filled cells of column
    j in the rows comparable to i, and likewise at its mirror (j, i): a
    bitmask, the AND of ``up[a]`` over the values a filled below and of
    ``down[b]`` over those filled above.  The cells filled at cell c are
    the same at every node, so their offsets, and the neutral row's fixed
    share of the mask, are listed once per search.  Set bits are visited
    in increasing order, so the tables come in lexicographic order over
    the declared element order.

    Associativity is decided as each row completes.  After the last cell
    of row i, rows 0..i and the neutral row are complete, and the row is
    stored once as ``bytes``, the form ``lattice.packed_positions`` gives
    under the search's cap, with its padded ``translate`` table.
    A triple (x, y, z) is final once rows x, y and w = t(x, y) are, and
    all z are decided at once: row w must be ``rows[y].translate(tables[x])``
    (:func:`_row_associative`).  The filling is pruned on the first pair,
    new with row i, that fails.  Triples through the neutral element hold,
    and after the last row every triple has been checked, so each leaf is
    associative; it is built into an id-keyed table from the cell keys,
    listed once per search, and yielded for ``brute_force_uninorms`` to
    certify.
    """
    if neutral not in lat:
        raise UnknownElement(neutral)
    els, up, down = lat.elements, lat.up, lat.down
    m = len(els)
    e = lat.positions[neutral]
    t = [0] * (m * m)
    for k in range(m):
        t[e * m + k] = t[k * m + e] = k
    keys = [(x, y) for x in els for y in els]
    # Each cell with the row it completes if it is that row's last cell,
    # else -1.
    last = m - 2 if e == m - 1 else m - 1
    cells = [(i, j, i if j == last else -1) for i in range(m) for j in range(i, m) if e not in (i, j)]
    if not cells:
        yield dict(zip(keys, map(els.__getitem__, t)))
        return
    # For cell c: the neutral row's share of its mask, and the offsets of
    # the filled cells whose values bound it from below and from above.  At
    # cell (i, j) the filled rows of column j are those before i, and at its
    # mirror (j, i) the rows of column i before j.
    everything = (1 << m) - 1
    bases, lows, highs = [], [], []
    for i, j, _ in cells:
        base, low, high = everything, [], []
        for a, b in ((i, j), (j, i)) if i != j else ((i, i),):
            if up[e] >> a & 1:
                base &= up[b]
            elif up[a] >> e & 1:
                base &= down[b]
            for r in range(a):
                if r != e:
                    if up[r] >> a & 1:
                        low.append(r * m + b)
                    elif up[a] >> r & 1:
                        high.append(r * m + b)
        bases.append(base)
        lows.append(low)
        highs.append(high)
    pad = translation_pad(m)
    rows = [b""] * m
    tables = [b""] * m
    rows[e] = bytes(range(m))
    tables[e] = rows[e] + pad

    # masks[c]: the values cell c has left to try on the current path.
    # Cell 0 reads no filled cell, so its mask is its base.
    final = len(cells) - 1
    masks = [0] * len(cells)
    masks[0] = bases[0]
    c = 0
    while c >= 0:
        mask = masks[c]
        if not mask:
            c -= 1
            continue
        bit = mask & -mask
        masks[c] = mask ^ bit
        i, j, k = cells[c]
        t[i * m + j] = t[j * m + i] = bit.bit_length() - 1
        if k >= 0:
            rows[k] = row = bytes(t[k * m:k * m + m])
            tables[k] = row + pad
            if not _row_associative(rows, tables, k, e):
                continue
        if c == final:
            yield dict(zip(keys, map(els.__getitem__, t)))
            continue
        c += 1
        mask = bases[c]
        for p in lows[c]:
            mask &= up[t[p]]
        for p in highs[c]:
            mask &= down[t[p]]
        masks[c] = mask


def _row_associative(rows: list, tables: list, i: int, e: int) -> bool:
    """Whether t(t(x, y), z) = t(x, t(y, z)) for every z and every pair
    (x, y) off e that completing row i makes final: (i, y) and (y, i) for
    y <= i when row w = t(i, y) is complete (w <= i or w = e), and (x, y)
    for x, y < i with t(x, y) = i.  ``rows`` holds the complete rows as
    ``bytes`` and ``tables`` each padded to a ``translate`` table; no row
    past i but e's is read.  Row w must be row y translated by row x."""
    row, table = rows[i], tables[i]
    for y in range(i + 1):
        w = row[y]
        if y != e and (w <= i or w == e):
            rw = rows[w]
            if rows[y].translate(table) != rw or row.translate(tables[y]) != rw:
                return False
    for x in range(i):
        rx = rows[x]
        y = rx.find(i, 0, i)
        while y >= 0:
            if rows[y].translate(tables[x]) != row:
                return False
            y = rx.find(i, y + 1, i)
    return True


def _check_uninorm_cap(size: int) -> None:
    if size > MAX_UNINORM_LATTICE:
        raise LatticeTooLarge(f"uninorm search capped at {MAX_UNINORM_LATTICE} elements")


def brute_force_uninorms(lat: BoundedLattice, e: str) -> Iterator[Uninorm]:
    """Every commutative total table with neutral e passing all axioms.

    The table search yields only the monotone associative tables, and each
    is still certified by ``validate_uninorm`` before it is yielded as a
    :class:`Uninorm`, which ``classify`` then reads without a second check.
    Ground truth for class-inclusion and construction-coverage tests;
    guarded to tiny lattices.
    """
    _check_uninorm_cap(len(lat))
    for table in _monotone_commutative_tables(lat, e):
        if validate_uninorm(FullBinOpTable(lat, table, neutral=e)).ok:
            yield Uninorm(lat, table, e)
