"""Naive string-keyed references for the integer lattice kernel.

The order is a set of id pairs, meets and joins are found by scanning
every element (O(n^4)), and the operator, t-(co)norm and uninorm axioms
and the uninorm class flags are checked by dict lookups on the map or
table.  Nothing here uses
``latuni.lattice``, ``latuni.unary`` or ``latuni.binop``;
``test_references.py`` compares the two.
"""

from latuni.errors import (
    AxiomViolation,
    InvalidArgument,
    NotALattice,
    NotAPartialOrder,
    NotBounded,
    OutOfDomainOutput,
    UnknownElement,
)


def naive_lattice(elements, covers, bottom, top):
    """(leq, meet, join) of a certified lattice: a set of pairs and two dicts.

    Raises the exceptions of ``build_lattice``, in its order.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        repeated = next(x for i, x in enumerate(elements) if x in elements[:i])
        raise InvalidArgument(f"element {repeated!r} is repeated")
    known = set(elements)
    for lo, hi in covers:
        if lo not in known or hi not in known:
            raise UnknownElement(lo if lo not in known else hi)
    if bottom not in known:
        raise UnknownElement(bottom)
    if top not in known:
        raise UnknownElement(top)

    succs = {x: [] for x in elements}
    for lo, hi in covers:
        succs[lo].append(hi)
    leq = set()
    for x in elements:
        stack, seen = [x], {x}
        while stack:
            y = stack.pop()
            leq.add((x, y))
            for z in succs[y]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    for x in elements:
        for y in elements:
            if x != y and (x, y) in leq and (y, x) in leq:
                raise NotAPartialOrder(f"cycle through {x!r} and {y!r}")
    for x in elements:
        if (bottom, x) not in leq:
            raise NotBounded(f"declared bottom {bottom!r} is not below {x!r}")
        if (x, top) not in leq:
            raise NotBounded(f"declared top {top!r} is not above {x!r}")

    meet, join = {}, {}
    for x in elements:
        for y in elements:
            lower = [z for z in elements if (z, x) in leq and (z, y) in leq]
            glb = [z for z in lower if all((w, z) in leq for w in lower)]
            if len(glb) != 1:
                raise NotALattice((x, y), "meet")
            meet[x, y] = glb[0]
            upper = [z for z in elements if (x, z) in leq and (y, z) in leq]
            lub = [z for z in upper if all((z, w) in leq for w in upper)]
            if len(lub) != 1:
                raise NotALattice((x, y), "join")
            join[x, y] = lub[0]
    return leq, meet, join


def naive_uninorm_report(elements, leq, t, e) -> dict:
    """The four axiom checks of table ``t`` in the form of ``AxiomReport.as_dict``.

    Every scan runs row-major over ``elements`` and reports its first
    violation.  ``t`` must be total with values in ``elements``.
    """
    els = tuple(elements)

    def first(cases):
        return next(((False, w) for w, bad in cases if bad), (True, None))

    neutral = first(((x,), t[e, x] != x or t[x, e] != x) for x in els)
    commutative = first(((x, y), t[x, y] != t[y, x]) for x in els for y in els)
    associative = first(
        ((x, y, z), t[x, t[y, z]] != t[t[x, y], z]) for x in els for y in els for z in els
    )
    monotone = first(
        ((x, y, z), (t[x, z], t[y, z]) not in leq or (t[z, x], t[z, y]) not in leq)
        for x in els
        for y in els
        if x != y and (x, y) in leq
        for z in els
    )
    return {
        name: {"ok": ok, "witness": witness}
        for name, (ok, witness) in (
            ("commutative", commutative),
            ("associative", associative),
            ("monotone", monotone),
            ("neutral", neutral),
        )
    }


def associativity_witnesses(candidate):
    """All associativity-violating triples of a full table, in scan order."""
    t = candidate.table
    els = candidate.lattice.elements
    return tuple(
        (x, y, z)
        for x in els
        for y in els
        for z in els
        if t[x, t[y, z]] != t[t[x, y], z]
    )


def naive_classify(elements, leq, t, e, bottom, top) -> dict:
    """The eight class flags of uninorm ``t`` in the form of ``ClassMembership.as_dict``.

    Each flag lists every cell (x, y, t(x, y)) that breaks its forced
    value, row-major over ``elements``; the first is the canonical witness.
    """
    els = tuple(elements)
    above_half = [x for x in els if (e, x) in leq and x != e]
    above_open = [x for x in above_half if x != top]
    below_half = [x for x in els if (x, e) in leq and x != e]
    below_open = [x for x in below_half if x != bottom]
    not_upper = [x for x in els if (e, x) not in leq]
    not_lower = [x for x in els if (x, e) not in leq]

    def forced(xs, ys, expected):
        return [(x, y, t[x, y]) for x in xs for y in ys if t[x, y] != expected(x, y)]

    snd = lambda x, y: y
    fst = lambda x, y: x
    flags = {
        "u_min": forced(above_half, not_upper, snd),
        "u_max": forced(below_half, not_lower, snd),
        "u_min_star": forced(above_half, below_half, snd),
        "u_max_star": forced(below_half, above_half, snd),
        "u_min_r": forced(above_half, not_upper, fst),
        "u_max_r": forced(below_half, not_lower, fst),
        "u_min_1": forced(above_open, not_upper, snd) + forced([top], not_upper, lambda x, y: top),
        "u_max_0": forced(below_open, not_lower, snd) + forced([bottom], not_lower, lambda x, y: bottom),
    }
    return {name: {"member": not ws, "witnesses": ws} for name, ws in flags.items()}


def naive_validate_unary(elements, leq, meet, join, kind, mapping) -> dict:
    """The checks of ``validate_unary``, in its order, on the naive lattice.

    Returns the map; raises UnknownElement for a missing or unknown id and
    AxiomViolation for the first failing axiom, CL1-CL4 for a closure and
    IN1-IN4 (the closure axioms of the reversed order) for an interior
    operator.
    """
    mapping = dict(mapping)
    known = set(elements)
    for x in elements:
        if x not in mapping:
            raise UnknownElement(x)
    for x, v in mapping.items():
        if x not in known or v not in known:
            raise UnknownElement(v if x in known else x)
    if kind == "closure":
        order, sup, name = leq, join, "CL"
    else:
        order, sup, name = {(y, x) for x, y in leq}, meet, "IN"
    f = mapping.__getitem__
    for x in elements:
        if (x, f(x)) not in order:
            raise AxiomViolation(f"{name}1", (x,))
    for x in elements:
        for y in elements:
            if f(sup[x, y]) != sup[f(x), f(y)]:
                raise AxiomViolation(f"{name}2", (x, y))
    for x in elements:
        if f(f(x)) != f(x):
            raise AxiomViolation(f"{name}3", (x,))
    for x in elements:
        for y in elements:
            if (x, y) in order and (f(x), f(y)) not in order:
                raise AxiomViolation(f"{name}4", (x, y))
    return mapping


def naive_validate_partial(elements, leq, low, high, role, table) -> dict:
    """The checks of ``validate_partial``, in its order, on [low, high].

    Returns the table; raises UnknownElement for the first missing cell or
    unknown value, OutOfDomainOutput for the first value outside the
    interval, and AxiomViolation for the first failing axiom (neutral,
    commutative, associative, monotone), each scan row-major.
    """
    dom = tuple(x for x in elements if (low, x) in leq and (x, high) in leq)
    known = set(elements)
    table = dict(table)
    for x in dom:
        for y in dom:
            if (x, y) not in table:
                raise UnknownElement((x, y))
            if table[x, y] not in known:
                raise UnknownElement(table[x, y])
    domset = set(dom)
    for x in dom:
        for y in dom:
            if table[x, y] not in domset:
                raise OutOfDomainOutput(x, y, table[x, y])

    neutral = high if role == "tnorm" else low
    for x in dom:
        if table[neutral, x] != x or table[x, neutral] != x:
            raise AxiomViolation("neutral", (x,))
    for x in dom:
        for y in dom:
            if table[x, y] != table[y, x]:
                raise AxiomViolation("commutative", (x, y))
    for x in dom:
        for y in dom:
            for z in dom:
                if table[x, table[y, z]] != table[table[x, y], z]:
                    raise AxiomViolation("associative", (x, y, z))
    for x in dom:
        for y in dom:
            if (x, y) not in leq:
                continue
            for z in dom:
                if (table[x, z], table[y, z]) not in leq:
                    raise AxiomViolation("monotone", (x, y, z))
    return table
