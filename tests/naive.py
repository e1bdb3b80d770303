"""Naive string-keyed references for the integer lattice kernel.

The order is a set of id pairs, meets and joins are found by scanning
every element (O(n^4)), and the uninorm axioms are checked by dict
lookups on the table.  Nothing here uses ``latuni.lattice`` or
``latuni.binop``; ``test_references.py`` compares the two.
"""

from latuni.errors import NotALattice, NotAPartialOrder, NotBounded, UnknownElement


def naive_lattice(elements, covers, bottom, top):
    """(leq, meet, join) of a certified lattice: a set of pairs and two dicts.

    Raises the exceptions of ``build_lattice``, in its order.
    """
    elements = tuple(elements)
    if not elements:
        raise NotALattice(("", ""), "meet")
    if len(set(elements)) != len(elements):
        raise UnknownElement("duplicate element id")
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
