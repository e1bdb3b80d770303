"""Seeded benchmark inputs: isomorphic relabellings and chain-product lattices.

Every input the benchmark feeds latuni is a relabelled copy of a fixed
canonical lattice, so a seed changes names, element order and cover order
but never the structure, and every count and canonicalised output stays the
same from seed to seed.
"""

from __future__ import annotations

import random


def linear_extension(lat, rng: random.Random) -> list:
    """A seeded random linear extension of the lattice order (Kahn's algorithm).

    The element order is drawn from the linear extensions rather than from
    all permutations: on a full shuffle the depth-first searches in
    ``latuni.search`` do up to twice the work on one seed as on another
    (23k to 46k monotonicity checks for the oracle workload on seeds 1-5),
    so runs on different seeds would not compare.  Over linear extensions the
    work varies by less than 0.5%.
    """
    waiting = {x: 0 for x in lat.elements}
    above = {x: [] for x in lat.elements}
    for lo, hi in lat.covers:
        waiting[hi] += 1
        above[lo].append(hi)
    ready = [x for x in lat.elements if waiting[x] == 0]
    order = []
    while ready:
        x = ready.pop(rng.randrange(len(ready)))
        order.append(x)
        for y in above[x]:
            waiting[y] -= 1
            if waiting[y] == 0:
                ready.append(y)
    return order


def relabel(lib, lat, rng: random.Random | None):
    """An isomorphic copy of ``lat`` and the map from old ids to new ids.

    The copy has fresh ids, a seeded linear extension as its element order
    and its covers in shuffled order.  With ``rng=None`` the lattice itself
    is returned with the identity map; that is the canonical labelling the
    expected outputs are recorded in.
    """
    if rng is None:
        return lat, {x: x for x in lat.elements}
    order = linear_extension(lat, rng)
    ids = rng.sample(range(10 * len(order) + 100), len(order))
    fwd = {x: f"x{i}" for x, i in zip(order, ids)}
    covers = [(fwd[lo], fwd[hi]) for lo, hi in lat.covers]
    rng.shuffle(covers)
    copy = lib.lattice.build_lattice(
        [fwd[x] for x in order], covers, fwd[lat.bottom], fwd[lat.top]
    )
    return copy, fwd


def chain_product(lib, a: int, b: int):
    """The product of chains of a and b elements, ids ``p<i>_<j>``."""
    name = "p{}_{}".format
    elements = [name(i, j) for i in range(a) for j in range(b)]
    covers = [(name(i, j), name(i + 1, j)) for i in range(a - 1) for j in range(b)]
    covers += [(name(i, j), name(i, j + 1)) for i in range(a) for j in range(b - 1)]
    return lib.lattice.build_lattice(elements, covers, name(0, 0), name(a - 1, b - 1))


def unlabel(obj, inv: dict):
    """Map every element id inside a JSON value back to its canonical id."""
    if isinstance(obj, str):
        return inv.get(obj, obj)
    if isinstance(obj, dict):
        return {unlabel(k, inv): unlabel(v, inv) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [unlabel(v, inv) for v in obj]
    return obj
