"""Frozen expected uninorm tables for the three bundled worked examples.

Rows and columns follow the declared element order of each fixture
lattice; cells were transcribed by hand and are the source of truth the
construction code is tested against.
"""


def _grid(order, rows):
    return {
        (x, order[j]): v
        for x, row in zip(order, rows)
        for j, v in enumerate(row.split())
    }


L1_ORDER = ("0", "a", "b", "e", "m", "k", "s", "n", "j", "1")
L1_TABLE = _grid(L1_ORDER, [
    "0 0 0 0 0 0 0 0 0 0",
    "0 0 0 a 0 0 0 0 b b",
    "0 0 0 b 0 0 0 0 b b",
    "0 a b e m k s n j 1",
    "0 0 0 m 0 0 0 0 k k",
    "0 0 0 k 0 0 0 0 k k",
    "0 0 0 s 0 0 0 0 n n",
    "0 0 0 n 0 0 0 0 n n",
    "0 b b j k k n n j 1",
    "0 b b 1 k k n n 1 1",
])

L2_ORDER = ("0", "a", "e", "m", "k", "s", "n", "b", "1")
L2_TABLE = _grid(L2_ORDER, [
    "0 0 0 0 0 0 0 0 0",
    "0 0 a 0 0 0 0 a a",
    "0 a e m k s n b 1",
    "0 0 m 0 0 0 0 k k",
    "0 0 k 0 0 0 0 k k",
    "0 0 s 0 0 0 0 n n",
    "0 0 n 0 0 0 0 n n",
    "0 a b k k n n b 1",
    "0 a 1 k k n n 1 1",
])

L3_ORDER = ("0", "r", "a", "e", "l", "m", "n", "b", "c", "t", "1")
L3_TABLE = _grid(L3_ORDER, [
    "0 0 0 0 0 0 0 0 0 0 1",
    "0 0 0 r 0 0 0 0 0 a 1",
    "0 0 0 a 0 0 0 0 0 a 1",
    "0 r a e l m n b c t 1",
    "0 0 0 l 0 0 0 0 0 c 1",
    "0 0 0 m 0 0 0 0 0 c 1",
    "0 0 0 n 0 0 0 0 0 c 1",
    "0 0 0 b 0 0 0 0 0 c 1",
    "0 0 0 c 0 0 0 0 0 c 1",
    "0 a a t c c c c c t 1",
    "1 1 1 1 1 1 1 1 1 1 1",
])

TABLES = {
    "l1": (L1_ORDER, L1_TABLE),
    "l2": (L2_ORDER, L2_TABLE),
    "l3": (L3_ORDER, L3_TABLE),
}


# Interior-family tables with their operator pairs.  construct defines the
# interior families through the dual lattice; these frozen cells, each also
# checked by validate_uninorm, are evidence that does not rest on that
# definition.

# int2 on l2 with the meet t-norm on [0,e].
L2_INT2_OP_LOW = dict(zip(L2_ORDER, "0 0 0 m m m m b 1".split()))
L2_INT2_OP_INC = dict(zip(L2_ORDER, "0 0 0 m m m m 0 m".split()))
L2_INT2_TABLE = _grid(L2_ORDER, [
    "0 0 0 m m m m b 1",
    "0 a a m m m m b 1",
    "0 a e m k s n b 1",
    "m m m 1 1 1 1 1 1",
    "m m k 1 1 1 1 1 1",
    "m m s 1 1 1 1 1 1",
    "m m n 1 1 1 1 1 1",
    "b b b 1 1 1 1 1 1",
    "1 1 1 1 1 1 1 1 1",
])

# int2-strict on l3 with the meet t-norm on [0,e].
L3_INT2_STRICT_OP_LOW = dict(zip(L3_ORDER, "0 0 a a l l l b c t 1".split()))
L3_INT2_STRICT_OP_INC = dict(zip(L3_ORDER, "0 0 0 0 l l l b c 0 c".split()))
L3_INT2_STRICT_TABLE = _grid(L3_ORDER, [
    "0 0 0 0 0 0 0 0 0 0 0",
    "0 r r r l l l b c t 1",
    "0 r a a l l l b c t 1",
    "0 r a e l m n b c t 1",
    "0 l l l 1 1 1 1 1 1 1",
    "0 l l m 1 1 1 1 1 1 1",
    "0 l l n 1 1 1 1 1 1 1",
    "0 b b b 1 1 1 1 1 1 1",
    "0 c c c 1 1 1 1 1 1 1",
    "0 t t t 1 1 1 1 1 1 1",
    "0 1 1 1 1 1 1 1 1 1 1",
])

INTERIOR_TABLES = {
    "l2/int2": ("int2", L2_INT2_OP_LOW, L2_INT2_OP_INC, L2_INT2_TABLE),
    "l3/int2-strict": ("int2-strict", L3_INT2_STRICT_OP_LOW, L3_INT2_STRICT_OP_INC, L3_INT2_STRICT_TABLE),
}
