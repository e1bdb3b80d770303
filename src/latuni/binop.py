"""Binary operation tables and their axiom checkers.

Full tables carry no algebraic guarantees: :func:`validate_uninorm`
produces an AxiomReport whose witnesses, when present, refute the axiom
on re-evaluation, and a :class:`Uninorm` is a full table built after that
report passed.  A t-norm or t-conorm on a closed interval is a uninorm on
the interval's own lattice, with its neutral element at a bound, so
:func:`validate_partial` certifies a partial table by running
:func:`validate_uninorm` there.  All scans run row-major over declared
element order so the first witness is reproducible.

:func:`validate_uninorm` reads a table on positions as rows and columns,
in the form ``lattice.packed_positions`` chooses: the associativity scan
composes two rows with one ``translate`` (one C call on the ``bytes``
rows of up to 256 elements) and compares rows in one compare.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import (
    AxiomViolation,
    NotAPartition,
    NotAUninorm,
    NotCommutative,
    OutOfDomainOutput,
    UnknownElement,
)
from .lattice import BoundedLattice, IntervalSpec, RegionLabel, case_partition
from .lattice import first_difference, packed_positions, translation_pad

TNORM = "tnorm"
TCONORM = "tconorm"


def role_neutral(role: str, domain: IntervalSpec) -> str:
    """The neutral element of a t-norm or t-conorm on the closed interval
    ``domain``: a t-norm's is the domain's top, a t-conorm's its bottom.
    Raises ValueError on any other role, then on an open domain."""
    if role not in (TNORM, TCONORM):
        raise ValueError(f"role must be {TNORM!r} or {TCONORM!r}")
    if domain.low_open or domain.high_open:
        raise ValueError("partial operation domains must be closed intervals")
    return domain.high if role == TNORM else domain.low


@dataclass(frozen=True)
class PartialBinOpTable:
    """A certified t-norm or t-conorm on a closed subinterval: by
    :func:`validate_partial`, or by the uninorm search on the interval's
    lattice (``search.enumerate_partial_binops``)."""

    lattice: BoundedLattice
    domain: IntervalSpec
    role: str
    table: dict

    @property
    def domain_elements(self) -> tuple[str, ...]:
        return self.lattice.interval(self.domain)

    @property
    def neutral(self) -> str:
        return role_neutral(self.role, self.domain)

    def __call__(self, x, y) -> str:
        return self.table[x, y]

    def __hash__(self):
        return hash((self.domain, self.role, tuple(sorted(self.table.items()))))


@dataclass(frozen=True, eq=False)
class FullBinOpTable:
    """A total binary operation on the lattice with a claimed neutral element.

    Tables compare and hash by lattice, table and neutral element alone, so
    a :class:`Uninorm` equals the plain table it certifies.
    """

    lattice: BoundedLattice
    table: dict
    neutral: str

    def __call__(self, x, y) -> str:
        return self.table[x, y]

    def __eq__(self, other):
        if not isinstance(other, FullBinOpTable):
            return NotImplemented
        return (self.lattice, self.table, self.neutral) == (other.lattice, other.table, other.neutral)

    def __hash__(self):
        return hash((self.neutral, tuple(sorted(self.table.items()))))


class Uninorm(FullBinOpTable):
    """A full table that :func:`validate_uninorm` has certified.

    ``brute_force_uninorms`` builds one only after the check passes, and
    :func:`classify` reads it as a uninorm without checking it again: build
    one from no other table.
    """


@dataclass
class AxiomCheck:
    ok: bool
    witness: tuple | None = None


@dataclass
class AxiomReport:
    commutative: AxiomCheck
    associative: AxiomCheck
    monotone: AxiomCheck
    neutral: AxiomCheck

    @property
    def ok(self) -> bool:
        return (
            self.commutative.ok
            and self.associative.ok
            and self.monotone.ok
            and self.neutral.ok
        )

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ClassFlag:
    member: bool
    witnesses: tuple = ()


@dataclass
class ClassMembership:
    """Membership flags for the eight uninorm classes.

    Each failed flag carries the full witness list ((x, y) -> value) in
    scan order; the first entry is the canonical witness.
    """

    flags: dict

    def __getitem__(self, name) -> ClassFlag:
        return self.flags[name]

    def as_dict(self) -> dict:
        return {
            name: {"member": flag.member, "witnesses": list(flag.witnesses)}
            for name, flag in self.flags.items()
        }


def _positions(lat: BoundedLattice, rows, table) -> list:
    """The table on rows x rows as lattice positions, in row-major order.

    Raises UnknownElement((x, y)) for the first missing cell and
    UnknownElement(v) for the first value outside the lattice, scanning
    row-major.
    """
    pos = lat.positions
    try:
        return [pos[table[x, y]] for x in rows for y in rows]
    except KeyError:
        for x in rows:
            for y in rows:
                if (x, y) not in table:
                    raise UnknownElement((x, y)) from None
                if table[x, y] not in pos:
                    raise UnknownElement(table[x, y]) from None
        raise


def validate_partial(lat: BoundedLattice, domain: IntervalSpec, role: str, table) -> PartialBinOpTable:
    """Certify a table as a t-norm or t-conorm on a closed interval.

    Raises UnknownElement (see :func:`_positions`), then OutOfDomainOutput
    for the first cell leaving the domain, then AxiomViolation for the
    first failing axiom in the order neutral, commutative, associative,
    monotone, as :func:`validate_uninorm` finds it on the domain's
    interval lattice.
    """
    neutral = role_neutral(role, domain)
    dom = lat.interval(domain)
    table = dict(table)
    t = _positions(lat, dom, table)
    inside = {lat.positions[x] for x in dom}
    if not inside.issuperset(t):
        k = next(k for k, v in enumerate(t) if v not in inside)
        x, y = dom[k // len(dom)], dom[k % len(dom)]
        raise OutOfDomainOutput(x, y, table[x, y])
    report = validate_uninorm(FullBinOpTable(lat.interval_lattice(domain), table, neutral))
    for name in ("neutral", "commutative", "associative", "monotone"):
        check = getattr(report, name)
        if not check.ok:
            raise AxiomViolation(name, check.witness)
    return PartialBinOpTable(lat, domain, role, table)


def join_tconorm(lat: BoundedLattice, low: str) -> PartialBinOpTable:
    """The t-conorm S(x, y) = x v y on [low, top]."""
    domain = IntervalSpec(low, lat.top)
    dom = lat.interval(domain)
    table = {(x, y): lat.join(x, y) for x in dom for y in dom}
    return validate_partial(lat, domain, TCONORM, table)


def meet_tnorm(lat: BoundedLattice, high: str) -> PartialBinOpTable:
    """The t-norm T(x, y) = x ^ y on [bottom, high]."""
    domain = IntervalSpec(lat.bottom, high)
    dom = lat.interval(domain)
    table = {(x, y): lat.meet(x, y) for x in dom for y in dom}
    return validate_partial(lat, domain, TNORM, table)


def validate_uninorm(candidate: FullBinOpTable) -> AxiomReport:
    """Exhaustively check the four uninorm axioms; failures are data.

    The table is read once into lattice positions, as packed rows and
    columns; every scan then runs row-major over declared element order,
    so each witness is the first violation in that order.
    """
    lat = candidate.lattice
    els = lat.elements
    t = _positions(lat, els, candidate.table)
    if candidate.neutral not in lat:
        raise UnknownElement(candidate.neutral)
    rows, cols = _rows_and_columns(t, len(els))
    commutative = _commutative_witness(rows, cols)
    # Monotone in both arguments: the earlier of the first violations in
    # the rows and in the columns (witnesses compare in scan order).  On a
    # commutative table the columns are the rows.
    covers = _cover_positions(lat)
    monotone = _monotone_witness(lat.up, covers, rows)
    if commutative is not None:
        found = [w for w in (monotone, _monotone_witness(lat.up, covers, cols)) if w is not None]
        monotone = min(found, default=None)

    def check(witness) -> AxiomCheck:
        if witness is None:
            return AxiomCheck(True)
        return AxiomCheck(False, tuple(map(els.__getitem__, witness)))

    return AxiomReport(
        check(commutative),
        check(_associative_witness(rows)),
        check(monotone),
        check(_neutral_witness(rows, cols, lat.positions[candidate.neutral])),
    )


# The axiom scans of validate_uninorm.  They read a table on positions
# 0..m-1 as its rows (rows[x][y] = t(x, y)) and columns (cols[y][x] =
# t(x, y)), both packed by packed_positions, and return the first
# witness, as positions, or None.

def _rows_and_columns(t, m):
    t = packed_positions(t, m)
    return [t[i * m:i * m + m] for i in range(m)], [t[j::m] for j in range(m)]


def _neutral_witness(rows, cols, e):
    m = len(rows)
    identity = packed_positions(range(m), m)
    if rows[e] == identity and cols[e] == identity:
        return None
    return (next(x for x in range(m) if rows[e][x] != x or cols[e][x] != x),)


def _commutative_witness(rows, cols):
    for x, (row, col) in enumerate(zip(rows, cols)):
        if row != col:
            return x, first_difference(row, col)
    return None


def _associative_witness(rows):
    # t(x, t(y, z)) over z is row x read at the entries of row y, which is
    # row y translated by row x padded to a table, and t(t(x, y), z) is
    # row t(x, y).
    pad = translation_pad(len(rows))
    for x, rx in enumerate(rows):
        table = rx + pad
        for y, ry in enumerate(rows):
            left = ry.translate(table)
            if left != rows[rx[y]]:
                return x, y, first_difference(left, rows[rx[y]])
    return None


def _monotone_witness(up, covers, rows):
    """Monotonicity in the first argument over the pairs x < y, where bit y
    of ``up[x]`` is set when x <= y; on the columns, in the second.

    ``covers`` holds position pairs (lo, hi) whose reflexive-transitive
    closure is the order, such as the Hasse covers.  By transitivity the
    table is monotone when it is monotone across every cover, and every
    witness column z is one where some cover fails, so only those columns
    are rescanned, pair by pair, for the first witness (x, y, z).
    """
    everything = range(len(rows))
    failing = set()
    for lo, hi in covers:
        rl, rh = rows[lo], rows[hi]
        for z in everything:
            if not up[rl[z]] >> rh[z] & 1:
                failing.add(z)
    if not failing:
        return None
    columns = sorted(failing)
    for x in everything:
        for y in everything:
            if x == y or not up[x] >> y & 1:
                continue
            rx, ry = rows[x], rows[y]
            for z in columns:
                if not up[rx[z]] >> ry[z] & 1:
                    return x, y, z
    raise AssertionError("a failing cover without a failing pair")


def _cover_positions(lat: BoundedLattice) -> tuple:
    """The covers of ``lat`` as position pairs, memoised on the lattice."""
    pos = lat.positions
    return lat.derived("cover positions", lambda: tuple((pos[lo], pos[hi]) for lo, hi in lat.covers))


def check_associativity_partitioned(candidate: FullBinOpTable, blocks):
    """Associativity via the block case-analysis for commutative tables.

    blocks must partition the carrier.  Evaluates exactly the four case
    families (three distinct blocks; two-of-one; one-of-one twice on the
    right; all in one block); for a commutative table the result equals
    the full triple scan.
    """
    lat = candidate.lattice
    t = candidate.table
    blocks = [tuple(b) for b in blocks]
    flat = [x for b in blocks for x in b]
    if sorted(flat) != sorted(lat.elements) or len(flat) != len(set(flat)):
        raise NotAPartition("blocks do not partition the lattice")
    for x in lat.elements:
        for y in lat.elements:
            if t[x, y] != t[y, x]:
                raise NotCommutative(f"table not commutative at ({x!r}, {y!r})")

    def holds(x, y, z):
        return t[x, t[y, z]] == t[t[x, y], z]

    n = len(blocks)
    # (i): three distinct blocks, all argument placements.
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for x in blocks[i]:
                    for y in blocks[j]:
                        for z in blocks[k]:
                            if not (
                                holds(x, y, z)
                                and t[x, t[y, z]] == t[y, t[x, z]]
                            ):
                                return False, (x, y, z)
    # (ii): two from one block on the left, one from another.
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for x in blocks[i]:
                for y in blocks[i]:
                    for z in blocks[j]:
                        if not holds(x, y, z):
                            return False, (x, y, z)
    # (iii): one element, then two from another block.
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for x in blocks[i]:
                for y in blocks[j]:
                    for z in blocks[j]:
                        if not holds(x, y, z):
                            return False, (x, y, z)
    # (iv): all three in one block.
    for b in blocks:
        for x in b:
            for y in b:
                for z in b:
                    if not holds(x, y, z):
                        return False, (x, y, z)
    return True, None


# The regions the class flags read, as label sets of the strict case
# partition around e: ]e,1], ]e,1[, [0,e[, ]0,e[, L \ [e,1] and L \ [0,e].
# The partition labels e itself E, also when e is a bound.
_CLASS_REGIONS = (
    {RegionLabel.HIGH_OPEN, RegionLabel.TOP},
    {RegionLabel.HIGH_OPEN},
    {RegionLabel.ZERO, RegionLabel.LOW_OPEN},
    {RegionLabel.LOW_OPEN},
    {RegionLabel.ZERO, RegionLabel.LOW_OPEN, RegionLabel.INC},
    {RegionLabel.HIGH_OPEN, RegionLabel.TOP, RegionLabel.INC},
)


def _class_regions(lat: BoundedLattice, e: str) -> tuple:
    """The class regions as id tuples in declared order, memoised per
    lattice and e."""

    def make():
        labels = case_partition(lat, e, True).labels
        return tuple(tuple(x for x, r in zip(lat.elements, labels) if r in region) for region in _CLASS_REGIONS)

    return lat.derived(("classify", e), make)


def classify(candidate: FullBinOpTable) -> ClassMembership:
    """Membership in the eight uninorm classes by direct evaluation.

    A :class:`Uninorm` is already certified.  Any other table is checked
    by validate_uninorm first, and NotAUninorm is raised when it fails.
    The certified table is then read by id, on the cells of each flag's
    regions alone.  Each flag lists the cells (x, y, t(x, y)) that break
    its forced value, t(x, y) = y or t(x, y) = x, row-major over the
    declared element order.
    """
    if not isinstance(candidate, Uninorm) and not validate_uninorm(candidate).ok:
        raise NotAUninorm("candidate fails the uninorm axioms")
    lat, t = candidate.lattice, candidate.table
    above_half, above_open, below_half, below_open, not_upper, not_lower = _class_regions(lat, candidate.neutral)

    def snd(xs, ys):
        return tuple([(x, y, v) for x in xs for y in ys if (v := t[x, y]) != y])

    def fst(xs, ys):
        return tuple([(x, y, v) for x in xs for y in ys if (v := t[x, y]) != x])

    # u_min_1 and u_max_0 also ask the top, or the bottom, to absorb: t(x, y) = x.
    flags = {
        "u_min": snd(above_half, not_upper),
        "u_max": snd(below_half, not_lower),
        "u_min_star": snd(above_half, below_half),
        "u_max_star": snd(below_half, above_half),
        "u_min_r": fst(above_half, not_upper),
        "u_max_r": fst(below_half, not_lower),
        "u_min_1": snd(above_open, not_upper) + fst((lat.top,), not_upper),
        "u_max_0": snd(below_open, not_lower) + fst((lat.bottom,), not_lower),
    }
    return ClassMembership({name: ClassFlag(not ws, ws) for name, ws in flags.items()})


def strictness_check(partial: PartialBinOpTable):
    """For a t-conorm: S(x, y) != top on the open interior; dually for a t-norm.

    Returns (flag, witnesses).
    """
    lat = partial.lattice
    open_spec = IntervalSpec(partial.domain.low, partial.domain.high, True, True)
    interior = lat.interval(open_spec)
    bad = partial.domain.high if partial.role == TCONORM else partial.domain.low
    witnesses = tuple(
        (x, y) for x in interior for y in interior if partial(x, y) == bad
    )
    return not witnesses, witnesses

