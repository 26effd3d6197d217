"""Non-covering certificates via distorted measures, in exact arithmetic.

The idea: order the primes dividing Q = lcm of the moduli as p_1 < ... < p_J
and let Q_j be the product of the first j full prime powers.  Classes are
grouped into levels by the largest prime factor of their modulus, and the
level-j classes carve a subset B_j of Z/Q_jZ.  Starting from the uniform
measure, one level at a time, mass is pushed away from B_j: writing a(y) for
the fraction of lifts of a residue y that land in B_j, either the whole fiber
over y keeps its mass but the part inside B_j is emptied onto the rest (when
a(y) < delta_j), or the mass inside B_j is thinned by the factor
(a(y) - delta_j) / (a(y) (1 - delta_j)) and the rest rescaled to compensate.
Either way the mass of any residue class grows by at most 1/(1 - delta_j)
per level, while the mass left on B_j after its own level is bounded by a
moment of a(y).  If the sum of those moment bounds is below 1, some residue
mod Q escapes every class, so the system does not cover.  Only the moment
bounds enter the certificate: the bound on the mass of a progression is
not computed here, and the test suite checks it on the measures the
pipeline builds.

All measures, fractions and moments are fractions.Fraction; no floats enter
any decision.

A measure takes few distinct values, so a FiberMeasure stores each distinct
exact mass once, in a table, and one small integer per residue, its type:
the index of its mass in the table, in the narrowest of array('B'), 'H',
'I' and 'Q' that indexes the table, so 1 byte per residue while there are
at most 256 types.  Hit counts stay integers; the hit fraction of a fiber
is its count over the p_j^(nu_j) lifts, and no per-fiber Fraction is made.
A level reads its lifts, Q_j / Q_(j-1), from the moduli of its level set
and parent measure.  Counts are summed in byte lanes: the rows of the mask,
read as little-endian integers, add up to an integer whose byte y is the hit
count of fiber y, as long as a fiber has at most 255 lifts and every mask
byte is 0 or 1; wider fibers are counted by slices, into an array.

Inside a parent fiber the new measure takes only two values, on B_j and off
it, which depend only on the fiber's (type, count) group.  So the moments
and the update do their exact arithmetic once per distinct group, over
integer numerators, and leave the per-fiber and per-residue work to C:
counting the groups, mapping groups to new types, and choosing each
residue's on or off type by its mask bit with bitwise operations on big
integers.  A fiber's group is its code type * (lifts + 1) + count, in a
lane of the narrowest of 1, 2, 4 and 8 bytes that holds every code, and one
big-integer multiply-add makes the codes of all fibers.  The moments drop
fibers with no hit by one bytes.translate while the codes fit in a byte,
types * (lifts + 1) <= 256, else by itertools.compress; the new types of a
measure of at most 256 types are read through two 256-byte translate
tables.  A level whose fibers form one group, as every first level does,
builds no rows: each residue's type is its mask byte's, off or on, picked
by one translate of the mask a block at a time.  A parent of one type, a
uniform measure, has every id 0, so its codes are its counts, and at
delta_j = 0, where no mass moves, it lifts to the uniform measure mod Q_j
with no grouping: from the uniform start, the default schedule's delta-0
prefix stays uniform.  Cheap runtime checks guard the arithmetic.  A
level's gate checks its mask and counts before any kernel reads them, and a
system object keeps what passed for its later runs (_check_level).  Each
new measure has total mass 1, no negative mass, and at most the level's
term on B_j, exactly the term when delta_j = 0.

The certificate reads only the per-level moment terms, never the measure
the last level leaves, so a level's outgoing measure is built only when it
is read: by the next level, or by a caller of LevelRecord.measure.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections import Counter, namedtuple
from collections.abc import Collection
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from zlib import adler32

from .core import (
    DEFAULT_LIMITS,
    CongruenceSystem,
    DomainError,
    InternalConsistencyError,
    Limits,
    _hit_mask,
    _ReadOnly,
    _shown,
    multiplicity,
    rational_str,
)

NOT_COVERING = "NotCovering"
INCONCLUSIVE = "Inconclusive"

FIRST_MOMENT = "first-moment"
SECOND_MOMENT = "second-moment"

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

# bytes.translate tables: a count to 1 where it is 0, else 0; a mask byte to
# 255 where it is 1, else 0; a mask byte to 1 where it is neither 0 nor 1
_EMPTY = bytes([1] + [0] * 255)
_ALL_ONES = bytes([0, 255] + [0] * 254)
_NOT_BIT = bytes([0, 0] + [1] * 254)


def _scaled_sum(weighted: Collection[tuple[tuple[int, int], int]]) -> tuple[int, int]:
    """The sum of weight * num / den over ((num, den), weight) pairs, as (numerator, L).

    The numerator is the sum of weight * num * (L / den) over the common
    denominator L of the pairs, unreduced.
    """
    common = lcm(*(den for (_, den), _ in weighted))
    return sum(w * num * (common // den) for (num, den), w in weighted), common


def _total(weighted: Collection[tuple[tuple[int, int], int]], scale: int = 1) -> Fraction:
    """The sum of weight * num / den over ((num, den), weight) pairs, divided by scale."""
    num, common = _scaled_sum(weighted)
    return Fraction(num, common * scale)


def _as_delta(delta) -> Fraction:
    """delta as a Fraction, checked to lie in [0, 1/2] on its numerator and denominator."""
    try:
        value = delta if isinstance(delta, Fraction) else Fraction(delta)
    except (ValueError, ArithmeticError):  # such as a NaN or an infinity
        value = None
    if value is None or value.numerator < 0 or 2 * value.numerator > value.denominator:
        raise DomainError(f"delta must lie in [0, 1/2], got {_shown(delta)}")
    return value


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


# ---------------------------------------------------------------------------
# prime ladder and level sets


class PrimeLadder(namedtuple("PrimeLadder", "primes partials")):
    """The primes of Q in increasing order, with partial prime-power products.

    partials[0] is 1 and partials[j] is the product of the first j full prime
    powers of Q, so partials[depth] == Q.
    """

    __slots__ = ()

    @property
    def depth(self) -> int:
        return len(self.primes)


def prime_ladder(pairs: tuple[tuple[int, int], ...]) -> PrimeLadder:
    """Build the ladder of partial prime-power products from (prime, exponent) pairs."""
    if not pairs:
        raise DomainError("a prime ladder needs at least one prime")
    partials = [1]
    for p, e in pairs:
        partials.append(partials[-1] * p**e)
    return PrimeLadder(tuple(p for p, _ in pairs), tuple(partials))


class LevelSet(namedtuple("LevelSet", "mask")):
    """Residues mod Q_j covered by the classes assigned to level j.

    mask[z] is 1 when z is covered and 0 otherwise, for z in Z/Q_jZ, so
    modulus is len(mask); LevelRecord.level names the level.  It is the
    bytearray the level's classes were written into, not a copy, and nothing
    writes to it after level_set returns.
    """

    __slots__ = ()

    @property
    def modulus(self) -> int:
        return len(self.mask)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(itertools.compress(range(self.modulus), self.mask))


def level_set(sys: CongruenceSystem, ladder: PrimeLadder, j: int) -> LevelSet:
    """Union, inside Z/Q_jZ, of the classes whose modulus has largest prime p_j.

    For d dividing Q, the largest prime of d is p_j exactly when d divides
    Q_j but not Q_(j-1), so the classes are picked without factoring.  No
    level checks the system or the ladder: the pipeline does, once, before
    the first level (_pipeline_ladder).
    """
    if not 1 <= j <= ladder.depth:
        raise DomainError(f"level must satisfy 1 <= j <= {ladder.depth}, got {_shown(j)}")
    qj, qprev = ladder.partials[j], ladder.partials[j - 1]
    progressions = [(r, d) for r, d in zip(sys.residues, sys.moduli) if qj % d == 0 and qprev % d]
    return LevelSet(_hit_mask(qj, progressions))


# ---------------------------------------------------------------------------
# fiber measures


def _id_typecode(types: int) -> str:
    """The narrowest of array typecodes B, H, I and Q whose values index this many entries."""
    if types > 1 << 64:
        raise DomainError(f"{_shown(types)} entries cannot be indexed in 8 bytes")
    return "B" if types <= 256 else "H" if types <= 1 << 16 else "I" if types <= 1 << 32 else "Q"


class FiberMeasure(namedtuple("FiberMeasure", "table ids level_mass", defaults=(None,))):
    """A measure on Z/QZ stored by its mass on each fiber of Z/Q_levelZ, Q_level = len(ids).

    Each distinct mass is stored once, in table; ids[y] is the index in
    table of the mass of fiber y.  level_mass is the mass the measure leaves
    on the level set it was stepped across, None for a measure that
    step_measure did not build.
    """

    __slots__ = ()

    @property
    def modulus(self) -> int:
        return len(self.ids)

    def mass(self, y: int) -> Fraction:
        return self.table[self.ids[y % len(self.ids)]]


def uniform_measure() -> FiberMeasure:
    """The starting measure: total mass 1, constant on Z."""
    return FiberMeasure((_ONE,), array("B", (0,)))


def hit_fractions(prev: FiberMeasure, bset: LevelSet):
    """Per parent residue y, the number of its lifts that land in the level set.

    The result is indexed by y in Z/Q_(j-1)Z, Q_(j-1) = prev.modulus; the
    hit fraction of fiber y is its count over the Q_j / Q_(j-1) lifts.  It
    is bytes while a fiber has at most 255 lifts, else an array of the
    narrowest typecode that holds the lifts.  The mask is read unchecked:
    only the level's gate calls this, on a mask it passed (_check_level).
    """
    lifts, qprev, mask = bset.modulus // prev.modulus, prev.modulus, bset.mask
    if lifts > 255:
        return array(_id_typecode(lifts + 1), [mask[y::qprev].count(1) for y in range(qprev)])
    # row k holds the lifts y + k qprev; byte lane y of the rows' sum is the
    # hit count of fiber y, and a lane of at most 255 bytes of 0 or 1 cannot carry
    rows = memoryview(mask)
    total = 0
    for k in range(lifts):
        total += int.from_bytes(rows[k * qprev : (k + 1) * qprev], "little")
    return total.to_bytes(qprev, "little")


def _lanes(values, width: int) -> bytes | array:
    """values, bytes or unsigned ints in an array or a view, one to a lane of width bytes.

    Each value keeps its bytes, in native order, at the low end of its lane
    and the lane's other bytes are 0, so the lanes read in sys.byteorder
    hold the values.  The copy is one strided byte slice per byte of a
    value; values already width bytes wide are returned as they are.
    """
    size = memoryview(values).itemsize
    if size == width:
        return values
    lanes = bytearray(len(values) * width)
    low = 0 if sys.byteorder == "little" else width - size
    for k in range(size):
        lanes[low + k :: width] = memoryview(values).cast("B")[k::size]
    # int.from_bytes would copy a bytearray and hold both while it builds the int
    return bytes(lanes)


def _fiber_codes(prev: FiberMeasure, counts, lifts: int) -> tuple[bytes | memoryview, int]:
    """Per fiber y, its group code ids[y] * base + counts[y], and base = lifts + 1.

    The counts are bytes or an array or a view of unsigned ints, one per
    fiber, each at most lifts, as the level's gate passes them.  Each code
    takes a lane of the narrowest of 1, 2, 4 and 8 bytes that holds
    types * base codes, and never narrower than the ids.  The ids and the
    counts, widened into those lanes (_lanes) and read as integers in
    sys.byteorder, give every code in one multiply-add: a carry runs toward
    its lane's high byte, and a code below types * base never carries out
    of its lane.  The codes are bytes for one-byte lanes, else a memoryview
    of the lane typecode; for a parent of one type, whose every id is 0,
    they are the counts themselves.
    """
    ids, base = prev.ids, lifts + 1
    if len(prev.table) == 1:
        return counts, base
    # 1 << 8 * itemsize codes take exactly the ids' width
    typecode = _id_typecode(max(len(prev.table) * base, 1 << 8 * ids.itemsize))
    width, order = array(typecode).itemsize, sys.byteorder
    packed = int.from_bytes(_lanes(ids, width), order) * base
    packed += int.from_bytes(_lanes(counts, width), order)
    codes = packed.to_bytes(len(ids) * width, order)
    return (codes if width == 1 else memoryview(codes).cast(typecode)), base


def moments(prev: FiberMeasure, counts, lifts: int) -> tuple[Fraction, Fraction]:
    """First and second moments of the hit fractions count / lifts under the parent measure."""
    # fibers with no hit add nothing; the rest are grouped by (type, count)
    codes, base = _fiber_codes(prev, counts, lifts)
    if isinstance(codes, bytes):
        # a code with count 0 is a multiple of base
        codes = codes.translate(None, bytes(range(0, 256, base)))
    else:
        codes = itertools.compress(codes, counts)
    # per parent type, the sums of n c and n c^2 over its groups
    first = {}
    second = {}
    for code, n in Counter(codes).items():
        t, c = divmod(code, base)
        first[t] = first.get(t, 0) + n * c
        second[t] = second.get(t, 0) + n * c * c
    pairs = [(m.numerator, m.denominator) for m in prev.table]
    return (
        _total([(pairs[t], w) for t, w in first.items()], lifts),
        _total([(pairs[t], w) for t, w in second.items()], lifts * lifts),
    )


def step_measure(prev: FiberMeasure, counts, delta: Fraction, bset: LevelSet) -> FiberMeasure:
    """Advance the measure one level, pushing mass off the level set.

    Each parent fiber keeps its total mass.  Fibers with hit fraction below
    delta are emptied on the level set and renormalized off it; the rest are
    thinned on the level set by (a - delta) / (a (1 - delta)) and rescaled
    off it by 1 / (1 - delta).

    The new masses are computed once per distinct (parent type, hit count)
    group and stored once per distinct value; every residue of Z/Q_jZ then
    takes the type of its group's on or off mass by its mask bit, in bitwise
    operations on whole rows of lifts.  When the fibers form one group, as at
    every first level, the type depends on the bit alone, and one translate
    of the mask, a block at a time (_row_blocks), picks it with no rows.

    At delta = 0 nothing moves, so a parent of one type, a uniform measure,
    lifts to the uniform measure of mass m / lifts on every residue; its
    mass on the level set is read from the mask.  delta comes from a
    DeltaSchedule and the mask and counts from the level's gate
    (_check_level), so none of them is checked again here.
    """
    lifts = bset.modulus // prev.modulus
    codes, base = _fiber_codes(prev, counts, lifts)
    mask = bset.mask
    if not delta and len(prev.table) == 1:
        m = prev.table[0]
        lifted = Fraction(m.numerator, m.denominator * lifts)
        if lifted * bset.modulus != 1:
            raise InternalConsistencyError(
                f"measure mod {bset.modulus} is not a probability measure"
            )
        return FiberMeasure((lifted,), array("B", bytes(bset.modulus)), lifted * mask.count(1))
    # per (parent type, count) group, its (off, on) masses as reduced
    # (num, den) pairs; per distinct mass, the residues that take it in all
    # of Z/Q_jZ and in the level set
    pair_of = {}
    weight = Counter()
    on_weight = Counter()
    for code, n in Counter(codes).items():
        c = code % base
        pair_of[code] = off, on = _fiber_masses(prev.table[code // base], c, lifts, delta)
        weight[off] += n * (lifts - c)
        weight[on] += n * c
        on_weight[on] += n * c
    total, common = _scaled_sum(weight.items())
    if total != common or min(num for num, _ in weight) < 0:
        raise InternalConsistencyError(f"measure mod {bset.modulus} is not a probability measure")
    # the types are the distinct masses, in order of first use
    type_of = {mass: i for i, mass in enumerate(weight)}
    table = tuple(Fraction(num, den) for num, den in weight)
    if len(pair_of) == 1:
        # one group: every residue's type is its mask bit's, off or on
        ((off, on),) = pair_of.values()
        pick = bytes((type_of[off], type_of[on])) + bytes(254)
        ids = array("B")
        for block in _row_blocks(mask, 1):
            ids.frombytes(block.translate(pick))
        return FiberMeasure(table, ids, _total(on_weight.items()))
    typecode = _id_typecode(len(weight))
    if isinstance(codes, bytes) and typecode == "B":
        # byte codes to byte types, through one 256-byte table per row
        off_of, on_of = bytearray(256), bytearray(256)
        for code, (off, on) in pair_of.items():
            off_of[code], on_of[code] = type_of[off], type_of[on]
        off_row, on_row = codes.translate(off_of), codes.translate(on_of)
    else:
        off_of = {code: type_of[off] for code, (off, _) in pair_of.items()}
        on_of = {code: type_of[on] for code, (_, on) in pair_of.items()}
        off_row = array(typecode, map(off_of.__getitem__, codes))
        on_row = array(typecode, map(on_of.__getitem__, codes))
    ids = _select_rows(off_row, on_row, mask, typecode)
    return FiberMeasure(table, ids, _total(on_weight.items()))


# residues per block of the row passes, so their big integers stay small
_ROW_BLOCK = 1 << 18


def _row_blocks(mask: bytes, fibers: int):
    """Copies of the mask in blocks of whole rows of fibers bytes: _ROW_BLOCK bytes or one row."""
    step = fibers * max(1, _ROW_BLOCK // fibers)
    return (mask[start : start + step] for start in range(0, len(mask), step))


def _select_rows(off_row, on_row, mask: bytes, typecode: str) -> array:
    """Per residue z, on_row's id where mask[z] is set, else off_row's, in an array of typecode.

    The rows hold one id per parent fiber, as arrays of typecode or, for
    one-byte ids, as bytes, and are tiled over the lifts: residue z lies
    over fiber z mod len(off_row).  The selection off ^ ((off ^ on) & m),
    with m all ones on the lanes of set mask bytes, runs on big integers a
    block of whole rows at a time (_row_blocks).  m is 255 per set mask byte,
    widened into lanes (_lanes), times 0x01...01 to fill every byte of a lane.
    """
    ids = array(typecode)
    fibers, width, order = len(off_row), ids.itemsize, sys.byteorder
    diff_row = (int.from_bytes(off_row, order) ^ int.from_bytes(on_row, order)).to_bytes(
        fibers * width, order
    )
    spread = ((1 << 8 * width) - 1) // 255
    for block in _row_blocks(mask, fibers):
        rows, size = len(block) // fibers, len(block) * width
        ones = int.from_bytes(_lanes(block.translate(_ALL_ONES), width), order) * spread
        off = int.from_bytes(off_row * rows, order)
        diff = int.from_bytes(diff_row * rows, order) & ones
        ids.frombytes((off ^ diff).to_bytes(size, order))
    return ids


def _byte_sum(data, top: int) -> int:
    """The exact sum of the bytes of data, each at most top, by zlib.adler32.

    The low half of adler32 is 1 + the byte sum mod 65521, so it is 1 + the
    sum itself for at most 65519 // top bytes; longer data is summed by
    slices of that length.  One C pass, where sum() makes an int per byte
    and bytes.count slows on mixed bytes.
    """
    step = 65519 // top
    if len(data) > step:
        return sum(_byte_sum(data[i : i + step], top) for i in range(0, len(data), step))
    return (adler32(data) & 0xFFFF) - 1


def _check_level(prev: FiberMeasure, bset: LevelSet):
    """The level's hit counts and lifts, or InternalConsistencyError on bad data.

    A level's gate, which every level passes before any kernel reads it.
    The mask's length is a multiple of the parent's, and every mask byte is
    0 or 1, or hit_fractions' lanes may carry and its slices miss a member;
    only then are the counts made (hit_fractions).  There is one per fiber,
    each at most lifts, or _fiber_codes' lanes spill into the next type's,
    and they sum to |B_j|, the mask's ones, which the 0/1 pass sums a block
    of whole rows at a time (_row_blocks, _byte_sum).  The counts come back
    as records carry them: bytes, or past 255 lifts a read-only view of the
    array, so that no reader can change a later run's counts.  run_levels
    runs the gate's last part, _check_zero_fibers, the first time a run
    visits the level with delta = 0.

    No delta enters a level's mask or counts, nor certify's witness, so a
    system object keeps them for its later runs under any schedule, in one
    dict in its __dict__ (_KEPT): per level j, run_levels keeps the counts,
    the lifts and whether the zero-fiber check has passed, and certify keeps
    the witness.  That is about Q_1 + ... + Q_(J-1) bytes, and no mask:
    level_set rebuilds the one the gate passed on every run.  Only what
    passed is kept, so a check that raises raises again on the next run.
    The dict lives and dies with the system and enters neither its ==, its
    hash nor its repr.
    """
    lifts, rest = divmod(bset.modulus, prev.modulus)
    if rest or not lifts:
        raise InternalConsistencyError("level set modulus must be a multiple of the parent's")
    members = 0
    for block in _row_blocks(bset.mask, 1):
        bad = block.translate(_NOT_BIT).find(1)
        if bad >= 0:
            raise InternalConsistencyError(f"level set mask byte {block[bad]} is not 0 or 1")
        members += _byte_sum(block, 1)
    counts = hit_fractions(prev, bset)
    if len(counts) != prev.modulus:
        raise InternalConsistencyError("one hit count per parent residue is required")
    if isinstance(counts, bytes):
        over = lifts < 255 and counts.translate(None, bytes(range(lifts + 1)))
    else:
        over = counts and max(counts) > lifts
    if over:
        raise InternalConsistencyError(f"each hit count must lie in [0, {lifts}], its lifts")
    total = _byte_sum(counts, lifts) if isinstance(counts, bytes) else sum(counts)
    if total != members:
        raise InternalConsistencyError(
            f"the hit counts sum to {total}, the level set has {members} members"
        )
    return (counts if isinstance(counts, bytes) else memoryview(counts).toreadonly()), lifts


def _check_zero_fibers(counts, bset: LevelSet) -> None:
    """InternalConsistencyError if a member of the level set lies above a fiber with count 0.

    Such a fiber keeps its base mass on every lift at every delta
    (_fiber_masses), so the member holds mass that the level's term does
    not count.  The check reads the whole mask, a block of whole rows at a
    time (_row_blocks), so for its cost it runs only the first time a run
    visits the level with delta = 0 (_check_level).
    """
    empty = counts.translate(_EMPTY) if isinstance(counts, bytes) else bytes(not c for c in counts)
    for block in _row_blocks(bset.mask, len(empty)) if 1 in empty else ():
        tiled = empty * (len(block) // len(empty))
        if int.from_bytes(block, "little") & int.from_bytes(tiled, "little"):
            raise InternalConsistencyError("level set member above a fiber with hit fraction 0")


# the key of a system's __dict__, where cached_property keeps its
# factorization, under which its runs keep what their later runs reuse
_KEPT = "_distortion_kept"


def _fiber_masses(
    m: Fraction, c: int, lifts: int, delta: Fraction
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The (off, on) masses of one lift of a fiber of mass m and c hits in lifts.

    With base = m / lifts and a = c / lifts: off = base / (1 - a) and on = 0
    when a < delta, else off = base / (1 - delta) and on = base (a - delta) /
    (a (1 - delta)).  An empty or a full fiber keeps base on every lift, so
    both are base there, and no mass is returned that no lift takes.  Each
    mass is a reduced (numerator, denominator) pair, written over integers
    so that it costs one gcd.
    """
    mn, md = m.numerator, m.denominator
    if c == 0 or c == lifts:
        base = _reduced(mn, md * lifts)
        return base, base
    dn, dd = delta.numerator, delta.denominator
    if c * dd < dn * lifts:
        return _reduced(mn, md * (lifts - c)), (0, 1)
    off = _reduced(mn * dd, md * lifts * (dd - dn))
    return off, _reduced(mn * (c * dd - dn * lifts), md * lifts * c * (dd - dn))


# ---------------------------------------------------------------------------
# delta schedules


class DeltaSchedule(tuple):
    """One delta per ladder level: a tuple of the Fractions _as_delta makes of its input."""

    def __new__(cls, deltas=()):
        return super().__new__(cls, map(_as_delta, deltas))


def default_delta_schedule(
    mult: int, ladder: PrimeLadder, smooth_constant=Fraction(1)
) -> DeltaSchedule:
    """Zero delta for primes up to a cubic-in-multiplicity threshold, 1/2 beyond.

    Small primes are handled through the first moment, which stays summable
    without any distortion; the threshold smooth_constant * mult^3 marks
    where the second-moment branch with delta = 1/2 takes over.
    """
    if mult < 1:
        raise DomainError(f"multiplicity must be at least 1, got {_shown(mult)}")
    smooth_constant = Fraction(smooth_constant)
    if smooth_constant <= 0:
        raise DomainError(f"threshold constant must be positive, got {_shown(smooth_constant)}")
    threshold = smooth_constant * mult**3
    return DeltaSchedule(_ZERO if p <= threshold else _HALF for p in ladder.primes)


def _pipeline_ladder(sys: CongruenceSystem, limits: Limits) -> PrimeLadder | None:
    """The prime ladder of the system's Q, or None for the empty system.

    A modulus 1 and a Q over the residue-space limit are rejected before Q
    is factored: trial division of a huge Q hangs.  The ladder's Q is the
    lcm, so every modulus divides it and lands at one level (level_set).
    """
    if not sys.moduli:
        return None
    if 1 in sys.moduli:
        raise DomainError("distortion requires every modulus to be at least 2")
    limits.require_residue_space(sys.lcm_modulus, "pipeline")
    ladder = prime_ladder(sys.factorization)
    if ladder.partials[-1] != sys.lcm_modulus:
        raise InternalConsistencyError("the ladder's Q is not the lcm of the moduli")
    return ladder


def system_default_schedule(
    sys: CongruenceSystem, smooth_constant=Fraction(1), *, limits: Limits = DEFAULT_LIMITS
) -> DeltaSchedule:
    """default_delta_schedule for the system's multiplicity and the primes of its Q.

    The empty system takes the empty schedule.
    """
    ladder = _pipeline_ladder(sys, limits)
    if ladder is None:
        return DeltaSchedule()
    return default_delta_schedule(multiplicity(sys), ladder, smooth_constant)


# ---------------------------------------------------------------------------
# the certificate pipeline


# moment summary for one ladder level
CertificateTerm = namedtuple("CertificateTerm", "prime delta m1 m2 term branch")


class Certificate(namedtuple("Certificate", "terms eta verdict witness")):
    """The outcome of the pipeline: per-level terms, their sum, a verdict."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "eta": rational_str(self.eta),
            "verdict": self.verdict,
            "terms": [
                {
                    "p": t.prime,
                    "delta": rational_str(t.delta),
                    "m1": rational_str(t.m1),
                    "m2": rational_str(t.m2),
                    "term": rational_str(t.term),
                    "branch": t.branch,
                }
                for t in self.terms
            ],
            "witness": self.witness,
        }


class LevelRecord(
    _ReadOnly,
    namedtuple("LevelRecord", "level prime delta level_set counts m1 m2 term branch parent"),
):
    """Everything the pipeline computed at one level.

    parent is the measure the level started from and counts are the hit
    counts of its fibers (see hit_fractions), as the level's gate passed
    them and the system keeps them (_check_level).  The measure the level
    leaves is built by step_measure on first access to measure, then kept;
    a copy made by _replace builds its own.  The mass it leaves on the
    level set is checked against the term: at most term, and equal to it
    when delta = 0, where nothing is moved.
    """

    @cached_property
    def measure(self) -> FiberMeasure:
        measure = step_measure(self.parent, self.counts, self.delta, self.level_set)
        on = measure.level_mass
        if on > self.term or (self.delta == 0 and on != self.term):
            raise InternalConsistencyError(
                f"level {self.level} leaves mass {on} on its level set, its term is {self.term}"
            )
        return measure


def _level_term(m1: Fraction, m2: Fraction, delta: Fraction) -> tuple[Fraction, str]:
    # the second-moment bound m2 / (4 delta (1 - delta)) degenerates at delta = 0
    dn, dd = delta.numerator, delta.denominator
    if dn == 0:
        return m1, FIRST_MOMENT
    second = Fraction(m2.numerator * dd * dd, m2.denominator * 4 * dn * (dd - dn))
    if m1 <= second:
        return m1, FIRST_MOMENT
    return second, SECOND_MOMENT


def run_levels(sys: CongruenceSystem, schedule, *, limits: Limits = DEFAULT_LIMITS):
    """Run the pipeline level by level, yielding a LevelRecord per prime.

    The schedule must supply one delta per distinct prime of Q.  An empty
    system yields nothing.  Each level starts from the measure of the
    record before it, so every level's measure but the last is built; the
    last is built only if its record's measure is read.  Every level, the
    last included, passes its gate before any kernel reads it, and the
    system object keeps what passed for its later runs (_check_level); the
    limit and the ladder are checked on every run (_pipeline_ladder).
    """
    ladder = _pipeline_ladder(sys, limits)
    schedule = DeltaSchedule(schedule)
    if ladder is None:
        if len(schedule) != 0:
            raise DomainError("an empty system takes an empty schedule")
        return
    if len(schedule) != ladder.depth:
        raise DomainError(
            f"schedule has {len(schedule)} deltas, the ladder has {ladder.depth} levels"
        )
    kept, record = sys.__dict__.setdefault(_KEPT, {}), None
    for j in range(1, ladder.depth + 1):
        # read here, not after the yield: the loop's last resumption would
        # otherwise build the final measure that certify never reads
        prev = uniform_measure() if record is None else record.measure
        bset, delta = level_set(sys, ladder, j), schedule[j - 1]
        counts, lifts, zero_checked = kept.get(j) or (*_check_level(prev, bset), False)
        if not (delta or zero_checked):
            _check_zero_fibers(counts, bset)
            zero_checked = True
        kept[j] = counts, lifts, zero_checked
        m1, m2 = moments(prev, counts, lifts)
        term, branch = _level_term(m1, m2, delta)
        record = LevelRecord(
            j, ladder.primes[j - 1], delta, bset, counts, m1, m2, term, branch, prev
        )
        yield record


def certify(
    sys: CongruenceSystem, schedule=None, *, limits: Limits = DEFAULT_LIMITS
) -> Certificate:
    """Produce a non-covering certificate, or report the attempt inconclusive.

    The per-level terms bound the mass that the final measure leaves on each
    level set, so when their sum eta is below 1 some residue mod Q avoids
    every class and the verdict is NotCovering; the witness is then the
    smallest such residue, the first zero of one fresh mask over Z/QZ with
    every class written in.
    Otherwise the verdict is Inconclusive: eta >= 1 says nothing about
    coverage.

    When no schedule is given, the default schedule derived from the system's
    multiplicity is used.

    Only the terms are kept, so the final measure is never built and each
    level's record, with its measures, is dropped after the next level, the
    last one before the witness mask is built.  The system object keeps the
    witness beside its levels' counts (_check_level), so its later certify
    calls, under any schedule, fill no witness mask again.
    """
    if schedule is None:
        schedule = system_default_schedule(sys, limits=limits)
    terms = tuple(
        CertificateTerm(rec.prime, rec.delta, rec.m1, rec.m2, rec.term, rec.branch)
        for rec in run_levels(sys, schedule, limits=limits)
    )
    eta = sum((t.term for t in terms), _ZERO)
    if eta < 1:
        kept = sys.__dict__.setdefault(_KEPT, {})
        if "witness" not in kept:
            witness = _hit_mask(sys.lcm_modulus, zip(sys.residues, sys.moduli)).find(0)
            if witness < 0:
                raise InternalConsistencyError("eta below 1 for a system that covers")
            kept["witness"] = witness
        return Certificate(terms, eta, NOT_COVERING, kept["witness"])
    return Certificate(terms, eta, INCONCLUSIVE, None)
