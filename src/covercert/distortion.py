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
the index of its mass in the table, in an array('H') of 2 bytes per residue
while there are at most 65536 types, else an array('I').  Hit counts stay
integers; the hit fraction of a fiber is its count over the p_j^(nu_j)
lifts, and no per-fiber Fraction is made.  Counts are summed in byte lanes:
the rows of the level-set mask, read as little-endian integers, add up to an
integer whose byte y is the hit count of fiber y, as long as a fiber has at
most 255 lifts; wider fibers are counted one slice each.

Inside a parent fiber the new measure takes only two values, on B_j and off
it, which depend only on the fiber's (type, count) group.  So the moments
and the update do their exact arithmetic once per distinct group, over
integer numerators, and leave the per-fiber and per-residue work to C:
counting the groups, mapping groups to new types, and choosing each
residue's on or off type by its mask bit with bitwise operations on big
integers.  Cheap runtime checks guard the arithmetic: each new measure has
total mass exactly 1 and no negative mass, and the mass it leaves on B_j is
at most the level's certified term, and equal to it when delta_j = 0.

The certificate reads only the per-level moment terms, never the measure
the last level leaves, so a level's outgoing measure is built only when it
is read: by the next level, or by a caller of LevelRecord.measure.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .core import (
    DEFAULT_LIMITS,
    CongruenceSystem,
    DomainError,
    InternalConsistencyError,
    Limits,
    _hit_mask,
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

# bytes.translate tables: count to hit flag, flag to its negation, flag to a
# byte of all ones
_NONZERO = bytes([0] + [1] * 255)
_NOT = bytes([1, 0] + [0] * 254)
_ALL_ONES = bytes([0, 255] + [0] * 254)

# the most mass types an array('H') of ids can index
_MAX_NARROW_TYPES = 1 << 16


def _total(weighted: Collection[tuple[tuple[int, int], int]], scale: int = 1) -> Fraction:
    """The sum of weight * num / den over ((num, den), weight) pairs, divided by scale.

    Summed over the common denominator, so that only the total is normalized.
    """
    common = lcm(*(den for (_, den), _ in weighted))
    return Fraction(sum(w * num * (common // den) for (num, den), w in weighted), common * scale)


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


# ---------------------------------------------------------------------------
# prime ladder and level sets


@dataclass(frozen=True)
class PrimeLadder:
    """The primes of Q in increasing order, with partial prime-power products.

    partials[0] is 1 and partials[j] is the product of the first j full prime
    powers of Q, so partials[depth] == Q.
    """

    primes: tuple[int, ...]
    exponents: tuple[int, ...]
    partials: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.primes)

    def prime_power(self, j: int) -> int:
        return self.partials[j] // self.partials[j - 1]


def prime_ladder(pairs: tuple[tuple[int, int], ...]) -> PrimeLadder:
    """Build the ladder of partial prime-power products from (prime, exponent) pairs."""
    if not pairs:
        raise DomainError("a prime ladder needs at least one prime")
    primes = tuple(p for p, _ in pairs)
    exponents = tuple(e for _, e in pairs)
    partials = [1]
    for p, e in pairs:
        partials.append(partials[-1] * p**e)
    return PrimeLadder(primes, exponents, tuple(partials))


@dataclass(frozen=True)
class LevelSet:
    """Residues mod Q_level covered by the classes assigned to this level.

    mask[z] is 1 when z is covered and 0 otherwise, for z in Z/Q_levelZ.  It
    is the bytearray the level's classes were written into, not a copy; only
    certify writes to it again, into the last level's mask once the pipeline
    is done with it (see _first_uncovered).
    """

    level: int
    modulus: int
    mask: bytearray

    def __post_init__(self):
        if len(self.mask) != self.modulus:
            raise DomainError(f"mask has {len(self.mask)} bytes, modulus is {self.modulus}")

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(itertools.compress(range(self.modulus), self.mask))


def _reject_modulus_one(sys: CongruenceSystem) -> None:
    if 1 in sys.moduli:
        raise DomainError("distortion requires every modulus to be at least 2")


def level_set(
    sys: CongruenceSystem,
    ladder: PrimeLadder,
    j: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> LevelSet:
    """Union, inside Z/Q_jZ, of the classes whose modulus has largest prime p_j.

    For d dividing Q, the largest prime of d is p_j exactly when d divides
    Q_j but not Q_(j-1), so the classes are picked without factoring.
    """
    if not 1 <= j <= ladder.depth:
        raise DomainError(f"level must satisfy 1 <= j <= {ladder.depth}, got {j}")
    _reject_modulus_one(sys)
    qj = ladder.partials[j]
    limits.require_residue_space(qj, f"level set at level {j}")
    q, qprev = ladder.partials[-1], ladder.partials[j - 1]
    progressions = []
    for r, d in zip(sys.residues, sys.moduli):
        if q % d != 0:
            raise InternalConsistencyError(f"modulus {d} does not divide the ladder's Q = {q}")
        if qj % d == 0 and qprev % d != 0:
            progressions.append((r, d))
    return LevelSet(j, qj, _hit_mask(qj, progressions))


# ---------------------------------------------------------------------------
# fiber measures


def _id_array(types: int) -> array:
    """An empty id array wide enough to index a table of this many masses."""
    return array("H" if types <= _MAX_NARROW_TYPES else "I")


@dataclass(frozen=True)
class FiberMeasure:
    """A measure on Z/QZ stored by its mass on each fiber of Z/Q_levelZ.

    Each distinct mass is stored once, in table; ids[y] is the index in
    table of the mass of fiber y.  level_mass is the mass the measure leaves
    on the level set it was stepped across, None for a measure that
    step_measure did not build.
    """

    level: int
    modulus: int
    table: tuple[Fraction, ...]
    ids: array
    level_mass: Fraction | None = None

    def mass(self, y: int) -> Fraction:
        return self.table[self.ids[y % self.modulus]]


def uniform_measure() -> FiberMeasure:
    """The starting measure: total mass 1, constant on Z."""
    return FiberMeasure(0, 1, (_ONE,), array("H", (0,)))


def hit_fractions(prev: FiberMeasure, bset: LevelSet, ladder: PrimeLadder, j: int):
    """Per parent residue y, the number of its lifts that land in the level set.

    The result is indexed by y in Z/Q_(j-1)Z; the hit fraction of fiber y is
    its count over the p_j^(nu_j) lifts, and depends only on the fiber.  It
    is bytes while a fiber has at most 255 lifts, else a list of ints.
    """
    if bset.level != j:
        raise DomainError(f"level set is at level {bset.level}, expected {j}")
    qprev = ladder.partials[j - 1]
    if prev.modulus != qprev:
        raise DomainError(f"measure modulus {prev.modulus} is not Q_(j-1) = {qprev}")
    lifts = ladder.prime_power(j)
    mask = bset.mask
    if lifts > 255:
        return [mask[y::qprev].count(1) for y in range(qprev)]
    # row k holds the lifts y + k qprev; byte lane y of the rows' sum is the
    # hit count of fiber y, and a lane of at most 255 cannot carry
    rows = memoryview(mask)
    total = sum(int.from_bytes(rows[k * qprev : (k + 1) * qprev], "little") for k in range(lifts))
    counts = total.to_bytes(qprev, "little")
    if sum(counts) != mask.count(1):
        raise InternalConsistencyError("a byte lane of the hit counts overflowed")
    return counts


def _hit_flags(counts) -> bytes:
    """One byte per fiber: 1 where its hit count is nonzero, else 0."""
    if isinstance(counts, bytes):
        return counts.translate(_NONZERO)
    return bytes(map(bool, counts))


def _fiber_codes(ids: array, counts) -> tuple[array | list[int], int]:
    """Per fiber y, its group code ids[y] * base + counts[y], and base.

    Byte counts under 16-bit ids are packed into 32-bit lanes by byte slicing,
    with base 256; other shapes take one multiply-add per fiber.
    """
    if isinstance(counts, bytes) and ids.itemsize == 2:
        lanes = bytearray(4 * len(counts))
        lanes[0 if sys.byteorder == "little" else 3 :: 4] = counts
        raw = ids.tobytes()
        lanes[1::4] = raw[0::2]
        lanes[2::4] = raw[1::2]
        return array("I", lanes), 256
    base = max(counts, default=0) + 1
    return list(map(int.__add__, map(base.__mul__, ids), counts)), base


def moments(prev: FiberMeasure, counts, lifts: int) -> tuple[Fraction, Fraction]:
    """First and second moments of the hit fractions count / lifts under the parent measure."""
    if len(counts) != prev.modulus:
        raise DomainError("one hit count per parent residue is required")
    # fibers with no hit add nothing; the rest are grouped by (type, count)
    codes, base = _fiber_codes(prev.ids, counts)
    groups = Counter(itertools.compress(codes, _hit_flags(counts)))
    # per parent type, the sums of n c and n c^2 over its groups
    first = {}
    second = {}
    for code, n in groups.items():
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
    operations on whole rows of lifts.
    """
    delta = Fraction(delta)
    if not _ZERO <= delta <= _HALF:
        raise DomainError(f"delta must lie in [0, 1/2], got {delta}")
    qprev = prev.modulus
    qj = bset.modulus
    if qj % qprev != 0:
        raise DomainError("level set modulus must be a multiple of the parent modulus")
    lifts = qj // qprev
    if len(counts) != qprev:
        raise DomainError("one hit count per parent residue is required")
    mask = bset.mask
    _check_zero_fibers(counts, mask, delta)
    # per (parent type, count) group, its (off, on) masses as reduced
    # (num, den) pairs; per distinct mass, the residues that take it in all
    # of Z/Q_jZ and in the level set
    pair_of = {}
    weight = Counter()
    on_weight = Counter()
    codes, base = _fiber_codes(prev.ids, counts)
    for code, n in Counter(codes).items():
        c = code % base
        pair_of[code] = off, on = _fiber_masses(prev.table[code // base], c, lifts, delta)
        weight[off] += n * (lifts - c)
        weight[on] += n * c
        on_weight[on] += n * c
    if _total(weight.items()) != 1 or min(num for num, _ in weight) < 0:
        raise InternalConsistencyError(f"level {bset.level} measure is not a probability measure")
    # the types are the distinct masses, in order of first use
    type_of = {mass: i for i, mass in enumerate(weight)}
    off_of = {code: type_of[off] for code, (off, _) in pair_of.items()}
    on_of = {code: type_of[on] for code, (_, on) in pair_of.items()}
    off_row, on_row = _id_array(len(weight)), _id_array(len(weight))
    off_row.extend(map(off_of.__getitem__, codes))
    on_row.extend(map(on_of.__getitem__, codes))
    table = tuple(Fraction(num, den) for num, den in weight)
    ids = _select_rows(off_row, on_row, mask)
    return FiberMeasure(bset.level, qj, table, ids, _total(on_weight.items()))


# residues per block of the row selection, so its big integers stay small
_SELECT_BLOCK = 1 << 18


def _select_rows(off_row: array, on_row: array, mask: bytes) -> array:
    """Per residue z, on_row's id where mask[z] is set, else off_row's.

    The rows hold one id per parent fiber and are tiled over the lifts:
    residue z lies over fiber z mod len(off_row).  The selection off ^ ((off
    ^ on) & m), with m all ones on the lanes of set mask bytes, runs on big
    integers a block of whole rows at a time.
    """
    fibers, width = len(off_row), off_row.itemsize
    diff_row = (int.from_bytes(off_row, "little") ^ int.from_bytes(on_row, "little")).to_bytes(
        fibers * width, "little"
    )
    step = fibers * min(len(mask) // fibers, max(1, _SELECT_BLOCK // fibers))
    ids = array(off_row.typecode)
    for start in range(0, len(mask), step):
        block = mask[start : start + step].translate(_ALL_ONES)
        rows, size = len(block) // fibers, len(block) * width
        wide = bytearray(size)
        for lane in range(width):
            wide[lane::width] = block
        off = int.from_bytes(off_row * rows, "little")
        diff = int.from_bytes(diff_row * rows, "little") & int.from_bytes(wide, "little")
        ids.frombytes((off ^ diff).to_bytes(size, "little"))
    return ids


def _check_zero_fibers(counts, mask: bytes, delta: Fraction) -> None:
    """Raise if, at delta = 0, a level-set member lies above a fiber with no hit.

    The update thins B_j by (a - delta) / (a (1 - delta)), which has no value
    at a = delta = 0; for delta > 0 such a fiber is emptied instead.  The
    fibers with count 0, tiled over the lifts, must not meet the mask.
    """
    if delta:
        return
    empty = _hit_flags(counts).translate(_NOT)
    if 1 in empty and int.from_bytes(mask, "little") & int.from_bytes(
        empty * (len(mask) // len(empty)), "little"
    ):
        raise InternalConsistencyError("level set member above a fiber with hit fraction 0")


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


@dataclass(frozen=True)
class DeltaSchedule:
    """One distortion parameter per ladder level, each in [0, 1/2]."""

    deltas: tuple[Fraction, ...]

    def __post_init__(self):
        coerced = tuple(Fraction(d) for d in self.deltas)
        for d in coerced:
            if not _ZERO <= d <= _HALF:
                raise DomainError(f"delta must lie in [0, 1/2], got {d}")
        object.__setattr__(self, "deltas", coerced)

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self):
        return iter(self.deltas)

    def __getitem__(self, i: int) -> Fraction:
        return self.deltas[i]


def as_schedule(value) -> DeltaSchedule:
    if isinstance(value, DeltaSchedule):
        return value
    return DeltaSchedule(tuple(value))


def default_delta_schedule(
    mult: int, ladder: PrimeLadder, smooth_constant=Fraction(1)
) -> DeltaSchedule:
    """Zero delta for primes up to a cubic-in-multiplicity threshold, 1/2 beyond.

    Small primes are handled through the first moment, which stays summable
    without any distortion; the threshold smooth_constant * mult^3 marks
    where the second-moment branch with delta = 1/2 takes over.
    """
    if mult < 1:
        raise DomainError(f"multiplicity must be at least 1, got {mult}")
    smooth_constant = Fraction(smooth_constant)
    if smooth_constant <= 0:
        raise DomainError(f"threshold constant must be positive, got {smooth_constant}")
    threshold = smooth_constant * mult**3
    return DeltaSchedule(tuple(_ZERO if p <= threshold else _HALF for p in ladder.primes))


def _pipeline_ladder(sys: CongruenceSystem, limits: Limits) -> PrimeLadder | None:
    """The prime ladder of the system's Q, or None for the empty system.

    A modulus 1 and a Q over the residue-space limit are rejected before Q
    is factored: trial division of a huge Q hangs.
    """
    if not sys.moduli:
        return None
    _reject_modulus_one(sys)
    limits.require_residue_space(sys.lcm_modulus, "pipeline")
    return prime_ladder(sys.factorization)


def system_default_schedule(
    sys: CongruenceSystem, smooth_constant=Fraction(1), *, limits: Limits = DEFAULT_LIMITS
) -> DeltaSchedule:
    """default_delta_schedule for the system's multiplicity and the primes of its Q.

    The empty system takes the empty schedule.
    """
    ladder = _pipeline_ladder(sys, limits)
    if ladder is None:
        return DeltaSchedule(())
    return default_delta_schedule(multiplicity(sys), ladder, smooth_constant)


# ---------------------------------------------------------------------------
# the certificate pipeline


@dataclass(frozen=True)
class CertificateTerm:
    """Moment summary for one ladder level."""

    prime: int
    delta: Fraction
    m1: Fraction
    m2: Fraction
    term: Fraction
    branch: str


@dataclass(frozen=True)
class Certificate:
    """The outcome of the pipeline: per-level terms, their sum, a verdict."""

    terms: tuple[CertificateTerm, ...]
    eta: Fraction
    verdict: str
    witness: int | None

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


@dataclass(frozen=True)
class LevelRecord:
    """Everything the pipeline computed at one level.

    parent is the measure the level started from and counts are the hit
    counts of its fibers (see hit_fractions).  The measure the level leaves
    is built by step_measure on first access to measure, then kept.  The
    mass it leaves on the level set is checked against the term: at most
    term, and equal to it when delta = 0, where nothing is moved.
    """

    level: int
    prime: int
    delta: Fraction
    level_set: LevelSet
    counts: bytes | list[int]
    m1: Fraction
    m2: Fraction
    term: Fraction
    branch: str
    parent: FiberMeasure

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
    if delta == 0:
        return m1, FIRST_MOMENT
    second = m2 / (4 * delta * (1 - delta))
    if m1 <= second:
        return m1, FIRST_MOMENT
    return second, SECOND_MOMENT


def run_levels(sys: CongruenceSystem, schedule, *, limits: Limits = DEFAULT_LIMITS):
    """Run the pipeline level by level, yielding a LevelRecord per prime.

    The schedule must supply one delta per distinct prime of Q.  An empty
    system yields nothing.  Each level starts from the measure of the
    record before it, so every level's measure but the last is built; the
    last is built only if its record's measure is read.
    """
    ladder = _pipeline_ladder(sys, limits)
    schedule = as_schedule(schedule)
    if ladder is None:
        if len(schedule) != 0:
            raise DomainError("an empty system takes an empty schedule")
        return
    if len(schedule) != ladder.depth:
        raise DomainError(
            f"schedule has {len(schedule)} deltas, the ladder has {ladder.depth} levels"
        )
    record = None
    for j in range(1, ladder.depth + 1):
        # read here, not after the yield: the loop's last resumption would
        # otherwise build the final measure that certify never reads
        prev = uniform_measure() if record is None else record.measure
        bset = level_set(sys, ladder, j, limits=limits)
        counts = hit_fractions(prev, bset, ladder, j)
        m1, m2 = moments(prev, counts, ladder.prime_power(j))
        delta = schedule[j - 1]
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
    smallest such residue, read from the last level's mask once the classes
    of the earlier levels are written into it (see _first_uncovered).
    Otherwise the verdict is Inconclusive: eta >= 1 says nothing about
    coverage.

    When no schedule is given, the default schedule derived from the system's
    multiplicity is used.

    Only the terms are kept, so the final measure is never built and each
    level's record, with its measures, is dropped after the next level.
    """
    if schedule is None:
        schedule = system_default_schedule(sys, limits=limits)
    terms = []
    last = None
    for last in run_levels(sys, schedule, limits=limits):
        terms.append(
            CertificateTerm(last.prime, last.delta, last.m1, last.m2, last.term, last.branch)
        )
    if last is not None:
        # step_measure checks every other level as it builds its measure
        _check_zero_fibers(last.counts, last.level_set.mask, last.delta)
    terms = tuple(terms)
    eta = sum((t.term for t in terms), _ZERO)
    if eta < 1:
        # the empty system covers nothing, so 0 is its smallest uncovered residue
        witness = 0 if last is None else _first_uncovered(sys, last)
        if witness < 0:
            raise InternalConsistencyError("eta below 1 for a system that covers")
        return Certificate(terms, eta, NOT_COVERING, witness)
    return Certificate(terms, eta, INCONCLUSIVE, None)


def _first_uncovered(sys: CongruenceSystem, last: LevelRecord) -> int:
    """The smallest residue mod Q that no class covers, or -1 when there is none.

    last is the record of the last level, whose mask over Z/QZ holds that
    level's classes.  Every other class has a modulus d dividing Q_(J-1),
    the parent modulus, and is written into the mask, with one fill of Q/d
    bytes per modulus.  The mask is changed in place, so last must not be
    read again.
    """
    mask, q, qprev = last.level_set.mask, last.level_set.modulus, last.parent.modulus
    earlier = {}
    for r, d in zip(sys.residues, sys.moduli):
        if qprev % d == 0:
            earlier.setdefault(d, []).append(r)
    for d, residues in earlier.items():
        fill = b"\x01" * (q // d)
        for r in residues:
            mask[r::d] = fill
    return mask.find(0)
