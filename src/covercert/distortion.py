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
mod Q escapes every class, so the system does not cover.

All measures, fractions and moments are fractions.Fraction; no floats enter
any decision.

Inside a parent fiber the new measure takes only two values, on B_j and off
it, and most fibers share their (mass, hit fraction) pair with many others.
So the pipeline does its Fraction arithmetic once per distinct pair and
leaves the per-residue work to byte and list slicing, which runs in C.
Distinct values are shared objects, so grouping goes by object identity,
which is cheaper than Fraction hashing.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .core import (
    DEFAULT_LIMITS,
    CongruenceSystem,
    DomainError,
    Factorization,
    InternalConsistencyError,
    Limits,
    _hit_mask,
    covers_oracle,
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


def _add_to_buckets(buckets: dict[int, int], v: Fraction, times: int = 1) -> None:
    buckets[v.denominator] = buckets.get(v.denominator, 0) + times * v.numerator


def _bucket_total(buckets: dict[int, int]) -> Fraction:
    total = _ZERO
    for den, num in buckets.items():
        total += Fraction(num, den)
    return total


def _exact_sum(values) -> Fraction:
    """Sum fractions exactly, bucketing by denominator to limit gcd churn."""
    buckets: dict[int, int] = {}
    for v in values:
        _add_to_buckets(buckets, v)
    return _bucket_total(buckets)


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

    def factorization(self, j: int) -> Factorization:
        """The factorization of Q_j: the first j (prime, exponent) pairs."""
        return Factorization(tuple(zip(self.primes[:j], self.exponents[:j])))


def prime_ladder(fact: Factorization) -> PrimeLadder:
    """Build the ladder of partial prime-power products from a factorization."""
    if not fact.pairs:
        raise DomainError("a prime ladder needs at least one prime")
    primes = tuple(p for p, _ in fact.pairs)
    exponents = tuple(e for _, e in fact.pairs)
    partials = [1]
    for p, e in fact.pairs:
        partials.append(partials[-1] * p**e)
    return PrimeLadder(primes, exponents, tuple(partials))


@dataclass(frozen=True)
class LevelSet:
    """Residues mod Q_level covered by the classes assigned to this level.

    mask[z] is 1 when z is covered and 0 otherwise, for z in Z/Q_levelZ.
    """

    level: int
    modulus: int
    mask: bytes

    def __post_init__(self):
        if len(self.mask) != self.modulus:
            raise DomainError(f"mask has {len(self.mask)} bytes, modulus is {self.modulus}")

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(itertools.compress(range(self.modulus), self.mask))


def _reject_modulus_one(sys: CongruenceSystem) -> None:
    if any(c.modulus == 1 for c in sys.classes):
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
    for c in sys.classes:
        d = c.modulus
        if q % d != 0:
            raise InternalConsistencyError(f"modulus {d} does not divide the ladder's Q = {q}")
        if qj % d == 0 and qprev % d != 0:
            progressions.append((c.residue, d))
    return LevelSet(j, qj, bytes(_hit_mask(qj, progressions)))


# ---------------------------------------------------------------------------
# fiber measures


@dataclass(frozen=True)
class FiberMeasure:
    """A measure on Z/QZ stored by its mass on each fiber of Z/Q_levelZ."""

    level: int
    modulus: int
    masses: tuple[Fraction, ...]

    def mass(self, y: int) -> Fraction:
        return self.masses[y % self.modulus]

    def total(self) -> Fraction:
        return _exact_sum(self.masses)

    def pushforward(self, parent_modulus: int) -> tuple[Fraction, ...]:
        """Masses of the fibers over Z/parent_modulusZ, summing over lifts."""
        if self.modulus % parent_modulus != 0:
            raise DomainError(
                f"{parent_modulus} does not divide the measure modulus {self.modulus}"
            )
        out = []
        for y in range(parent_modulus):
            out.append(_exact_sum(self.masses[y :: parent_modulus]))
        return tuple(out)


def uniform_measure() -> FiberMeasure:
    """The starting measure: total mass 1, constant on Z."""
    return FiberMeasure(0, 1, (_ONE,))


def hit_fractions(
    prev: FiberMeasure, bset: LevelSet, ladder: PrimeLadder, j: int
) -> tuple[Fraction, ...]:
    """Per parent residue y, the fraction of its lifts that land in the level set.

    The result is indexed by y in Z/Q_(j-1)Z and each entry is
    (number of lifts of y in B_j) / p_j^(nu_j), a fraction that depends only
    on the parent fiber.
    """
    if bset.level != j:
        raise DomainError(f"level set is at level {bset.level}, expected {j}")
    qprev = ladder.partials[j - 1]
    if prev.modulus != qprev:
        raise DomainError(f"measure modulus {prev.modulus} is not Q_(j-1) = {qprev}")
    lifts = ladder.prime_power(j)
    mask = bset.mask
    counts = [mask[y::qprev].count(1) for y in range(qprev)]
    # one shared Fraction per distinct count
    by_count = {c: Fraction(c, lifts) for c in set(counts)}
    return tuple(map(by_count.__getitem__, counts))


def moments(prev: FiberMeasure, fractions: tuple[Fraction, ...]) -> tuple[Fraction, Fraction]:
    """First and second moments of the hit fractions under the parent measure."""
    if len(fractions) != prev.modulus:
        raise DomainError("one hit fraction per parent residue is required")
    # fibers with hit fraction 0 add nothing
    hit = bytes(map(bool, fractions))
    masses = list(itertools.compress(prev.masses, hit))
    fracs = list(itertools.compress(fractions, hit))
    mass_of = dict(zip(map(id, masses), masses))
    fraction_of = dict(zip(map(id, fracs), fracs))
    # parent mass carried by the fibers of each hit fraction, bucketed
    mass_by_frac: dict[int, dict[int, int]] = {}
    for (mid, aid), n in Counter(zip(map(id, masses), map(id, fracs))).items():
        _add_to_buckets(mass_by_frac.setdefault(aid, {}), mass_of[mid], n)
    m1 = _ZERO
    m2 = _ZERO
    for aid, buckets in mass_by_frac.items():
        a = fraction_of[aid]
        s = _bucket_total(buckets)
        m1 += a * s
        m2 += a * a * s
    return m1, m2


def step_measure(
    prev: FiberMeasure,
    fractions: tuple[Fraction, ...],
    delta: Fraction,
    bset: LevelSet,
) -> FiberMeasure:
    """Advance the measure one level, pushing mass off the level set.

    Each parent fiber keeps its total mass.  Fibers with hit fraction below
    delta are emptied on the level set and renormalized off it; the rest are
    thinned on the level set by (a - delta) / (a (1 - delta)) and rescaled
    off it by 1 / (1 - delta).
    """
    delta = Fraction(delta)
    if not _ZERO <= delta <= _HALF:
        raise DomainError(f"delta must lie in [0, 1/2], got {delta}")
    qprev = prev.modulus
    qj = bset.modulus
    if qj % qprev != 0:
        raise DomainError("level set modulus must be a multiple of the parent modulus")
    lifts = qj // qprev
    if len(fractions) != qprev:
        raise DomainError("one hit fraction per parent residue is required")
    mask = bset.mask
    # per parent fiber, its (off, on) masses, computed once per distinct
    # (mass, fraction) pair; on is None where the fiber must not meet B_j
    cache: dict[tuple[int, int], tuple[Fraction, Fraction | None]] = {}
    pairs = []
    for y, (m, a) in enumerate(zip(prev.masses, fractions)):
        key = (id(m), id(a))
        pair = cache.get(key)
        if pair is None:
            pair = cache[key] = _fiber_masses(m, a, delta, lifts)
        if pair[1] is None and 1 in mask[y::qprev]:
            raise InternalConsistencyError("level set member above a fiber with hit fraction 0")
        pairs.append(pair)
    # residue z lies over parent y = z mod qprev; mask[z] picks on (1) or off (0)
    masses = tuple(map(operator.getitem, pairs * lifts, mask))
    return FiberMeasure(bset.level, qj, masses)


def _fiber_masses(
    m: Fraction, a: Fraction, delta: Fraction, lifts: int
) -> tuple[Fraction, Fraction | None]:
    """The (off, on) masses of one lift of a fiber of mass m and hit fraction a.

    With base = m / lifts: off = base / (1 - a) and on = 0 when a < delta,
    else off = base / (1 - delta) and on = base (a - delta) / (a (1 - delta)),
    undefined (None) when a = 0.  Written over integers, so that each mass
    costs one normalization.
    """
    mn, md = m.numerator, m.denominator * lifts
    an, ad = a.numerator, a.denominator
    dn, dd = delta.numerator, delta.denominator
    if an * dd < dn * ad:
        return Fraction(mn * ad, md * (ad - an)), _ZERO
    off = Fraction(mn * dd, md * (dd - dn))
    return off, (Fraction(mn * (an * dd - dn * ad), md * an * (dd - dn)) if an else None)


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


def system_default_schedule(
    sys: CongruenceSystem, smooth_constant=Fraction(1), *, limits: Limits = DEFAULT_LIMITS
) -> DeltaSchedule:
    """default_delta_schedule for the system's multiplicity and the primes of its Q.

    The empty system takes the empty schedule.  A modulus 1 and a Q over the
    residue-space limit are rejected before Q is factored.
    """
    if not sys.classes:
        return DeltaSchedule(())
    _reject_modulus_one(sys)
    # Q is checked before it is factored: trial division of a huge Q hangs
    limits.require_residue_space(sys.lcm_modulus, "pipeline")
    return default_delta_schedule(
        multiplicity(sys), prime_ladder(sys.factorization), smooth_constant
    )


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
    """Everything the pipeline computed at one level."""

    level: int
    prime: int
    delta: Fraction
    level_set: LevelSet
    fractions: tuple[Fraction, ...]
    m1: Fraction
    m2: Fraction
    term: Fraction
    branch: str
    measure: FiberMeasure


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
    system yields nothing.
    """
    _reject_modulus_one(sys)
    # Q is checked before it is factored: trial division of a huge Q hangs
    limits.require_residue_space(sys.lcm_modulus, "pipeline")
    schedule = as_schedule(schedule)
    fact = sys.factorization
    if not fact.pairs:
        if len(schedule) != 0:
            raise DomainError("an empty system takes an empty schedule")
        return
    ladder = prime_ladder(fact)
    if len(schedule) != ladder.depth:
        raise DomainError(
            f"schedule has {len(schedule)} deltas, the ladder has {ladder.depth} levels"
        )
    prev = uniform_measure()
    for j in range(1, ladder.depth + 1):
        bset = level_set(sys, ladder, j, limits=limits)
        fractions = hit_fractions(prev, bset, ladder, j)
        m1, m2 = moments(prev, fractions)
        delta = schedule[j - 1]
        term, branch = _level_term(m1, m2, delta)
        prev = step_measure(prev, fractions, delta, bset)
        yield LevelRecord(
            j, ladder.primes[j - 1], delta, bset, fractions, m1, m2, term, branch, prev
        )


def certify(
    sys: CongruenceSystem, schedule=None, *, limits: Limits = DEFAULT_LIMITS
) -> Certificate:
    """Produce a non-covering certificate, or report the attempt inconclusive.

    The per-level terms bound the mass that the final measure leaves on each
    level set, so when their sum eta is below 1 some residue mod Q avoids
    every class and the verdict is NotCovering; the witness is then the
    smallest such residue, found by the exhaustive oracle.  Otherwise the
    verdict is Inconclusive: eta >= 1 says nothing about coverage.

    When no schedule is given, the default schedule derived from the system's
    multiplicity is used.
    """
    if schedule is None:
        schedule = system_default_schedule(sys, limits=limits)
    # only the terms are kept, so each level's measure is freed after the next
    terms = tuple(
        CertificateTerm(r.prime, r.delta, r.m1, r.m2, r.term, r.branch)
        for r in run_levels(sys, schedule, limits=limits)
    )
    eta = _exact_sum(t.term for t in terms)
    if eta < 1:
        witness = covers_oracle(sys, limits=limits).witness
        if witness is None:
            raise InternalConsistencyError(
                "eta below 1 for a system the oracle says covers"
            )
        return Certificate(terms, eta, NOT_COVERING, witness)
    return Certificate(terms, eta, INCONCLUSIVE, None)


# ---------------------------------------------------------------------------
# progression mass bound


@dataclass(frozen=True)
class ApBoundViolation:
    """A progression whose measure exceeds its certified bound."""

    modulus: int
    residue: int
    mass: Fraction
    bound: Fraction


def ap_mass_bound_check(
    measure: FiberMeasure,
    schedule,
    ladder: PrimeLadder,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> list[ApBoundViolation]:
    """Check the progression bound on every class a mod g with g | Q_level.

    After level j the measure of any progression a mod g is at most
    (1/g) * product of 1/(1 - delta_i) over the ladder primes dividing g.
    Returns the violations, so a sound pipeline returns an empty list.
    """
    schedule = as_schedule(schedule)
    level = measure.level
    if not 0 <= level <= ladder.depth:
        raise DomainError(f"measure level {level} is outside the ladder")
    if measure.modulus != ladder.partials[level]:
        raise DomainError(
            f"measure modulus {measure.modulus} is not Q_{level} = {ladder.partials[level]}"
        )
    if len(schedule) < level:
        raise DomainError("schedule is shorter than the measure level")
    # Q_level is the modulus of a measure held in memory, so its divisors are
    # few; their sum is the number of (residue, divisor) pairs to scan
    divisors = ladder.factorization(level).divisors()
    pair_count = sum(divisors)
    limits.require(
        "divisors", pair_count, f"progression check needs {pair_count} (residue, divisor) pairs"
    )
    inflation = {p: 1 / (1 - schedule[i]) for i, p in enumerate(ladder.primes[:level])}
    # integer masses over one common denominator keep the comparisons exact
    # while the per-progression sums run at native speed
    common = 1
    for m in measure.masses:
        common = lcm(common, m.denominator)
    scaled = [m.numerator * (common // m.denominator) for m in measure.masses]
    violations = []
    for g in divisors:
        bound = Fraction(1, g)
        for p, factor in inflation.items():
            if g % p == 0:
                bound *= factor
        bn, bd = bound.numerator, bound.denominator
        threshold = bn * common
        for a in range(g):
            total = sum(scaled[a::g])
            if total * bd > threshold:
                violations.append(
                    ApBoundViolation(g, a, Fraction(total, common), bound)
                )
    return violations
