"""Exact moment sums and high-precision growth bounds.

The exact pieces (a finite first-moment estimate over divisors, and
reciprocal sums over smooth integers) return fractions.  The asymptotic
growth shapes are evaluated with mpmath at a caller-chosen decimal
precision; they are the only place floats of any kind appear, and they feed
no verdict.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm

import mpmath

from .core import (
    DEFAULT_LIMITS,
    CongruenceSystem,
    DomainError,
    Limits,
    multiplicity,
)
from .distortion import PrimeLadder


def _to_mpf(value):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    if isinstance(value, str):
        return mpmath.mpf(value)
    return mpmath.mpf(value)


def first_moment_bound(
    sys: CongruenceSystem,
    ladder: PrimeLadder,
    j: int,
    min_modulus: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> Fraction:
    """Exact finite bound on the first moment at level j.

    The moment of the level-j hit fractions is at most the system
    multiplicity times the sum of 1 / (g * p_j^r) over divisors g of
    Q_(j-1) and 1 <= r <= nu_j, restricted to g * p_j^r at least the
    smallest modulus of the system.
    """
    if not 1 <= j <= ladder.depth:
        raise DomainError(f"level must satisfy 1 <= j <= {ladder.depth}, got {j}")
    if min_modulus < 1:
        raise DomainError(f"smallest modulus must be at least 1, got {min_modulus}")
    mult = multiplicity(sys)
    fact = ladder.factorization(j - 1)
    count = fact.num_divisors
    limits.require("divisors", count, f"first-moment bound needs {count} divisors")
    divisors = fact.divisors()
    p = ladder.primes[j - 1]
    nu = ladder.exponents[j - 1]
    total = Fraction(0)
    for r in range(1, nu + 1):
        pr = p**r
        for g in divisors:
            if g * pr >= min_modulus:
                total += Fraction(1, g * pr)
    return mult * total


def _primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [i for i in range(2, n + 1) if sieve[i]]


def smooth_reciprocal_sum(y, threshold: int, cap: int) -> Fraction:
    """Exact sum of 1/d over threshold < d <= cap with all prime factors <= y.

    The y-smooth integers up to cap are enumerated as products of primes up
    to y, and the terms above the threshold are summed over their least
    common denominator.  An empty range (threshold equal to cap) gives 0.
    The cost grows with the number of y-smooth d <= cap that are terms or
    have a multiple d * p <= cap with p >= P(d), the largest prime factor of
    d, so this is meant for desk-scale ranges.
    """
    bound = Fraction(y)
    if bound < 2:
        raise DomainError(f"smoothness bound must be at least 2, got {y}")
    if threshold < 1 or cap < threshold:
        raise DomainError(f"invalid range: need 1 <= threshold <= cap, got ({threshold}, {cap})")
    primes = _primes_up_to(min(int(bound), cap))
    terms = []
    stack = [(1, 0)] if primes else []
    while stack:
        base, k = stack.pop()
        d = base * primes[k]
        if d > cap:
            continue  # and so are the larger siblings of d and all multiples of d
        if d > threshold:
            terms.append(d)
        leaf = d * primes[k] > cap
        if leaf and d <= threshold:
            # the larger siblings are leaves too: skip those up to the threshold
            k = bisect_right(primes, threshold // base) - 1
        if k + 1 < len(primes):
            stack.append((base, k + 1))
        if not leaf:
            stack.append((d, k))
    den = lcm(*terms)
    return Fraction(sum(den // d for d in terms), den)


def jth_modulus_bound(j: int, c, dps: int = 50):
    """exp(c * j^2 / log(j + 1)): growth rate of the j-th smallest modulus.

    Evaluated with mpmath at dps decimal digits; returns an mpmath float.
    """
    if j < 1:
        raise DomainError(f"index must be at least 1, got {j}")
    with mpmath.workdps(dps):
        cc = _to_mpf(c)
        if cc <= 0:
            raise DomainError(f"constant must be positive, got {c}")
        return mpmath.exp(cc * j * j / mpmath.log(j + 1))


def multiplicity_modulus_bound(mult: int, c, dps: int = 50):
    """exp(c * log^2(s + 1) / log log(s + 2)) for multiplicity s.

    Growth rate of the largest modulus forced by multiplicity at most s.
    Evaluated with mpmath at dps decimal digits; returns an mpmath float.
    """
    if mult < 1:
        raise DomainError(f"multiplicity must be at least 1, got {mult}")
    with mpmath.workdps(dps):
        cc = _to_mpf(c)
        if cc <= 0:
            raise DomainError(f"constant must be positive, got {c}")
        num = cc * mpmath.log(mult + 1) ** 2
        return mpmath.exp(num / mpmath.log(mpmath.log(mult + 2)))
