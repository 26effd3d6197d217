"""Smooth reciprocal sums and high-precision growth bounds.

The reciprocal sum over smooth integers is exact and returns a fraction.
The asymptotic growth shapes are evaluated with the standard decimal module
at a caller-chosen number of significant digits; they are the only inexact
numbers in the package, and they feed no verdict.
"""

from __future__ import annotations

from bisect import bisect_right
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Overflow, getcontext, localcontext
from fractions import Fraction
from math import lcm, log10

from .core import DomainError, _shown


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
        raise DomainError(f"smoothness bound must be at least 2, got {_shown(y)}")
    if threshold < 1 or cap < threshold:
        raise DomainError(
            f"invalid range: need 1 <= threshold <= cap, got ({_shown(threshold)}, {_shown(cap)})"
        )
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


def _decimal(value: Fraction) -> Decimal:
    """value correctly rounded to the context precision.

    Only a quotient a few digits longer goes to Decimal: all of 1e400000 takes seconds.
    """
    n, d = value.numerator, value.denominator
    k = getcontext().prec + 3 - int((n.bit_length() - d.bit_length()) * log10(2))
    q, r = divmod(n * 10**k, d) if k >= 0 else divmod(n, d * 10**-k)
    # a sticky last digit for a nonzero remainder keeps the rounding exact
    return Decimal(10 * q + (r > 0)).scaleb(-k - 1)


def _exp_bound(c, dps: int, exponent) -> Decimal:
    """exp(exponent(c)) to dps significant digits, for an exact constant c > 0.

    exp turns an absolute error of x into a relative error of exp(x), so x is
    first evaluated roughly, then with as many more digits as it has integer
    digits, up to 19: past that, exp(x) exceeds 10^(10^18), a DomainError.
    """
    if dps < 1:
        raise DomainError(f"precision must be at least 1 digit, got {_shown(dps)}")
    value = Fraction(c)
    if value <= 0:
        raise DomainError(f"constant must be positive, got {_shown(value)}")
    try:
        with localcontext(Context(prec=9, Emax=MAX_EMAX, Emin=MIN_EMIN)) as ctx:
            magnitude = exponent(_decimal(value)).adjusted()
            ctx.prec = dps + 2 + min(max(magnitude, 0), 19)
            x = exponent(_decimal(value))
            ctx.prec = dps
            return x.exp()
    except Overflow as exc:
        raise DomainError(f"bound exceeds 10^{MAX_EMAX}, the decimal range") from exc


def jth_modulus_bound(j: int, c, dps: int = 50) -> Decimal:
    """exp(c * j^2 / log(j + 1)): growth rate of the j-th smallest modulus.

    Evaluated with decimal at dps significant digits, for an exact constant c > 0.
    """
    if j < 1:
        raise DomainError(f"index must be at least 1, got {_shown(j)}")
    return _exp_bound(c, dps, lambda cc: cc * j * j / Decimal(j + 1).ln())


def multiplicity_modulus_bound(mult: int, c, dps: int = 50) -> Decimal:
    """exp(c * log^2(s + 1) / log log(s + 2)): growth rate of the largest
    modulus forced by multiplicity at most s, evaluated like jth_modulus_bound.
    """
    if mult < 1:
        raise DomainError(f"multiplicity must be at least 1, got {_shown(mult)}")
    s1, s2 = Decimal(mult + 1), Decimal(mult + 2)
    return _exp_bound(c, dps, lambda cc: cc * s1.ln() ** 2 / s2.ln().ln())
