"""Reference computations made apart from covercert.

Nothing here imports the package under test.  Each function recomputes, by
the most direct method available, a value that the benchmark compares
against the program's output: coverage and the smallest uncovered residue
by a byte sieve over Z/QZ, level sets by trial-division largest prime
factors, the minimal family by an explicit Chinese-remainder search,
smooth reciprocal sums by enumerating smooth numbers as products of
primes, and the growth bounds with the decimal module.
"""

from __future__ import annotations

import decimal
from collections import Counter
from fractions import Fraction
from math import gcd


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# systems as plain (residue, modulus) pairs


def format_pairs(pairs, sep: str = "\n") -> str:
    return sep.join(f"{r} mod {d}" for r, d in pairs)


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """Read 'R mod D' classes separated by newlines or commas."""
    pairs = []
    for piece in text.replace(",", "\n").splitlines():
        piece = piece.strip()
        if not piece:
            continue
        r, word, d = piece.split()
        require(word == "mod", f"not a class: {piece!r}")
        pairs.append((int(r) % int(d), int(d)))
    return pairs


def lcm_of(moduli) -> int:
    out = 1
    for d in moduli:
        out = out * d // gcd(out, d)
    return out


def factor_pairs(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def largest_prime(n: int) -> int:
    pairs = factor_pairs(n)
    return pairs[-1][0] if pairs else 1


def sieve(pairs, q: int) -> bytearray:
    """hit[x] == 1 exactly when x mod q lies in some class."""
    hit = bytearray(q)
    for r, d in pairs:
        hit[r::d] = b"\x01" * len(range(r, q, d))
    return hit


class Coverage:
    """Coverage of Z by a system, decided by sieving all of Z/QZ."""

    def __init__(self, pairs):
        self.q = lcm_of(d for _, d in pairs)
        hit = sieve(pairs, self.q)
        self.uncovered = hit.count(0)
        self.covers = self.uncovered == 0
        self.witness = None if self.covers else hit.index(0)


def is_minimal_cover(pairs) -> bool:
    """Every class owns a residue that no other class hits."""
    q = lcm_of(d for _, d in pairs)
    for i, (r, d) in enumerate(pairs):
        others = sieve(pairs[:i] + pairs[i + 1 :], q)
        if 0 not in others[r::d]:
            return False
    return True


def multiplicity_of(pairs) -> int:
    return max(Counter(d for _, d in pairs).values())


# ---------------------------------------------------------------------------
# the minimal family with distinct moduli


def family_pairs(j: int) -> list[tuple[int, int]]:
    """The j-moduli family: 2^(i-1) mod 2^i, then the three mod-3 pieces.

    Each piece is the residue x mod 3 * 2^e with x = k mod 3 and x = 0 mod
    2^e, found by trying the three multiples of 2^e below 3 * 2^e.
    """
    pairs = [(2 ** (i - 1), 2**i) for i in range(1, j - 2)]
    for k in range(3):
        e = j - 5 + k
        (x,) = [t * 2**e for t in range(3) if t * 2**e % 3 == k]
        pairs.append((x, 3 * 2**e))
    return pairs


def family_moduli(j: int) -> set[int]:
    return {2**i for i in range(1, j - 2)} | {3 * 2 ** (j - 5 + k) for k in range(3)}


def affine_image(pairs, u: int, t: int) -> list[tuple[int, int]]:
    """The image of every class under x -> u x + t, u a unit modulo every modulus.

    The map permutes Z/QZ and sends r mod d to u r + t mod d, so coverage,
    minimality, multiplicity and every level's hit fractions are unchanged;
    the uncovered residues move.
    """
    require(all(gcd(u, d) == 1 for _, d in pairs), f"{u} is not a unit")
    return [((u * r + t) % d, d) for r, d in pairs]


def shift_expanded_size(n: int, ell: int) -> int:
    return 2 ** (ell - 1) * (n - ell + 1)


# ---------------------------------------------------------------------------
# certificates


def level_masks(pairs, q: int):
    """Per prime of Q: (prime, Q_j, mask of B_j inside Z/Q_jZ)."""
    out = []
    qj = 1
    for p, e in factor_pairs(q):
        qj *= p**e
        mask = sieve([(r % qj, d) for r, d in pairs if largest_prime(d) == p], qj)
        out.append((p, qj, bytes(mask)))
    return out


def branch_rule(m1: Fraction, m2: Fraction, delta: Fraction) -> tuple[Fraction, str]:
    """The per-level term: the first moment, or the second moment bound if smaller."""
    if delta == 0:
        return m1, "first-moment"
    second = m2 / (4 * delta * (1 - delta))
    if m1 <= second:
        return m1, "first-moment"
    return second, "second-moment"


def default_deltas(primes, mult: int, constant: Fraction) -> list[Fraction]:
    threshold = constant * mult**3
    return [Fraction(0) if p <= threshold else Fraction(1, 2) for p in primes]


def check_certificate(pairs, coverage: Coverage, cert: dict, deltas) -> None:
    """Check one certificate given as plain values.

    cert has keys eta, verdict, witness and terms, each term a tuple
    (prime, delta, m1, m2, term, branch) of ints, Fractions and a string.
    """
    primes = [p for p, _ in factor_pairs(coverage.q)]
    terms = cert["terms"]
    require([t[0] for t in terms] == primes, f"term primes {[t[0] for t in terms]} != {primes}")
    require([t[1] for t in terms] == list(deltas), "term deltas differ from the schedule")
    for p, delta, m1, m2, term, branch in terms:
        require(0 <= m2 <= m1 <= 1, f"moments out of order at p={p}: m1={m1} m2={m2}")
        require((term, branch) == branch_rule(m1, m2, delta), f"branch rule broken at p={p}")
    require(cert["eta"] == sum((t[4] for t in terms), Fraction(0)), "eta is not the sum of the terms")
    if cert["eta"] < 1:
        require(cert["verdict"] == "NotCovering", f"eta < 1 but verdict {cert['verdict']}")
        require(not coverage.covers, "NotCovering for a system the sieve finds covering")
        w = cert["witness"]
        require(all(w % d != r for r, d in pairs), f"witness {w} lies in a class")
        require(w == coverage.witness, f"witness {w}, smallest uncovered is {coverage.witness}")
    else:
        require(cert["verdict"] == "Inconclusive", f"eta >= 1 but verdict {cert['verdict']}")
        require(cert["witness"] is None, "Inconclusive certificate with a witness")


def certificate_from_json(payload: dict) -> dict:
    return {
        "eta": Fraction(payload["eta"]),
        "verdict": payload["verdict"],
        "witness": payload["witness"],
        "terms": [
            (t["p"], Fraction(t["delta"]), Fraction(t["m1"]), Fraction(t["m2"]),
             Fraction(t["term"]), t["branch"])
            for t in payload["terms"]
        ],
    }


# ---------------------------------------------------------------------------
# analytic quantities


def primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % k for k in range(2, int(p**0.5) + 1))]


def smooth_numbers(y: int, low: int, cap: int) -> list[int]:
    """The y-smooth d with low < d <= cap, enumerated as products of primes <= y."""
    smooth = [1]
    for p in primes_up_to(min(y, cap)):
        grown = []
        for d in smooth:
            while d * p <= cap:
                d *= p
                grown.append(d)
        smooth += grown
    return sorted(d for d in smooth if low < d)


def smooth_reciprocal_sum(y: int, threshold: int, cap: int) -> Fraction:
    """Sum of 1/d over y-smooth d in (threshold, cap]."""
    chosen = smooth_numbers(y, threshold, cap)
    common = lcm_of(chosen)
    return Fraction(sum(common // d for d in chosen), common)


def decimal_bound(kind: str, n: int, c: Fraction, digits: int) -> decimal.Decimal:
    """exp(c j^2 / log(j + 1)) or exp(c log^2(s + 1) / log log(s + 2)) in decimal."""
    ctx = decimal.Context(prec=digits + 20)
    cc = ctx.divide(decimal.Decimal(c.numerator), decimal.Decimal(c.denominator))
    if kind == "j":
        exponent = ctx.divide(ctx.multiply(cc, n * n), ctx.ln(decimal.Decimal(n + 1)))
    else:
        num = ctx.multiply(cc, ctx.power(ctx.ln(decimal.Decimal(n + 1)), 2))
        exponent = ctx.divide(num, ctx.ln(ctx.ln(decimal.Decimal(n + 2))))
    return ctx.exp(exponent)


def agrees_to_digits(shown: str, exact: decimal.Decimal, digits: int) -> bool:
    """shown, rounded to digits significant figures, matches exact to the last one."""
    ctx = decimal.Context(prec=digits + 20)
    value = decimal.Decimal(shown)
    gap = abs(ctx.subtract(value, exact))
    return gap <= ctx.multiply(abs(exact), decimal.Decimal(10) ** (1 - digits))
