"""Exact arithmetic on residue classes and systems of congruences.

Everything here is exact: residues and moduli are arbitrary-precision
integers, densities are fractions, and coverage questions are decided by
finite enumeration over Z/QZ, where Q is the lcm of the moduli.  Any
operation that scans a residue space or an interval is guarded by a
configurable cap and fails loudly instead of grinding.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


class CovercertError(Exception):
    """Base class for errors raised by this package."""


class DomainError(CovercertError):
    """Input lies outside an operation's domain."""


class InvalidModulusError(DomainError):
    """A modulus smaller than 1 was supplied."""


class ParseError(CovercertError):
    """Malformed system text."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ResourceLimitError(CovercertError):
    """An enumeration would exceed the configured limit."""

    def __init__(self, message: str, required: int | None = None, limit: int | None = None):
        super().__init__(message)
        self.required = required
        self.limit = limit


class InternalConsistencyError(CovercertError):
    """A structural invariant that should hold by construction failed."""


@dataclass(frozen=True)
class Limits:
    """Caps on the finite enumerations behind the decision procedures."""

    residue_space: int = 10_000_000  # largest Z/QZ that may be scanned
    interval: int = 2**24            # longest initial segment {1..2^n} scanned
    divisors: int = 1_000_000        # largest divisor/progression enumeration

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 1:
                raise DomainError(f"limit {field.name} must be positive, got {value}")

    def require_residue_space(self, q: int, what: str) -> None:
        """Raise ResourceLimitError when Z/qZ is over the residue-space cap."""
        if q > self.residue_space:
            raise ResourceLimitError(
                f"{what} needs a residue space of size {q}, over the limit"
                f" {self.residue_space}",
                required=q,
                limit=self.residue_space,
            )


DEFAULT_LIMITS = Limits()


def rational_str(q: Fraction) -> str:
    """Render a fraction as an exact 'numerator/denominator' string."""
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# residue classes


@dataclass(frozen=True, init=False)
class ResidueClass:
    """A single congruence a mod d, stored with 0 <= a < d.

    A modulus of 1 denotes the class equal to all of Z.
    """

    residue: int
    modulus: int

    def __init__(self, residue: int, modulus: int):
        if modulus < 1:
            raise InvalidModulusError(f"modulus must be >= 1, got {modulus}")
        object.__setattr__(self, "residue", residue % modulus)
        object.__setattr__(self, "modulus", modulus)

    def contains(self, x: int) -> bool:
        return x % self.modulus == self.residue

    def sort_key(self) -> tuple[int, int]:
        return (self.modulus, self.residue)

    def __str__(self) -> str:
        return f"{self.residue} mod {self.modulus}"


def intersect(c1: ResidueClass, c2: ResidueClass) -> ResidueClass | None:
    """Intersect two residue classes.

    By the Chinese Remainder Theorem the intersection is empty exactly when
    the residues disagree modulo gcd of the moduli, and otherwise is a single
    class modulo the lcm.  Returns None for the empty intersection.
    """
    d1, d2 = c1.modulus, c2.modulus
    g = gcd(d1, d2)
    if (c1.residue - c2.residue) % g != 0:
        return None
    m = d2 // g
    if m == 1:
        return ResidueClass(c1.residue, lcm(d1, d2))
    t = ((c2.residue - c1.residue) // g) * pow(d1 // g, -1, m) % m
    return ResidueClass(c1.residue + d1 * t, lcm(d1, d2))


# ---------------------------------------------------------------------------
# factorization utilities


@dataclass(frozen=True)
class Factorization:
    """A prime factorization as ordered (prime, exponent) pairs."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out

    @property
    def largest_prime(self) -> int:
        # convention: the largest prime factor of 1 is 1
        return self.pairs[-1][0] if self.pairs else 1

    @property
    def num_primes(self) -> int:
        return len(self.pairs)

    @property
    def num_divisors(self) -> int:
        out = 1
        for _, e in self.pairs:
            out *= e + 1
        return out

    def divisors(self) -> list[int]:
        divs = [1]
        for p, e in self.pairs:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)


def factorize(m: int) -> Factorization:
    """Factor a positive integer by deterministic trial division."""
    if m < 1:
        raise DomainError(f"cannot factor non-positive integer {m}")
    pairs = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        pairs.append((m, 1))
    return Factorization(tuple(pairs))


def largest_prime_factor(m: int) -> int:
    """Largest prime factor of m >= 1, with largest_prime_factor(1) == 1."""
    if m < 1:
        raise DomainError(f"largest prime factor undefined for {m}")
    best = 1
    d = 2
    while d * d <= m:
        while m % d == 0:
            best = d
            m //= d
        d += 1 if d == 2 else 2
    return m if m > 1 else best


# ---------------------------------------------------------------------------
# congruence systems


@dataclass(frozen=True)
class CongruenceSystem:
    """An ordered multiset of residue classes.

    Duplicate classes are preserved: multiplicity counts are taken over the
    multiset, and deduplication is a separate, explicit operation.
    """

    classes: tuple[ResidueClass, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))

    @classmethod
    def from_pairs(cls, pairs) -> "CongruenceSystem":
        return cls(tuple(ResidueClass(r, d) for r, d in pairs))

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    @cached_property
    def lcm_modulus(self) -> int:
        return lcm(*{c.modulus for c in self.classes})

    @cached_property
    def factorization(self) -> Factorization:
        return factorize(self.lcm_modulus)

    @cached_property
    def modulus_counts(self) -> Counter:
        return Counter(c.modulus for c in self.classes)

    def sorted_by_modulus(self) -> "CongruenceSystem":
        return CongruenceSystem(tuple(sorted(self.classes, key=ResidueClass.sort_key)))

    def without(self, index: int) -> "CongruenceSystem":
        return CongruenceSystem(self.classes[:index] + self.classes[index + 1 :])


def multiplicity(sys: CongruenceSystem) -> int:
    """Largest number of classes sharing one modulus, duplicates included."""
    if not sys.classes:
        raise DomainError("multiplicity of the empty system is undefined")
    return max(sys.modulus_counts.values())


def deduplicated(sys: CongruenceSystem) -> CongruenceSystem:
    """Remove repeated (residue, modulus) pairs, keeping first occurrences."""
    seen = set()
    kept = []
    for c in sys.classes:
        key = (c.residue, c.modulus)
        if key not in seen:
            seen.add(key)
            kept.append(c)
    return CongruenceSystem(tuple(kept))


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of the exhaustive coverage check over Z/QZ."""

    covers: bool
    witness: int | None
    uncovered_count: int


def _hit_mask(size: int, progressions) -> bytearray:
    """Byte mask of length size with 1 at start, start + d, ... for each (start, d).

    Progressions of one length share one fill: one per modulus, not per class.
    """
    hit = bytearray(size)
    fills = {}
    for start, d in progressions:
        n = len(range(start, size, d))
        fill = fills.get(n)
        if fill is None:
            fill = fills[n] = b"\x01" * n
        hit[start::d] = fill
    return hit


def covers_oracle(sys: CongruenceSystem, *, limits: Limits = DEFAULT_LIMITS) -> CoverageReport:
    """Decide coverage by checking every residue modulo Q.

    The witness, when the system does not cover, is the smallest nonnegative
    uncovered residue.  The empty system does not cover, with witness 0.
    """
    q = sys.lcm_modulus
    limits.require_residue_space(q, "coverage oracle")
    hit = _hit_mask(q, ((c.residue, c.modulus) for c in sys.classes))
    uncovered = hit.count(0)
    if uncovered == 0:
        return CoverageReport(True, None, 0)
    return CoverageReport(False, hit.index(0), uncovered)


def covers_interval(sys: CongruenceSystem, *, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Decide whether the system covers {1, ..., 2^n}, n the class count.

    For n arithmetic progressions this interval check is equivalent to
    coverage of all of Z.
    """
    n = len(sys.classes)
    size = 2**n
    if size > limits.interval:
        raise ResourceLimitError(
            f"interval check needs {size} integers, over the limit {limits.interval}",
            required=size,
            limit=limits.interval,
        )
    # index i stands for the integer i + 1, so r mod d starts at (r - 1) mod d
    hit = _hit_mask(size, (((c.residue - 1) % c.modulus, c.modulus) for c in sys.classes))
    return 0 not in hit


# byte translation table of a hit counter that saturates at 2: 0 -> 1, n -> 2
_BUMP = bytes([1] + [2] * 255)


def is_minimal(
    sys: CongruenceSystem, *, limits: Limits = DEFAULT_LIMITS
) -> tuple[bool, list[int]]:
    """Check single-removal minimality of a covering system.

    Returns (minimal, redundant) where redundant lists the indices of classes
    whose individual removal keeps the system covering.  A class is redundant
    exactly when every residue it covers is covered at least twice.
    """
    q = sys.lcm_modulus
    limits.require_residue_space(q, "minimality check")
    # per residue, how many classes hit it, saturating at 2
    counts = bytearray(q)
    for c in sys.classes:
        counts[c.residue :: c.modulus] = counts[c.residue :: c.modulus].translate(_BUMP)
    if not sys.classes or 0 in counts:
        raise DomainError("minimality is only defined for covering systems")
    redundant = [
        i for i, c in enumerate(sys.classes) if 1 not in counts[c.residue :: c.modulus]
    ]
    return (not redundant, redundant)


def density_uncovered(sys: CongruenceSystem, *, limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """Exact density of the uncovered residues, as uncovered_count / Q."""
    report = covers_oracle(sys, limits=limits)
    return Fraction(report.uncovered_count, sys.lcm_modulus)


# ---------------------------------------------------------------------------
# text and JSON formats

_LINE_RE = re.compile(r"^(-?\d+)\s+mod\s+(-?\d+)$")
_TOO_LONG = "a number has more digits than Python's int/str limit (PYTHONINTMAXSTRDIGITS)"


def parse_system(text: str) -> CongruenceSystem:
    """Parse a system from text.

    Two formats are accepted: one class per line as "R mod D", with blank
    lines and lines starting with "#" ignored, or a JSON object
    {"classes": [{"r": R, "d": D}, ...]}.  Residues may be unreduced or
    negative; moduli must be positive.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json_system(text)
    match = _LINE_RE.match
    classes = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        m = match(line)
        if m is None:
            if not line or line[0] == "#":
                continue
            raise ParseError(f"line {lineno}: expected 'R mod D', got {line!r}", line=lineno)
        r, d = m.groups()
        try:
            r, d = int(r), int(d)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {_TOO_LONG}", line=lineno) from exc
        if d < 1:
            raise ParseError(f"line {lineno}: invalid modulus {d}", line=lineno)
        classes.append(ResidueClass(r, d))
    return CongruenceSystem(tuple(classes))


def _parse_json_system(text: str) -> CongruenceSystem:
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an int past the digit limit
        raise ParseError(f"invalid JSON system: {exc}") from exc
    if not isinstance(data, dict) or "classes" not in data:
        raise ParseError('JSON system must be an object with a "classes" array')
    classes = []
    for i, entry in enumerate(data["classes"]):
        if not isinstance(entry, dict) or "r" not in entry or "d" not in entry:
            raise ParseError(f'class {i}: expected an object with keys "r" and "d"')
        r, d = entry["r"], entry["d"]
        if not isinstance(r, int) or not isinstance(d, int):
            raise ParseError(f"class {i}: residue and modulus must be integers")
        if d < 1:
            raise ParseError(f"class {i}: invalid modulus {d}")
        classes.append(ResidueClass(r, d))
    return CongruenceSystem(tuple(classes))


def _require_printable(sys: CongruenceSystem) -> None:
    """Raise ResourceLimitError when a number is past Python's int/str digit limit.

    Residues are below their moduli, so converting the largest modulus first
    makes an oversized system fail before any output is built.
    """
    if sys.classes:
        try:
            str(max(c.modulus for c in sys.classes))
        except ValueError as exc:
            raise ResourceLimitError(f"cannot print the system: {_TOO_LONG}") from exc


def emit_system(sys: CongruenceSystem) -> str:
    """Render a system in the line format, one "R mod D" per line."""
    _require_printable(sys)
    return "".join(f"{c.residue} mod {c.modulus}\n" for c in sys.classes)


def emit_system_json(sys: CongruenceSystem, *, indent: int | None = None) -> str:
    """Render a system in the JSON format, indented as json.dumps does."""
    _require_printable(sys)
    classes = [{"r": c.residue, "d": c.modulus} for c in sys.classes]
    return json.dumps({"classes": classes}, indent=indent)
