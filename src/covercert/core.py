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
from collections import Counter, namedtuple
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mod


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

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 1:
                raise DomainError(f"limit {field.name} must be positive, got {value}")

    def require(self, name: str, required: int, what: str) -> None:
        """Raise ResourceLimitError when required is over the limit called name.

        what says what needs the enumeration and how large it is, as in
        "interval check needs 64 integers".
        """
        limit = getattr(self, name)
        if required > limit:
            raise ResourceLimitError(
                f"{what}, over the limit {limit}", required=required, limit=limit
            )

    def require_residue_space(self, q: int, what: str) -> None:
        """Raise ResourceLimitError when Z/qZ is over the residue-space cap."""
        self.require("residue_space", q, f"{what} needs a residue space of size {q}")


DEFAULT_LIMITS = Limits()


def rational_str(q: Fraction) -> str:
    """Render a fraction as an exact 'numerator/denominator' string."""
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# residue classes and factorization

# one class r mod d, as CongruenceSystem.classes hands it out
ResidueClass = namedtuple("ResidueClass", "residue modulus")


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive integer by deterministic trial division.

    Returns the (prime, exponent) pairs in increasing order of the prime.
    """
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
    return tuple(pairs)


# ---------------------------------------------------------------------------
# congruence systems


@dataclass(frozen=True, init=False)
class CongruenceSystem:
    """An ordered multiset of residue classes.

    Duplicate classes are preserved: multiplicity counts are taken over the
    multiset, and deduplication is a separate, explicit operation.

    The classes are stored as two int columns of equal length, residues
    (reduced, 0 <= r < d) and moduli, so that scans and transforms run over
    the columns without a Python object per class.  The (residue, modulus)
    tuples of .classes are built only when it is read.
    """

    residues: tuple[int, ...]
    moduli: tuple[int, ...]

    def __init__(self, residues=(), moduli=()):
        """A system from a list or tuple of residues and one of moduli >= 1."""
        if len(residues) != len(moduli):
            raise DomainError(f"{len(residues)} residues but {len(moduli)} moduli")
        if moduli and min(moduli) < 1:  # report the first one
            bad = next(d for d in moduli if d < 1)
            raise InvalidModulusError(f"modulus must be >= 1, got {bad}")
        # Each tuple is made from a list, whose length is known.  tuple() of
        # an iterator builds its result at a guessed length and resizes it;
        # freed, it joins the free list of its final length, which that
        # tuple() never draws from, so CPython's free list for the class
        # count would fill with each system up to 2000 tuples.
        moduli = tuple(moduli)
        self.__dict__.update(residues=tuple(list(map(mod, residues, moduli))), moduli=moduli)

    @classmethod
    def from_pairs(cls, pairs) -> "CongruenceSystem":
        return cls(*_columns(pairs))

    def __len__(self) -> int:
        return len(self.moduli)

    @cached_property
    def classes(self) -> tuple[ResidueClass, ...]:
        return tuple(list(map(ResidueClass, self.residues, self.moduli)))

    @cached_property
    def lcm_modulus(self) -> int:
        return lcm(*set(self.moduli))

    @cached_property
    def factorization(self) -> tuple[tuple[int, int], ...]:
        return factorize(self.lcm_modulus)

    @cached_property
    def modulus_counts(self) -> Counter:
        return Counter(self.moduli)

    def sorted_by_modulus(self) -> "CongruenceSystem":
        """The classes sorted by (modulus, residue)."""
        moduli, residues = _columns(sorted(zip(self.moduli, self.residues)))
        return CongruenceSystem(residues, moduli)

    def without(self, index: int) -> "CongruenceSystem":
        r, d = self.residues, self.moduli
        return CongruenceSystem(r[:index] + r[index + 1 :], d[:index] + d[index + 1 :])


def _columns(pairs) -> tuple[tuple, tuple]:
    """Split (a, b) pairs into the column of the a and the column of the b."""
    pairs = list(pairs)  # not tuple(): see the free list in CongruenceSystem.__init__
    if not pairs:
        return (), ()
    first, second = zip(*pairs)
    return first, second


def multiplicity(sys: CongruenceSystem) -> int:
    """Largest number of classes sharing one modulus, duplicates included."""
    if not sys.moduli:
        raise DomainError("multiplicity of the empty system is undefined")
    return max(sys.modulus_counts.values())


def deduplicated(sys: CongruenceSystem) -> CongruenceSystem:
    """Remove repeated (residue, modulus) pairs, keeping first occurrences."""
    residues, moduli = _columns(dict.fromkeys(zip(sys.residues, sys.moduli)))
    return CongruenceSystem(residues, moduli)


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of the exhaustive coverage check over Z/QZ."""

    covers: bool
    witness: int | None
    uncovered_count: int


def _repeat_for(mask: bytearray, size: int, d: int) -> None:
    """Repeat mask in place so that it can take a progression of difference d.

    mask holds a pattern over Z/len(mask), and len(mask) divides size.  When
    d does not divide len(mask), mask is repeated up to the lcm of the two,
    or up to size when d does not divide size.  Built this way, while every
    d divides size, a progression costs len(mask)/d writes, not size/d.
    """
    period = len(mask)
    if period % d:
        mask *= (lcm(period, d) if size % d == 0 else size) // period


def _hit_mask(size: int, progressions) -> bytearray:
    """Byte mask of length size, 1 at start, start + d, ... for each (start, d).

    Each start is below its d.  The mask grows with the moduli (_repeat_for)
    and is repeated up to size at the end; one fill per modulus serves every
    class of that modulus while the mask keeps its length.  A d that does not
    divide size, as in the interval check, is written over the whole length.
    """
    hit, fills = bytearray(1), {}
    for start, d in progressions:
        fill = fills.get(d)
        if fill is None:
            period = len(hit)
            _repeat_for(hit, size, d)
            if len(hit) != period:
                fills.clear()
            if size % d:  # the fill's length depends on start
                hit[start::d] = b"\x01" * len(range(start, size, d))
                continue
            fill = fills[d] = b"\x01" * (len(hit) // d)
        hit[start::d] = fill
    hit *= size // len(hit)
    return hit


def covers_oracle(sys: CongruenceSystem, *, limits: Limits = DEFAULT_LIMITS) -> CoverageReport:
    """Decide coverage by checking every residue modulo Q.

    The witness, when the system does not cover, is the smallest nonnegative
    uncovered residue.  The empty system does not cover, with witness 0.
    """
    q = sys.lcm_modulus
    limits.require_residue_space(q, "coverage oracle")
    hit = _hit_mask(q, zip(sys.residues, sys.moduli))
    uncovered = hit.count(0)
    if uncovered == 0:
        return CoverageReport(True, None, 0)
    return CoverageReport(False, hit.index(0), uncovered)


def covers_interval(sys: CongruenceSystem, *, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Decide whether the system covers {1, ..., 2^n}, n the class count.

    For n arithmetic progressions this interval check is equivalent to
    coverage of all of Z.
    """
    n = len(sys)
    size = 2**n
    limits.require("interval", size, f"interval check needs {size} integers")
    # index i stands for the integer i + 1, so r mod d starts at (r - 1) mod d
    hit = _hit_mask(size, (((r - 1) % d, d) for r, d in zip(sys.residues, sys.moduli)))
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
    # per residue, how many classes hit it, saturating at 2, over a period
    # that _repeat_for grows to Q
    counts = bytearray(1)
    classes = list(zip(sys.residues, sys.moduli))
    for r, d in classes:
        _repeat_for(counts, q, d)
        counts[r::d] = counts[r::d].translate(_BUMP)
    if not classes or 0 in counts:
        raise DomainError("minimality is only defined for covering systems")
    redundant = [i for i, (r, d) in enumerate(classes) if 1 not in counts[r::d]]
    return (not redundant, redundant)


def density_uncovered(sys: CongruenceSystem, *, limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """Exact density of the uncovered residues, as uncovered_count / Q."""
    report = covers_oracle(sys, limits=limits)
    return Fraction(report.uncovered_count, sys.lcm_modulus)


# ---------------------------------------------------------------------------
# text and JSON formats

_LINE_RE = re.compile(r"^(-?\d+)\s+mod\s+(-?\d+)$")
# one line of plain line-format text and its end: "R mod D" in ASCII digits,
# or blank, with spaces and tabs only, ended by "\n" or the end of the text.
# Plain text is checked line by line, by the first line's match and a search
# for a later line that fails; one fullmatch over all lines would keep
# backtracking state for each line, about 0.8 kB
_PLAIN_LINE = r"[ \t]*(?:-?[0-9]+[ \t]+mod[ \t]+[0-9]+[ \t]*)?(?:\n|\Z)"
_PLAIN_FIRST_LINE = re.compile(_PLAIN_LINE)
_NOT_PLAIN_LATER_LINE = re.compile(rf"\n(?!{_PLAIN_LINE})")
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
    if _PLAIN_FIRST_LINE.match(text) and not _NOT_PLAIN_LATER_LINE.search(text):
        # every line holds three tokens or none, so the columns are strided
        tokens = text.split()
        try:
            return CongruenceSystem(list(map(int, tokens[0::3])), list(map(int, tokens[2::3])))
        except (ValueError, InvalidModulusError):
            pass  # a number past the digit limit or a modulus 0: the line loop names its line
    return _parse_lines(text)


def _parse_lines(text: str) -> CongruenceSystem:
    """The line format, line by line: any text, and the error names its line."""
    match = _LINE_RE.match
    residues, moduli = [], []
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
        residues.append(r)
        moduli.append(d)
    return CongruenceSystem(residues, moduli)


def _parse_json_system(text: str) -> CongruenceSystem:
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an int past the digit limit
        raise ParseError(f"invalid JSON system: {exc}") from exc
    if not isinstance(data, dict) or "classes" not in data:
        raise ParseError('JSON system must be an object with a "classes" array')
    residues, moduli = [], []
    for i, entry in enumerate(data["classes"]):
        if not isinstance(entry, dict) or "r" not in entry or "d" not in entry:
            raise ParseError(f'class {i}: expected an object with keys "r" and "d"')
        r, d = entry["r"], entry["d"]
        # type, not isinstance: JSON true and false load as bool, an int subclass
        if type(r) is not int or type(d) is not int:
            raise ParseError(f"class {i}: residue and modulus must be integers")
        if d < 1:
            raise ParseError(f"class {i}: invalid modulus {d}")
        residues.append(r)
        moduli.append(d)
    return CongruenceSystem(residues, moduli)


def _require_printable(largest_modulus: int) -> None:
    """Raise ResourceLimitError when a system's largest modulus cannot be printed.

    Python's int/str digit limit applies to every number printed.  Residues
    are below their moduli, so checking the largest modulus first makes an
    oversized system fail before any output is built.
    """
    try:
        str(largest_modulus)
    except ValueError as exc:
        raise ResourceLimitError(f"cannot print the system: {_TOO_LONG}") from exc


def emit_system(sys: CongruenceSystem) -> str:
    """Render a system in the line format, one "R mod D" per line."""
    _require_printable(max(sys.moduli, default=0))
    return "".join(map("{} mod {}\n".format, sys.residues, sys.moduli))


def emit_system_json(sys: CongruenceSystem, *, indent: int | None = None) -> str:
    """Render a system in the JSON format, indented as json.dumps does."""
    _require_printable(max(sys.moduli, default=0))
    classes = [{"r": r, "d": d} for r, d in zip(sys.residues, sys.moduli)]
    return json.dumps({"classes": classes}, indent=indent)
