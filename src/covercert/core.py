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
from collections import Counter, defaultdict, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
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


class Limits(namedtuple("Limits", "residue_space interval")):
    """Caps on the finite enumerations behind the decision procedures.

    residue_space is the largest Z/QZ that may be scanned, interval the
    longest initial segment {1..2^n}; both positive, on every construction path.
    """

    __slots__ = ()

    def __new__(cls, residue_space: int = 10_000_000, interval: int = 2**24):
        limits = super().__new__(cls, residue_space, interval)
        for name, value in zip(cls._fields, limits):
            if value < 1:
                raise DomainError(f"limit {name} must be positive, got {_shown(value)}")
        return limits

    @classmethod
    def _make(cls, iterable) -> "Limits":
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    def require(self, name: str, required: int, what: str) -> None:
        """Raise ResourceLimitError when required is over the limit called name.

        what says what needs the enumeration and how large it is, as in
        "interval check needs 64 integers".
        """
        limit = getattr(self, name)
        if required > limit:
            raise ResourceLimitError(
                f"{what}, over the limit {_shown(limit)}", required=required, limit=limit
            )

    def require_residue_space(self, q: int, what: str) -> None:
        """Raise ResourceLimitError when Z/qZ is over the residue-space cap."""
        if q <= self.residue_space:  # before the message is built
            return
        self.require("residue_space", q, f"{what} needs a residue space of size {_shown(q)}")


def _shown(value) -> str:
    """value as an error line shows it: a string as its repr, cut after 80
    characters and marked with an ellipsis; an int of more than 80 digits as
    "at least 10^k" or "at most -10^k", k from bit_length (0.30102 < log10 2),
    with no str() of it built; a Fraction by its numerator and denominator.
    """
    if isinstance(value, str):
        return repr(value) if len(value) <= 80 else repr(value[:80]) + "…"
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_shown(value.numerator)}/{_shown(value.denominator)}"
    if not isinstance(value, (int, Fraction)) or -(10**80) < value < 10**80:
        return str(value)
    k = (abs(value.numerator).bit_length() - 1) * 30102 // 100000
    return f"at least 10^{k}" if value > 0 else f"at most -10^{k}"


DEFAULT_LIMITS = Limits()


def rational_str(q: Fraction) -> str:
    """Render a fraction as an exact 'numerator/denominator' string."""
    return f"{_printed(q.numerator, 'a fraction')}/{_printed(q.denominator, 'a fraction')}"


# ---------------------------------------------------------------------------
# residue classes and factorization

# one class r mod d, as CongruenceSystem.classes hands it out
ResidueClass = namedtuple("ResidueClass", "residue modulus")


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive integer by deterministic trial division.

    Returns the (prime, exponent) pairs in increasing order of the prime.
    """
    if m < 1:
        raise DomainError(f"cannot factor non-positive integer {_shown(m)}")
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


class _ReadOnly:
    """Refuses to set or delete attributes; a cached_property still writes __dict__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CongruenceSystem(_ReadOnly):
    """An ordered multiset of residue classes.

    Duplicate classes are preserved: multiplicity counts are taken over the
    multiset, and deduplication is a separate, explicit operation.

    The classes are stored as two int columns of equal length, residues
    (reduced, 0 <= r < d) and moduli, so that scans and transforms run over
    the columns without a Python object per class.  The (residue, modulus)
    tuples of .classes are built only when it is read.  Systems compare by the columns.
    """

    def __init__(self, residues=(), moduli=()):
        """A system from a list or tuple of residues and one of moduli >= 1."""
        if len(residues) != len(moduli):
            raise DomainError(f"{len(residues)} residues but {len(moduli)} moduli")
        if moduli and min(moduli) < 1:  # report the first one
            bad = next(d for d in moduli if d < 1)
            raise InvalidModulusError(f"modulus must be >= 1, got {_shown(bad)}")
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

    def __repr__(self) -> str:
        return f"CongruenceSystem(residues={self.residues!r}, moduli={self.moduli!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.residues, self.moduli) == (other.residues, other.moduli)

    def __hash__(self) -> int:
        return hash((self.residues, self.moduli))

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
    return max(Counter(sys.moduli).values())


def deduplicated(sys: CongruenceSystem) -> CongruenceSystem:
    """Remove repeated (residue, modulus) pairs, keeping first occurrences."""
    residues, moduli = _columns(dict.fromkeys(zip(sys.residues, sys.moduli)))
    return CongruenceSystem(residues, moduli)


# outcome of the exhaustive coverage check over Z/QZ
CoverageReport = namedtuple("CoverageReport", "covers witness uncovered_count")


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

    Each start is below its d.  The starts are grouped by d; one fill serves
    every start of its d, or one byte where the grown mask has length d.  The
    mask grows with the moduli (_repeat_for) and is repeated up to size.  A d
    that does not divide size, as in the interval check, is written over all
    of size.
    """
    starts = defaultdict(list)
    for start, d in progressions:
        starts[d].append(start)
    hit = bytearray(1)
    for d, group in starts.items():
        _repeat_for(hit, size, d)
        if size % d:  # the fill's length depends on start
            for start in group:
                hit[start::d] = b"\x01" * len(range(start, size, d))
            continue
        if len(hit) == d:  # one byte per start
            for start in group:
                hit[start] = 1
            continue
        fill = b"\x01" * (len(hit) // d)
        for start in group:
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
    shown = size if size < 10**80 else f"2^{n}"  # as _shown would, but exact
    limits.require("interval", size, f"interval check needs {shown} integers")
    # index i stands for the integer i + 1, so r mod d starts at (r - 1) mod d
    hit = _hit_mask(size, (((r - 1) % d, d) for r, d in zip(sys.residues, sys.moduli)))
    return 0 not in hit


# byte translation table of a hit counter that saturates at 2: 0 -> 1, n -> 2
_BUMP = bytes([1] + [2] * 255)


def _shared_counts(size: int, classes, own: dict[int, int], power: int):
    """(counts, rows): the hit counts of the shared classes over Z/size,
    saturating at 2, and each row's classes of its own.

    classes yields (index, r, d).  A class whose d is a key of own, which
    maps d to d/power, lies in one row: it goes to rows[r mod power] as
    (index, r mod d/power, d/power).  The others are counted into a period
    that _repeat_for grows as the moduli need, where a class whose d is the
    period is one byte; the period is then repeated up to size.
    """
    counts, rows = bytearray(1), defaultdict(list)
    for i, start, d in classes:
        if d in own:
            d = own[d]
            rows[start % power].append((i, start % d, d))
            continue
        if len(counts) % d:
            _repeat_for(counts, size, d)
        if len(counts) == d:
            counts[start] = _BUMP[counts[start]]
        else:
            counts[start::d] = counts[start::d].translate(_BUMP)
    counts *= size // len(counts)
    return counts, rows


def _row_split(sys: CongruenceSystem) -> tuple[int, dict[int, int]]:
    """(P, own): the modulus of is_minimal's rows, and d -> d/P for the
    moduli d of the classes that lie in one row.

    P is p^nu, the full power of Q's largest prime p, or 1 for one row.
    There is one row when P > Q/P, where a row would cost more in Python
    than its bytes, and when some modulus holds p^a with 0 < a < nu: such a
    class lies in p^(nu-a) rows.
    """
    if not sys.factorization:  # Q = 1
        return 1, {}
    p, nu = sys.factorization[-1]
    power = p**nu
    moduli = set(sys.moduli)
    if power * power > sys.lcm_modulus or any(d % p == 0 and d % power for d in moduli):
        return 1, {}
    return power, {d: d // power for d in moduli if d % power == 0}


def is_minimal(
    sys: CongruenceSystem, *, limits: Limits = DEFAULT_LIMITS
) -> tuple[bool, list[int]]:
    """Check single-removal minimality of a covering system.

    Returns (minimal, redundant) where redundant lists the indices of classes
    whose individual removal keeps the system covering.  A class is redundant
    exactly when every residue it covers is covered at least twice.

    Z/QZ is scanned one row at a time, with a hit counter per residue that
    saturates at 2.  Row t holds the x = t (mod P), P = p^nu the full power
    of Q's largest prime (see _row_split), and is indexed by x mod Q', with
    Q' = Q/P; by the CRT that is a bijection.  A class whose modulus divides
    Q' falls on the same places in every row, so it is counted once, into a
    counter that every row shares.  A class with P | d lies in the one row
    t = r (mod P), at y = r (mod d/P).  A row is the shared counter with its
    own classes counted in, in place; what they overwrote is put back after
    the row's tests.  Where that would keep more bytes than the row holds,
    they are counted into a copy instead.  The rows that hold no class of
    their own are the shared counter itself, scanned once.  A 0 in any row
    means the system does not cover.  A shared class stays redundant until
    some row shows it a residue it hits alone; a row's own classes are
    tested in that row.  So the scan holds one Q'-byte counter and a slice
    of it, plus what a row's own classes overwrite, at most a second row.
    """
    q = sys.lcm_modulus
    limits.require_residue_space(q, "minimality check")
    power, own = _row_split(sys)
    width = q // power
    index, residues, moduli = range(len(sys)), sys.residues, sys.moduli
    counts, rows = _shared_counts(width, zip(index, residues, moduli), own, power)
    if len(rows) < power:  # the rows of the shared classes alone
        rows = {None: [], **rows}
    redundant = []
    for own_classes in rows.values():
        _, ys, ds = zip(*own_classes) if own_classes else ((), (), ())
        in_place = sum(map(width.__floordiv__, ds)) <= width
        row, saved = (counts if in_place else bytearray(counts)), []
        for y, d in zip(ys, ds):
            hits = row[y::d]
            if in_place:
                saved.append(hits)
            row[y::d] = hits.translate(_BUMP)
        if 0 in row:
            raise DomainError("minimality is only defined for covering systems")
        # the shared classes that no row so far shows a residue they hit alone
        pending = [d not in own and 1 not in row[r::d] for r, d in zip(residues, moduli)]
        index, residues, moduli = (list(compress(c, pending)) for c in (index, residues, moduli))
        redundant += [i for i, y, d in own_classes if 1 not in row[y::d]]
        if in_place:  # undo the bumps, the last first
            for y, d, hits in zip(reversed(ys), reversed(ds), reversed(saved)):
                counts[y::d] = hits
        del row  # a copy goes before the next row's is made
    redundant += index
    redundant.sort()
    return (not redundant, redundant)


def density_uncovered(sys: CongruenceSystem, *, limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """Exact density of the uncovered residues, as uncovered_count / Q."""
    report = covers_oracle(sys, limits=limits)
    return Fraction(report.uncovered_count, sys.lcm_modulus)


# ---------------------------------------------------------------------------
# text and JSON formats

_LINE_RE = re.compile(r"^(-?\d+)\s+mod\s+(-?\d+)$")
# the bytes of plain line-format text, and those of its numbers and spaces
_PLAIN_BYTES = b"0123456789-mod \n"
_NUMBER_BYTES = b"0123456789- "
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
    system = _parse_plain(text)
    return _parse_lines(text) if system is None else system


def _parse_plain(text: str) -> CongruenceSystem | None:
    """The system of plain line-format text, or None for any other text.

    Plain text holds only _PLAIN_BYTES, so no tab, and each of its lines,
    with no blank line between them, is one class "R mod D".  It is read by
    passes over the whole text, with no object per line.  Each " mod "
    becomes a comma, and what is left once numbers and spaces are deleted
    must be one comma per line.  Line breaks then become commas too, and one
    JSON scan reads the numbers; it refuses two numbers with only spaces
    between them.  Within these bytes JSON's integers are -?[0-9]+ without
    leading zeros.  Empty text, a tab, a blank line, a leading zero, a lone
    "-", a number past the digit limit or a modulus below 1 gives None, and
    the line loop reads the text again, naming the line of any error.
    """
    if not text.isascii():
        return None
    data = text.encode()
    if data.translate(None, _PLAIN_BYTES):
        return None
    data = data.replace(b" mod ", b",").strip()
    shape = data.translate(None, _NUMBER_BYTES)
    if shape != b",\n" * (len(shape) // 2) + b",":
        return None
    try:
        numbers = json.loads((b"[" + data.replace(b"\n", b",") + b"]").decode())
        return CongruenceSystem(numbers[0::2], numbers[1::2])
    except (ValueError, InvalidModulusError):
        return None


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
            raise ParseError(f"line {lineno}: expected 'R mod D', got {_shown(line)}", lineno)
        r, d = m.groups()
        try:
            r, d = int(r), int(d)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {_TOO_LONG}", line=lineno) from exc
        if d < 1:
            raise ParseError(f"line {lineno}: invalid modulus {_shown(d)}", line=lineno)
        residues.append(r)
        moduli.append(d)
    return CongruenceSystem(residues, moduli)


def _parse_json_system(text: str) -> CongruenceSystem:
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an int past the digit limit
        raise ParseError(f"invalid JSON system: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("classes"), list):
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
            raise ParseError(f"class {i}: invalid modulus {_shown(d)}")
        residues.append(r)
        moduli.append(d)
    return CongruenceSystem(residues, moduli)


def _printed(number: int, what: str) -> str:
    """str(number), printed as part of what; ResourceLimitError past Python's
    int/str digit limit, which applies to every number printed.

    Residues are below their moduli, so a system's largest modulus is checked
    first, and an oversized system fails before any output is built.
    """
    try:
        return str(number)
    except ValueError as exc:
        raise ResourceLimitError(f"cannot print {what}: {_TOO_LONG}") from exc


def emit_system(sys: CongruenceSystem) -> str:
    """Render a system in the line format, one "R mod D" per line, by one % format."""
    _printed(max(sys.moduli, default=0), "the system")
    return ("%d mod %d\n" * len(sys)) % tuple(chain.from_iterable(zip(sys.residues, sys.moduli)))


def emit_system_json(sys: CongruenceSystem, *, indent: int | None = None) -> str:
    """Render a system in the JSON format, indented as json.dumps does."""
    _printed(max(sys.moduli, default=0), "the system")
    classes = [{"r": r, "d": d} for r, d in zip(sys.residues, sys.moduli)]
    return json.dumps({"classes": classes}, indent=indent)
