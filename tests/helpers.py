"""Independent oracles, shared strategies and guards for the test suite.

Everything here recomputes expected results from first principles with its
own arithmetic, so a bug in the package cannot hide in its own oracle.  The
inputs are plain (residue, modulus) pairs and delta lists, or package
objects read only through their attributes, and nothing is imported from
covercert.  Three checks of the paper's argument live only here: the
divisor-sum bound on the first moment, the progression mass bound and the
certificate's lower bound on the uncovered count.  measure_invariant_failures
is the one checker of the measures' invariants.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import mpmath
import pytest
from hypothesis import strategies as st

# frames whose divisors supply moduli; keeps every generated Q a divisor
# of the frame instead of rejection-sampling on lcm size
FRAMES = (4, 6, 8, 12, 18, 24, 30, 36, 48, 60, 72, 90, 120, 144, 180, 240, 360, 720)


def brute_lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def divisors_of(n: int) -> list[int]:
    """The divisors of n in increasing order, found by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def brute_covers(pairs) -> tuple[bool, int | None, int]:
    """Coverage decided by per-integer membership tests over one period."""
    q = brute_lcm(d for _, d in pairs)
    uncovered = [x for x in range(q) if not any((x - r) % d == 0 for r, d in pairs)]
    if uncovered:
        return (False, uncovered[0], len(uncovered))
    return (True, None, 0)


def brute_covers_initial_segment(pairs, size: int) -> bool:
    return all(any((x - r) % d == 0 for r, d in pairs) for x in range(1, size + 1))


def brute_multiplicity(pairs) -> int:
    counts = Counter(d for _, d in pairs)
    return max(counts.values())


def brute_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_largest_prime(n: int) -> int:
    """The largest prime factor of n, 1 for n = 1."""
    return brute_factor(n)[-1][0] if n > 1 else 1


def reference_level(masses, in_b, qprev: int, delta):
    """One level of the pointwise pipeline, over all of Z/QZ.

    masses holds one rational mass per residue mod Q, in_b says which
    residues mod Q_j lie in B_j, and the fibers are the residues mod qprev,
    so len(in_b) divides Q and qprev divides len(in_b).  Returns (alpha, m1,
    m2, updated): the hit fraction per residue mod qprev, the two moments,
    and the masses after the two-case update.
    """
    q, qj = len(masses), len(in_b)
    lifts = qj // qprev
    alpha = []
    for y in range(qprev):
        hits = sum(1 for z in range(y, qj, qprev) if in_b[z])
        alpha.append(Fraction(hits, lifts))
    m1 = sum((masses[x] * alpha[x % qprev] for x in range(q)), Fraction(0))
    m2 = sum((masses[x] * alpha[x % qprev] ** 2 for x in range(q)), Fraction(0))
    delta = Fraction(delta)
    updated = []
    for x in range(q):
        a = alpha[x % qprev]
        mx = masses[x]
        if a < delta:
            updated.append(Fraction(0) if in_b[x % qj] else mx / (1 - a))
        elif in_b[x % qj]:
            updated.append(mx * (a - delta) / (a * (1 - delta)))
        else:
            updated.append(mx / (1 - delta))
    return alpha, m1, m2, updated


def reference_pipeline(pairs, deltas):
    """Pointwise re-derivation of the distorted measures over all of Z/QZ.

    Maintains one rational mass per residue mod Q (no fiber collapsing, no
    denominator bucketing) and applies the two-case update directly.  Returns
    (records, eta): each record carries level, prime, alpha (per residue mod
    Q_(j-1)), m1, m2, term, branch, and the full pointwise masses after the
    level.
    """
    q = brute_lcm(d for _, d in pairs)
    fact = brute_factor(q)
    partials = [1]
    for p, e in fact:
        partials.append(partials[-1] * p**e)
    depth = len(fact)
    assert len(deltas) == depth, "one delta per prime of Q"
    masses = [Fraction(1, q)] * q
    records = []
    eta = Fraction(0)
    for j in range(1, depth + 1):
        p = fact[j - 1][0]
        qj, qprev = partials[j], partials[j - 1]
        level_pairs = [(r, d) for r, d in pairs if brute_largest_prime(d) == p]
        in_b = [
            any((z - r) % d == 0 for r, d in level_pairs) for z in range(qj)
        ]
        delta = Fraction(deltas[j - 1])
        alpha, m1, m2, masses = reference_level(masses, in_b, qprev, delta)
        if delta == 0:
            term, branch = m1, "first-moment"
        else:
            second = m2 / (4 * delta * (1 - delta))
            if m1 <= second:
                term, branch = m1, "first-moment"
            else:
                term, branch = second, "second-moment"
        eta += term
        records.append(
            {
                "level": j,
                "prime": p,
                "modulus": qj,
                "alpha": tuple(alpha),
                "m1": m1,
                "m2": m2,
                "term": term,
                "branch": branch,
                "masses": tuple(masses),
            }
        )
    return records, eta


def first_moment_bound(pairs, primes, exponents, j: int, min_modulus: int) -> Fraction:
    """The divisor-sum bound on the first moment of the hit fractions at level j.

    The multiplicity of the system times the sum of 1 / (g * p_j^r) over the
    divisors g of Q_(j-1) and 1 <= r <= nu_j with g * p_j^r >= min_modulus.
    primes and exponents are the (p, nu) of the ladder, Q_(j-1) the product
    of its first j - 1 prime powers.  Every term divides Q_j, so the terms
    are summed as integers over Q_j.
    """
    qprev = 1
    for p, e in zip(primes[: j - 1], exponents[: j - 1]):
        qprev *= p**e
    p, nu = primes[j - 1], exponents[j - 1]
    qj = qprev * p**nu
    terms = [g * p**r for r in range(1, nu + 1) for g in divisors_of(qprev)]
    total = sum(qj // t for t in terms if t >= min_modulus)
    return brute_multiplicity(pairs) * Fraction(total, qj)


ApBoundViolation = namedtuple("ApBoundViolation", "modulus residue mass bound")


def ap_mass_bound_check(masses, primes, deltas) -> list[ApBoundViolation]:
    """The classes a mod g, g dividing Q = len(masses), whose mass is over its bound.

    masses holds the mass of each residue mod Q_level after a level of the
    pipeline, and primes and deltas the ladder's primes and their deltas.
    The level of prime p multiplies the mass of a mod g by at most
    1/(1 - delta) when p divides g, and leaves it alone otherwise, so the
    mass of a mod g is at most 1/g times those factors.  A sound pipeline
    gives no violation.  The masses are scaled to integers over one common
    denominator, so that each progression is an exact sum of ints.
    """
    denominators = {m.denominator for m in masses}
    common = lcm(*denominators)
    scale = {den: common // den for den in denominators}
    scaled = [m.numerator * scale[m.denominator] for m in masses]
    violations = []
    for g in divisors_of(len(masses)):
        bound = Fraction(1, g)
        for p, delta in zip(primes, deltas):
            if g % p == 0:
                bound /= 1 - Fraction(delta)
        for a in range(g):
            total = sum(scaled[a::g])
            if total * bound.denominator > bound.numerator * common:
                violations.append(ApBoundViolation(g, a, Fraction(total, common), bound))
    return violations


def reference_hit_counts(mask: bytes, modulus: int) -> list[int]:
    """Per residue y mod modulus, the number of set mask bytes at z = y mod modulus."""
    counts = [0] * modulus
    for z, bit in enumerate(mask):
        if bit:
            counts[z % modulus] += 1
    return counts


def masses_of(measure) -> tuple[Fraction, ...]:
    """The mass of each fiber of a measure, read one residue at a time through mass(y)."""
    return tuple(measure.mass(y) for y in range(measure.modulus))


def fiber_sums(pointwise, modulus: int) -> tuple[Fraction, ...]:
    """Collapse pointwise masses over Z/QZ to fiber masses over Z/modulusZ."""
    q = len(pointwise)
    return tuple(
        sum((pointwise[x] for x in range(y, q, modulus)), Fraction(0))
        for y in range(modulus)
    )


def measure_invariant_failures(records, primes, deltas) -> list[str]:
    """One line per broken invariant of the measures of a run's level records.

    Each measure has no negative mass, its sums over the parent's fibers are
    the parent's masses and total 1, it leaves no mass on a member of B_j
    above a fiber with hit fraction below delta_j, and it meets the
    progression mass bound.  The total is summed over the parent's fibers,
    not over the many more residues mod Q_j.
    """
    failures = []
    prev_modulus, prev_masses = 1, (Fraction(1),)
    for record in records:
        where = f"level {record.level}"
        masses = masses_of(record.measure)
        pushed = fiber_sums(masses, prev_modulus)
        if sum(pushed) != 1:
            failures.append(f"{where}: total != 1")
        if any(m < 0 for m in masses):
            failures.append(f"{where}: negative mass")
        if pushed != prev_masses:
            failures.append(f"{where}: pushforward mismatch")
        qj, mask = len(masses), record.level_set.mask
        lifts = qj // prev_modulus
        for y, count in enumerate(record.counts):
            if Fraction(count, lifts) < record.delta:
                for z in range(y, qj, prev_modulus):
                    if mask[z] and masses[z] != 0:
                        failures.append(f"{where}: survivor at {z}")
        violations = ap_mass_bound_check(masses, primes, deltas)
        if violations:
            failures.append(f"{where}: {len(violations)} progression bounds")
        prev_modulus, prev_masses = qj, masses
    return failures


def uncovered_lower_bound(eta, q: int, deltas) -> Fraction:
    """(1 - eta) Q prod_j (1 - delta_j), the fewest uncovered residues mod Q under eta < 1.

    The final measure leaves mass at most eta on the covered residues, and
    no residue holds more than 1 / (Q prod_j (1 - delta_j)).
    """
    return (1 - Fraction(eta)) * q * prod(1 - Fraction(delta) for delta in deltas)


def zero_first_hit(counts: bytes) -> bytes:
    """The counts with the first nonzero one set to 0; a level-set member
    then lies above a fiber with hit fraction 0, which the pipeline must notice."""
    y = next(y for y, c in enumerate(counts) if c)
    return counts[:y] + bytes(1) + counts[y + 1 :]


def sieve_smooth_reciprocal(y: int, threshold: int, cap: int) -> Fraction:
    """Smooth reciprocal sum via a largest-prime-factor sieve."""
    lpf = list(range(cap + 1))
    for i in range(2, cap + 1):
        if lpf[i] == i:
            for k in range(2 * i, cap + 1, i):
                lpf[k] = i
    return sum(
        (Fraction(1, d) for d in range(threshold + 1, cap + 1) if lpf[d] <= y),
        Fraction(0),
    )


# the characters str.splitlines breaks at; "\r\n" counts as one break
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _is_integer_token(token: str) -> bool:
    digits = token[1:] if token.startswith("-") else token
    return digits.isdecimal()


_TOO_LONG_MESSAGE = (
    "a number has more digits than Python's int/str limit (PYTHONINTMAXSTRDIGITS)"
)


def reference_parse_lines(text: str) -> list[tuple[int, int]] | tuple[str, int]:
    """(residue mod d, d) pairs of a line-format system, or the message and
    1-based line number of the error its first bad line raises.

    Lines are cut character by character and split into whitespace tokens; a
    class line is exactly the tokens R, "mod", D of decimal digits, D >= 1.
    """
    lines, current, i = [], [], 0
    while i < len(text):
        if text[i] in _LINE_BREAKS:
            lines.append("".join(current))
            current = []
            if text.startswith("\r\n", i):
                i += 1
        else:
            current.append(text[i])
        i += 1
    if current:
        lines.append("".join(current))
    pairs = []
    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if (
            len(tokens) != 3
            or tokens[1] != "mod"
            or not _is_integer_token(tokens[0])
            or not _is_integer_token(tokens[2])
        ):
            return (f"line {lineno}: expected 'R mod D', got {line.strip()!r}", lineno)
        try:
            r, d = int(tokens[0]), int(tokens[2])
        except ValueError:
            return (f"line {lineno}: {_TOO_LONG_MESSAGE}", lineno)
        if d < 1:
            return (f"line {lineno}: invalid modulus {d}", lineno)
        pairs.append((r % d, d))
    return pairs


def mpmath_jth_modulus_bound(j: int, c, dps: int):
    """exp(c j^2 / log(j+1)) in binary floating point with mpmath at dps digits.

    mpmath is used only here, never by the package, so this evaluation
    shares no arithmetic with the decimal one under test.
    """
    with mpmath.workdps(dps):
        return mpmath.exp(_mpmath_constant(c) * j * j / mpmath.log(j + 1))


def mpmath_multiplicity_modulus_bound(s: int, c, dps: int):
    """exp(c log^2(s+1) / log log(s+2)) with mpmath at dps digits."""
    with mpmath.workdps(dps):
        num = _mpmath_constant(c) * mpmath.log(s + 1) ** 2
        return mpmath.exp(num / mpmath.log(mpmath.log(s + 2)))


def _mpmath_constant(c):
    if isinstance(c, Fraction):
        return mpmath.mpf(c.numerator) / c.denominator
    return mpmath.mpf(c)


def agree_to_digits(a, b, digits: int) -> bool:
    """True when a and b agree to the given number of significant digits."""
    x = Fraction(str(a))
    y = Fraction(str(b))
    if x == y:
        return True
    return abs(x - y) < abs(y) * Fraction(1, 10**digits) * 5


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def class_pairs(draw, frame: int, min_modulus: int = 1):
    pool = [d for d in divisors_of(frame) if d >= min_modulus]
    d = draw(st.sampled_from(pool))
    r = draw(st.integers(min_value=-2 * frame, max_value=2 * frame))
    return (r, d)


@st.composite
def system_pairs(draw, max_classes: int = 6, min_classes: int = 0, min_modulus: int = 1):
    frame = draw(st.sampled_from(FRAMES))
    n = draw(st.integers(min_value=min_classes, max_value=max_classes))
    return [draw(class_pairs(frame, min_modulus)) for _ in range(n)]


_PADDING = st.sampled_from(["", " ", "\t", " \t ", "\xa0"])
# malformed lines, and lines the line format takes only outside plain
# ASCII text: Unicode digits and spaces, a number of 4301 digits (past the
# default int/str digit limit), an invalid modulus
_ODD_LINES = (
    "x mod 3", "1 mod", "1 mod 2 3", "1 MOD 2", "1mod 2", "--1 mod 2", "1 mod +2",
    "+1 mod 2", "mod", "1 mod 0", "2 mod -3", "0 mod -0", "1 # mod 2", "1 mod 2 # note",
    "1\x1fmod 2", "\u0661\u0662 mod \u0667", "2\xa0mod 3", "4 mod\u20035",
    "0 mod 1" + "0" * 4300, "1" + "0" * 4300 + " mod 7",
)


@st.composite
def system_line(draw, plain: bool = False):
    """One line of line-format system text: a class, blank, comment or odd line.

    A plain line is a class or blank in ASCII digits, spaces and tabs, and
    its modulus may be 0.
    """
    if plain:
        pad, space = st.sampled_from(["", " ", "\t"]), st.sampled_from([" ", "\t", " \t "])
        if draw(st.integers(0, 3)) == 0:
            return draw(pad)
        r, d = draw(st.integers(-(10**6), 10**6)), draw(st.integers(0, 40))
        return f"{draw(pad)}{r}{draw(space)}mod{draw(space)}{d}{draw(pad)}"
    kind = draw(st.sampled_from(("class", "class", "class", "blank", "comment", "odd")))
    if kind == "class":
        r = draw(st.integers(min_value=-50, max_value=50))
        d = draw(st.integers(min_value=1, max_value=40))
        space = st.sampled_from([" ", "\t", "  ", "\xa0 "])
        body = f"{r}{draw(space)}mod{draw(space)}{d}"
    elif kind == "blank":
        body = ""
    elif kind == "comment":
        body = "#" + draw(st.text(alphabet="ab mod12#\t", max_size=8))
    else:
        body = draw(st.sampled_from(_ODD_LINES))
    return draw(_PADDING) + body + draw(_PADDING)


@st.composite
def system_text(draw, max_lines: int = 8):
    """Line-format system text.

    Half the texts are plain: system_line(plain=True) joined by "\n".  The
    rest join any lines with any of the line breaks str.splitlines knows.
    """
    plain = draw(st.booleans())
    lines = draw(st.lists(system_line(plain), max_size=max_lines))
    if plain:
        breaks = st.just("\n")
    else:
        breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    text = "".join(line + draw(breaks) for line in lines)
    return text if draw(st.booleans()) else text.rstrip(_LINE_BREAKS)


# digit sets of decimal numbers: ASCII, Arabic-Indic, Devanagari, fullwidth
_DIGIT_SETS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
               "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
               "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


@st.composite
def structured_line(draw, plain: bool, fault: bool):
    """One line built from tokens: a class "R mod D", a blank or, outside
    plain text, a comment; a faulty line is a class with one fault.

    Numbers take leading zeros and a digit set, and a residue may be 0 and
    take the sign "-", as in "-0"; tokens are joined by runs of spaces and
    tabs, and outside plain text also by other Unicode spaces.  A plain line
    keeps to ASCII digits, "-", spaces and tabs.  The faults: a token
    missing or one too many, two classes on the line, a sign other than one
    "-", a modulus 0 or negative, a carriage return before a token, which
    ends the line there, and a class broken across lines by a "\n" before
    "mod" or before the modulus, which keeps plain text plain.
    """
    digits = draw(st.sampled_from(_DIGIT_SETS[:1] if plain else _DIGIT_SETS))
    spaces = (" ", "\t") if plain else (" ", "\t", "\xa0", "\u3000", "\x1f")

    def number(least: int = 1) -> str:
        value = str(draw(st.integers(least, 999)))
        # leading zeros on one number in four, so that many plain texts have none
        zeros = draw(st.sampled_from((0,) * 6 + (1, 2)))
        return digits[0] * zeros + "".join(digits[int(c)] for c in value)

    def a_class() -> list[str]:
        return [draw(st.sampled_from(("", "-"))) + number(0), "mod", number()]

    def gap(least: int = 1) -> str:
        return "".join(draw(st.lists(st.sampled_from(spaces), min_size=least, max_size=2)))

    if fault:
        kinds = ("missing", "extra", "two", "sign", "modulus", "break", "split")
    else:
        kinds = ("class", "class", "blank") + (() if plain else ("comment",))
    kind = draw(st.sampled_from(kinds))
    tokens = a_class()
    if kind == "missing":
        del tokens[draw(st.integers(0, 2))]
    elif kind == "extra":
        tokens.insert(draw(st.integers(0, 3)), draw(st.sampled_from((number(), "mod", "#", "x"))))
    elif kind == "two":
        tokens[2] += draw(st.sampled_from(("", ",")))
        tokens += a_class()
    elif kind == "sign":
        i = draw(st.sampled_from((0, 2)))
        tokens[i] = draw(st.sampled_from(("+", "--", "-+", "\u2212"))) + tokens[i]
    elif kind == "modulus":
        zero = digits[0] * draw(st.integers(1, 3))
        tokens[2] = draw(st.sampled_from((zero, "-" + zero, "-" + number())))
    elif kind == "break":
        i = draw(st.integers(1, 2))
        tokens[i] = "\r" + tokens[i]
    elif kind == "split":
        i = draw(st.integers(1, 2))
        tokens[i] = "\n" + tokens[i]
    elif kind == "comment":
        tokens = ["#" + draw(st.text(alphabet="ab mod12#\t", max_size=8))]
    elif kind == "blank":
        tokens = []
    return gap(0) + "".join(token + gap() for token in tokens)


@st.composite
def structured_system_text(draw, max_lines: int = 8):
    """Line-format text of structured_line lines, plain or not: plain text
    joined by "\n", the rest by "\n", "\r\n" and "\r".  In half the
    texts one line is faulty, in the rest none is."""
    plain, faulty = draw(st.booleans()), draw(st.booleans())
    count = draw(st.integers(1 if faulty else 0, max_lines))
    bad = draw(st.integers(0, count - 1)) if faulty else -1
    lines = [draw(structured_line(plain, i == bad)) for i in range(count)]
    breaks = st.just("\n") if plain else st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(breaks) for line in lines)
    return text if draw(st.booleans()) else text.rstrip(_LINE_BREAKS)


_DELTA_POOL = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 8),
    Fraction(2, 5),
)


@st.composite
def pipeline_cases(draw, max_classes: int = 5):
    """(pairs, deltas) with all moduli >= 2 and one delta per prime of Q."""
    pairs = draw(system_pairs(max_classes=max_classes, min_classes=1, min_modulus=2))
    q = brute_lcm(d for _, d in pairs)
    depth = len(brute_factor(q))
    deltas = [draw(st.sampled_from(_DELTA_POOL)) for _ in range(depth)]
    return pairs, deltas


# Python's int/str conversion digit limit; 0 where the interpreter has none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="the interpreter has no int/str digit limit"
)


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail the enclosed block with TimeoutError if it runs past seconds.

    Turns a regression into a hang-free failure; the alarm interrupts
    Python bytecode, such as a trial-division loop.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def subcommand_help(parser: argparse.ArgumentParser) -> dict[str, str]:
    """Each subcommand of parser, in order, with its help line."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {choice.dest: choice.help for choice in sub._choices_actions}
