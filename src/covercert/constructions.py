"""Explicit covering constructions.

Two builders live here.  The first produces, for each j >= 5, a minimal
covering system whose j distinct moduli are powers of two up to 2^(j-3)
together with three moduli of the form 3 * 2^k.  The second inflates any
minimal covering system into a covering multiset whose repeated-modulus
count is exactly a chosen power of two, by replacing a tail of the system
with blocks of shifted copies.
"""

from __future__ import annotations

from itertools import repeat

from .core import DEFAULT_LIMITS, CongruenceSystem, DomainError, Limits, _shown, is_minimal


def construct_minimal_family(j: int) -> CongruenceSystem:
    """Build a minimal covering system with exactly j distinct moduli.

    The binary ladder 2^(i-1) mod 2^i for i = 1..j-3 covers everything except
    the class 0 mod 2^(j-3).  That leftover class is split by residue mod 3
    into three pieces, and piece k is the class of k mod 3 and 0 mod 2^m,
    m = j-5+k, a single class modulo 3 * 2^m by the Chinese Remainder
    Theorem: 2^m t with t = k * 2^-m mod 3, and 2^-m = 2^m mod 3.  All j
    moduli are distinct, so the multiset multiplicity is 1.
    """
    if j < 5:
        raise DomainError(f"the minimal covering family needs j >= 5, got {_shown(j)}")
    residues = [2 ** (i - 1) for i in range(1, j - 2)]
    moduli = [2**i for i in range(1, j - 2)]
    for k in range(3):
        m = j - 5 + k
        residues.append(2**m * (k * pow(2, m, 3) % 3))
        moduli.append(3 * 2**m)
    return CongruenceSystem(residues, moduli)


def shift_expand(
    sys: CongruenceSystem, ell: int, *, limits: Limits = DEFAULT_LIMITS
) -> CongruenceSystem:
    """Expand a minimal covering system into a high-multiplicity covering.

    The source classes are taken sorted by (modulus, residue).  With n
    classes and 1 <= ell <= n, the first ell - 1 sorted classes are dropped
    and every remaining class r mod d is replaced by the block of 2^(ell-1)
    shifted copies r - h mod d for h = 0..2^(ell-1)-1.  Because the source is
    a minimal covering, each dropped class is hit by the shifts of the kept
    ones, so the result covers Z; its multiset multiplicity is 2^(ell-1).

    Output classes are ordered by kept-class position, then by shift.  Blocks
    from distinct source classes may overlap as sets; duplicates are kept, and
    collapsing them is left to an explicit deduplication.

    When the source's residue space is within limits, the minimality
    precondition is checked and its failure raises DomainError; for larger
    systems the precondition is trusted as asserted by the caller.
    """
    n = len(sys)
    if not 1 <= ell <= n:
        raise DomainError(f"shift level must satisfy 1 <= ell <= {n}, got {_shown(ell)}")
    if sys.lcm_modulus <= limits.residue_space:
        minimal, _ = is_minimal(sys, limits=limits)
        if not minimal:
            raise DomainError("shift expansion needs a minimal covering system")
    source = sys.sorted_by_modulus()
    width = 2 ** (ell - 1)
    residues: list[int] = []
    moduli: list[int] = []
    for r, d in zip(source.residues[ell - 1 :], source.moduli[ell - 1 :]):
        residues.extend(range(r, r - width, -1))
        moduli.extend(repeat(d, width))
    return CongruenceSystem(residues, moduli)
