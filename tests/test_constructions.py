"""The minimal covering family and the shift expansion."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covercert import (
    CongruenceSystem,
    DomainError,
    Limits,
    construct_minimal_family,
    covers_oracle,
    deduplicated,
    is_minimal,
    multiplicity,
    shift_expand,
)

from helpers import brute_covers, brute_multiplicity

# frozen from an independent implementation of the construction
FAMILY_MODULI = {
    5: [2, 3, 4, 6, 12],
    6: [2, 4, 6, 8, 12, 24],
    7: [2, 4, 8, 12, 16, 24, 48],
    8: [2, 4, 8, 16, 24, 32, 48, 96],
    9: [2, 4, 8, 16, 32, 48, 64, 96, 192],
    10: [2, 4, 8, 16, 32, 64, 96, 128, 192, 384],
}


def pairs_of(system: CongruenceSystem):
    return [(c.residue, c.modulus) for c in system.classes]


class TestMinimalFamily:
    @pytest.mark.parametrize("bad", [0, 1, 4])
    def test_small_j_rejected(self, bad):
        with pytest.raises(DomainError):
            construct_minimal_family(bad)

    def test_five_classes_exact(self):
        system = construct_minimal_family(5)
        assert pairs_of(system) == [(1, 2), (2, 4), (0, 3), (4, 6), (8, 12)]

    def test_six_classes_exact(self):
        system = construct_minimal_family(6)
        assert pairs_of(system) == [(1, 2), (2, 4), (4, 8), (0, 6), (4, 12), (8, 24)]

    @pytest.mark.parametrize("j", sorted(FAMILY_MODULI))
    def test_frozen_moduli(self, j):
        assert sorted(construct_minimal_family(j).moduli) == FAMILY_MODULI[j]

    @pytest.mark.parametrize("j", sorted(FAMILY_MODULI))
    def test_covers_and_minimal(self, j):
        system = construct_minimal_family(j)
        assert len(system.classes) == j
        assert multiplicity(system) == 1
        assert covers_oracle(system).covers
        assert is_minimal(system) == (True, [])

    @pytest.mark.parametrize("j", range(5, 16))
    def test_pieces_are_crt_intersections(self, j):
        # piece k is the one class mod 3 * 2^m, m = j-5+k, whose members are
        # k mod 3 and 0 mod 2^m, found by scanning a period
        pieces = pairs_of(construct_minimal_family(j))[-3:]
        for k, (r, d) in enumerate(pieces):
            m = j - 5 + k
            assert d == 3 * 2**m
            assert [x for x in range(d) if x % 3 == k and x % 2**m == 0] == [r]

    @pytest.mark.parametrize("j", [5, 6, 7])
    def test_covers_by_independent_check(self, j):
        covers, _, _ = brute_covers(pairs_of(construct_minimal_family(j)))
        assert covers


class TestShiftExpand:
    def setup_method(self):
        self.c5 = construct_minimal_family(5)
        self.c6 = construct_minimal_family(6)

    def test_level_one_is_sorted_source(self):
        out = shift_expand(self.c5, 1)
        assert pairs_of(out) == [(1, 2), (0, 3), (2, 4), (4, 6), (8, 12)]

    def test_level_two_exact(self):
        out = shift_expand(self.c5, 2)
        assert pairs_of(out) == [
            (0, 3), (2, 3),
            (2, 4), (1, 4),
            (4, 6), (3, 6),
            (8, 12), (7, 12),
        ]
        assert multiplicity(out) == 2
        assert covers_oracle(out).covers

    def test_level_three_multiset(self):
        out = shift_expand(self.c5, 3)
        assert len(out.classes) == 12
        assert sorted(set(c.modulus for c in out.classes)) == [4, 6, 12]
        assert multiplicity(out) == 4
        assert covers_oracle(out).covers
        # all surviving moduli are >= 2^(ell-1), so no shift collisions
        assert len(deduplicated(out).classes) == 12

    def test_top_level_collides(self):
        out = shift_expand(self.c5, 5)
        assert len(out.classes) == 16
        assert multiplicity(out) == 16
        assert covers_oracle(out).covers
        # 16 shifts of one class mod 12 wrap around: only 12 distinct classes
        collapsed = deduplicated(out)
        assert len(collapsed.classes) == 12
        assert multiplicity(collapsed) == 12

    @pytest.mark.parametrize("ell", range(1, 6))
    def test_all_levels_on_five_class_family(self, ell):
        out = shift_expand(self.c5, ell)
        assert len(out.classes) == (5 - ell + 1) * 2 ** (ell - 1)
        assert multiplicity(out) == 2 ** (ell - 1)
        covers, _, _ = brute_covers(pairs_of(out))
        assert covers

    @pytest.mark.parametrize("ell", range(1, 7))
    def test_all_levels_on_six_class_family(self, ell):
        out = shift_expand(self.c6, ell)
        assert len(out.classes) == (6 - ell + 1) * 2 ** (ell - 1)
        assert multiplicity(out) == 2 ** (ell - 1)
        assert covers_oracle(out).covers

    @pytest.mark.parametrize("ell", [0, -1, 6])
    def test_level_out_of_range(self, ell):
        with pytest.raises(DomainError):
            shift_expand(self.c5, ell)

    def test_non_minimal_source_rejected(self):
        redundant = CongruenceSystem.from_pairs([(0, 2), (1, 2), (0, 3)])
        with pytest.raises(DomainError):
            shift_expand(redundant, 2)

    def test_non_covering_source_rejected(self):
        with pytest.raises(DomainError):
            shift_expand(CongruenceSystem.from_pairs([(0, 2), (0, 3)]), 1)

    def test_oversized_source_is_trusted(self):
        # below the check threshold the minimality precondition is skipped
        out = shift_expand(self.c5, 1, limits=Limits(residue_space=1))
        assert pairs_of(out) == [(1, 2), (0, 3), (2, 4), (4, 6), (8, 12)]

    def test_block_ordering(self):
        out = shift_expand(self.c6, 3)
        source = self.c6.sorted_by_modulus().classes[2:]
        width = 4
        for i, kept in enumerate(source):
            block = out.classes[i * width : (i + 1) * width]
            assert [c.modulus for c in block] == [kept.modulus] * width
            assert [c.residue for c in block] == [
                (kept.residue - h) % kept.modulus for h in range(width)
            ]

    @given(st.integers(5, 8), st.data())
    def test_family_expansion_properties(self, j, data):
        family = construct_minimal_family(j)
        ell = data.draw(st.integers(1, j))
        out = shift_expand(family, ell)
        assert len(out.classes) == (j - ell + 1) * 2 ** (ell - 1)
        assert multiplicity(out) == 2 ** (ell - 1)
        assert brute_multiplicity(pairs_of(out)) == 2 ** (ell - 1)
        assert covers_oracle(out).covers
