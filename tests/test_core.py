"""Congruence systems, factorization, coverage oracles, minimality, parsing."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercert import (
    CongruenceSystem,
    DomainError,
    InvalidModulusError,
    Limits,
    ParseError,
    ResourceLimitError,
    covers_interval,
    covers_oracle,
    deduplicated,
    density_uncovered,
    emit_system,
    emit_system_json,
    is_minimal,
    multiplicity,
    parse_system,
    rational_str,
)
from covercert.constructions import construct_minimal_family, shift_expand
from covercert.core import _TOO_LONG, DEFAULT_LIMITS, ResidueClass, factorize

from helpers import (
    DIGIT_LIMIT,
    brute_covers,
    brute_covers_initial_segment,
    brute_factor,
    brute_lcm,
    brute_multiplicity,
    needs_digit_limit,
    reference_parse_lines,
    system_pairs,
    system_text,
)

C5 = [(1, 2), (2, 4), (0, 3), (4, 6), (8, 12)]

# per guard in this module: a call over its limit, and the error's message,
# required and limit
GUARD_CASES = [
    (
        lambda: covers_oracle(
            CongruenceSystem.from_pairs([(0, 7), (0, 11)]), limits=Limits(residue_space=50)
        ),
        "coverage oracle needs a residue space of size 77, over the limit 50", 77, 50,
    ),
    (
        lambda: is_minimal(
            CongruenceSystem.from_pairs([(0, 7), (0, 11)]), limits=Limits(residue_space=50)
        ),
        "minimality check needs a residue space of size 77, over the limit 50", 77, 50,
    ),
    (
        lambda: covers_interval(
            CongruenceSystem.from_pairs([(0, 2)] * 21), limits=Limits(interval=2**20)
        ),
        "interval check needs 2097152 integers, over the limit 1048576", 2**21, 2**20,
    ),
]


def sys_of(pairs) -> CongruenceSystem:
    return CongruenceSystem.from_pairs(pairs)


class TestResidueClass:
    """A single class r mod d, as a one-class system."""

    def test_reduction(self):
        assert CongruenceSystem([7], [3]) == CongruenceSystem([1], [3])
        assert CongruenceSystem([7], [3]).residues == (1,)

    def test_negative_residue(self):
        system = CongruenceSystem([-1], [4])
        assert (system.residues, system.moduli) == ((3,), (4,))

    def test_modulus_one_absorbs(self):
        assert CongruenceSystem([5], [1]).residues == (0,)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_modulus(self, bad):
        with pytest.raises(InvalidModulusError):
            CongruenceSystem([1], [bad])

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_contains_after_reduction(self, a, d):
        (r,) = CongruenceSystem([a], [d]).residues
        assert 0 <= r < d
        assert (a - r) % d == 0
        assert (a + 7 * d - r) % d == 0


class TestFactorize:
    def test_twelve(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_one_is_empty(self):
        assert factorize(1) == ()

    def test_prime(self):
        assert factorize(97) == ((97, 1),)

    @pytest.mark.parametrize("bad", [0, -12])
    def test_nonpositive(self, bad):
        with pytest.raises(DomainError):
            factorize(bad)

    @given(st.integers(1, 10**6))
    def test_matches_independent_factorizer(self, n):
        assert list(factorize(n)) == brute_factor(n)


class TestCoversOracle:
    def test_universal_class(self):
        assert covers_oracle(sys_of([(0, 1)])).covers

    def test_two_class_gap(self):
        report = covers_oracle(sys_of([(0, 2), (0, 3)]))
        assert not report.covers
        assert report.witness == 1
        assert report.uncovered_count == 2

    def test_five_distinct_moduli_covering(self):
        assert covers_oracle(sys_of(C5)).covers

    def test_empty_system_convention(self):
        report = covers_oracle(CongruenceSystem(()))
        assert not report.covers
        assert report.witness == 0
        assert report.uncovered_count == 1

    def test_resource_guard(self):
        for call, message, required, limit in GUARD_CASES:
            with pytest.raises(ResourceLimitError) as err:
                call()
            assert (str(err.value), err.value.required, err.value.limit) == (
                message, required, limit
            )

    @given(system_pairs())
    def test_matches_brute_force(self, pairs):
        report = covers_oracle(sys_of(pairs))
        covers, witness, count = brute_covers(pairs)
        assert report.covers == covers
        assert report.witness == witness
        assert report.uncovered_count == count


class TestCoversInterval:
    def test_parity_split(self):
        assert covers_interval(sys_of([(0, 2), (1, 2)]))

    def test_single_class(self):
        assert not covers_interval(sys_of([(0, 2)]))

    def test_two_class_gap(self):
        assert not covers_interval(sys_of([(0, 2), (0, 3)]))

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            covers_interval(sys_of([(0, 2)] * 30), limits=Limits(interval=2**20))

    @given(system_pairs(max_classes=12))
    def test_agrees_with_oracle(self, pairs):
        system = sys_of(pairs)
        assert covers_interval(system) == covers_oracle(system).covers

    @given(system_pairs(max_classes=8))
    def test_matches_direct_segment_check(self, pairs):
        assert covers_interval(sys_of(pairs)) == brute_covers_initial_segment(
            pairs, 2 ** len(pairs)
        )


class TestMultiplicity:
    def test_shared_modulus(self):
        assert multiplicity(sys_of([(0, 2), (1, 2), (0, 3)])) == 2

    def test_distinct_moduli(self):
        assert multiplicity(sys_of(C5)) == 1

    def test_duplicates_counted(self):
        assert multiplicity(sys_of([(0, 2), (0, 2)])) == 2

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            multiplicity(CongruenceSystem(()))

    @given(system_pairs(min_classes=1))
    def test_matches_brute_count(self, pairs):
        assert multiplicity(sys_of(pairs)) == brute_multiplicity(pairs)

    @given(system_pairs(min_classes=1))
    def test_one_iff_no_repeats(self, pairs):
        moduli = [d for _, d in pairs]
        assert (multiplicity(sys_of(pairs)) == 1) == (len(set(moduli)) == len(moduli))


class TestDeduplicated:
    def test_removes_repeats_keeps_order(self):
        # 5 mod 3 normalizes to 2 mod 3, so it collides with the explicit copy
        system = sys_of([(0, 2), (5, 3), (0, 2), (2, 3)])
        kept = deduplicated(system)
        assert [(c.residue, c.modulus) for c in kept.classes] == [(0, 2), (2, 3)]

    @given(system_pairs())
    def test_idempotent_and_set_preserving(self, pairs):
        system = sys_of(pairs)
        once = deduplicated(system)
        assert deduplicated(once) == once
        assert set(once.classes) == set(system.classes)


class TestIsMinimal:
    def test_five_class_covering_is_minimal(self):
        assert is_minimal(sys_of(C5)) == (True, [])

    def test_universal_class_makes_others_redundant(self):
        assert is_minimal(sys_of([(0, 1), (0, 2)])) == (False, [1])

    def test_parity_pair_with_extra(self):
        assert is_minimal(sys_of([(0, 2), (1, 2), (0, 3)])) == (False, [2])

    def test_hit_counts_saturate(self):
        # a residue hit three times is as redundant as one hit twice
        assert is_minimal(sys_of([(0, 2), (0, 2), (0, 2), (1, 2)])) == (False, [0, 1, 2])

    def test_non_covering_rejected(self):
        with pytest.raises(DomainError):
            is_minimal(sys_of([(0, 2), (0, 3)]))
        with pytest.raises(DomainError):
            is_minimal(CongruenceSystem(()))

    @given(st.integers(2, 6), system_pairs(max_classes=3))
    def test_minimal_implies_unique_coverage(self, d, extra_pairs):
        # a complete residue system mod d plus noise always covers
        pairs = [(r, d) for r in range(d)] + extra_pairs
        system = sys_of(pairs)
        minimal, redundant = is_minimal(system)
        q = system.lcm_modulus
        for i, (r0, d0) in enumerate(pairs):
            others = [p for k, p in enumerate(pairs) if k != i]
            alone = [
                x for x in range(q)
                if (x - r0) % d0 == 0 and not any((x - r) % m == 0 for r, m in others)
            ]
            if minimal or i not in redundant:
                assert alone, f"class {i} should cover something uniquely"
            else:
                assert not alone


class TestDensityUncovered:
    def test_half(self):
        assert density_uncovered(sys_of([(0, 2)])) == Fraction(1, 2)

    def test_third(self):
        assert density_uncovered(sys_of([(0, 2), (0, 3)])) == Fraction(1, 3)

    def test_covering_is_zero(self):
        assert density_uncovered(sys_of(C5)) == 0

    def test_empty_is_one(self):
        assert density_uncovered(CongruenceSystem(())) == 1

    @given(system_pairs())
    def test_matches_brute_ratio(self, pairs):
        system = sys_of(pairs)
        _, _, count = brute_covers(pairs)
        value = density_uncovered(system)
        assert value == Fraction(count, system.lcm_modulus)
        assert (value == 0) == covers_oracle(system).covers


class TestParseEmit:
    def test_two_lines(self):
        system = parse_system("1 mod 2\n2 mod 4")
        assert [(c.residue, c.modulus) for c in system.classes] == [(1, 2), (2, 4)]

    def test_comments_and_blanks(self):
        system = parse_system("# comment\n\n0 mod 3\n")
        assert [(c.residue, c.modulus) for c in system.classes] == [(0, 3)]

    def test_modulus_zero_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_system("5 mod 0")
        assert err.value.line == 1

    def test_malformed_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_system("0 mod 2\nnot a class")
        assert err.value.line == 2

    def test_unreduced_and_negative(self):
        system = parse_system("-1 mod 4\n9 mod 4")
        assert [(c.residue, c.modulus) for c in system.classes] == [(3, 4), (1, 4)]

    def test_json_roundtrip(self):
        system = sys_of(C5)
        again = parse_system(emit_system_json(system))
        assert again == system

    def test_json_errors(self):
        with pytest.raises(ParseError):
            parse_system("{not json")
        with pytest.raises(ParseError):
            parse_system('{"classes": [{"r": 1}]}')
        with pytest.raises(ParseError):
            parse_system('{"classes": [{"r": 1, "d": 0}]}')

    @pytest.mark.parametrize("entry", ['{"r": 0, "d": true}', '{"r": false, "d": 2}'])
    def test_json_booleans_are_not_integers(self, entry):
        text = f'{{"classes": [{{"r": 1, "d": 2}}, {entry}]}}'
        with pytest.raises(ParseError, match="^class 1: residue and modulus must be integers$"):
            parse_system(text)

    @needs_digit_limit
    def test_number_past_digit_limit_is_parse_error(self):
        digits = "1" + "0" * DIGIT_LIMIT
        with pytest.raises(ParseError) as err:
            parse_system(f"0 mod 2\n0 mod {digits}")
        assert err.value.line == 2
        with pytest.raises(ParseError):
            parse_system(f'{{"classes": [{{"r": 0, "d": {digits}}}]}}')

    @needs_digit_limit
    def test_emit_past_digit_limit_is_resource_error(self):
        system = CongruenceSystem.from_pairs([(1, 2), (0, 10**DIGIT_LIMIT)])
        with pytest.raises(ResourceLimitError):
            emit_system(system)

    @given(system_text())
    @settings(max_examples=300)
    def test_matches_reference_line_parser(self, text):
        # the same columns, or the same error message and line
        expected = reference_parse_lines(text)
        if isinstance(expected, tuple):
            with pytest.raises(ParseError) as err:
                parse_system(text)
            assert (str(err.value), err.value.line) == expected
        else:
            got = parse_system(text)
            assert list(zip(got.residues, got.moduli)) == expected
            assert [(c.residue, c.modulus) for c in got.classes] == expected

    def test_fast_path_falls_back_with_the_line_number(self):
        cases = {
            "1 mod 2\n3 mod 0\n": "line 2: invalid modulus 0",
            "1 mod 2\n\n5 mod " + "9" * 4301: f"line 3: {_TOO_LONG}",
            "1 mod 2\r\n3 mod -4": "line 2: invalid modulus -4",
            "1 mod 2\x0b0 mod 3\x1cx mod 5": "line 3: expected 'R mod D', got 'x mod 5'",
        }
        for text, message in cases.items():
            with pytest.raises(ParseError) as err:
                parse_system(text)
            assert str(err.value) == message
        assert parse_system("\u0661 mod \u0662\n-1\xa0mod 4") == sys_of([(1, 2), (3, 4)])

    @given(system_pairs())
    def test_text_roundtrip(self, pairs):
        system = sys_of(pairs)
        assert parse_system(emit_system(system)) == system

    @given(system_pairs())
    def test_emit_idempotent_after_normalization(self, pairs):
        text = emit_system(sys_of(pairs))
        assert emit_system(parse_system(text)) == text


class TestColumns:
    """The two int columns agree with the definitions over (residue, modulus) tuples."""

    @staticmethod
    def objects(pairs) -> tuple:
        return tuple(ResidueClass(r % d, d) for r, d in pairs)

    @staticmethod
    def from_objects(classes) -> CongruenceSystem:
        return CongruenceSystem.from_pairs((c.residue, c.modulus) for c in classes)

    @given(system_pairs())
    def test_classes_and_columns(self, pairs):
        system = sys_of(pairs)
        assert system.classes == self.objects(pairs)
        assert system.residues == tuple(r % d for r, d in pairs)
        assert system.moduli == tuple(d for _, d in pairs)
        assert len(system) == len(pairs)
        assert self.from_objects(self.objects(pairs)) == system

    @given(system_pairs(max_classes=3), system_pairs(max_classes=3))
    def test_equality_and_hash(self, a, b):
        left, right = sys_of(a), sys_of(b)
        assert (left == right) == (self.objects(a) == self.objects(b))
        if left == right:
            assert hash(left) == hash(right)
        same = self.from_objects(self.objects(a))
        assert same == left and hash(same) == hash(left) and len({same, left}) == 1

    @given(system_pairs(), st.integers(-8, 8))
    def test_without(self, pairs, index):
        classes = self.objects(pairs)
        assert sys_of(pairs).without(index).classes == classes[:index] + classes[index + 1 :]

    @given(system_pairs())
    def test_sorted_by_modulus_and_deduplicated(self, pairs):
        classes = self.objects(pairs)
        by_modulus = tuple(sorted(classes, key=lambda c: (c.modulus, c.residue)))
        assert sys_of(pairs).sorted_by_modulus().classes == by_modulus
        assert deduplicated(sys_of(pairs)).classes == tuple(dict.fromkeys(classes))

    @given(system_pairs(min_classes=1, min_modulus=2), st.integers(1, 4))
    def test_shift_expand(self, pairs, ell):
        ell = min(ell, len(pairs))
        # Q >= 2 is over a residue space of 1: the minimality check is skipped
        got = shift_expand(sys_of(pairs), ell, limits=Limits(residue_space=1))
        source = sorted(self.objects(pairs), key=lambda c: (c.modulus, c.residue))
        width = 2 ** (ell - 1)
        expected = tuple(
            ResidueClass((c.residue - h) % c.modulus, c.modulus)
            for c in source[ell - 1 :]
            for h in range(width)
        )
        assert got.classes == expected

    def test_building_systems_again_keeps_no_memory(self):
        # a tuple built from an iterator of unknown length is resized and,
        # freed, joins CPython's free list of its final length, which then
        # grows with every system built
        text = "".join(f"{r} mod 17\n" for r in range(16))
        parse_system(text)
        tracemalloc.start()
        try:
            for _ in range(500):
                system = parse_system(text)
                self.from_objects(system.classes)
            del system
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 50_000

    def test_immutable(self):
        system = sys_of(C5)
        with pytest.raises(AttributeError):
            system.moduli = ()

    def test_from_pairs_rejects_a_modulus_below_one(self):
        with pytest.raises(InvalidModulusError, match="got -2"):
            CongruenceSystem.from_pairs([(1, 2), (0, -2), (0, 0)])

    def test_constructor_rejects_a_modulus_below_one(self):
        with pytest.raises(InvalidModulusError, match="^modulus must be >= 1, got -2$"):
            CongruenceSystem([1, 0], [2, -2])

    @pytest.mark.parametrize("residues, moduli", [([1], []), ([], [2]), ((0, 1), (2,))])
    def test_constructor_rejects_a_length_mismatch(self, residues, moduli):
        with pytest.raises(DomainError):
            CongruenceSystem(residues, moduli)

    def test_constructor_reduces_residues(self):
        system = CongruenceSystem([-1, 9, 5, -7], [4, 4, 1, 3])
        assert system.residues == (3, 1, 0, 2) and system.moduli == (4, 4, 1, 3)
        assert system == CongruenceSystem((3, 1, 0, 2), (4, 4, 1, 3))
        assert CongruenceSystem() == CongruenceSystem((), ()) == CongruenceSystem([], [])

    def test_repr_shows_the_columns(self):
        system = CongruenceSystem([-1, 2], [4, 3])
        assert repr(system) == "CongruenceSystem(residues=(3, 2), moduli=(4, 3))"

    def test_instances_hold_only_the_columns(self):
        systems = [
            construct_minimal_family(6),
            parse_system("1 mod 2\n0 mod 3"),
            parse_system('{"classes": [{"r": 1, "d": 2}]}'),
            construct_minimal_family(6).without(0),
            shift_expand(construct_minimal_family(6), 2),
        ]
        for system in systems:
            assert set(vars(system)) == {"residues", "moduli"}
            system.classes  # a cached property is kept once read
            assert set(vars(system)) == {"residues", "moduli", "classes"}


class TestLimitsAndMisc:
    def test_default_limits(self):
        assert DEFAULT_LIMITS == Limits(residue_space=10**7, interval=2**24)

    @pytest.mark.parametrize("field", ["residue_space", "interval"])
    def test_nonpositive_limit_rejected(self, field):
        for bad in (0, -1):
            with pytest.raises(DomainError):
                Limits(**{field: bad})
        assert getattr(Limits(**{field: 1}), field) == 1

    def test_rational_str(self):
        assert rational_str(Fraction(5, 6)) == "5/6"
        assert rational_str(Fraction(0)) == "0/1"

    def test_lcm_modulus_of_empty(self):
        assert CongruenceSystem(()).lcm_modulus == 1

    @given(system_pairs())
    def test_lcm_modulus(self, pairs):
        assert sys_of(pairs).lcm_modulus == brute_lcm(d for _, d in pairs)

    def test_sorted_by_modulus(self):
        system = sys_of(C5).sorted_by_modulus()
        assert [(c.residue, c.modulus) for c in system.classes] == [
            (1, 2), (0, 3), (2, 4), (4, 6), (8, 12)
        ]
