"""Residue-class algebra, coverage oracles, minimality, parsing."""

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
    ResidueClass,
    ResourceLimitError,
    covers_interval,
    covers_oracle,
    deduplicated,
    density_uncovered,
    emit_system,
    emit_system_json,
    factorize,
    intersect,
    is_minimal,
    largest_prime_factor,
    multiplicity,
    parse_system,
    rational_str,
)
from covercert.core import DEFAULT_LIMITS

from helpers import (
    DIGIT_LIMIT,
    brute_covers,
    brute_covers_initial_segment,
    brute_factor,
    brute_largest_prime,
    brute_lcm,
    brute_multiplicity,
    needs_digit_limit,
    reference_parse_lines,
    system_pairs,
    system_text,
)

C5 = [(1, 2), (2, 4), (0, 3), (4, 6), (8, 12)]


def sys_of(pairs) -> CongruenceSystem:
    return CongruenceSystem.from_pairs(pairs)


class TestResidueClass:
    def test_reduction(self):
        assert ResidueClass(7, 3) == ResidueClass(1, 3)
        assert ResidueClass(7, 3).residue == 1

    def test_negative_residue(self):
        c = ResidueClass(-1, 4)
        assert (c.residue, c.modulus) == (3, 4)

    def test_modulus_one_absorbs(self):
        assert ResidueClass(5, 1).residue == 0

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_modulus(self, bad):
        with pytest.raises(InvalidModulusError):
            ResidueClass(1, bad)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_contains_after_reduction(self, a, d):
        c = ResidueClass(a, d)
        assert 0 <= c.residue < d
        assert c.contains(a)
        assert c.contains(a + 7 * d)


class TestFactorize:
    def test_twelve(self):
        assert factorize(12).pairs == ((2, 2), (3, 1))

    def test_one_is_empty(self):
        f = factorize(1)
        assert f.pairs == ()
        assert f.largest_prime == 1

    def test_prime(self):
        assert factorize(97).pairs == ((97, 1),)

    @pytest.mark.parametrize("bad", [0, -12])
    def test_nonpositive(self, bad):
        with pytest.raises(DomainError):
            factorize(bad)

    @given(st.integers(1, 10**6))
    def test_matches_independent_factorizer(self, n):
        f = factorize(n)
        assert list(f.pairs) == brute_factor(n)
        assert f.value == n

    @given(st.integers(1, 10**5))
    def test_largest_prime_factor(self, n):
        assert largest_prime_factor(n) == brute_largest_prime(n)

    def test_divisors(self):
        assert factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
        assert factorize(1).divisors() == [1]
        assert factorize(12).num_divisors == 6


class TestIntersect:
    def test_crt_merge(self):
        assert intersect(ResidueClass(1, 2), ResidueClass(2, 3)) == ResidueClass(5, 6)

    def test_incompatible_parity(self):
        assert intersect(ResidueClass(1, 2), ResidueClass(0, 4)) is None

    def test_modulus_one_identity(self):
        assert intersect(ResidueClass(0, 1), ResidueClass(3, 7)) == ResidueClass(3, 7)

    def test_exhaustive_small_moduli(self):
        for d1 in range(1, 13):
            for d2 in range(1, 13):
                period = brute_lcm([d1, d2])
                for r1 in range(d1):
                    for r2 in range(d2):
                        both = {
                            x for x in range(period)
                            if x % d1 == r1 and x % d2 == r2
                        }
                        got = intersect(ResidueClass(r1, d1), ResidueClass(r2, d2))
                        if got is None:
                            assert both == set()
                        else:
                            assert got.modulus == period
                            assert both == {got.residue}

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 59), st.integers(0, 59))
    def test_membership_agreement(self, d1, d2, r1, r2):
        c1 = ResidueClass(r1, d1)
        c2 = ResidueClass(r2, d2)
        got = intersect(c1, c2)
        period = brute_lcm([d1, d2])
        members = {x for x in range(period) if c1.contains(x) and c2.contains(x)}
        if got is None:
            assert members == set()
        else:
            assert members == {x for x in range(period) if got.contains(x)}


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
        with pytest.raises(ResourceLimitError) as err:
            covers_oracle(sys_of([(0, 7), (0, 11)]), limits=Limits(residue_space=50))
        assert err.value.required == 77

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
        for i, c in enumerate(system.classes):
            others = [p for k, p in enumerate(pairs) if k != i]
            alone = [
                x for x in range(q)
                if c.contains(x) and not any((x - r) % m == 0 for r, m in others)
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
        system = CongruenceSystem((ResidueClass(1, 2), ResidueClass(0, 10**DIGIT_LIMIT)))
        with pytest.raises(ResourceLimitError):
            emit_system(system)

    @given(system_text())
    @settings(max_examples=200)
    def test_matches_reference_line_parser(self, text):
        expected = reference_parse_lines(text)
        if isinstance(expected, int):
            with pytest.raises(ParseError) as err:
                parse_system(text)
            assert err.value.line == expected
        else:
            got = parse_system(text)
            assert [(c.residue, c.modulus) for c in got.classes] == expected

    @given(system_pairs())
    def test_text_roundtrip(self, pairs):
        system = sys_of(pairs)
        assert parse_system(emit_system(system)) == system

    @given(system_pairs())
    def test_emit_idempotent_after_normalization(self, pairs):
        text = emit_system(sys_of(pairs))
        assert emit_system(parse_system(text)) == text


class TestLimitsAndMisc:
    def test_default_limits(self):
        assert DEFAULT_LIMITS == Limits(
            residue_space=10**7, interval=2**24, divisors=10**6
        )

    @pytest.mark.parametrize("field", ["residue_space", "interval", "divisors"])
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
