"""The divisor-sum moment bound, smooth sums and the high-precision growth bounds."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercert import (
    CongruenceSystem,
    DomainError,
    jth_modulus_bound,
    multiplicity_modulus_bound,
    prime_ladder,
    run_levels,
    smooth_reciprocal_sum,
)

from helpers import (
    agree_to_digits,
    brute_factor,
    first_moment_bound,
    mpmath_jth_modulus_bound,
    mpmath_multiplicity_modulus_bound,
    pipeline_cases,
    sieve_smooth_reciprocal,
)

F = Fraction

# primes and prime powers up to 240, where a smooth sum's terms change
PRIME_POWERS = [q for q in range(2, 241) if len(brute_factor(q)) == 1]


def sys_of(pairs) -> CongruenceSystem:
    return CongruenceSystem.from_pairs(pairs)


def bound_of(pairs, q: int, j: int, min_modulus: int) -> Fraction:
    """The reference first-moment bound at level j of the prime ladder of q."""
    fact = brute_factor(q)
    return first_moment_bound(
        pairs, [p for p, _ in fact], [e for _, e in fact], j, min_modulus
    )


class TestFirstMomentBound:
    """The test suite's reference bound: exact values, and that it dominates the pipeline."""

    def test_two_three_first_level(self):
        assert bound_of([(0, 2), (0, 3)], 6, 1, 2) == F(1, 2)

    def test_two_three_second_level(self):
        # divisors 1 and 2 of Q_1, prime 3: 1/3 + 1/6
        assert bound_of([(0, 2), (0, 3)], 6, 2, 2) == F(1, 2)

    def test_min_modulus_prunes_small_terms(self):
        pairs = [(0, 2), (0, 3)]
        assert bound_of(pairs, 6, 2, 4) == F(1, 6)
        assert bound_of(pairs, 6, 2, 7) == F(0)

    def test_prime_power_level(self):
        # Q = 4: r runs over 1, 2 at the single level
        assert bound_of([(0, 4)], 4, 1, 1) == F(3, 4)

    def test_scales_with_multiplicity(self):
        base = [(0, 2), (0, 3)]
        doubled = [(0, 2), (1, 2), (0, 3), (1, 3)]
        for j in (1, 2):
            assert bound_of(doubled, 6, j, 2) == 2 * bound_of(base, 6, j, 2)

    @given(pipeline_cases())
    @settings(max_examples=60)
    def test_bounds_undistorted_first_moments(self, case):
        # with every delta zero the parent measure stays uniform at each
        # level, and the divisor-sum estimate dominates the true moment
        pairs, _ = case
        system = sys_of(pairs)
        ladder = prime_ladder(system.factorization)
        d1 = min(d for _, d in pairs)
        exponents = [e for _, e in system.factorization]
        zero = [0] * ladder.depth
        for record in run_levels(system, zero):
            bound = first_moment_bound(pairs, ladder.primes, exponents, record.level, d1)
            assert record.m1 <= bound


class TestSmoothReciprocalSum:
    def test_powers_of_two(self):
        assert smooth_reciprocal_sum(2, 1, 8) == F(7, 8)

    def test_three_smooth(self):
        assert smooth_reciprocal_sum(3, 1, 6) == F(5, 4)

    def test_shifted_window(self):
        # 3-smooth d in (2, 12]: 3, 4, 6, 8, 9, 12
        assert smooth_reciprocal_sum(3, 2, 12) == F(77, 72)

    def test_empty_range(self):
        assert smooth_reciprocal_sum(2, 8, 8) == F(0)

    def test_fractional_smoothness_bound(self):
        assert smooth_reciprocal_sum(F(5, 2), 1, 8) == F(7, 8)
        assert smooth_reciprocal_sum("7/2", 1, 10) == smooth_reciprocal_sum(3, 1, 10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            smooth_reciprocal_sum(1, 1, 8)
        with pytest.raises(DomainError):
            smooth_reciprocal_sum(2, 0, 8)
        with pytest.raises(DomainError):
            smooth_reciprocal_sum(2, 9, 8)

    @given(
        # the second range puts y at or above every cap drawn
        y=st.integers(min_value=2, max_value=40) | st.integers(min_value=240, max_value=300),
        threshold=st.integers(min_value=1, max_value=120) | st.sampled_from(PRIME_POWERS),
        span=st.integers(min_value=0, max_value=120),
        cap_power=st.none() | st.sampled_from(PRIME_POWERS),
    )
    @settings(max_examples=120)
    def test_matches_sieve_oracle(self, y, threshold, span, cap_power):
        # a drawn prime power replaces threshold + span as the cap when it is in range
        cap = cap_power if cap_power is not None and cap_power >= threshold else threshold + span
        assert smooth_reciprocal_sum(y, threshold, cap) == sieve_smooth_reciprocal(
            y, threshold, cap
        )

    @given(
        y=st.integers(min_value=2, max_value=30),
        cap=st.integers(min_value=2, max_value=100),
    )
    def test_monotone_in_smoothness_bound(self, y, cap):
        assert smooth_reciprocal_sum(y, 1, cap) <= smooth_reciprocal_sum(y + 1, 1, cap)


class TestGrowthBounds:
    # the oracle is an mpmath evaluation: binary arithmetic the package never uses
    @pytest.mark.parametrize(
        "j,c",
        [(1, 1), (2, 1), (5, 1), (12, 1), (2, "1/2"), (7, F(3, 4)), (30, 2)],
    )
    def test_jth_bound_matches_decimal_oracle(self, j, c):
        got = jth_modulus_bound(j, c, dps=45)
        want = mpmath_jth_modulus_bound(j, c, dps=60)
        assert agree_to_digits(got, mpmath.nstr(want, 50), 30)

    @pytest.mark.parametrize(
        "s,c",
        [(1, 1), (2, 1), (3, 1), (10, 1), (2, "1/2"), (6, F(5, 3)), (40, 1)],
    )
    def test_multiplicity_bound_matches_decimal_oracle(self, s, c):
        got = multiplicity_modulus_bound(s, c, dps=45)
        want = mpmath_multiplicity_modulus_bound(s, c, dps=60)
        assert agree_to_digits(got, mpmath.nstr(want, 50), 30)

    def test_jth_bound_monotone_in_index(self):
        values = [jth_modulus_bound(j, 1) for j in range(1, 9)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_multiplicity_bound_dips_then_grows(self):
        # the s = 1 value exceeds s = 2 because log log(s + 2) is tiny
        # at s = 1; from s = 2 on, the bound increases
        values = [multiplicity_modulus_bound(s, 1) for s in range(1, 9)]
        assert values[0] > values[1]
        assert all(a < b for a, b in zip(values[1:], values[2:]))

    def test_tiny_constant_is_near_one(self):
        got = jth_modulus_bound(1, "1/1000000", dps=30)
        assert 1 < got < F("1.000002")

    def test_precision_is_honored(self):
        for dps in (1, 5, 20, 60):
            got = jth_modulus_bound(2, 1, dps=dps)
            assert len(got.as_tuple().digits) == dps
            want = mpmath_jth_modulus_bound(2, 1, dps=dps + 20)
            assert agree_to_digits(got, mpmath.nstr(want, dps + 10), dps - 1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jth_modulus_bound(0, 1)
        with pytest.raises(DomainError):
            jth_modulus_bound(2, 0)
        with pytest.raises(DomainError):
            jth_modulus_bound(2, "-1/2")
        with pytest.raises(DomainError):
            multiplicity_modulus_bound(0, 1)
        with pytest.raises(DomainError):
            multiplicity_modulus_bound(2, 0)
        # decimal would refuse a precision below 1 with a ValueError of its own
        with pytest.raises(DomainError, match="precision must be at least 1 digit, got 0"):
            jth_modulus_bound(5, 1, dps=0)
        with pytest.raises(DomainError, match="precision must be at least 1 digit, got -2"):
            multiplicity_modulus_bound(3, 1, dps=-2)
