"""The distorted-measure pipeline: ladders, level sets, measures, certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from covercert import (
    INCONCLUSIVE,
    NOT_COVERING,
    CongruenceSystem,
    DeltaSchedule,
    DomainError,
    FiberMeasure,
    InternalConsistencyError,
    LevelSet,
    Limits,
    ResourceLimitError,
    ap_mass_bound_check,
    as_schedule,
    certify,
    default_delta_schedule,
    factorize,
    hit_fractions,
    level_set,
    moments,
    prime_ladder,
    run_levels,
    step_measure,
    uniform_measure,
)

from helpers import brute_covers, fiber_sums, pipeline_cases, reference_pipeline, time_limit

F = Fraction


def sys_of(pairs) -> CongruenceSystem:
    return CongruenceSystem.from_pairs(pairs)


def ladder_of(q: int):
    return prime_ladder(factorize(q))


class TestPrimeLadder:
    def test_twelve(self):
        ladder = ladder_of(12)
        assert ladder.primes == (2, 3)
        assert ladder.exponents == (2, 1)
        assert ladder.partials == (1, 4, 12)

    def test_six(self):
        assert ladder_of(6).partials == (1, 2, 6)

    def test_prime_power(self):
        ladder = ladder_of(8)
        assert ladder.primes == (2,)
        assert ladder.partials == (1, 8)
        assert ladder.prime_power(1) == 8

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            prime_ladder(factorize(1))

    @given(pipeline_cases())
    def test_partials_increase_to_q(self, case):
        pairs, _ = case
        system = sys_of(pairs)
        ladder = prime_ladder(system.factorization)
        assert all(a < b for a, b in zip(ladder.partials, ladder.partials[1:]))
        assert ladder.partials[-1] == system.lcm_modulus
        assert ladder.partials[0] == 1


class TestLevelSet:
    def test_two_three_levels(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        assert sorted(level_set(system, ladder, 1).members) == [0]
        assert sorted(level_set(system, ladder, 2).members) == [0, 3]

    def test_odd_union_example(self):
        system = sys_of([(1, 2), (0, 4)])
        ladder = ladder_of(4)
        assert sorted(level_set(system, ladder, 1).members) == [0, 1, 3]

    def test_level_without_classes_is_empty(self):
        system = sys_of([(0, 6)])
        ladder = ladder_of(6)
        assert level_set(system, ladder, 1).members == frozenset()
        assert sorted(level_set(system, ladder, 2).members) == [0]

    def test_mask_field(self):
        bset = level_set(sys_of([(0, 2), (0, 3)]), ladder_of(6), 2)
        assert bset.mask == b"\x01\x00\x00\x01\x00\x00"
        assert bset == LevelSet(2, 6, bset.mask)

    def test_mask_length_must_match_modulus(self):
        with pytest.raises(DomainError):
            LevelSet(1, 2, b"\x01")

    def test_modulus_outside_ladder(self):
        with pytest.raises(InternalConsistencyError):
            level_set(sys_of([(0, 2), (0, 5)]), ladder_of(6), 1)

    def test_modulus_one_rejected(self):
        with pytest.raises(DomainError):
            level_set(sys_of([(0, 1), (0, 2)]), ladder_of(2), 1)

    def test_level_out_of_range(self):
        with pytest.raises(DomainError):
            level_set(sys_of([(0, 2)]), ladder_of(2), 2)

    def test_resource_guard(self):
        system = sys_of([(0, 2), (0, 3)])
        with pytest.raises(ResourceLimitError):
            level_set(system, ladder_of(6), 2, limits=Limits(residue_space=5))

    @given(pipeline_cases())
    def test_membership_definition(self, case):
        pairs, _ = case
        system = sys_of(pairs)
        ladder = prime_ladder(system.factorization)
        for j in range(1, ladder.depth + 1):
            p = ladder.primes[j - 1]
            got = level_set(system, ladder, j)
            qj = ladder.partials[j]
            expected = {
                z
                for z in range(qj)
                for (r, d) in pairs
                if _largest_prime(d) == p and (z - r) % d == 0
            }
            assert got.members == expected
            assert got.modulus == qj


def _largest_prime(n: int) -> int:
    best = 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            best = d
            n //= d
        d += 1
    return n if n > 1 else best


class TestHitFractions:
    def test_single_fiber(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        alpha = hit_fractions(uniform_measure(), level_set(system, ladder, 1), ladder, 1)
        assert alpha == (F(1, 2),)

    def test_second_level_constant(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        prev = step_measure(
            uniform_measure(),
            (F(1, 2),),
            F(0),
            level_set(system, ladder, 1),
        )
        alpha = hit_fractions(prev, level_set(system, ladder, 2), ladder, 2)
        assert alpha == (F(1, 3), F(1, 3))

    def test_empty_level_set_is_zero(self):
        system = sys_of([(0, 6)])
        ladder = ladder_of(6)
        alpha = hit_fractions(uniform_measure(), level_set(system, ladder, 1), ladder, 1)
        assert alpha == (F(0),)

    def test_level_mismatch_rejected(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        with pytest.raises(DomainError):
            hit_fractions(uniform_measure(), level_set(system, ladder, 2), ladder, 2)


class TestShapeMismatch:
    @pytest.mark.parametrize(
        "call",
        [
            # hit_fractions: measure modulus is not Q_(j-1)
            lambda: hit_fractions(
                FiberMeasure(1, 2, (F(1, 2), F(1, 2))),
                level_set(sys_of([(0, 2), (0, 3)]), ladder_of(6), 1),
                ladder_of(6),
                1,
            ),
            # moments: one hit fraction per parent residue
            lambda: moments(uniform_measure(), (F(0), F(0))),
            # step_measure: level set modulus is not a multiple of the parent's
            lambda: step_measure(
                FiberMeasure(1, 2, (F(1, 2), F(1, 2))), (F(0), F(0)), F(0), LevelSet(2, 3, bytes(3))
            ),
            # step_measure: one hit fraction per parent residue
            lambda: step_measure(
                uniform_measure(), (F(0), F(0)), F(0), level_set(sys_of([(0, 2)]), ladder_of(2), 1)
            ),
            # ap_mass_bound_check: measure modulus is not Q_level
            lambda: ap_mass_bound_check(
                FiberMeasure(1, 3, (F(1, 3),) * 3), as_schedule([0, 0]), ladder_of(6)
            ),
        ],
        ids=["hit-fractions-modulus", "moments-length", "step-modulus", "step-length",
             "ap-modulus"],
    )
    def test_shape_mismatch_is_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestStepMeasure:
    def test_half_delta_pushes_everything_off(self):
        system = sys_of([(0, 2)])
        ladder = ladder_of(2)
        out = step_measure(
            uniform_measure(), (F(1, 2),), F(1, 2), level_set(system, ladder, 1)
        )
        assert out.masses == (F(0), F(1))

    def test_zero_delta_refines_uniformly(self):
        system = sys_of([(0, 2)])
        ladder = ladder_of(2)
        out = step_measure(
            uniform_measure(), (F(1, 2),), F(0), level_set(system, ladder, 1)
        )
        assert out.masses == (F(1, 2), F(1, 2))

    def test_kill_branch(self):
        system = sys_of([(0, 4)])
        ladder = ladder_of(4)
        out = step_measure(
            uniform_measure(), (F(1, 4),), F(1, 2), level_set(system, ladder, 1)
        )
        assert out.masses == (F(0), F(1, 3), F(1, 3), F(1, 3))

    def test_full_fiber_keeps_mass(self):
        system = sys_of([(0, 2), (1, 2)])
        ladder = ladder_of(2)
        out = step_measure(
            uniform_measure(), (F(1),), F(1, 4), level_set(system, ladder, 1)
        )
        assert out.masses == (F(1, 2), F(1, 2))

    def test_delta_out_of_range(self):
        system = sys_of([(0, 2)])
        ladder = ladder_of(2)
        bset = level_set(system, ladder, 1)
        for bad in (F(-1, 10), F(3, 5), F(1)):
            with pytest.raises(DomainError):
                step_measure(uniform_measure(), (F(1, 2),), bad, bset)

    def test_member_over_zero_fraction_fiber(self):
        bset = LevelSet(1, 2, b"\x00\x01")
        with pytest.raises(InternalConsistencyError):
            step_measure(uniform_measure(), (F(0),), F(0), bset)

    @given(pipeline_cases())
    def test_mass_conserved_and_nonnegative(self, case):
        pairs, deltas = case
        for record in run_levels(sys_of(pairs), deltas):
            assert record.measure.total() == 1
            assert all(m >= 0 for m in record.measure.masses)

    @given(pipeline_cases())
    def test_pushforward_identity(self, case):
        pairs, deltas = case
        prev = uniform_measure()
        for record in run_levels(sys_of(pairs), deltas):
            assert record.measure.pushforward(prev.modulus) == prev.masses
            prev = record.measure

    @given(pipeline_cases())
    def test_support_kill(self, case):
        pairs, deltas = case
        prev = uniform_measure()
        for record in run_levels(sys_of(pairs), deltas):
            qj = record.measure.modulus
            mask = record.level_set.mask
            for y, alpha in enumerate(record.fractions):
                if alpha < record.delta:
                    for z in range(y, qj, prev.modulus):
                        if mask[z]:
                            assert record.measure.masses[z] == 0
            prev = record.measure


class TestMoments:
    def test_single_class(self):
        system = sys_of([(0, 2)])
        ladder = ladder_of(2)
        alpha = hit_fractions(uniform_measure(), level_set(system, ladder, 1), ladder, 1)
        assert moments(uniform_measure(), alpha) == (F(1, 2), F(1, 4))

    def test_second_level(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        prev = step_measure(
            uniform_measure(), (F(1, 2),), F(0), level_set(system, ladder, 1)
        )
        alpha = hit_fractions(prev, level_set(system, ladder, 2), ladder, 2)
        assert moments(prev, alpha) == (F(1, 3), F(1, 9))

    def test_empty_level(self):
        system = sys_of([(0, 6)])
        ladder = ladder_of(6)
        alpha = hit_fractions(uniform_measure(), level_set(system, ladder, 1), ladder, 1)
        assert moments(uniform_measure(), alpha) == (F(0), F(0))

    @given(pipeline_cases())
    def test_moment_ordering(self, case):
        pairs, deltas = case
        for record in run_levels(sys_of(pairs), deltas):
            assert 0 <= record.m2 <= record.m1 <= 1


class TestDeltaSchedule:
    def test_validation(self):
        with pytest.raises(DomainError):
            DeltaSchedule((F(-1, 10),))
        with pytest.raises(DomainError):
            DeltaSchedule((F(3, 5),))

    def test_coercion(self):
        schedule = as_schedule(["1/2", 0, F(1, 4)])
        assert schedule.deltas == (F(1, 2), F(0), F(1, 4))
        assert len(schedule) == 3
        assert schedule[0] == F(1, 2)
        assert list(schedule) == [F(1, 2), F(0), F(1, 4)]

    def test_default_schedule_threshold(self):
        ladder = ladder_of(2 * 3 * 7)
        assert default_delta_schedule(1, ladder, F(5)).deltas == (F(0), F(0), F(1, 2))

    def test_default_schedule_all_smooth(self):
        ladder = ladder_of(6)
        assert default_delta_schedule(2, ladder).deltas == (F(0), F(0))

    def test_default_schedule_tiny_constant(self):
        ladder = ladder_of(6)
        assert default_delta_schedule(1, ladder, F(1, 100)).deltas == (F(1, 2), F(1, 2))

    def test_default_schedule_validation(self):
        ladder = ladder_of(6)
        with pytest.raises(DomainError):
            default_delta_schedule(0, ladder)
        with pytest.raises(DomainError):
            default_delta_schedule(1, ladder, F(0))


class TestCertify:
    def test_two_class_zero_deltas(self):
        cert = certify(sys_of([(0, 2), (0, 3)]), [0, 0])
        assert cert.eta == F(5, 6)
        assert cert.verdict == NOT_COVERING
        assert cert.witness == 1
        assert [(t.prime, t.m1, t.m2, t.term, t.branch) for t in cert.terms] == [
            (2, F(1, 2), F(1, 4), F(1, 2), "first-moment"),
            (3, F(1, 3), F(1, 9), F(1, 3), "first-moment"),
        ]

    def test_odd_plus_multiple_of_four(self):
        cert = certify(sys_of([(1, 2), (0, 4)]), [0])
        assert cert.eta == F(3, 4)
        assert cert.verdict == NOT_COVERING
        assert cert.witness == 2

    def test_parity_split_inconclusive(self):
        cert = certify(sys_of([(0, 2), (1, 2)]), [0])
        assert cert.eta == F(1)
        assert cert.verdict == INCONCLUSIVE
        assert cert.witness is None

    def test_default_schedule_two_class(self):
        cert = certify(sys_of([(0, 2), (0, 3)]))
        assert cert.eta == F(13, 36)
        assert cert.verdict == NOT_COVERING
        assert cert.witness == 1
        assert [(t.delta, t.term, t.branch) for t in cert.terms] == [
            (F(1, 2), F(1, 4), "second-moment"),
            (F(1, 2), F(1, 9), "second-moment"),
        ]

    def test_empty_system(self):
        cert = certify(CongruenceSystem(()))
        assert cert.eta == 0
        assert cert.verdict == NOT_COVERING
        assert cert.witness == 0
        assert cert.terms == ()

    def test_schedule_length_mismatch(self):
        with pytest.raises(DomainError):
            certify(sys_of([(0, 2), (0, 3)]), [0])
        with pytest.raises(DomainError):
            certify(CongruenceSystem(()), [0])

    def test_modulus_one_rejected(self):
        with pytest.raises(DomainError):
            certify(sys_of([(0, 1), (0, 2)]), [0])

    def test_huge_modulus_hits_limit_before_factoring(self):
        # Q = 2 (2^61 - 1) is over the limit; trial division of it would hang
        system = sys_of([(0, 2), (1, 2**61 - 1)])
        with time_limit(30):
            with pytest.raises(ResourceLimitError):
                certify(system)
            with pytest.raises(ResourceLimitError):
                next(run_levels(system, [0, 0]))

    def test_resource_guard_names_blocking_modulus(self):
        small = Limits(residue_space=10)
        pipeline = "pipeline needs a residue space of size 72, over the limit 10"
        cases = [
            (lambda: certify(sys_of([(0, 8), (0, 9)]), [0, 0], limits=small), pipeline, 72, 10),
            (lambda: certify(sys_of([(0, 8), (0, 9)]), limits=small), pipeline, 72, 10),
            (
                lambda: level_set(
                    sys_of([(0, 2), (0, 3)]), ladder_of(6), 2, limits=Limits(residue_space=5)
                ),
                "level set at level 2 needs a residue space of size 6, over the limit 5", 6, 5,
            ),
            (
                # sigma(6) = 12 (residue, divisor) pairs
                lambda: ap_mass_bound_check(
                    FiberMeasure(2, 6, (F(1, 6),) * 6), [0, 0], ladder_of(6),
                    limits=Limits(divisors=11),
                ),
                "progression check needs 12 (residue, divisor) pairs, over the limit 11", 12, 11,
            ),
        ]
        for call, message, required, limit in cases:
            with pytest.raises(ResourceLimitError) as err:
                call()
            assert (str(err.value), err.value.required, err.value.limit) == (
                message, required, limit
            )

    def test_json_shape(self):
        cert = certify(sys_of([(0, 2), (0, 3)]), [0, 0])
        data = cert.to_json_dict()
        assert data == {
            "eta": "5/6",
            "verdict": "NotCovering",
            "terms": [
                {"p": 2, "delta": "0/1", "m1": "1/2", "m2": "1/4",
                 "term": "1/2", "branch": "first-moment"},
                {"p": 3, "delta": "0/1", "m1": "1/3", "m2": "1/9",
                 "term": "1/3", "branch": "first-moment"},
            ],
            "witness": 1,
        }

    @given(pipeline_cases())
    @settings(max_examples=60)
    def test_matches_pointwise_reference(self, case):
        pairs, deltas = case
        system = sys_of(pairs)
        records = list(run_levels(system, deltas))
        expected_records, expected_eta = reference_pipeline(pairs, deltas)
        assert len(records) == len(expected_records)
        for got, want in zip(records, expected_records):
            assert got.prime == want["prime"]
            assert got.fractions == want["alpha"]
            assert got.m1 == want["m1"]
            assert got.m2 == want["m2"]
            assert got.term == want["term"]
            assert got.branch == want["branch"]
            assert got.measure.masses == fiber_sums(want["masses"], got.measure.modulus)
        cert = certify(system, deltas)
        assert cert.eta == expected_eta
        assert cert.verdict == (NOT_COVERING if expected_eta < 1 else INCONCLUSIVE)

    @given(pipeline_cases())
    @settings(max_examples=60)
    def test_soundness_against_brute_force(self, case):
        pairs, deltas = case
        cert = certify(sys_of(pairs), deltas)
        covers, witness, _ = brute_covers(pairs)
        if cert.verdict == NOT_COVERING:
            assert not covers
            assert cert.witness == witness
        if covers:
            assert cert.verdict == INCONCLUSIVE
            assert cert.eta >= 1

    @given(pipeline_cases())
    @settings(max_examples=60)
    def test_final_mass_on_each_level_set_is_bounded_by_its_term(self, case):
        # later levels keep every fiber's mass over Z/Q_jZ, so the final
        # measure leaves on B_j what level j left there: at most term_j, and
        # exactly term_j = M1 when delta_j = 0 moves nothing
        pairs, deltas = case
        records = list(run_levels(sys_of(pairs), deltas))
        final = records[-1].measure
        q = final.modulus
        for record in records:
            mask = record.level_set.mask
            qj = len(mask)
            on = sum((final.masses[z] for z in range(q) if mask[z % qj]), F(0))
            assert on <= record.term
            if record.delta == 0:
                assert on == record.term

    @given(pipeline_cases())
    @settings(max_examples=40)
    def test_zero_schedule_degeneracy(self, case):
        # with every delta zero the measure never moves: P_J is uniform and
        # eta is the plain union bound, the sum of level-set densities
        pairs, _ = case
        system = sys_of(pairs)
        ladder = prime_ladder(system.factorization)
        zero = [0] * ladder.depth
        records = list(run_levels(system, zero))
        q = system.lcm_modulus
        assert records[-1].measure.masses == (F(1, q),) * q
        expected_eta = sum(
            F(len(r.level_set.members), r.level_set.modulus) for r in records
        )
        assert certify(system, zero).eta == expected_eta


class TestApMassBound:
    def test_uniform_start_clean(self):
        ladder = ladder_of(12)
        schedule = as_schedule([0, F(1, 2)])
        assert ap_mass_bound_check(uniform_measure(), schedule, ladder) == []

    def test_boundary_equality_clean(self):
        system = sys_of([(0, 2)])
        ladder = ladder_of(2)
        schedule = as_schedule([F(1, 2)])
        record = next(iter(run_levels(system, schedule)))
        assert record.measure.masses == (F(0), F(1))
        assert ap_mass_bound_check(record.measure, schedule, ladder) == []

    def test_pipeline_levels_clean(self):
        system = sys_of([(0, 2), (0, 3), (1, 4), (5, 6), (7, 12)])
        schedule = as_schedule([F(1, 4), F(1, 3)])
        ladder = prime_ladder(system.factorization)
        for record in run_levels(system, schedule):
            assert ap_mass_bound_check(record.measure, schedule, ladder) == []

    def test_tampered_measure_detected(self):
        ladder = ladder_of(6)
        schedule = as_schedule([0, 0])
        bad = FiberMeasure(
            2, 6, (F(1, 3), F(1, 3), F(0), F(1, 3), F(0), F(0))
        )
        violations = ap_mass_bound_check(bad, schedule, ladder)
        assert [(v.modulus, v.residue, v.mass, v.bound) for v in violations] == [
            (2, 1, F(2, 3), F(1, 2)),
            (3, 0, F(2, 3), F(1, 3)),
            (6, 0, F(1, 3), F(1, 6)),
            (6, 1, F(1, 3), F(1, 6)),
            (6, 3, F(1, 3), F(1, 6)),
        ]

    def test_resource_guard(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        schedule = as_schedule([0, 0])
        record = next(iter(run_levels(system, schedule)))
        with pytest.raises(ResourceLimitError):
            ap_mass_bound_check(record.measure, schedule, ladder, limits=Limits(divisors=2))

    def test_short_schedule_rejected(self):
        ladder = ladder_of(6)
        measure = FiberMeasure(1, 2, (F(1, 2), F(1, 2)))
        with pytest.raises(DomainError):
            ap_mass_bound_check(measure, as_schedule([]), ladder)

    @given(pipeline_cases(max_classes=4))
    @settings(max_examples=40)
    def test_never_violated_by_pipeline(self, case):
        pairs, deltas = case
        system = sys_of(pairs)
        ladder = prime_ladder(system.factorization)
        schedule = as_schedule(deltas)
        for record in run_levels(system, schedule):
            assert ap_mass_bound_check(record.measure, schedule, ladder) == []
