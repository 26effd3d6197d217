"""The distorted-measure pipeline: ladders, level sets, measures, certificates."""

import random
from array import array
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings

from covercert import (
    CongruenceSystem,
    DeltaSchedule,
    DomainError,
    InternalConsistencyError,
    Limits,
    ResourceLimitError,
    certify,
    core,
    default_delta_schedule,
    distortion,
    prime_ladder,
    run_levels,
)
from covercert.core import factorize
from covercert.distortion import (
    INCONCLUSIVE,
    NOT_COVERING,
    FiberMeasure,
    LevelSet,
    PrimeLadder,
    as_schedule,
    hit_fractions,
    level_set,
    moments,
    step_measure,
    uniform_measure,
)

from helpers import (
    ap_mass_bound_check,
    brute_covers,
    fiber_sums,
    masses_of,
    pipeline_cases,
    reference_hit_counts,
    reference_level,
    reference_pipeline,
    time_limit,
)

F = Fraction


def sys_of(pairs) -> CongruenceSystem:
    return CongruenceSystem.from_pairs(pairs)


def ladder_of(q: int):
    return prime_ladder(factorize(q))


def measure_of(level: int, masses, typecode: str = "") -> FiberMeasure:
    """The FiberMeasure with masses[y] on fiber y.

    Its ids are an array of typecode, by default the narrowest of H and I
    that indexes the distinct masses.
    """
    table = tuple(dict.fromkeys(masses))
    index = {m: i for i, m in enumerate(table)}
    typecode = typecode or ("H" if len(table) <= 1 << 16 else "I")
    return FiberMeasure(level, len(masses), table, array(typecode, map(index.__getitem__, masses)))


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
        # one of the two lifts of the single fiber is hit: fraction 1/2
        counts = hit_fractions(uniform_measure(), level_set(system, ladder, 1), ladder, 1)
        assert list(counts) == [1]

    def test_second_level_constant(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        prev = step_measure(uniform_measure(), b"\x01", F(0), level_set(system, ladder, 1))
        # one of three lifts per fiber: fraction 1/3
        counts = hit_fractions(prev, level_set(system, ladder, 2), ladder, 2)
        assert list(counts) == [1, 1]

    def test_empty_level_set_is_zero(self):
        system = sys_of([(0, 6)])
        ladder = ladder_of(6)
        counts = hit_fractions(uniform_measure(), level_set(system, ladder, 1), ladder, 1)
        assert list(counts) == [0]

    def test_level_mismatch_rejected(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        with pytest.raises(DomainError):
            hit_fractions(uniform_measure(), level_set(system, ladder, 2), ladder, 2)

    @pytest.mark.parametrize(
        "ladder, j",
        [
            # 243 and 251 lifts are summed in byte lanes
            (ladder_of(2 * 3**5), 2),
            (ladder_of(6 * 251), 3),
            # 256 and 257 lifts would overflow a lane and are counted by slices
            (ladder_of(2**8), 1),
            (ladder_of(6 * 257), 3),
            # hit_fractions reads only the partial products, so 2^8 may sit above 3
            (PrimeLadder((3, 2), (1, 8), (1, 3, 3 * 2**8)), 2),
        ],
        ids=["lanes-243", "lanes-251", "slices-256", "slices-257", "slices-256-over-3"],
    )
    def test_counts_at_lane_boundary(self, ladder, j):
        qprev, qj = ladder.partials[j - 1], ladder.partials[j]
        lifts = qj // qprev
        prev = measure_of(j - 1, (F(1, qprev),) * qprev)
        rng = random.Random(qj)
        # fiber y is empty, full or partial by (y + shift) mod 3, so a single
        # fiber takes each kind once over the three shifts
        seen = set()
        for shift in range(3):
            kinds = [(y + shift) % 3 for y in range(qprev)]
            mask = bytearray(qj)
            for z in range(qj):
                kind = kinds[z % qprev]
                mask[z] = kind == 1 or (kind == 2 and rng.random() < 0.5)
            counts = reference_hit_counts(mask, qprev)
            seen.update(0 if c == 0 else 1 if c == lifts else 2 for c in counts)
            got = hit_fractions(prev, LevelSet(j, qj, bytes(mask)), ladder, j)
            assert list(got) == counts
        assert seen == {0, 1, 2}


class TestTypeTable:
    """Levels whose parent holds hundreds or tens of thousands of mass types.

    The parent gives fiber y the mass (y + 1) / S, so every fiber is its own
    type; the level set is a seeded random mask.  Hit fractions, moments and
    the stepped measure must equal helpers.reference_level pointwise.
    """

    @staticmethod
    def _level(ladder, j, delta, typecode=""):
        qprev, qj = ladder.partials[j - 1], ladder.partials[j]
        lifts = qj // qprev
        total = qprev * (qprev + 1) // 2
        parent = [F(y + 1, total) for y in range(qprev)]
        prev = measure_of(j - 1, parent, typecode)
        rng = random.Random(qj)
        mask = bytes(rng.random() < 0.5 for _ in range(qj))
        bset = LevelSet(j, qj, mask)
        pointwise = [parent[x % qprev] / lifts for x in range(qj)]
        alpha, m1, m2, updated = reference_level(pointwise, mask, qprev, delta)
        counts = hit_fractions(prev, bset, ladder, j)
        assert [F(c, lifts) for c in counts] == alpha
        assert moments(prev, counts, lifts) == (m1, m2)
        out = step_measure(prev, counts, delta, bset)
        assert masses_of(out) == tuple(updated)
        assert len(out.table) == len(set(updated))
        return out

    @pytest.mark.parametrize("delta", [F(0), F(1, 3), F(1, 2)])
    @pytest.mark.parametrize(
        "ladder, j, typecode",
        [
            # 512 parent types: ids past one byte, in 16-bit and 32-bit arrays
            (PrimeLadder((2, 3), (9, 1), (1, 2**9, 3 * 2**9)), 2, "H"),
            (PrimeLadder((2, 3), (9, 1), (1, 2**9, 3 * 2**9)), 2, "I"),
            # 256 lifts: the counts are a list, not byte lanes
            (PrimeLadder((3, 2), (1, 8), (1, 3, 3 * 2**8)), 2, ""),
        ],
        ids=["types-512-H", "types-512-I", "lifts-256"],
    )
    def test_many_types_match_reference(self, ladder, j, typecode, delta):
        out = self._level(ladder, j, delta, typecode)
        assert out.ids.itemsize == 2

    def test_ids_widen_past_65536_types(self):
        # 3^10 = 59049 parent types; at delta = 1/3 each half-hit fiber, about
        # half of them, splits its mass m into 3m/4 off and m/4 on: 72813 types
        ladder = PrimeLadder((3, 2), (10, 1), (1, 3**10, 2 * 3**10))
        out = self._level(ladder, 2, F(1, 3))
        assert len(out.table) > 1 << 16
        assert out.ids.typecode == "I"


class TestShapeMismatch:
    @pytest.mark.parametrize(
        "call",
        [
            # hit_fractions: measure modulus is not Q_(j-1)
            lambda: hit_fractions(
                measure_of(1, (F(1, 2), F(1, 2))),
                level_set(sys_of([(0, 2), (0, 3)]), ladder_of(6), 1),
                ladder_of(6),
                1,
            ),
            # moments: one hit count per parent residue
            lambda: moments(uniform_measure(), bytes(2), 2),
            # step_measure: level set modulus is not a multiple of the parent's
            lambda: step_measure(
                measure_of(1, (F(1, 2), F(1, 2))), bytes(2), F(0), LevelSet(2, 3, bytes(3))
            ),
            # step_measure: one hit count per parent residue
            lambda: step_measure(
                uniform_measure(), bytes(2), F(0), level_set(sys_of([(0, 2)]), ladder_of(2), 1)
            ),
        ],
        ids=["hit-fractions-modulus", "moments-length", "step-modulus", "step-length"],
    )
    def test_shape_mismatch_is_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestStepMeasure:
    def test_half_delta_pushes_everything_off(self):
        system = sys_of([(0, 2)])
        ladder = ladder_of(2)
        out = step_measure(uniform_measure(), b"\x01", F(1, 2), level_set(system, ladder, 1))
        assert masses_of(out) == (F(0), F(1))

    def test_zero_delta_refines_uniformly(self):
        system = sys_of([(0, 2)])
        ladder = ladder_of(2)
        out = step_measure(uniform_measure(), b"\x01", F(0), level_set(system, ladder, 1))
        assert masses_of(out) == (F(1, 2), F(1, 2))

    def test_kill_branch(self):
        system = sys_of([(0, 4)])
        ladder = ladder_of(4)
        out = step_measure(uniform_measure(), b"\x01", F(1, 2), level_set(system, ladder, 1))
        assert masses_of(out) == (F(0), F(1, 3), F(1, 3), F(1, 3))

    def test_full_fiber_keeps_mass(self):
        system = sys_of([(0, 2), (1, 2)])
        ladder = ladder_of(2)
        out = step_measure(uniform_measure(), b"\x02", F(1, 4), level_set(system, ladder, 1))
        assert masses_of(out) == (F(1, 2), F(1, 2))

    def test_delta_out_of_range(self):
        system = sys_of([(0, 2)])
        ladder = ladder_of(2)
        bset = level_set(system, ladder, 1)
        for bad in (F(-1, 10), F(3, 5), F(1)):
            with pytest.raises(DomainError):
                step_measure(uniform_measure(), b"\x01", bad, bset)

    @pytest.mark.parametrize(
        "parent", [(F(1, 4), F(1, 4)), (F(3, 2), F(-1, 2))], ids=["total-half", "negative"]
    )
    def test_result_must_be_a_probability_measure(self, parent):
        # every fiber keeps its mass: a parent of total 1/2 leaves total 1/2,
        # one with a negative mass leaves negative masses
        bset = LevelSet(2, 4, b"\x01\x00\x00\x01")
        with pytest.raises(InternalConsistencyError, match="not a probability measure"):
            step_measure(measure_of(1, parent), b"\x01\x01", F(1, 4), bset)

    def test_member_over_zero_fraction_fiber(self):
        bset = LevelSet(1, 2, b"\x00\x01")
        with pytest.raises(InternalConsistencyError):
            step_measure(uniform_measure(), b"\x00", F(0), bset)

    @given(pipeline_cases())
    def test_mass_conserved_and_nonnegative(self, case):
        pairs, deltas = case
        for record in run_levels(sys_of(pairs), deltas):
            masses = masses_of(record.measure)
            assert sum(masses) == 1
            assert all(m >= 0 for m in masses)

    @given(pipeline_cases())
    def test_pushforward_identity(self, case):
        pairs, deltas = case
        prev = uniform_measure()
        for record in run_levels(sys_of(pairs), deltas):
            assert fiber_sums(masses_of(record.measure), prev.modulus) == masses_of(prev)
            prev = record.measure

    @given(pipeline_cases())
    def test_support_kill(self, case):
        pairs, deltas = case
        prev = uniform_measure()
        for record in run_levels(sys_of(pairs), deltas):
            qj = record.measure.modulus
            lifts = qj // prev.modulus
            mask = record.level_set.mask
            for y, count in enumerate(record.counts):
                if F(count, lifts) < record.delta:
                    for z in range(y, qj, prev.modulus):
                        if mask[z]:
                            assert record.measure.mass(z) == 0
            prev = record.measure


class TestFinalMeasureOnDemand:
    CASES = [
        ([(0, 2), (0, 3)], [0, 0]),
        ([(0, 4), (1, 6), (2, 5), (3, 10)], [F(1, 2), 0, F(1, 4)]),
        ([(1, 8), (0, 7)], [0, F(1, 2)]),
    ]

    @staticmethod
    def _count_steps(monkeypatch) -> list:
        calls = []
        real = distortion.step_measure

        def counted(*args):
            calls.append(args[0].level)
            return real(*args)

        monkeypatch.setattr(distortion, "step_measure", counted)
        return calls

    @pytest.mark.parametrize("pairs, deltas", CASES)
    def test_certify_skips_the_last_step(self, monkeypatch, pairs, deltas):
        calls = self._count_steps(monkeypatch)
        certify(sys_of(pairs), deltas)
        assert calls == list(range(len(deltas) - 1))

    @pytest.mark.parametrize("pairs, deltas", CASES)
    def test_every_measure_is_built_once_when_read(self, monkeypatch, pairs, deltas):
        calls = self._count_steps(monkeypatch)
        records = list(run_levels(sys_of(pairs), deltas))
        assert len(calls) == len(deltas) - 1
        final = records[-1].measure
        assert records[-1].measure is final
        assert final.modulus == sys_of(pairs).lcm_modulus
        assert calls == list(range(len(deltas)))

    def test_measure_checks_the_mass_left_on_the_level_set(self):
        # delta 1/4: the one fiber, half hit, leaves 1/3 on B_1, equal to its
        # second-moment term; at delta 0 it leaves exactly M1 = 1/2
        system = sys_of([(0, 2), (0, 3)])
        record = next(run_levels(system, [F(1, 4), 0]))
        assert (record.term, record.measure.level_mass) == (F(1, 3), F(1, 3))
        assert replace(record, term=F(1, 2)).measure.level_mass == F(1, 3)
        with pytest.raises(InternalConsistencyError, match="leaves mass 1/3"):
            replace(record, term=F(1, 4)).measure
        record = next(run_levels(system, [0, 0]))
        assert (record.term, record.measure.level_mass) == (F(1, 2), F(1, 2))
        with pytest.raises(InternalConsistencyError, match="leaves mass 1/2"):
            replace(record, term=F(3, 4)).measure

    @pytest.mark.usefixtures("zeroed_last_hit")
    def test_certify_checks_the_last_level(self):
        with pytest.raises(InternalConsistencyError):
            certify(sys_of([(0, 2), (0, 3)]), [0, 0])
        # with delta > 0 the fiber is emptied, which is well defined
        certify(sys_of([(0, 2), (0, 3)]), [0, F(1, 2)])


class TestMoments:
    def test_single_class(self):
        system = sys_of([(0, 2)])
        ladder = ladder_of(2)
        counts = hit_fractions(uniform_measure(), level_set(system, ladder, 1), ladder, 1)
        assert moments(uniform_measure(), counts, 2) == (F(1, 2), F(1, 4))

    def test_second_level(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        prev = step_measure(uniform_measure(), b"\x01", F(0), level_set(system, ladder, 1))
        counts = hit_fractions(prev, level_set(system, ladder, 2), ladder, 2)
        assert moments(prev, counts, 3) == (F(1, 3), F(1, 9))

    def test_empty_level(self):
        system = sys_of([(0, 6)])
        ladder = ladder_of(6)
        counts = hit_fractions(uniform_measure(), level_set(system, ladder, 1), ladder, 1)
        assert moments(uniform_measure(), counts, 2) == (F(0), F(0))

    def test_repeated_table_masses(self):
        # two types may hold equal masses; each fiber's mass counts once
        prev = FiberMeasure(1, 2, (F(1, 2), F(1, 2)), array("H", [0, 1]))
        assert moments(prev, b"\x01\x01", 3) == (F(1, 3), F(1, 9))

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

    def test_witness_without_the_oracle(self, monkeypatch):
        # the witness is read from the level masks; the oracle and the
        # brute-force scan stay independent checks of it
        rng = random.Random(12)
        cases = [((), []), (((0, 2), (0, 3)), [0, 0]), (((1, 2), (0, 4)), [0])]
        for _ in range(60):
            pairs = []
            for _ in range(rng.randint(1, 5)):
                d = rng.choice((2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 30, 36))
                pairs.append((rng.randrange(d), d))
            depth = len(factorize(lcm(*(d for _, d in pairs))))
            cases.append((tuple(pairs), [rng.choice((0, F(1, 4), F(1, 2))) for _ in range(depth)]))
        expected = [certify(sys_of(pairs), deltas) for pairs, deltas in cases]

        def oracle(*args, **kwargs):
            raise AssertionError("certify ran the coverage oracle")

        for module in (core, distortion):
            monkeypatch.setattr(module, "covers_oracle", oracle, raising=False)
        got = [certify(sys_of(pairs), deltas) for pairs, deltas in cases]
        assert got == expected
        assert got[0].witness == 0
        assert sum(cert.verdict == NOT_COVERING for cert in got) > 20
        for (pairs, _), cert in zip(cases, got):
            if cert.verdict == NOT_COVERING:
                assert cert.witness == brute_covers(pairs)[1]

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
            lifts = got.level_set.modulus // got.parent.modulus
            assert tuple(F(c, lifts) for c in got.counts) == want["alpha"]
            assert got.m1 == want["m1"]
            assert got.m2 == want["m2"]
            assert got.term == want["term"]
            assert got.branch == want["branch"]
            assert masses_of(got.measure) == fiber_sums(want["masses"], got.measure.modulus)
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
            on = sum((final.mass(z) for z in range(q) if mask[z % qj]), F(0))
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
        assert masses_of(records[-1].measure) == (F(1, q),) * q
        expected_eta = sum(
            F(len(r.level_set.members), r.level_set.modulus) for r in records
        )
        assert certify(system, zero).eta == expected_eta


class TestApMassBound:
    """The test suite's reference progression check, on the pipeline's measures."""

    def test_uniform_start_clean(self):
        schedule = as_schedule([0, F(1, 2)])
        assert ap_mass_bound_check(masses_of(uniform_measure()), (2, 3), schedule) == []

    def test_boundary_equality_clean(self):
        system = sys_of([(0, 2)])
        schedule = as_schedule([F(1, 2)])
        record = next(iter(run_levels(system, schedule)))
        assert masses_of(record.measure) == (F(0), F(1))
        assert ap_mass_bound_check(masses_of(record.measure), (2,), schedule) == []

    def test_pipeline_levels_clean(self):
        system = sys_of([(0, 2), (0, 3), (1, 4), (5, 6), (7, 12)])
        schedule = as_schedule([F(1, 4), F(1, 3)])
        ladder = prime_ladder(system.factorization)
        for record in run_levels(system, schedule):
            assert ap_mass_bound_check(masses_of(record.measure), ladder.primes, schedule) == []

    def test_tampered_measure_detected(self):
        bad = measure_of(2, (F(1, 3), F(1, 3), F(0), F(1, 3), F(0), F(0)))
        violations = ap_mass_bound_check(masses_of(bad), (2, 3), as_schedule([0, 0]))
        assert [(v.modulus, v.residue, v.mass, v.bound) for v in violations] == [
            (2, 1, F(2, 3), F(1, 2)),
            (3, 0, F(2, 3), F(1, 3)),
            (6, 0, F(1, 3), F(1, 6)),
            (6, 1, F(1, 3), F(1, 6)),
            (6, 3, F(1, 3), F(1, 6)),
        ]

    @given(pipeline_cases(max_classes=4))
    @settings(max_examples=40)
    def test_never_violated_by_pipeline(self, case):
        pairs, deltas = case
        system = sys_of(pairs)
        ladder = prime_ladder(system.factorization)
        schedule = as_schedule(deltas)
        for record in run_levels(system, schedule):
            assert ap_mass_bound_check(masses_of(record.measure), ladder.primes, schedule) == []
