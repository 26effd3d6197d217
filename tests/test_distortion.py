"""The distorted-measure pipeline: ladders, level sets, measures, certificates."""

import random
import tracemalloc
from array import array
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covercert import (
    CongruenceSystem,
    DeltaSchedule,
    DomainError,
    InternalConsistencyError,
    Limits,
    ResourceLimitError,
    certify,
    construct_minimal_family,
    core,
    default_delta_schedule,
    distortion,
    prime_ladder,
    run_levels,
)
from covercert.core import factorize
from covercert.distortion import (
    FIRST_MOMENT,
    INCONCLUSIVE,
    NOT_COVERING,
    FiberMeasure,
    LevelSet,
    PrimeLadder,
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
    lowered_first_hit,
    masses_of,
    measure_invariant_failures,
    moved_first_hit,
    oracle,
    pipeline_cases,
    reference_hit_counts,
    reference_level,
    reference_pipeline,
    time_limit,
    uncovered_lower_bound,
)

F = Fraction


def sys_of(pairs) -> CongruenceSystem:
    return CongruenceSystem.from_pairs(pairs)


def ladder_of(q: int):
    return prime_ladder(factorize(q))


def narrowest_ids(types: int) -> str:
    """The typecode of the narrowest id array that indexes this many masses."""
    return "B" if types <= 1 << 8 else "H" if types <= 1 << 16 else "I"


def measure_of(masses, typecode: str = "") -> FiberMeasure:
    """The FiberMeasure with masses[y] on fiber y.

    Its ids are an array of typecode, by default the narrowest of B, H and
    I that indexes the distinct masses.
    """
    table = tuple(dict.fromkeys(masses))
    index = {m: i for i, m in enumerate(table)}
    typecode = typecode or narrowest_ids(len(table))
    return FiberMeasure(table, array(typecode, map(index.__getitem__, masses)))


def no_level_set(*args):
    raise AssertionError("a level set was built")


def invariant_failures(case, *kinds):
    """The lines of measure_invariant_failures, on a run of case, that name one of kinds."""
    pairs, deltas = case
    records = list(run_levels(sys_of(pairs), deltas))
    primes = [record.prime for record in records]
    failures = measure_invariant_failures(records, primes, deltas)
    return [line for line in failures if any(kind in line for kind in kinds)]


def assert_gate_catches(pairs, deltas, message):
    """Both list(run_levels(...)) and certify(...) stop at the level gate with message."""
    system = sys_of(pairs)
    with pytest.raises(InternalConsistencyError, match=message):
        list(run_levels(system, deltas))
    with pytest.raises(InternalConsistencyError, match=message):
        certify(system, deltas)


class TestPrimeLadder:
    def test_twelve(self):
        ladder = ladder_of(12)
        assert ladder.primes == (2, 3)
        assert ladder.partials == (1, 4, 12)

    def test_six(self):
        assert ladder_of(6).partials == (1, 2, 6)

    def test_prime_power(self):
        ladder = ladder_of(8)
        assert ladder.primes == (2,)
        assert ladder.partials == (1, 8)

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
        assert bset == LevelSet(bset.mask)

    def test_modulus_outside_ladder(self, monkeypatch):
        # level_set would drop a class whose modulus does not divide the
        # ladder's Q; the pipeline checks once that Q is the lcm of the
        # moduli, before any level set is built
        monkeypatch.setattr(distortion, "prime_ladder", lambda pairs: ladder_of(6))
        monkeypatch.setattr(distortion, "level_set", no_level_set)
        for run in (lambda s: next(run_levels(s, [0, 0])), lambda s: certify(s, [0, 0])):
            with pytest.raises(InternalConsistencyError, match="not the lcm of the moduli"):
                run(sys_of([(0, 2), (0, 5)]))

    def test_modulus_one_rejected(self, monkeypatch):
        # level_set trusts the pipeline, which rejects a modulus 1 once,
        # before it factors Q and before any level set is built
        monkeypatch.setattr(distortion, "level_set", no_level_set)
        with pytest.raises(DomainError, match="every modulus to be at least 2"):
            next(run_levels(sys_of([(0, 1), (0, 2)]), [0]))

    def test_level_out_of_range(self):
        with pytest.raises(DomainError):
            level_set(sys_of([(0, 2)]), ladder_of(2), 2)

    def test_resource_guard(self, monkeypatch):
        # the residue-space guard runs once, on Q, before any level set is built
        monkeypatch.setattr(distortion, "level_set", no_level_set)
        with pytest.raises(ResourceLimitError, match="pipeline needs a residue space of size 6"):
            next(run_levels(sys_of([(0, 2), (0, 3)]), [0, 0], limits=Limits(residue_space=5)))

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
                if oracle.largest_prime(d) == p and (z - r) % d == 0
            }
            assert got.members == expected
            assert got.modulus == qj


class TestHitFractions:
    def test_single_fiber(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        # one of the two lifts of the single fiber is hit: fraction 1/2
        counts = hit_fractions(uniform_measure(), level_set(system, ladder, 1))
        assert list(counts) == [1]

    def test_second_level_constant(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        prev = step_measure(uniform_measure(), b"\x01", F(0), level_set(system, ladder, 1))
        # one of three lifts per fiber: fraction 1/3
        counts = hit_fractions(prev, level_set(system, ladder, 2))
        assert list(counts) == [1, 1]

    def test_empty_level_set_is_zero(self):
        system = sys_of([(0, 6)])
        ladder = ladder_of(6)
        counts = hit_fractions(uniform_measure(), level_set(system, ladder, 1))
        assert list(counts) == [0]

    def test_level_mismatch_rejected(self, tamper_level):
        # a level set mod 485, or mod 0, has no whole lifts over the parent mod
        # 2: the level's gate refuses it before hit_fractions is called on it
        for size in (485, 0):
            tamper_level(486, mask=lambda mask, size=size: mask[:size])
            assert_gate_catches([(0, 2), (1, 486)], [0, 0], "multiple of the parent's")

    @pytest.mark.parametrize(
        "ladder, j",
        [
            # 243 and 251 lifts are summed in byte lanes
            (ladder_of(2 * 3**5), 2),
            (ladder_of(6 * 251), 3),
            # 256 and 257 lifts would overflow a lane and are counted by slices
            (ladder_of(2**8), 1),
            (ladder_of(6 * 257), 3),
            # hit_fractions reads only the moduli, so 2^8 may sit above 3
            (PrimeLadder((3, 2), (1, 3, 3 * 2**8)), 2),
        ],
        ids=["lanes-243", "lanes-251", "slices-256", "slices-257", "slices-256-over-3"],
    )
    def test_counts_at_lane_boundary(self, ladder, j):
        qprev, qj = ladder.partials[j - 1], ladder.partials[j]
        lifts = qj // qprev
        prev = measure_of((F(1, qprev),) * qprev)
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
            got = hit_fractions(prev, LevelSet(bytes(mask)))
            assert list(got) == counts
            # past 255 lifts, an array of the narrowest typecode that holds the lifts
            if lifts > 255:
                assert (type(got), got.typecode) == (array, "H")
            else:
                assert type(got) is bytes
        assert seen == {0, 1, 2}

    LANES, SLICES = [(0, 2), (1, 2 * 3**5)], [(0, 2**9)]

    @pytest.mark.parametrize(
        "pairs, deltas, where, byte",
        [
            (LANES, [0, F(1, 2)], slice(1, 2), 2),
            (LANES, [0, F(1, 2)], slice(1, 2), 255),
            (SLICES, [F(1, 2)], slice(1, 2), 2),
            (SLICES, [F(1, 2)], slice(1, 2), 255),
            # 243 bytes of 255 in fiber 1's lane would carry past the top lane
            (LANES, [0, 0], slice(1, None, 2), 255),
        ],
        ids=["lanes-2", "lanes-255", "slices-2", "slices-255", "lanes-every-odd-byte-255"],
    )
    def test_mask_byte_past_one_is_caught(self, tamper_level, pairs, deltas, where, byte):
        # up to 255 lifts of 0 or 1 fit a byte lane, where a mask byte above 1
        # could carry; one fiber of 512 lifts is counted by slices, whose
        # count(1) would miss it.  The level's gate names the byte before
        # hit_fractions is called on the mask
        def set_bytes(mask):
            mask[where] = bytes([byte]) * len(mask[where])
            return mask

        tamper_level(sys_of(pairs).lcm_modulus, mask=set_bytes)
        assert_gate_catches(pairs, deltas, f"mask byte {byte} is not 0 or 1")


class TestTypeTable:
    """Levels whose parent holds hundreds or tens of thousands of mass types.

    The parent gives fiber y the mass (y + 1) / S, so every fiber is its own
    type; the level set is a seeded random mask.  Hit fractions, moments and
    the stepped measure must equal helpers.reference_level pointwise.
    """

    @staticmethod
    def _level(ladder, j, delta, typecode="", empty=False):
        qprev, qj = ladder.partials[j - 1], ladder.partials[j]
        lifts = qj // qprev
        total = qprev * (qprev + 1) // 2
        parent = [F(y + 1, total) for y in range(qprev)]
        prev = measure_of(parent, typecode)
        rng = random.Random(qj)
        mask = bytes(qj) if empty else bytes(rng.random() < 0.5 for _ in range(qj))
        bset = LevelSet(mask)
        pointwise = [parent[x % qprev] / lifts for x in range(qj)]
        alpha, m1, m2, updated = reference_level(pointwise, mask, qprev, delta)
        counts = hit_fractions(prev, bset)
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
            (PrimeLadder((2, 3), (1, 2**9, 3 * 2**9)), 2, "H"),
            (PrimeLadder((2, 3), (1, 2**9, 3 * 2**9)), 2, "I"),
            # 256 lifts: the counts are an array, not byte lanes
            (PrimeLadder((3, 2), (1, 3, 3 * 2**8)), 2, ""),
        ],
        ids=["types-512-H", "types-512-I", "lifts-256"],
    )
    def test_many_types_match_reference(self, ladder, j, typecode, delta):
        out = self._level(ladder, j, delta, typecode)
        assert out.ids.typecode == narrowest_ids(len(out.table))

    @pytest.mark.parametrize(
        "ladder, delta, empty, types, typecode",
        [
            # an empty level set at delta = 0 keeps one mass per parent type
            (PrimeLadder((2, 3), (1, 2**8, 3 * 2**8)), F(0), True, 256, "B"),
            (PrimeLadder((257, 2), (1, 257, 2 * 257)), F(0), True, 257, "H"),
            # 3^10 = 59049 parent types; at delta = 1/3 each half-hit fiber, about
            # half of them, splits its mass m into 3m/4 off and m/4 on
            (PrimeLadder((3, 2), (1, 3**10, 2 * 3**10)), F(1, 3), False, 72813, "I"),
        ],
        ids=["types-256-B", "types-257-H", "types-72813-I"],
    )
    def test_ids_widen_past_65536_types(self, ladder, delta, empty, types, typecode):
        out = self._level(ladder, 2, delta, empty=empty)
        assert len(out.table) == types
        assert out.ids.typecode == typecode


class TestCodeWidths:
    """One-byte and two-byte (type, count) codes give the same moments and measures.

    Fiber y of the parent has type y mod types and y // types hits, so every
    (type, count) group occurs once, with empty, partial and full fibers.
    Under one-byte ids the codes fit in a byte while types * (lifts + 1) <=
    256; two-byte ids always take codes of two bytes, as wide as the ids.
    The masses have distinct prime numerators, so that the stepped measures
    take up to 261 types and come out with one-byte and two-byte ids.
    """

    @pytest.mark.parametrize("delta", [F(0), F(1, 3), F(1, 2)])
    @pytest.mark.parametrize(
        "types, lifts",
        [(64, 3), (32, 7), (65, 3)],
        ids=["codes-256", "codes-256-lifts-7", "codes-260"],
    )
    def test_byte_and_wide_codes_agree(self, types, lifts, delta):
        qprev, qj = types * (lifts + 1), types * (lifts + 1) * lifts
        primes = [p for p in range(23, 400) if all(p % q for q in range(2, p))][:types]
        total = (lifts + 1) * sum(primes)
        parent = [F(primes[y % types], total) for y in range(qprev)]
        counts = bytes(y // types for y in range(qprev))
        mask = bytes(z // qprev < counts[z % qprev] for z in range(qj))
        bset = LevelSet(mask)
        pointwise = [parent[x % qprev] / lifts for x in range(qj)]
        _, m1, m2, updated = reference_level(pointwise, mask, qprev, delta)
        for typecode in "BH":
            prev = measure_of(parent, typecode)
            assert moments(prev, counts, lifts) == (m1, m2)
            out = step_measure(prev, counts, delta, bset)
            assert masses_of(out) == tuple(updated)
            assert out.ids.typecode == narrowest_ids(len(out.table))


class TestFiberCodes:
    """_fiber_codes against the table ids[y] * (lifts + 1) + counts[y], fiber by fiber.

    The lane is the narrowest of 1, 2, 4 and 8 bytes that holds types *
    (lifts + 1) codes, and never narrower than the ids.  The ids count up
    from 0 over at most 600 fibers, and one more fiber takes the largest id
    with the largest count the counts can hold, the top code of the range.
    The counts are bytes, or the array hit_fractions makes past 255 lifts.
    """

    @pytest.mark.parametrize("as_bytes", [True, False], ids=["bytes", "array"])
    @pytest.mark.parametrize(
        "types, lifts, typecode, width",
        [
            (64, 3, "B", 1),
            (129, 1, "B", 2),
            (64, 3, "H", 2),
            (32769, 1, "H", 4),
            (300, 1, "I", 4),
            (65537, 65535, "I", 8),
        ],
        ids=["codes-256", "codes-258", "codes-256-H-ids", "codes-65538", "codes-600-I-ids",
             "codes-past-2^32"],
    )
    def test_codes_match_table(self, types, lifts, typecode, width, as_bytes):
        top = min(lifts, 255) if as_bytes else lifts
        fibers = min(types, 600)
        ids = [y % types for y in range(fibers)] + [types - 1]
        counts = [y * 7 % (top + 1) for y in range(fibers)] + [top]
        prev = FiberMeasure((F(1),) * types, array(typecode, ids))
        given = bytes(counts) if as_bytes else array(distortion._id_typecode(lifts + 1), counts)
        codes, base = distortion._fiber_codes(prev, given, lifts)
        assert base == lifts + 1
        assert isinstance(codes, bytes) == (width == 1)
        assert memoryview(codes).itemsize == width
        assert list(codes) == [t * (lifts + 1) + c for t, c in zip(ids, counts)]

    def test_typecode_widths(self):
        sizes = [256, 257, 1 << 16, (1 << 16) + 1, 1 << 32, (1 << 32) + 1, 1 << 64]
        assert "".join(map(distortion._id_typecode, sizes)) == "BHHIIQQ"
        with pytest.raises(DomainError):
            distortion._id_typecode((1 << 64) + 1)


@st.composite
def uniform_levels(draw):
    """(fibers, lifts, mask) of a level over a uniform parent.

    Each fiber is empty, full or hit at a random share of its lifts.
    """
    fibers, lifts = draw(st.integers(1, 4)), draw(st.integers(2, 300))
    rnd = draw(st.randoms(use_true_random=False))
    mask = bytearray(fibers * lifts)
    for y in range(fibers):
        share = draw(st.sampled_from((0, 1, rnd.random())))
        mask[y::fibers] = bytes(rnd.random() < share for _ in range(lifts))
    return fibers, lifts, mask


class TestUniformLift:
    """A parent of one type takes the general path's codes and, at delta 0, its measure.

    The general path gets the same uniform measure through a parent with a
    second, unused table entry.  Lifts past 255 take the array counts.
    """

    @given(uniform_levels())
    @settings(max_examples=60)
    def test_matches_the_general_path(self, level):
        fibers, lifts, mask = level
        bset, ids = LevelSet(mask), array("B", bytes(fibers))
        uniform = FiberMeasure((F(1, fibers),), ids)
        general = FiberMeasure((F(1, fibers), F(0)), ids)
        counts = hit_fractions(uniform, bset)
        codes, base = distortion._fiber_codes(uniform, counts, lifts)
        assert base == lifts + 1
        assert list(codes) == list(distortion._fiber_codes(general, counts, lifts)[0])
        assert list(codes) == [i * base + c for i, c in zip(ids, counts)]
        assert moments(uniform, counts, lifts) == moments(general, counts, lifts)
        fast, slow = (step_measure(prev, counts, F(0), bset) for prev in (uniform, general))
        assert (fast.table, bytes(fast.ids), fast.ids.typecode, fast.level_mass) == (
            slow.table, bytes(slow.ids), slow.ids.typecode, slow.level_mass
        )


class TestOneGroup:
    """A level whose fibers form one group takes its ids from its mask alone.

    Every fiber has the parent's one type and the same count, so each
    residue takes the off or the on type by its mask bit.  The ids must be
    those _select_rows makes of the constant off and on rows, and the masses
    those of the pointwise reference, while _select_rows itself is never
    called.  Each level also runs with _ROW_BLOCK cut to 5 bytes, so that
    its mask is read in many blocks, the last one short.
    """

    @staticmethod
    def _expected(parent, count, lifts, delta, mask):
        """(table, ids, typecode, level mass) by the general path's row select."""
        (m,) = parent.table
        off, on = (F(*pair) for pair in distortion._fiber_masses(m, count, lifts, delta))
        table = tuple(dict.fromkeys((off, on)))
        fibers = parent.modulus
        rows = bytes([0]) * fibers, bytes([table.index(on)]) * fibers
        ids = distortion._select_rows(*rows, mask, "B")
        return table, bytes(ids), ids.typecode, on * mask.count(1)

    @staticmethod
    def _no_select(*args):
        raise AssertionError("a one-group level called _select_rows")

    def _check_blocks(self, monkeypatch, build, expected, masses):
        for block in (distortion._ROW_BLOCK, 5):
            with monkeypatch.context() as patch:
                patch.setattr(distortion, "_ROW_BLOCK", block)
                patch.setattr(distortion, "_select_rows", self._no_select)
                out = build()
            assert (out.table, bytes(out.ids), out.ids.typecode, out.level_mass) == expected
            assert masses_of(out) == masses

    @pytest.mark.parametrize("delta", [F(1, 4), F(1, 3), F(1, 2)])
    @pytest.mark.parametrize("lifts", [2, 243, 256, 257, 4096])
    def test_first_level_matches_rows_and_reference(self, monkeypatch, lifts, delta):
        # lifts up to 255 give byte counts, the rest array counts; the
        # counts are 0, 1, lifts - 1, lifts and the largest one below
        # delta * lifts, whose on-mass is 0
        below = -(-delta.numerator * lifts // delta.denominator) - 1
        parent = uniform_measure()
        for count in sorted({0, 1, lifts - 1, lifts, below}):
            rng = random.Random(lifts * 8191 + count)
            mask = bytearray(lifts)
            for z in rng.sample(range(lifts), count):
                mask[z] = 1
            bset = LevelSet(mask)
            counts, _ = distortion._check_level(parent, bset)
            assert list(counts) == [count]
            _, _, _, pointwise = reference_level([F(1, lifts)] * lifts, mask, 1, delta)
            expected = self._expected(parent, count, lifts, delta, mask)
            # a first level's residues are its fibers
            self._check_blocks(
                monkeypatch, lambda: step_measure(parent, counts, delta, bset), expected,
                tuple(pointwise),
            )

    def test_two_fibers_hit_once(self, monkeypatch):
        # level 2 of 0 mod 2, 0 mod 3 at [0, 1/2]: the fibers of the uniform
        # mod-2 measure are each hit once in 3 lifts, by 0 and 3 mod 6
        pairs, deltas = [(0, 2), (0, 3)], [0, F(1, 2)]
        record = list(run_levels(sys_of(pairs), deltas))[-1]
        assert (len(record.parent.table), bytes(record.counts)) == (1, b"\x01\x01")
        want = reference_pipeline(pairs, deltas)[0][-1]["masses"]
        expected = self._expected(record.parent, 1, 3, F(1, 2), record.level_set.mask)
        self._check_blocks(
            monkeypatch, lambda: record._replace().measure, expected, fiber_sums(want, 6)
        )


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

    def test_delta_out_of_range(self, monkeypatch):
        # step_measure takes its delta from a DeltaSchedule, which rejects one
        # out of range before any level set is built
        monkeypatch.setattr(distortion, "level_set", no_level_set)
        for bad in (F(-1, 10), F(3, 5), F(1)):
            with pytest.raises(DomainError, match="delta must lie in"):
                next(run_levels(sys_of([(0, 2)]), [bad]))

    @pytest.mark.parametrize(
        "parent", [(F(1, 4), F(1, 4)), (F(3, 2), F(-1, 2))], ids=["total-half", "negative"]
    )
    def test_result_must_be_a_probability_measure(self, parent):
        # every fiber keeps its mass: a parent of total 1/2 leaves total 1/2,
        # one with a negative mass leaves negative masses; at delta 0 the
        # total-half parent, of one type, is lifted whole
        bset = LevelSet(b"\x01\x00\x00\x01")
        for delta in (F(1, 4), F(0)):
            with pytest.raises(InternalConsistencyError, match="not a probability measure"):
                step_measure(measure_of(parent), b"\x01\x01", delta, bset)

    @given(pipeline_cases())
    def test_mass_conserved_and_nonnegative(self, case):
        assert invariant_failures(case, "total != 1", "negative mass") == []

    @given(pipeline_cases())
    def test_pushforward_identity(self, case):
        assert invariant_failures(case, "pushforward") == []

    @given(pipeline_cases())
    def test_support_kill(self, case):
        assert invariant_failures(case, "survivor") == []


class TestLevelGate:
    """run_levels' one gate for a level's data, on the production path.

    Each case changes the last level's counts as hit_fractions hands them
    on.  Both list(run_levels(...)) and certify(...) must stop at the gate,
    whatever the kernels after it would make of the counts.  The mask cases,
    which the gate refuses before hit_fractions is called, are in
    TestHitFractions: test_mask_byte_past_one_is_caught for its bytes and
    test_level_mismatch_rejected for its length.
    """

    @pytest.mark.parametrize(
        "pairs, deltas, change, message",
        [
            ([(0, 2), (0, 3)], [0, F(1, 2)], lambda c: c[:-1], "one hit count per parent"),
            # 3 lifts, so a count of 4 would spill into the next type's codes
            ([(0, 2), (0, 3)], [0, F(1, 2)], lambda c: b"\x04" + c[1:], r"in \[0, 3\]"),
            (
                [(0, 2), (0, 2 * 257)], [0, F(1, 2)],
                lambda c: array(c.typecode, [258]) + c[1:], r"in \[0, 257\]",
            ),
            # at delta 0, B_2 = {0, 3} mod 6 holds a member above fiber 0
            ([(0, 2), (0, 3)], [0, 0], moved_first_hit, "hit fraction 0"),
            # B_2 = {1} mod 6 lies over fiber 1 mod 2, whose count reads 0
            # once it is moved onto fiber 0
            ([(0, 2), (1, 6)], [0, 0], moved_first_hit, "hit fraction 0"),
        ],
        ids=["counts-short", "bytes-count-past-lifts", "array-count-past-lifts",
             "member-over-zero-count", "member-over-zero-fraction-fiber"],
    )
    def test_bad_counts_are_caught(self, tamper_level, pairs, deltas, change, message):
        tamper_level(sys_of(pairs).lcm_modulus, counts=change)
        assert_gate_catches(pairs, deltas, message)

    # each level of this system under each schedule, and the last level of
    # 0 mod 4, 0 mod 3, 1 mod 3, whose lowered count took eta from 11/12 to
    # 5/6 before the counts were summed
    LOWERED = [
        ([(0, 2), (0, 3), (1, 3), (1, 6), (0, 5), (2, 5), (3, 10)], deltas, q)
        for deltas in ([F(1, 2)] * 3, [F(1, 4)] * 3, [0, F(1, 2), F(1, 2)])
        for q in (2, 6, 30)
    ] + [([(0, 4), (0, 3), (1, 3)], [0, 0], 12)]

    @pytest.mark.parametrize("pairs, deltas, q", LOWERED)
    def test_lowered_count_is_caught(self, tamper_level, pairs, deltas, q):
        # a count lowered by 1 passes every check of the measures at delta > 0,
        # and at the last level no measure is built; their sum must match the
        # mask's members, with every measure read and from certify
        tamper_level(q, counts=lowered_first_hit)
        message = "the hit counts sum to"
        with pytest.raises(InternalConsistencyError, match=message):
            for record in run_levels(sys_of(pairs), deltas):
                record.measure
        assert_gate_catches(pairs, deltas, message)


class TestRowBlocks:
    """The row passes of step_measure and of the level gate, over several blocks.

    _ROW_BLOCK is cut down to a few bytes, so that a level's mask spans
    several blocks of whole rows, down to one row a block, and the last
    block may hold fewer rows than the others.
    """

    @pytest.mark.parametrize("block", [1, 5, 24])
    @given(case=pipeline_cases())
    @settings(max_examples=30)
    def test_measures_match_reference(self, block, case):
        pairs, deltas = case
        expected, _ = reference_pipeline(pairs, deltas)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distortion, "_ROW_BLOCK", block)
            records = list(run_levels(sys_of(pairs), deltas))
            assert len(records) == len(expected)
            for got, want in zip(records, expected):
                assert masses_of(got.measure) == fiber_sums(want["masses"], got.measure.modulus)

    def test_wide_ids_match_reference(self, monkeypatch):
        # 512 fibers and 3 lifts in blocks of two rows; the new ids take 2 bytes
        monkeypatch.setattr(distortion, "_ROW_BLOCK", 1024)
        out = TestTypeTable._level(PrimeLadder((2, 3), (1, 2**9, 3 * 2**9)), 2, F(1, 3))
        assert out.ids.typecode == "H"

    @pytest.mark.parametrize("block", [2, 4])
    @pytest.mark.parametrize("row", [1, 3, 4])
    def test_zero_fiber_member_in_a_later_block(self, monkeypatch, tamper_level, block, row):
        # 2 fibers and 5 lifts: fiber 1 has no hit, yet a member lies above it
        # in row `row`, past the first block of one or two rows
        monkeypatch.setattr(distortion, "_ROW_BLOCK", block)
        parent = measure_of((F(1, 2),) * 2)
        mask = bytearray(10)
        mask[0] = mask[2 * row] = 1
        bad = bytearray(mask)
        bad[2 * row + 1] = 1
        assert distortion._check_level(parent, LevelSet(mask)) == (b"\x02\x00", 5)
        distortion._check_zero_fibers(b"\x02\x00", LevelSet(mask))
        with pytest.raises(InternalConsistencyError, match="hit fraction 0"):
            distortion._check_zero_fibers(b"\x02\x00", LevelSet(bad))
        # the same masks are level 2's of runs mod 10, where fiber 1's count
        # is moved onto fiber 0's, so that their sum still matches the mask
        pairs = [(0, 10), (2 * row, 10)]
        tamper_level(10, counts=lambda counts: bytes([counts[0] + counts[1]]) + bytes(1))
        last = list(run_levels(sys_of(pairs), [0, 0]))[-1]
        assert (last.level_set.mask, last.counts[1]) == (mask, 0)
        last.measure
        with pytest.raises(InternalConsistencyError, match="hit fraction 0"):
            list(run_levels(sys_of(pairs + [(2 * row + 1, 10)]), [0, 0]))

    def test_zero_fiber_check_memory(self, monkeypatch):
        # a 4 MiB mask over 16 fibers of 2^18 lifts; fiber 0 has no hit and no
        # member above it.  With hit_fractions handing over the counts, the
        # rest of the gate reads the mask a block at a time, so its traced
        # peak stays below the mask's own size
        lifts = 1 << 18
        counts = array("I", [0] + [lifts] * 15)
        mask = bytearray(bytes([0] + [1] * 15) * lifts)
        parent, bset = measure_of((F(1, 16),) * 16), LevelSet(mask)
        monkeypatch.setattr(distortion, "hit_fractions", lambda prev, bset: counts)
        tracemalloc.start()
        try:
            distortion._check_zero_fibers(distortion._check_level(parent, bset)[0], bset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(mask)


class TestFinalMeasureOnDemand:
    CASES = [
        ([(0, 2), (0, 3)], [0, 0]),
        ([(0, 4), (1, 6), (2, 5), (3, 10)], [F(1, 2), 0, F(1, 4)]),
        ([(1, 8), (0, 7)], [0, F(1, 2)]),
    ]

    @staticmethod
    def _count_steps(monkeypatch) -> list:
        """The modulus Q_j of the level set of each step_measure call, in call order."""
        calls = []
        real = distortion.step_measure

        def counted(*args):
            calls.append(args[3].modulus)
            return real(*args)

        monkeypatch.setattr(distortion, "step_measure", counted)
        return calls

    @pytest.mark.parametrize("pairs, deltas", CASES)
    def test_certify_skips_the_last_step(self, monkeypatch, pairs, deltas):
        calls = self._count_steps(monkeypatch)
        certify(sys_of(pairs), deltas)
        # Q_1, ..., Q_(J-1): every level but the last
        assert calls == list(ladder_of(sys_of(pairs).lcm_modulus).partials[1:-1])

    @pytest.mark.parametrize("pairs, deltas", CASES)
    def test_every_measure_is_built_once_when_read(self, monkeypatch, pairs, deltas):
        calls = self._count_steps(monkeypatch)
        records = list(run_levels(sys_of(pairs), deltas))
        partials = list(ladder_of(sys_of(pairs).lcm_modulus).partials)
        assert calls == partials[1:-1]
        final = records[-1].measure
        assert records[-1].measure is final
        assert final.modulus == sys_of(pairs).lcm_modulus
        assert calls == partials[1:]

    def test_measure_checks_the_mass_left_on_the_level_set(self):
        # delta 1/4: the one fiber, half hit, leaves 1/3 on B_1, equal to its
        # second-moment term; at delta 0 it leaves exactly M1 = 1/2
        system = sys_of([(0, 2), (0, 3)])
        record = next(run_levels(system, [F(1, 4), 0]))
        assert (record.term, record.measure.level_mass) == (F(1, 3), F(1, 3))
        assert record._replace(term=F(1, 2)).measure.level_mass == F(1, 3)
        with pytest.raises(InternalConsistencyError, match="leaves mass 1/3"):
            record._replace(term=F(1, 4)).measure
        record = next(run_levels(system, [0, 0]))
        assert (record.term, record.measure.level_mass) == (F(1, 2), F(1, 2))
        with pytest.raises(InternalConsistencyError, match="leaves mass 1/2"):
            record._replace(term=F(3, 4)).measure

    def test_level_mass_of_a_uniform_level_is_read_from_the_mask(self):
        # a record whose hit count and term are lowered past the gate, on a
        # uniform delta-0 level: the term reads 1/4, while B_1 = {0, 1} mod 4
        # still holds mass 1/2
        record = next(run_levels(sys_of([(0, 4), (1, 4), (0, 3)]), [0, 0]))
        assert (record.counts, record.term) == (b"\x02", F(1, 2))
        with pytest.raises(InternalConsistencyError, match="leaves mass 1/2"):
            record._replace(counts=b"\x01", term=F(1, 4)).measure

    def test_run_levels_checks_the_last_level(self, tamper_level):
        # no measure is read: the last level's counts are checked all the
        # same, against the mask's fibers at delta 0 and its members at every delta
        tamper_level(6, counts=moved_first_hit)
        with pytest.raises(InternalConsistencyError, match="hit fraction 0"):
            list(run_levels(sys_of([(0, 2), (0, 3)]), [0, 0]))
        tamper_level(6, counts=lowered_first_hit)
        with pytest.raises(InternalConsistencyError, match="hit counts sum to 1"):
            list(run_levels(sys_of([(0, 2), (0, 3)]), [0, F(1, 2)]))

    def test_certify_checks_the_last_level(self, tamper_level):
        tamper_level(6, counts=moved_first_hit)
        with pytest.raises(InternalConsistencyError, match="hit fraction 0"):
            certify(sys_of([(0, 2), (0, 3)]), [0, 0])
        tamper_level(6, counts=lowered_first_hit)
        with pytest.raises(InternalConsistencyError, match="hit counts sum to 1"):
            certify(sys_of([(0, 2), (0, 3)]), [0, F(1, 2)])


class TestMoments:
    def test_single_class(self):
        system = sys_of([(0, 2)])
        ladder = ladder_of(2)
        counts = hit_fractions(uniform_measure(), level_set(system, ladder, 1))
        assert moments(uniform_measure(), counts, 2) == (F(1, 2), F(1, 4))

    def test_second_level(self):
        system = sys_of([(0, 2), (0, 3)])
        ladder = ladder_of(6)
        prev = step_measure(uniform_measure(), b"\x01", F(0), level_set(system, ladder, 1))
        counts = hit_fractions(prev, level_set(system, ladder, 2))
        assert moments(prev, counts, 3) == (F(1, 3), F(1, 9))

    def test_empty_level(self):
        system = sys_of([(0, 6)])
        ladder = ladder_of(6)
        counts = hit_fractions(uniform_measure(), level_set(system, ladder, 1))
        assert moments(uniform_measure(), counts, 2) == (F(0), F(0))

    def test_repeated_table_masses(self):
        # two types may hold equal masses; each fiber's mass counts once
        prev = FiberMeasure((F(1, 2), F(1, 2)), array("H", [0, 1]))
        assert moments(prev, b"\x01\x01", 3) == (F(1, 3), F(1, 9))

    @given(pipeline_cases())
    def test_moment_ordering(self, case):
        pairs, deltas = case
        for record in run_levels(sys_of(pairs), deltas):
            assert 0 <= record.m2 <= record.m1 <= 1


class TestDeltaSchedule:
    def test_validation(self):
        for bad in (F(-1, 10), F(3, 5), F(1)):
            with pytest.raises(DomainError, match="delta must lie in"):
                DeltaSchedule((bad,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "1/0", "half"])
    def test_value_fraction_refuses_is_a_domain_error(self, bad):
        # Fraction raises ValueError, OverflowError or ZeroDivisionError on
        # these; the schedule reports each as out of range
        with pytest.raises(DomainError, match="delta must lie in"):
            certify(sys_of([(0, 2), (0, 3)]), [0, bad])

    def test_coercion(self):
        schedule = DeltaSchedule(["1/2", 0, F(1, 4)])
        assert schedule == (F(1, 2), F(0), F(1, 4))
        assert len(schedule) == 3
        assert schedule[0] == F(1, 2)
        assert list(schedule) == [F(1, 2), F(0), F(1, 4)]

    def test_default_schedule_threshold(self):
        ladder = ladder_of(2 * 3 * 7)
        assert default_delta_schedule(1, ladder, F(5)) == (F(0), F(0), F(1, 2))

    def test_default_schedule_all_smooth(self):
        ladder = ladder_of(6)
        assert default_delta_schedule(2, ladder) == (F(0), F(0))

    def test_default_schedule_tiny_constant(self):
        ladder = ladder_of(6)
        assert default_delta_schedule(1, ladder, F(1, 100)) == (F(1, 2), F(1, 2))

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

    def test_eta_below_one_for_a_covering_system_is_caught(self, monkeypatch):
        # a term of 0 would certify the parity split, which covers; the
        # witness mask, a fresh fill of every class, then holds no zero, and
        # a second call on the same system finds no witness kept
        monkeypatch.setattr(distortion, "_level_term", lambda m1, m2, delta: (0, FIRST_MOMENT))
        system = sys_of([(0, 2), (1, 2)])
        for _ in range(2):
            with pytest.raises(InternalConsistencyError, match="eta below 1 for a system that"):
                certify(system, [0])

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
        # the witness comes from a fresh fill of every class, not from
        # covers_oracle; the oracle and the brute-force scan stay
        # independent checks of it
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

    def test_level_masks_are_not_written_after_level_set(self, monkeypatch):
        real = distortion.level_set
        built = []  # (level set, a copy of its mask when level_set returned)

        def level_set(sys, ladder, j):
            bset = real(sys, ladder, j)
            built.append((bset, bytes(bset.mask)))
            return bset

        monkeypatch.setattr(distortion, "level_set", level_set)
        cert = certify(sys_of([(0, 2), (0, 3)]), [0, 0])
        assert (cert.verdict, cert.witness) == (NOT_COVERING, 1)
        assert len(built) == 2
        for bset, mask in built:
            assert bset.mask == mask

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
                lambda: next(run_levels(sys_of([(0, 8), (0, 9)]), [0, 0], limits=small)),
                pipeline, 72, 10,
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
    # one fiber of 512 lifts, and two fibers hit once each: one-group levels
    @example(([(1, 512)], [F(1, 2)]))
    @example(([(0, 2), (0, 3)], [0, F(1, 2)]))
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
        covers, witness, uncovered = brute_covers(pairs)
        if cert.verdict == NOT_COVERING:
            assert not covers
            assert cert.witness == witness
            q = oracle.lcm_of(d for _, d in pairs)
            assert uncovered >= uncovered_lower_bound(cert.eta, q, deltas)
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


@st.composite
def affine_cases(draw):
    """(pairs, deltas, u, t): a pipeline case, a unit u mod Q and a shift t in Z/QZ."""
    pairs, deltas = draw(pipeline_cases())
    q = oracle.lcm_of(d for _, d in pairs)
    u = draw(st.sampled_from([u for u in range(1, q) if gcd(u, q) == 1]))
    return pairs, deltas, u, draw(st.integers(0, q - 1))


class TestKeptLevels:
    """A system object gates each level once and keeps its counts and witness.

    Its later runs, under any schedule, must give what a fresh system gives.
    """

    def test_tampered_level_raises_on_every_call(self, tamper_level):
        # nothing is kept from a level that fails its gate, so the same error
        # comes back; once the fault is gone, the object certifies as a fresh one
        pairs, deltas = [(0, 2), (0, 3)], [0, F(1, 2)]
        system = sys_of(pairs)
        for mask, counts, message in [
            (lambda mask: mask[:-1], None, "multiple of the parent's"),
            (lambda mask: mask.replace(b"\x01", b"\x02", 1), None, "mask byte 2 is"),
            (None, lowered_first_hit, "hit counts sum to 1"),
        ]:
            tamper_level(6, mask=mask, counts=counts)
            for _ in range(2):
                with pytest.raises(InternalConsistencyError, match=message):
                    certify(system, deltas)
        tamper_level(6)
        for schedule in (deltas, [0, 0]):
            assert certify(system, schedule) == certify(sys_of(pairs), schedule)

    def test_zero_fiber_check_on_a_kept_level(self, tamper_level):
        # moved counts pass the gate at delta 1/2 and are kept; the first run
        # at delta 0, and every one after it, checks them against the mask
        system = sys_of([(0, 2), (0, 3)])
        tamper_level(6, counts=moved_first_hit)
        certify(system, [0, F(1, 2)])
        tamper_level(6)
        for _ in range(2):
            with pytest.raises(InternalConsistencyError, match="hit fraction 0"):
                certify(system, [0, 0])

    def test_limits_are_checked_on_every_call(self):
        system = sys_of([(0, 4), (1, 6), (2, 5)])
        certify(system)
        small = Limits(residue_space=59)
        with pytest.raises(ResourceLimitError):
            certify(system, limits=small)
        with pytest.raises(ResourceLimitError):
            list(run_levels(system, [0, 0, 0], limits=small))
        assert certify(system, limits=Limits(residue_space=60)) == certify(system)

    @pytest.mark.parametrize("deltas", [[0, 0], [F(1, 2), F(1, 4)]])
    def test_counts_are_read_only(self, deltas):
        # level 1 has one fiber of 4096 lifts, array counts; level 2 has 3
        # lifts, byte counts.  A later run of the object, under any schedule,
        # hands out the counts the system keeps, and neither takes a write
        # that a later run would read
        pairs = [(0, 4096), (5, 12), (1, 3)]
        system = sys_of(pairs)
        first, second = run_levels(system, deltas)
        assert (len(first.counts), len(second.counts)) == (1, 4096)
        assert (first.counts[0], second.counts[5]) == (1, 2)
        again_first, again_second = run_levels(system, deltas[::-1])
        assert again_first.counts is first.counts
        assert isinstance(again_second.counts, bytes) and again_second.counts == second.counts
        for record in (first, second, again_first, again_second):
            with pytest.raises(TypeError):
                record.counts[0] = 0
            with pytest.raises(TypeError):
                record.counts[5 % len(record.counts)] = 3
        assert certify(system, deltas) == certify(sys_of(pairs), deltas)

    def test_kept_memory_is_about_the_counts(self):
        # Q = 17 Q_(J-1), Q_(J-1) = 2^8 3^2 5 7 = 80640; the store keeps the
        # counts of every level, about Q_(J-1) + Q_(J-2) + ... bytes, and no
        # mask, which takes Q bytes at the last level and in the witness fill
        pairs = [(0, 256), (1, 9), (2, 35), (3, 34), (4, 17 * 45)]
        system = sys_of(pairs)
        qprev = system.lcm_modulus // 17
        assert qprev == 80640
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            cert = certify(system, [0, 0, 0, 0, 0])
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.verdict == NOT_COVERING
        assert kept - before < 2 * qprev
        assert certify(system, [0] * 5) == cert == certify(sys_of(pairs), [0] * 5)


class TestAffineInvariance:
    """A system and its image under x -> u x + t, u a unit mod Q, certify alike.

    The map permutes Z/QZ and carries each level set onto the image's, so
    every term, eta and the verdict are the same, at any size.  The image's
    witness w, mapped back by x = u^-1 (w - t) mod Q, is uncovered in the
    system.
    """

    @staticmethod
    def _assert_alike(pairs, deltas, u, t):
        q = oracle.lcm_of(d for _, d in pairs)
        cert = certify(sys_of(pairs), deltas)
        image = certify(sys_of(oracle.affine_image(pairs, u, t)), deltas)
        assert (image.terms, image.eta, image.verdict) == (cert.terms, cert.eta, cert.verdict)
        if image.verdict == NOT_COVERING:
            x = pow(u, -1, q) * (image.witness - t) % q
            assert all((x - r) % d for r, d in pairs)
        return cert

    @given(affine_cases())
    def test_certificates_agree(self, case):
        self._assert_alike(*case)

    @pytest.mark.parametrize("drop", [False, True], ids=["covers", "without-0"])
    def test_family_images_agree(self, drop):
        # Q = 3 * 2^19: level 1 is one fiber of 2^19 lifts, two _ROW_BLOCK
        # blocks, and level 2 has 3 * 2^19 residues; without its class 0 the
        # family no longer covers, so the witness is mapped back too
        family = construct_minimal_family(22)
        system = family.without(0) if drop else family
        pairs, q = list(zip(system.residues, system.moduli)), system.lcm_modulus
        rng = random.Random(22)
        for deltas in (None, [F(1, 4)] * 2):  # the default schedule, then all 1/4
            for _ in range(2):
                u = rng.choice([u for u in range(1, 97) if gcd(u, q) == 1])
                cert = self._assert_alike(pairs, deltas, u, rng.randrange(q))
            assert cert.verdict == (NOT_COVERING if drop else INCONCLUSIVE)


class TestApMassBound:
    """The test suite's reference progression check, on the pipeline's measures."""

    def test_uniform_start_clean(self):
        schedule = DeltaSchedule([0, F(1, 2)])
        assert ap_mass_bound_check(masses_of(uniform_measure()), (2, 3), schedule) == []

    def test_boundary_equality_clean(self):
        system = sys_of([(0, 2)])
        schedule = DeltaSchedule([F(1, 2)])
        record = next(iter(run_levels(system, schedule)))
        assert masses_of(record.measure) == (F(0), F(1))
        assert ap_mass_bound_check(masses_of(record.measure), (2,), schedule) == []

    def test_pipeline_levels_clean(self):
        system = sys_of([(0, 2), (0, 3), (1, 4), (5, 6), (7, 12)])
        schedule = DeltaSchedule([F(1, 4), F(1, 3)])
        ladder = prime_ladder(system.factorization)
        for record in run_levels(system, schedule):
            assert ap_mass_bound_check(masses_of(record.measure), ladder.primes, schedule) == []

    def test_tampered_measure_detected(self):
        bad = measure_of((F(1, 3), F(1, 3), F(0), F(1, 3), F(0), F(0)))
        violations = ap_mass_bound_check(masses_of(bad), (2, 3), DeltaSchedule([0, 0]))
        assert [(v.modulus, v.residue, v.mass, v.bound) for v in violations] == [
            (2, 1, F(2, 3), F(1, 2)),
            (3, 0, F(2, 3), F(1, 3)),
            (6, 0, F(1, 3), F(1, 6)),
            (6, 1, F(1, 3), F(1, 6)),
            (6, 3, F(1, 3), F(1, 6)),
        ]

    @given(pipeline_cases())
    def test_never_violated_by_pipeline(self, case):
        assert invariant_failures(case, "progression bounds") == []
