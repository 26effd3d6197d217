"""Congruence systems, factorization, coverage oracles, minimality, parsing."""

import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
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
from covercert.cli import RunConfig
from covercert.constructions import construct_minimal_family, shift_expand
from covercert.core import (
    _TOO_LONG,
    DEFAULT_LIMITS,
    ResidueClass,
    _hit_mask,
    _parse_lines,
    factorize,
)
from covercert.distortion import certify, prime_ladder, run_levels

from helpers import (
    DIGIT_LIMIT,
    brute_covers,
    brute_covers_initial_segment,
    brute_minimal,
    divisors_of,
    needs_digit_limit,
    oracle,
    reference_parse_json,
    reference_parse_lines,
    structured_system_text,
    system_pairs,
    system_text,
)

C5 = [(1, 2), (2, 4), (0, 3), (4, 6), (8, 12)]


def records() -> dict:
    """One instance of each result record, by class name, with its repr."""
    system = CongruenceSystem([0, 0], [2, 3])
    record = next(run_levels(system, [Fraction(1, 4), 0]))
    cert = certify(system, [0, 0])
    level_set = "LevelSet(mask=bytearray(b'\\x01\\x00'))"
    uniform = "FiberMeasure(table=(Fraction(1, 1),), ids=array('B', [0]), level_mass=None)"
    term = (
        "CertificateTerm(prime={}, delta=Fraction(0, 1), m1=Fraction(1, {}),"
        " m2=Fraction(1, {}), term=Fraction(1, {}), branch='first-moment')"
    )
    terms = f"({term.format(2, 2, 4, 2)}, {term.format(3, 3, 9, 3)})"
    return {
        "Limits": (Limits(), "Limits(residue_space=10000000, interval=16777216)"),
        "CongruenceSystem": (system, "CongruenceSystem(residues=(0, 0), moduli=(2, 3))"),
        "CoverageReport": (
            covers_oracle(system), "CoverageReport(covers=False, witness=1, uncovered_count=2)"
        ),
        "PrimeLadder": (
            prime_ladder(system.factorization), "PrimeLadder(primes=(2, 3), partials=(1, 2, 6))"
        ),
        "LevelSet": (record.level_set, level_set),
        "FiberMeasure": (
            record.measure,
            "FiberMeasure(table=(Fraction(2, 3), Fraction(1, 3)), ids=array('B', [1, 0]),"
            " level_mass=Fraction(1, 3))",
        ),
        "CertificateTerm": (cert.terms[0], term.format(2, 2, 4, 2)),
        "Certificate": (
            cert,
            f"Certificate(terms={terms}, eta=Fraction(5, 6), verdict='NotCovering', witness=1)",
        ),
        "LevelRecord": (
            record,
            f"LevelRecord(level=1, prime=2, delta=Fraction(1, 4), level_set={level_set},"
            " counts=b'\\x01', m1=Fraction(1, 2), m2=Fraction(1, 4), term=Fraction(1, 3),"
            f" branch='second-moment', parent={uniform})",
        ),
        "RunConfig": (
            RunConfig("text", Limits(5, 6)),
            "RunConfig(output_format='text', limits=Limits(residue_space=5, interval=6))",
        ),
    }

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


# frames of is_minimal's row shapes: 2^4*3 and 2^4*5 give rows (P <= Q'), 2*7
# and 4*7 one row (P > Q'), and 2^4*9 rows mod 9, or one row once a modulus
# holds 3 but not 9
ROW_FRAMES = (48, 80, 14, 28, 144)


@st.composite
def row_shaped_pairs(draw):
    """A full residue system mod b <= 8, at times less one class, plus noise
    and at times a duplicate, in any order; moduli divide a frame of ROW_FRAMES."""
    frame = draw(st.sampled_from(ROW_FRAMES))
    pool = divisors_of(frame)
    if frame == 144 and draw(st.booleans()):  # keep 9 rows
        pool = [d for d in pool if d % 3 or d % 9 == 0]
    b = draw(st.sampled_from([d for d in pool if d <= 8]))
    pairs = [(r, b) for r in range(b)]
    if draw(st.integers(0, 3)) == 0:
        del pairs[draw(st.integers(0, b - 1))]
    pairs += draw(st.lists(st.tuples(st.integers(-frame, frame), st.sampled_from(pool)), max_size=5))
    if pairs and draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))
    return draw(st.permutations(pairs))


# JSON values that are not integers to the parser; true and false load as bool
_NOT_INTS = (True, False, None, 1.5, 2.0, float("inf"), "3", [1], {"n": 1})


@st.composite
def json_system_text(draw):
    """JSON system text: {"classes": [{"r": R, "d": D}, ...]}, at times with
    one fault, dumped with any indent and key order after any spaces.

    The faults: a residue or modulus that is not an int, a modulus 0 or
    negative, an entry with a key missing or not an object, "classes"
    missing or not a list, a top-level value that is not an object, which
    is line format, and text cut short.
    """
    classes = [
        {"r": r, "d": d}
        for r, d in draw(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 40)), max_size=4))
    ]
    kind = draw(st.sampled_from(
        ("good", "good", "value", "modulus", "key", "entry", "classes", "top", "cut")
    ))
    if kind in ("value", "modulus", "key", "entry"):
        i = draw(st.integers(0, len(classes)))
        classes[i:i] = [{"r": 0, "d": 1}]
        if kind == "value":
            classes[i][draw(st.sampled_from("rd"))] = draw(st.sampled_from(_NOT_INTS))
        elif kind == "modulus":
            classes[i]["d"] = draw(st.integers(-40, 0))
        elif kind == "key":
            del classes[i][draw(st.sampled_from("rd"))]
        else:
            classes[i] = draw(st.sampled_from((1, [0, 2], "0 mod 2", None)))
    data = {"classes": classes}
    if kind == "classes":
        data = draw(st.sampled_from(({}, {"classes": None}, {"classes": {"r": 0, "d": 2}},
                                     {"classes": "0 mod 2"}, {"Classes": classes})))
    elif kind == "top":
        data = draw(st.sampled_from(([], [1, 2], classes[:1], "0 mod 2", 3)))
    text = json.dumps(data, indent=draw(st.sampled_from((None, 0, 2))),
                      sort_keys=draw(st.booleans()))
    if kind == "cut":
        text = text[: draw(st.integers(1, len(text) - 1))]
    return draw(st.sampled_from(("",) * 4 + (" ", "\n", "\t\n", "\xa0"))) + text


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
        assert list(factorize(n)) == oracle.factor_pairs(n)


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


def brute_mask(size: int, progressions) -> bytearray:
    hit = bytearray(size)
    for start, d in progressions:
        for x in range(start, size, d):
            hit[x] = 1
    return hit


class TestHitMask:
    """_hit_mask against a fill of one byte at a time."""

    @pytest.mark.parametrize(
        "size, progressions",
        [
            # each modulus grows the mask to its own length: one byte per start
            (60, [(1, 2), (0, 4), (3, 4), (5, 12), (11, 12), (7, 60), (59, 60), (0, 60)]),
            # one-byte groups (4, 12, 24) between wider fills (6, 8, 16), each
            # with a byte no other progression hits
            (48, [(1, 4), (5, 6), (7, 12), (2, 8), (23, 24), (3, 16), (0, 4)]),
            # a group of modulus 1 and a repeated start
            (6, [(0, 1), (2, 3), (2, 3)]),
            # d not dividing size, as in the interval check
            (16, [(0, 3), (2, 5), (1, 2), (4, 7)]),
        ],
        ids=["one-byte", "mixed", "modulus-1", "interval"],
    )
    def test_matches_brute_fill(self, size, progressions):
        assert _hit_mask(size, progressions) == brute_mask(size, progressions)

    @given(system_pairs(max_classes=12))
    def test_matches_brute_fill_on_drawn_systems(self, pairs):
        progressions = [(r % d, d) for r, d in pairs]
        size = oracle.lcm_of(d for _, d in pairs)
        assert _hit_mask(size, progressions) == brute_mask(size, progressions)

    def test_shift_expanded_family(self):
        # 8 moduli, 16 shifts each: one-byte groups (32 to 256) and wider fills (384, 768)
        system = shift_expand(construct_minimal_family(12), 5)
        pairs = list(zip(system.residues, system.moduli))
        q = system.lcm_modulus
        assert _hit_mask(q, pairs) == brute_mask(q, pairs)
        report = covers_oracle(system)
        assert (report.covers, report.witness, report.uncovered_count) == brute_covers(pairs)
        smaller = system.without(0)
        report = covers_oracle(smaller)
        expected = brute_covers(list(zip(smaller.residues, smaller.moduli)))
        assert (report.covers, report.witness, report.uncovered_count) == expected


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
        assert multiplicity(sys_of(pairs)) == oracle.multiplicity_of(pairs)

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

    @given(row_shaped_pairs())
    # rows mod 3, each with classes of its own: 4 mod 6 and 8 mod 12 are rows 1 and 2
    @example(pairs=C5)
    # rows mod 3; 1 mod 4 hits residues alone in rows 0 and 2, which come last
    @example(pairs=[(0, 2), (1, 4), (3, 4), (0, 6), (2, 6), (1, 6)])
    # rows mod 5; rows 1 to 4 hold no class of their own
    @example(pairs=[(0, 2), (1, 2), (0, 80)])
    # rows mod 9 of 16 residues; 15 mod 144 lies in row 6 alone
    @example(pairs=[(0, 2), (1, 4), (3, 16), (7, 16), (11, 16), (15, 16), (15, 144)])
    # P = 7 > Q' = 2: one row
    @example(pairs=[(0, 2), (1, 2), (3, 7)])
    # 1 mod 3 lies in 3 of the 9 rows mod 9: one row
    @example(pairs=[(0, 2), (1, 2), (1, 3), (5, 144)])
    # the classes mod 48 = 3 * 16 each lie in 3 rows mod 9, and each covers
    # residues alone: one row
    @example(pairs=[(0, 2), (1, 4), (3, 8), (7, 16), (15, 48), (31, 48), (47, 48), (0, 144)])
    # row 0 mod 3 holds 0 mod 3 and 0 mod 6, 24 bytes to keep for a row of
    # 16: counted into a copy of the shared counter
    @example(pairs=[(0, 2), (1, 2), (0, 3), (0, 6), (1, 16)])
    # duplicates and a modulus 1
    @example(pairs=[(0, 1), (1, 2), (0, 1)])
    # not covering: x = 15 (mod 16) only in row 6 mod 9; x = 8 (mod 12) in row 2 mod 3
    @example(pairs=[(0, 2), (1, 4), (3, 16), (7, 16), (11, 16), (15, 144)])
    @example(pairs=[(1, 2), (2, 4), (0, 3), (4, 6), (2, 12)])
    def test_matches_brute_force_on_every_row_shape(self, pairs):
        expected = brute_minimal(pairs)
        if expected is None:
            with pytest.raises(DomainError, match="only defined for covering systems"):
                is_minimal(sys_of(pairs))
        else:
            assert is_minimal(sys_of(pairs)) == expected

    @pytest.mark.parametrize("j", range(5, 23))
    def test_affine_images_of_the_family_agree(self, j):
        # with class k repeated at the end, exactly k and its copy are
        # redundant, in the family and in each image; j = 22 has Q = 3 * 2^19
        # and 3 rows of 2^19 residues
        rng = random.Random(j)
        family = construct_minimal_family(j)
        pairs = list(zip(family.residues, family.moduli))
        k = rng.randrange(len(pairs))
        pairs.append(pairs[k])
        q = oracle.lcm_of(d for _, d in pairs)
        assert is_minimal(sys_of(pairs)) == (False, [k, len(pairs) - 1])
        for _ in range(2):
            u = rng.choice([u for u in range(1, 97) if gcd(u, q) == 1])
            image = oracle.affine_image(pairs, u, rng.randrange(q))
            assert is_minimal(sys_of(image)) == (False, [k, len(pairs) - 1])

    def test_affine_images_of_a_shift_expansion_agree(self):
        source = shift_expand(construct_minimal_family(12), 4)
        pairs = list(zip(source.residues, source.moduli))
        q = source.lcm_modulus
        expected = is_minimal(source)
        for u, t in [(5, 0), (7, 11), (q - 1, 1000), (1, q - 1)]:
            assert is_minimal(sys_of(oracle.affine_image(pairs, u, t))) == expected

    @staticmethod
    def _traced(system):
        """is_minimal(system) and its traced peak in bytes."""
        system.factorization  # cached before tracing
        tracemalloc.start()
        try:
            return is_minimal(system), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_a_row_and_a_half(self):
        # one row of Q/3 bytes and a slice of half of it, 0.5·Q; the 1-byte
        # slices its own classes overwrite are put back after each row
        system = construct_minimal_family(22)
        result, peak = self._traced(system)
        assert result == (True, [])
        assert peak <= 0.6 * system.lcm_modulus

    def test_a_row_whose_classes_overwrite_more_than_it_holds_is_copied(self):
        # eight copies of 0 mod 3 would keep eight rows' bytes to put back
        # (3.3·Q); row 0 is counted into a copy instead, and the bump of a
        # class mod 3 slices all of it: 4 rows of Q/3, under the parent's 5/3·Q
        family = construct_minimal_family(22)
        system = CongruenceSystem(family.residues + (0,) * 8, family.moduli + (3,) * 8)
        result, peak = self._traced(system)
        # 0 mod 3 * 2^17, the family's class 19, lies inside 0 mod 3
        assert result == (False, [19, *range(22, 30)])
        assert peak <= 1.4 * system.lcm_modulus


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
        for text in ['{"classes": 5}', '{"classes": null}', '{"classes": true}', '{"x": 1}']:
            with pytest.raises(ParseError, match='must be an object with a "classes" array'):
                parse_system(text)
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

    @given(structured_system_text())
    @example("1 mod 2 3 mod 4\n")
    @example("1\nmod 2\n")
    @example("1 mod\n2\n")
    @example("1mod 2\n")
    @example("007 mod 010\n")
    @example("-0 mod 5")
    @example("\n \n1 mod 2\n\t\n3 mod 4\n\n")
    @example("1 mod 2 3 mod 4\n\n\n")
    @example("1 mod 2 mod 3\n4\n")
    @settings(max_examples=300)
    def test_line_shapes_match_reference_line_parser(self, text):
        # parse_system, plain fast path included, and the line loop alone
        # give the same columns, or the same error message and line
        expected = reference_parse_lines(text)
        for parse in (parse_system, _parse_lines):
            if isinstance(expected, tuple):
                with pytest.raises(ParseError) as err:
                    parse(text)
                assert (str(err.value), err.value.line) == expected
            else:
                got = parse(text)
                assert list(zip(got.residues, got.moduli)) == expected

    @given(json_system_text())
    @example('{"classes": [{"r": 1, "d": true}]}')
    @example('{"classes": [{"r": 0.5, "d": 2}]}')
    @example('{"classes": [{"r": 1}]}')
    @example('{"classes": {"r": 1, "d": 2}}')
    @example('{"classes": [{"r": 1, "d": 2}, {"r": 0, "d": 0}]}')
    @example('{"classes": [{"r": 0, "d": -3}]}')
    @example('{"classes": [{"r": 1, "d": 1' + "0" * 4300 + "}]}")
    @example('[{"r": 1, "d": 2}]')
    @settings(max_examples=300)
    def test_json_shapes_match_reference_json_parser(self, text):
        # the same columns, or the same error message and no line; text
        # that does not start with "{" after spaces is line format
        is_json = text.lstrip().startswith("{")
        expected = (reference_parse_json if is_json else reference_parse_lines)(text)
        if isinstance(expected, tuple):
            with pytest.raises(ParseError) as err:
                parse_system(text)
            assert (str(err.value), err.value.line) == expected
        else:
            got = parse_system(text)
            assert list(zip(got.residues, got.moduli)) == expected

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

    @pytest.mark.parametrize(
        "text",
        [
            "1 mod 2, 3 mod 4".replace(",", "\n"),
            "\t1\tmod 2 \n\n \t\n-3 mod\t\t4\t\n\n",
            "1 mod 2\n3 mod 4",
            "1 mod 2\n3 mod 4\n\n",
            "",
            emit_system(shift_expand(construct_minimal_family(20), 10)),
        ],
        ids=["cli-system", "tabs-and-blanks", "no-final-newline", "two-final-newlines", "empty",
             "shift-expanded"],
    )
    def test_plain_text_skips_the_line_loop(self, monkeypatch, text):
        # the columns agree with the line loop's, which the plain text never reaches
        expected = _parse_lines(text)

        def line_loop(text):
            raise AssertionError("plain text went to the line loop")

        monkeypatch.setattr("covercert.core._parse_lines", line_loop)
        assert parse_system(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "007 mod 010\n-00 mod 3\n",
            "# a system\n1 mod 2\n",
            "1 mod 2\r\n3 mod 4\r\n",
            "1 mod 2\n5 mod 1" + "0" * 4300,
            "1 mod 2\n\ud800 mod 3\n",
        ],
        ids=["leading-zeros", "comment", "crlf", "modulus-past-digit-limit", "lone-surrogate"],
    )
    def test_other_text_reads_as_the_line_loop_does(self, text):
        try:
            expected = _parse_lines(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parse_system(text)
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
        else:
            assert parse_system(text) == expected

    @pytest.mark.parametrize(
        "system",
        [
            construct_minimal_family(300),
            CongruenceSystem(),
            sys_of([(0, 1), (5, 7), (-1, 10**30), (10**30, 10**31)]),
        ],
        ids=["j300", "empty", "small"],
    )
    def test_emit_matches_str_format(self, system):
        assert emit_system(system) == "".join(
            map("{} mod {}\n".format, system.residues, system.moduli)
        )

    @given(system_pairs(max_classes=20))
    def test_emit_matches_str_format_on_drawn_systems(self, pairs):
        system = sys_of(pairs)
        assert emit_system(system) == "".join(
            map("{} mod {}\n".format, system.residues, system.moduli)
        )

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
        # a system is not a tuple: it equals no pair of columns, and hashes as its columns do
        columns = (left.residues, left.moduli)
        assert left != columns and hash(left) == hash(columns)

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
        # every result record: its repr, and no field or cached value set or deleted
        for name, (record, text) in records().items():
            assert (type(record).__name__, repr(record)) == (name, text)
            fields = getattr(record, "_fields", ("residues", "moduli"))
            for attr in (*fields, "classes", "lcm_modulus", "measure", "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, attr, None)
                with pytest.raises(AttributeError):
                    delattr(record, attr)
            assert repr(record) == text

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
        # on every path that builds limits: the constructor, _replace and _make
        for bad, shown in ((0, "0"), (-1, "-1"), (-(10**4000), "at most -10^3999")):
            values = {**Limits()._asdict(), field: bad}
            for build in (
                lambda: Limits(**{field: bad}),
                lambda: Limits()._replace(**{field: bad}),
                lambda: Limits._make(values.values()),
            ):
                with pytest.raises(DomainError) as err:
                    build()
                assert str(err.value) == f"limit {field} must be positive, got {shown}"
        assert getattr(Limits(**{field: 1}), field) == 1
        assert getattr(Limits()._replace(**{field: 1}), field) == 1

    @pytest.mark.parametrize(
        "q",
        [10**80 - 1, 10**80, 2**300 - 1, 2**300, 10**4400 + 10**2200, 2**20000 + 1],
        ids=["80-digits", "81-digits", "2^300-1", "2^300", "4401-digits", "2^20000+1"],
    )
    def test_size_past_80_digits_is_a_lower_bound(self, q):
        # the int/str digit limit (4300 by default) does not bound the message
        with pytest.raises(ResourceLimitError) as err:
            Limits(residue_space=1).require_residue_space(q, "scan")
        assert (err.value.required, err.value.limit) == (q, 1)
        prefix, suffix = "scan needs a residue space of size ", ", over the limit 1"
        message = str(err.value)
        assert message.startswith(prefix) and message.endswith(suffix)
        shown = message[len(prefix) : -len(suffix)]
        if q < 10**80:
            assert shown == str(q)
        else:
            assert shown.startswith("at least 10^") and len(shown) <= 20
            k = int(shown.removeprefix("at least 10^"))
            assert 10**k <= q < 10 ** (k + 2)

    @pytest.mark.parametrize("n", [265, 266, 3000, 20000])
    def test_interval_size_past_80_digits_is_a_power_of_two(self, n):
        with pytest.raises(ResourceLimitError) as err:
            covers_interval(sys_of([(0, 2)] * n))
        shown = str(2**n) if n == 265 else f"2^{n}"
        assert str(err.value) == f"interval check needs {shown} integers, over the limit 16777216"
        assert (err.value.required, err.value.limit) == (2**n, 2**24)

    def test_rational_str(self):
        assert rational_str(Fraction(5, 6)) == "5/6"
        assert rational_str(Fraction(0)) == "0/1"

    def test_lcm_modulus_of_empty(self):
        assert CongruenceSystem(()).lcm_modulus == 1

    @given(system_pairs())
    def test_lcm_modulus(self, pairs):
        assert sys_of(pairs).lcm_modulus == oracle.lcm_of(d for _, d in pairs)

    def test_sorted_by_modulus(self):
        system = sys_of(C5).sorted_by_modulus()
        assert [(c.residue, c.modulus) for c in system.classes] == [
            (1, 2), (0, 3), (2, 4), (4, 6), (8, 12)
        ]
