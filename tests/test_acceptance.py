"""End-to-end acceptance gate.

Each criterion gets exactly one [PASS]/[FAIL] line; the lines are repeated
after the run summary by the hook in conftest.  Criteria 4, 5 and 6 share one
sweep over an exhaustive small-modulus family plus seeded random systems, so
the expensive pipeline work happens once.
"""

import importlib.util
import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from covercert import (
    CongruenceSystem,
    certify,
    construct_minimal_family,
    covers_interval,
    covers_oracle,
    default_delta_schedule,
    is_minimal,
    jth_modulus_bound,
    multiplicity,
    multiplicity_modulus_bound,
    prime_ladder,
    run_levels,
    shift_expand,
    smooth_reciprocal_sum,
)

from helpers import (
    agree_to_digits,
    divisors_of,
    first_moment_bound,
    measure_invariant_failures,
    mpmath_jth_modulus_bound,
    mpmath_multiplicity_modulus_bound,
    oracle,
    uncovered_lower_bound,
)

F = Fraction
SEED = 20260815
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

ACCEPTANCE_LINES: list[str] = []


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def sys_of(pairs) -> CongruenceSystem:
    return CongruenceSystem.from_pairs(pairs)


# ---------------------------------------------------------------------------
# criteria 1..3: constructions and the worked certificates


def test_criterion_1_minimal_family():
    started = time.perf_counter()
    ok = True
    for j in range(5, 11):
        system = construct_minimal_family(j)
        expected = sorted(oracle.family_moduli(j))
        got = sorted(c.modulus for c in system.classes)
        minimal, redundant = is_minimal(system)
        if not (covers_oracle(system).covers and minimal and not redundant and got == expected):
            ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _report(
        1,
        "families with 5..10 distinct moduli cover, are minimal, match the modulus list",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_2_shift_expansion():
    ok = True
    checked = 0
    for j in (5, 6):
        base = construct_minimal_family(j)
        for ell in range(1, len(base.classes) + 1):
            expanded = shift_expand(base, ell)
            if not covers_oracle(expanded).covers:
                ok = False
            if multiplicity(expanded) != 2 ** (ell - 1):
                ok = False
            checked += 1
    _report(
        2,
        "shift expansions of the 5- and 6-modulus families cover with multiplicity 2^(ell-1)",
        ok,
        f"{checked} expansions",
    )


def test_criterion_3_worked_certificates():
    first = certify(sys_of([(0, 2), (0, 3)]), [0, 0])
    second = certify(sys_of([(1, 2), (0, 4)]), [0])
    ok = (
        first.eta == F(5, 6)
        and first.verdict == "NotCovering"
        and first.witness == 1
        and second.eta == F(3, 4)
        and second.verdict == "NotCovering"
    )
    _report(3, "worked certificates give eta 5/6 (witness 1) and 3/4 exactly", ok)


# ---------------------------------------------------------------------------
# criteria 4..6: the shared soundness sweep

EXHAUSTIVE_MODULI = (2, 3, 4, 5, 6, 8, 9, 10)  # the divisors of 720 up to 10
RANDOM_PRIMES = (2, 3, 5, 7, 11, 13)
MIXED_POOL = (F(1, 4), F(1, 3), F(1, 8), F(2, 5))


def _schedule_for(index: int, ladder, mult: int) -> list[Fraction]:
    kind = index % 5
    if kind == 0:
        return [F(0)] * ladder.depth
    if kind == 1:
        return [F(1, 2)] * ladder.depth
    if kind == 2:
        return [F(0) if i % 2 == 0 else F(1, 2) for i in range(ladder.depth)]
    if kind == 3:
        return list(default_delta_schedule(mult, ladder))
    return [MIXED_POOL[i % len(MIXED_POOL)] for i in range(ladder.depth)]


def _exhaustive_systems():
    rng = random.Random(SEED)
    for size in range(1, 6):
        for moduli in itertools.combinations_with_replacement(EXHAUSTIVE_MODULI, size):
            yield tuple((0, d) for d in moduli)
            yield tuple((i % d, d) for i, d in enumerate(moduli))
            yield tuple((rng.randrange(d), d) for d in moduli)


def _random_frame(rng: random.Random, cap: int) -> int:
    frame = 1
    for p in RANDOM_PRIMES:
        if rng.random() < 0.35:
            continue
        exponent = rng.randint(1, 3 if p == 2 else 2)
        while exponent and frame * p**exponent > cap:
            exponent -= 1
        frame *= p**exponent
    return frame if frame > 1 else rng.choice((2, 6, 12))


def _random_systems():
    rng = random.Random(SEED)
    for i in range(1000):
        tier = i % 100
        cap = 2000 if tier < 85 else (20000 if tier < 99 else 100_000)
        frame = _random_frame(rng, cap)
        choices = [d for d in divisors_of(frame) if d >= 2]
        count = rng.randint(1, 6)
        pairs = []
        for _ in range(count):
            d = rng.choice(choices)
            pairs.append((rng.randrange(d), d))
        yield tuple(pairs)
    # two fixed systems near the Q <= 10^5 ceiling
    yield ((0, 98280), (1, 8), (2, 27))
    yield ((5, 99840),)


def _random_schedule(rng: random.Random, depth: int) -> list[Fraction]:
    out = []
    for _ in range(depth):
        u = rng.random()
        if u < 0.4:
            out.append(F(0))
        elif u < 0.7:
            out.append(F(1, 2))
        else:
            out.append(F(rng.randint(0, 50), 100))
    return out


@dataclass
class SweepOutcome:
    systems: int = 0
    levels: int = 0
    prefix_zero_levels: int = 0
    cross_checks: int = 0
    count_bounds: int = 0
    soundness_seconds: float = 0.0
    soundness_failures: list = field(default_factory=list)
    measure_failures: list = field(default_factory=list)
    moment_failures: list = field(default_factory=list)


def _sweep_one(outcome, pairs, schedule, ladder, check_certify: bool):
    system = sys_of(pairs)
    d1 = min(d for _, d in pairs)

    started = time.perf_counter()
    records = list(run_levels(system, schedule))
    eta = sum((r.term for r in records), F(0))
    report = covers_oracle(system)
    outcome.soundness_seconds += time.perf_counter() - started

    outcome.systems += 1
    outcome.levels += len(records)

    # criterion 4: the verdict may never contradict the oracle
    if eta < 1 and report.covers:
        outcome.soundness_failures.append(f"{pairs} schedule {schedule}: eta {eta} but covers")
    if report.covers and not eta >= 1:
        outcome.soundness_failures.append(f"{pairs}: covering but eta {eta} < 1")
    if eta < 1:
        outcome.count_bounds += 1
        bound = uncovered_lower_bound(eta, system.lcm_modulus, schedule)
        if report.uncovered_count < bound:
            outcome.soundness_failures.append(
                f"{pairs} schedule {schedule}: {report.uncovered_count} uncovered < {bound}"
            )
    if check_certify:
        cert = certify(system, schedule)
        verdict = "NotCovering" if eta < 1 else "Inconclusive"
        witness = report.witness if eta < 1 else None
        if (cert.eta, cert.verdict, cert.witness) != (eta, verdict, witness):
            outcome.soundness_failures.append(f"{pairs}: certify disagrees with run_levels")
        outcome.cross_checks += 1

    # criterion 5: exact measure invariants at every level
    for failure in measure_invariant_failures(records, ladder.primes, schedule):
        outcome.measure_failures.append(f"{pairs} {failure}")

    # criterion 6: divisor-sum bound on the first moment at prefix-zero levels
    exponents = [e for _, e in system.factorization]
    prefix_zero = True
    for record in records:
        if prefix_zero:
            outcome.prefix_zero_levels += 1
            bound = first_moment_bound(pairs, ladder.primes, exponents, record.level, d1)
            if record.m1 > bound:
                outcome.moment_failures.append(
                    f"{pairs} level {record.level}: m1 {record.m1} > bound {bound}"
                )
        prefix_zero = prefix_zero and record.delta == 0


@pytest.fixture(scope="module")
def sweep() -> SweepOutcome:
    outcome = SweepOutcome()
    index = 0
    for pairs in _exhaustive_systems():
        system = sys_of(pairs)
        ladder = prime_ladder(system.factorization)
        schedule = _schedule_for(index, ladder, multiplicity(system))
        _sweep_one(outcome, pairs, schedule, ladder, check_certify=index % 50 == 0)
        index += 1
    rng = random.Random(SEED)
    for pairs in _random_systems():
        system = sys_of(pairs)
        ladder = prime_ladder(system.factorization)
        schedule = _random_schedule(rng, ladder.depth)
        _sweep_one(outcome, pairs, schedule, ladder, check_certify=index % 50 == 0)
        index += 1
    return outcome


def test_criterion_4_soundness_sweep(sweep):
    ok = not sweep.soundness_failures and sweep.soundness_seconds < 120.0
    _report(
        4,
        "sweep verdicts never contradict the exhaustive oracle, nor its"
        " uncovered count the certificate's bound",
        ok,
        f"{sweep.systems} systems, {sweep.cross_checks} cross-checks,"
        f" {sweep.count_bounds} count bounds,"
        f" {sweep.soundness_seconds:.1f}s"
        + (f"; first: {sweep.soundness_failures[0]}" if sweep.soundness_failures else ""),
    )


def test_criterion_5_measure_invariants(sweep):
    ok = not sweep.measure_failures
    _report(
        5,
        "every intermediate measure is a probability measure compatible with its"
        " parent, kills sub-threshold fibers, and meets the progression bound",
        ok,
        f"{sweep.levels} levels"
        + (f"; first: {sweep.measure_failures[0]}" if sweep.measure_failures else ""),
    )


def test_criterion_6_first_moment_bound(sweep):
    ok = not sweep.moment_failures
    _report(
        6,
        "the divisor-sum bound dominates the first moment at every"
        " zero-delta-prefix level",
        ok,
        f"{sweep.prefix_zero_levels} levels"
        + (f"; first: {sweep.moment_failures[0]}" if sweep.moment_failures else ""),
    )


def test_one_system_object_under_every_sweep_schedule():
    # a system object gates each level once and keeps its counts and
    # witness: under the seven schedules of scripts/schedule_sweep.py, run
    # in order and in reverse (so that the delta-0 check also runs on a kept
    # level), each certificate equals that of a fresh system.  A schedule
    # that repeats takes one fresh certificate, and each order's first run,
    # on a new object, is the fresh one for its schedule
    spec = importlib.util.spec_from_file_location("schedule_sweep", SCRIPTS / "schedule_sweep.py")
    sweep_script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep_script)
    for pairs in itertools.chain(_exhaustive_systems(), _random_systems()):
        schedules = [
            tuple(schedule) for _, schedule in sweep_script.candidate_schedules(sys_of(pairs))
        ]
        forward_system, backward_system = sys_of(pairs), sys_of(pairs)
        forward = [certify(forward_system, schedule) for schedule in schedules]
        backward = [certify(backward_system, schedule) for schedule in schedules[::-1]]
        fresh = {schedules[-1]: backward[0], schedules[0]: forward[0]}
        for schedule in schedules:
            if schedule not in fresh:
                fresh[schedule] = certify(sys_of(pairs), schedule)
        assert forward == [fresh[schedule] for schedule in schedules], pairs
        assert backward == [fresh[schedule] for schedule in schedules[::-1]], pairs


# ---------------------------------------------------------------------------
# criterion 7: the two coverage deciders agree


def test_criterion_7_interval_equivalence():
    rng = random.Random(SEED + 7)
    disagreements = []
    checked = 0

    def compare(pairs):
        nonlocal checked
        system = sys_of(pairs)
        if covers_interval(system) != covers_oracle(system).covers:
            disagreements.append(pairs)
        checked += 1

    compare(())
    compare(((0, 1),))
    compare(((5, 1), (0, 2)))
    for size in range(1, 4):
        for moduli in itertools.combinations_with_replacement(range(2, 11), size):
            compare(tuple((0, d) for d in moduli))
            compare(tuple((i % d, d) for i, d in enumerate(moduli)))
            compare(tuple((rng.randrange(d), d) for d in moduli))
    for _ in range(300):
        frame = 1
        for p in (2, 3, 5, 7):
            if rng.random() < 0.5:
                exponent = rng.randint(1, 3 if p == 2 else 2)
                while exponent and frame * p**exponent > 10_000:
                    exponent -= 1
                frame *= p**exponent
        choices = [d for d in divisors_of(frame) if d >= 2] or [2]
        pairs = tuple(
            (rng.randrange(d), d)
            for d in (rng.choice(choices) for _ in range(rng.randint(1, 12)))
        )
        compare(pairs)
    _report(
        7,
        "initial-segment decision equals the exhaustive oracle on every tested system",
        not disagreements,
        f"{checked} systems",
    )


# ---------------------------------------------------------------------------
# criterion 8: exact smooth sums and 30-digit growth bounds, checked against
# an mpmath evaluation that shares no arithmetic with the package's decimal one

GROWTH_CASES_J = ((1, 1), (2, 1), (5, "1/2"), (9, 2), (12, "3/4"))
GROWTH_CASES_S = ((1, 1), (2, 1), (3, "1/2"), (8, "7/3"), (20, 1))


def test_criterion_8_exactness_regression():
    ok = smooth_reciprocal_sum(2, 1, 8) == F(7, 8)
    ok = ok and smooth_reciprocal_sum(3, 1, 6) == F(5, 4)
    for j, c in GROWTH_CASES_J:
        want = mpmath.nstr(mpmath_jth_modulus_bound(j, c, dps=60), 50)
        ok = ok and agree_to_digits(jth_modulus_bound(j, c, dps=45), want, 30)
    for s, c in GROWTH_CASES_S:
        want = mpmath.nstr(mpmath_multiplicity_modulus_bound(s, c, dps=60), 50)
        ok = ok and agree_to_digits(multiplicity_modulus_bound(s, c, dps=45), want, 30)
    _report(
        8,
        "smooth reciprocal sums are exact and growth bounds match an independent"
        " 30-digit evaluation",
        ok,
        f"{len(GROWTH_CASES_J) + len(GROWTH_CASES_S)} bound cases",
    )
