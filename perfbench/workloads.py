"""The three workloads: inputs from a seed, one timed pass, output checks.

Each workload builds its inputs as system text, so every pass parses them
again and rebuilds per-object caches (such as a system's factorization) the
way a user's fresh call would.  A pass returns its outputs; `check` compares
one pass's outputs with the computations in `oracle`, which never import
covercert.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from covercert import cli
from covercert.constructions import construct_minimal_family
from covercert.core import multiplicity, parse_system
from covercert.distortion import certify, default_delta_schedule, prime_ladder, run_levels

import oracle
from oracle import require

_HALF = Fraction(1, 2)


def _rng(workload: str, seed: int) -> random.Random:
    # a string seed is hashed with SHA-512, so it does not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _plain(cert) -> dict:
    return {
        "eta": cert.eta,
        "verdict": cert.verdict,
        "witness": cert.witness,
        "terms": [(t.prime, t.delta, t.m1, t.m2, t.term, t.branch) for t in cert.terms],
    }


def _check_final_measure(text: str, deltas, cert, q: int, masks) -> None:
    """Moments and the paper's per-level inequality, from the final measure.

    run_levels ends with a measure on Z/QZ.  Each later level keeps the mass
    of every fiber over Z/Q_(j-1)Z, so summing the final measure over a fiber
    gives the measure level j started from; with the hit counts of the
    reference B_j that yields M1 and M2 anew.  Likewise the mass the final
    measure leaves on B_j is the mass level j left there: at most term_j,
    and equal to it when delta_j = 0 (nothing is moved).
    """
    measure = None
    levels = 0
    for record, term in zip(run_levels(parse_system(text), deltas), cert.terms):
        require(
            (record.prime, record.delta, record.m1, record.m2, record.term, record.branch)
            == (term.prime, term.delta, term.m1, term.m2, term.term, term.branch),
            f"run_levels and certify disagree at p={term.prime}",
        )
        measure = record.measure
        levels += 1
    require(levels == len(masks), f"{levels} levels, Q has {len(masks)} primes")
    masses = [measure.mass(y) for y in range(q)]
    distinct = {id(m): m for m in masses}
    common = oracle.lcm_of(m.denominator for m in distinct.values())
    scaled_by_id = {k: m.numerator * (common // m.denominator) for k, m in distinct.items()}
    scaled = [scaled_by_id[id(m)] for m in masses]
    require(sum(scaled) == common, "final measure does not have total mass 1")
    require(min(scaled) >= 0, "final measure has a negative mass")
    qprev = 1
    for (p, qj, mask), term, delta in zip(masks, cert.terms, deltas):
        lifts = qj // qprev
        first = second = 0
        for y in range(qprev):
            hits = sum(mask[y::qprev])
            if hits:
                fiber = sum(scaled[y::qprev])
                first += fiber * hits
                second += fiber * hits * hits
        require(Fraction(first, common * lifts) == term.m1, f"M1 differs at p={p}")
        require(Fraction(second, common * lifts * lifts) == term.m2, f"M2 differs at p={p}")
        on = Fraction(sum(itertools.compress(scaled, mask * (q // qj))), common)
        require(on <= term.term, f"mass {on} on B_j exceeds term {term.term} at p={p}")
        if delta == 0:
            require(on == term.term, f"mass {on} on B_j differs from term at delta 0, p={p}")
        qprev = qj


def _check_certified(text: str, certs_and_deltas) -> None:
    pairs = oracle.parse_pairs(text)
    coverage = oracle.Coverage(pairs)
    masks = oracle.level_masks(pairs, coverage.q)
    for cert, deltas in certs_and_deltas:
        oracle.check_certificate(pairs, coverage, _plain(cert), deltas)
        _check_final_measure(text, deltas, cert, coverage.q, masks)


# ---------------------------------------------------------------------------
# certify-primorial


def _squarefree_divisors(primes) -> list[int]:
    out = []
    for k in range(1, len(primes) + 1):
        for combo in itertools.combinations(primes, k):
            d = 1
            for p in combo:
                d *= p
            out.append(d)
    return out


def _unit(rng: random.Random, q: int) -> int:
    while True:
        u = rng.randrange(1, q)
        if gcd(u, q) == 1:
            return u


def _affine(rng: random.Random, pairs):
    """A seeded affine image of a system: the same work, other residues."""
    q = oracle.lcm_of(d for _, d in pairs)
    return oracle.affine_image(pairs, _unit(rng, q), rng.randrange(q))


class CertifyPrimorial:
    """Squarefree systems mod a primorial, each certified under seven schedules.

    The seven schedules are those of scripts/schedule_sweep.py: all 0, all
    1/2, all 1/4, alternating 0 and 1/2, and the default schedule with
    C = 1, 1/4 and 4.  The base systems are drawn once, from a fixed
    generator, with every prime present so that Q is the primorial; the seed
    picks an affine image x -> u x + t of each.
    """

    name = "certify-primorial"
    constants = (Fraction(1), Fraction(1, 4), Fraction(4))

    def __init__(self, primes, classes: int, systems: int):
        self.primes = primes
        self.classes = classes
        self.systems = systems

    def base_systems(self) -> list[list[tuple[int, int]]]:
        rng = random.Random(f"{self.name}:base")
        divisors = _squarefree_divisors(self.primes)
        out = []
        while len(out) < self.systems:
            moduli = [rng.choice(divisors) for _ in range(self.classes)]
            if oracle.lcm_of(moduli) == divisors[-1]:
                out.append([(rng.randrange(d), d) for d in moduli])
        return out

    def build(self, seed: int) -> list[str]:
        rng = _rng(self.name, seed)
        return [oracle.format_pairs(_affine(rng, pairs)) for pairs in self.base_systems()]

    def schedules(self, system):
        ladder = prime_ladder(system.factorization)
        depth = ladder.depth
        mult = multiplicity(system)
        yield [Fraction(0)] * depth
        yield [_HALF] * depth
        yield [Fraction(1, 4)] * depth
        yield [Fraction(0) if i % 2 == 0 else _HALF for i in range(depth)]
        for c in self.constants:
            yield list(default_delta_schedule(mult, ladder, c))

    def cli_output_bytes(self, outputs) -> int:
        return 0

    def run_pass(self, texts):
        out = []
        for text in texts:
            system = parse_system(text)
            for schedule in self.schedules(system):
                out.append(certify(system, schedule))
        return out, len(out), 0

    def expected_deltas(self, pairs):
        primes = [p for p, _ in oracle.factor_pairs(oracle.lcm_of(d for _, d in pairs))]
        depth = len(primes)
        mult = oracle.multiplicity_of(pairs)
        fixed = [
            [Fraction(0)] * depth,
            [_HALF] * depth,
            [Fraction(1, 4)] * depth,
            [Fraction(0) if i % 2 == 0 else _HALF for i in range(depth)],
        ]
        return fixed + [oracle.default_deltas(primes, mult, c) for c in self.constants]

    def check(self, texts, outputs) -> None:
        per_system = len(outputs) // len(texts)
        require(per_system == 7 and per_system * len(texts) == len(outputs), "7 schedules per system")
        for i, text in enumerate(texts):
            certs = outputs[i * per_system : (i + 1) * per_system]
            deltas = self.expected_deltas(oracle.parse_pairs(text))
            _check_certified(text, zip(certs, deltas))


# ---------------------------------------------------------------------------
# certify-dyadic


@dataclass
class DyadicInputs:
    family: list[tuple[int, int]]
    texts: list[str]


class CertifyDyadic:
    """A seeded affine image of the distinct-moduli family, each class dropped in turn.

    Every reduced system is certified with the default schedule.  Dropping
    any class of a minimal covering leaves a hole, so a NotCovering verdict
    must name the smallest one.
    """

    name = "certify-dyadic"

    def __init__(self, j: int):
        self.j = j

    def build(self, seed: int) -> DyadicInputs:
        rng = _rng(self.name, seed)
        family = [(c.residue, c.modulus) for c in construct_minimal_family(self.j).classes]
        moved = _affine(rng, family)
        texts = [oracle.format_pairs(moved[:i] + moved[i + 1 :]) for i in range(len(moved))]
        return DyadicInputs(family, texts)

    def cli_output_bytes(self, outputs) -> int:
        return 0

    def run_pass(self, inputs: DyadicInputs):
        out = [certify(parse_system(text)) for text in inputs.texts]
        return out, len(out), 0

    def check(self, inputs: DyadicInputs, outputs) -> None:
        require(inputs.family == oracle.family_pairs(self.j), "family residues differ from CRT")
        require(
            {d for _, d in inputs.family} == oracle.family_moduli(self.j)
            and len(inputs.family) == self.j,
            "family moduli are not j distinct values",
        )
        for text, cert in zip(inputs.texts, outputs, strict=True):
            pairs = oracle.parse_pairs(text)
            coverage = oracle.Coverage(pairs)
            require(not coverage.covers, "a minimal family minus one class still covers")
            primes = [p for p, _ in oracle.factor_pairs(coverage.q)]
            deltas = oracle.default_deltas(primes, oracle.multiplicity_of(pairs), Fraction(1))
            _check_certified(text, [(cert, deltas)])


# ---------------------------------------------------------------------------
# cli-session


@dataclass(frozen=True)
class CliSizes:
    construct_j: int
    reduce_j: int
    reduce_ell: int
    minimal_j: int
    verify_j: int
    certify_primes: tuple[int, ...]
    certify_classes: int
    smooth_y: int
    smooth_cap: int
    precision: int


# 10^4300 has 4301 digits, one past Python's default int/str conversion limit
HUGE_MODULUS_TEXT = "0 mod 1" + "0" * 4300


@dataclass
class CliInputs:
    families: dict
    certify_pairs: list[tuple[int, int]]
    deltas: list[Fraction]
    ops: list[tuple[str, list[str]]]


def _call(argv):
    """One in-process cli.main call: (exit code or raised type, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the session records an escaped exception as a failure
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue()


class CliSession:
    """A fixed script of cli.main calls over seeded systems, stdout captured.

    The witness, density and multiplicity calls read the output of the
    reduce call before them, as a shell pipeline would.  The last call
    parses a modulus past Python's int digit limit; today the ValueError
    escapes cli.main, and the session counts it as the one failed call.
    """

    name = "cli-session"

    def __init__(self, sizes: CliSizes):
        self.sizes = sizes

    def build(self, seed: int) -> CliInputs:
        z = self.sizes
        rng = _rng(self.name, seed)
        families = {}
        for key, j in (("reduce", z.reduce_j), ("minimal", z.minimal_j), ("verify", z.verify_j)):
            pairs = [(c.residue, c.modulus) for c in construct_minimal_family(j).classes]
            families[key] = _affine(rng, pairs)
        holed = list(families["verify"])
        del holed[rng.randrange(len(holed))]
        families["holed"] = holed

        divisors = _squarefree_divisors(z.certify_primes)
        small = [(rng.randrange(p), p) for p in z.certify_primes]
        for _ in range(z.certify_classes - len(small)):
            d = rng.choice(divisors)
            small.append((rng.randrange(d), d))
        deltas = [rng.choice((Fraction(0), Fraction(1, 4), _HALF)) for _ in z.certify_primes]

        # a smooth threshold, so that an off-by-one at either end changes the sum,
        # from a narrow window, so that the cost hardly depends on the seed
        low = z.smooth_cap // 2
        threshold = rng.choice(oracle.smooth_numbers(z.smooth_y, low, low + z.smooth_cap // 50))
        j, s = rng.randrange(20, 41), rng.randrange(10, 101)

        def system(pairs):
            return ["--system", oracle.format_pairs(pairs, ", ")]

        ops = [
            ("construct", ["construct", "--j", str(z.construct_j)]),
            ("construct-json", ["construct", "--j", str(z.construct_j), "--format", "json"]),
            ("reduce", ["reduce", "--ell", str(z.reduce_ell), *system(families["reduce"])]),
            ("minimal", ["minimal", *system(families["minimal"])]),
            ("verify-oracle", ["verify", "--method", "oracle", *system(holed)]),
            ("verify-interval", ["verify", "--method", "interval", *system(families["verify"])]),
            ("witness", ["witness", "--system"]),
            ("density", ["density", "--system"]),
            ("multiplicity", ["multiplicity", "--system"]),
            ("certify", ["certify", "--format", "json",
                         "--deltas", ",".join(str(d) for d in deltas), *system(small)]),
            ("smoothsum", ["smoothsum", "--y", str(z.smooth_y), "--threshold", str(threshold),
                           "--cap", str(z.smooth_cap)]),
            ("bounds", ["bounds", "--j", str(j), "--s", str(s), "--c", "1/2",
                        "--precision", str(z.precision)]),
            ("witness-huge", ["witness", "--system", HUGE_MODULUS_TEXT]),
        ]
        return CliInputs(families, small, deltas, ops)

    def cli_output_bytes(self, outputs) -> int:
        """Bytes the scripted calls wrote to standard output."""
        return sum(len(text.encode()) for _, _, text in outputs)

    def run_pass(self, inputs: CliInputs):
        out = []
        reduced = None
        failed = 0
        for kind, argv in inputs.ops:
            if kind in ("witness", "density", "multiplicity"):
                argv = argv + [reduced]
            code, text = _call(argv)
            if kind == "reduce":
                reduced = text.strip().replace("\n", ", ")
            failed += isinstance(code, str)
            out.append((kind, code, text))
        return out, len(out), failed

    def check(self, inputs: CliInputs, outputs) -> None:
        z = self.sizes
        results = {kind: (code, text.strip()) for kind, code, text in outputs}
        require(len(results) == len(inputs.ops), "one output per scripted call")
        for kind, (code, _) in results.items():
            if kind != "witness-huge":
                require(code == 0, f"{kind} exited with {code}")

        family = sorted(oracle.family_pairs(z.construct_j), key=lambda p: (p[1], p[0]))
        require(oracle.parse_pairs(results["construct"][1]) == family, "construct text")
        payload = json.loads(results["construct-json"][1])
        require(payload == {"classes": [{"r": r, "d": d} for r, d in family]}, "construct json")

        ell = z.reduce_ell
        reduced = oracle.parse_pairs(results["reduce"][1])
        require(len(reduced) == oracle.shift_expanded_size(z.reduce_j, ell), "reduce size")
        require(oracle.multiplicity_of(reduced) == 2 ** (ell - 1), "reduce multiplicity")
        reduced_cover = oracle.Coverage(reduced)
        require(reduced_cover.covers, "reduce output does not cover")
        require(results["witness"][1] == "covers: true\nwitness: none", "witness on reduce output")
        require(results["density"][1] == "density_uncovered: 0/1", "density on reduce output")
        require(results["multiplicity"][1] == f"multiplicity: {2 ** (ell - 1)}", "multiplicity")

        require(oracle.is_minimal_cover(inputs.families["minimal"]), "reference: family not minimal")
        require(results["minimal"][1] == "minimal: true\nredundant: []", "minimal")

        hole = oracle.Coverage(inputs.families["holed"])
        require(not hole.covers, "a minimal family minus one class still covers")
        require(
            results["verify-oracle"][1]
            == f"covers: false\nmethod: oracle\nwitness: {hole.witness}\nuncovered: {hole.uncovered}",
            "verify by oracle",
        )
        require(oracle.Coverage(inputs.families["verify"]).covers, "reference: family covers")
        require(results["verify-interval"][1] == "covers: true\nmethod: interval", "verify by interval")

        pairs = inputs.certify_pairs
        cert = oracle.certificate_from_json(json.loads(results["certify"][1]))
        oracle.check_certificate(pairs, oracle.Coverage(pairs), cert, inputs.deltas)

        argv = dict(inputs.ops)["smoothsum"]
        y, threshold, cap = int(argv[2]), int(argv[4]), int(argv[6])
        value = oracle.smooth_reciprocal_sum(y, threshold, cap)
        require(
            results["smoothsum"][1] == f"smooth_reciprocal_sum: {value.numerator}/{value.denominator}",
            "smoothsum",
        )

        argv = dict(inputs.ops)["bounds"]
        j, s, c, digits = int(argv[2]), int(argv[4]), Fraction(argv[6]), int(argv[8])
        lines = dict(line.split(": ", 1) for line in results["bounds"][1].splitlines())
        require(lines["j"] == str(j) and lines["s"] == str(s), "bounds echo")
        for kind, n, key in (("j", j, "jth_modulus_bound"), ("s", s, "multiplicity_modulus_bound")):
            exact = oracle.decimal_bound(kind, n, c, digits)
            require(oracle.agrees_to_digits(lines[key], exact, digits), f"bounds {key}")

        code, _ = results["witness-huge"]
        require(isinstance(code, str) or code in (1, 2), f"huge modulus gave exit {code}")


FULL = {
    "certify-primorial": CertifyPrimorial((2, 3, 5, 7, 11, 13), classes=40, systems=2),
    "certify-dyadic": CertifyDyadic(15),
    "cli-session": CliSession(CliSizes(
        construct_j=300, reduce_j=20, reduce_ell=10, minimal_j=22, verify_j=18,
        certify_primes=(2, 3, 5, 7, 11), certify_classes=12,
        smooth_y=13, smooth_cap=100_000, precision=300,
    )),
}

SMOKE = {
    "certify-primorial": CertifyPrimorial((2, 3, 5, 7), classes=12, systems=2),
    "certify-dyadic": CertifyDyadic(8),
    "cli-session": CliSession(CliSizes(
        construct_j=12, reduce_j=8, reduce_ell=3, minimal_j=10, verify_j=8,
        certify_primes=(2, 3, 5), certify_classes=6,
        smooth_y=7, smooth_cap=2_000, precision=30,
    )),
}
