#!/usr/bin/env python3
"""Compare eta across delta schedules for one system.

The certificate's strength depends on the schedule: delta = 0 charges the
full first moment of a level, delta = 1/2 switches to the second moment at
the cost of doubling mass elsewhere.  This sweeps a handful of schedule
shapes over a system and prints which one gives the smallest eta.

  python3 scripts/schedule_sweep.py
  python3 scripts/schedule_sweep.py --system "1 mod 2, 2 mod 4, 0 mod 3, 4 mod 6"
"""

import argparse
from fractions import Fraction

from covercert import (
    certify,
    default_delta_schedule,
    multiplicity,
    parse_system,
    prime_ladder,
    rational_str,
)

DEFAULT_SYSTEM = "1 mod 2, 2 mod 4, 0 mod 3, 4 mod 6"


def candidate_schedules(system):
    ladder = prime_ladder(system.factorization)
    depth = ladder.depth
    mult = multiplicity(system)
    yield "all zero", [Fraction(0)] * depth
    yield "all 1/2", [Fraction(1, 2)] * depth
    yield "all 1/4", [Fraction(1, 4)] * depth
    yield "alternating 0, 1/2", [Fraction(0) if i % 2 == 0 else Fraction(1, 2) for i in range(depth)]
    for c in (Fraction(1), Fraction(1, 4), Fraction(4)):
        yield f"default C={c}", list(default_delta_schedule(mult, ladder, c))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--system", default=DEFAULT_SYSTEM,
                        help="inline system, classes separated by commas")
    args = parser.parse_args()

    system = parse_system(args.system.replace(",", "\n"))
    print(f"system: {args.system}")
    print(f"classes: {len(system)}, Q = {system.lcm_modulus},"
          f" multiplicity = {multiplicity(system)}")
    print()

    rows = []
    for name, schedule in candidate_schedules(system):
        cert = certify(system, schedule)
        branches = "".join("1" if t.branch == "first-moment" else "2" for t in cert.terms)
        rows.append((cert.eta, name, schedule, cert.verdict, branches))
        deltas = ", ".join(rational_str(d) for d in schedule)
        print(f"{name:22s} deltas = ({deltas})")
        print(f"{'':22s} eta = {rational_str(cert.eta)} = {float(cert.eta):.4f}"
              f"  verdict = {cert.verdict}  branches = {branches}")

    best = min(rows, key=lambda row: row[0])
    print()
    print(f"best schedule: {best[1]} with eta = {rational_str(best[0])}")
    if best[3] == "NotCovering":
        cert = certify(system, best[2])
        print(f"witness: {cert.witness} mod {system.lcm_modulus} is uncovered")
    else:
        print("no schedule here certifies non-covering; the system may cover")


if __name__ == "__main__":
    main()
