#!/usr/bin/env python3
"""Walk the minimal families and their shift expansions.

For each j this builds the covering family with j distinct moduli, confirms
it covers and is minimal, lists its shift expansions, and then drops one
class at a time to show the certificate catching the resulting hole.

  python3 scripts/family_demo.py
  python3 scripts/family_demo.py --max-j 8
"""

import argparse

from covercert import (
    certify,
    construct_minimal_family,
    covers_oracle,
    deduplicated,
    is_minimal,
    multiplicity,
    rational_str,
    shift_expand,
)


def describe_family(j: int) -> None:
    family = construct_minimal_family(j)
    moduli = sorted(family.moduli)
    covers = covers_oracle(family).covers
    minimal, _ = is_minimal(family)
    print(f"j = {j}: moduli {moduli}")
    print(f"  covers = {covers}, minimal = {minimal}, Q = {family.lcm_modulus}")

    for ell in range(1, len(family) + 1):
        expanded = shift_expand(family, ell)
        print(f"  ell = {ell}: {len(expanded)} classes,"
              f" multiplicity {multiplicity(expanded)},"
              f" {len(deduplicated(expanded))} after deduplication")

    for index, (r, d) in enumerate(zip(family.residues, family.moduli)):
        rest = family.without(index)
        cert = certify(rest)
        mark = f"eta = {rational_str(cert.eta)}, {cert.verdict}"
        if cert.verdict == "NotCovering":
            mark += f", witness {cert.witness}"
        print(f"  drop {r} mod {d}: {mark}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-j", type=int, default=5)
    parser.add_argument("--max-j", type=int, default=7)
    args = parser.parse_args()
    for j in range(args.min_j, args.max_j + 1):
        describe_family(j)


if __name__ == "__main__":
    main()
