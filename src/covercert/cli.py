"""Command line front end.

Every value-taking flag can also be supplied through an environment variable
named COVERCERT_<FLAG> (dashes become underscores, upper case).  Exit codes:
0 for success, including an inconclusive certificate; 1 for usage or parse
problems; 2 for an enumeration over a configured limit; 3 for inputs outside
an operation's domain.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .analytic import (
    jth_modulus_bound,
    multiplicity_modulus_bound,
    smooth_reciprocal_sum,
)
from .constructions import construct_minimal_family, shift_expand
from .core import (
    DEFAULT_LIMITS,
    CongruenceSystem,
    DomainError,
    Limits,
    ParseError,
    ResourceLimitError,
    covers_interval,
    covers_oracle,
    density_uncovered,
    emit_system,
    emit_system_json,
    is_minimal,
    multiplicity,
    parse_system,
    rational_str,
)
from .distortion import DeltaSchedule, certify, system_default_schedule


class _UsageError(Exception):
    pass


_JSON_INDENT = 2


@dataclass(frozen=True)
class RunConfig:
    """Resolved per-invocation configuration shared by the subcommands."""

    output_format: str
    limits: Limits

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        try:
            limits = Limits(
                residue_space=args.limit_residue_space,
                interval=args.limit_interval,
                divisors=args.limit_divisors,
            )
        except DomainError as exc:
            raise _UsageError("limits must be positive") from exc
        return cls(output_format=args.format, limits=limits)

    def emit(self, text: str, payload: dict) -> str:
        if self.output_format == "json":
            return json.dumps(payload, indent=_JSON_INDENT)
        return text

    def emit_system(self, system: CongruenceSystem) -> str:
        """Render a system in the chosen format, building only that format."""
        if self.output_format == "json":
            return emit_system_json(system, indent=_JSON_INDENT)
        return emit_system(system).rstrip("\n")


def _env(name: str):
    return os.environ.get(f"COVERCERT_{name}")


def _opt(parser, flag: str, *, required: bool = False, **kwargs):
    env_name = flag.lstrip("-").replace("-", "_").upper()
    env_value = _env(env_name)
    if env_value is not None:
        kwargs["default"] = env_value
        required = False
    parser.add_argument(flag, required=required, **kwargs)


def _common_flags() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    _opt(parser, "--format", choices=("text", "json"), default="text",
         help="output format")
    _opt(parser, "--limit-residue-space", type=int, default=DEFAULT_LIMITS.residue_space,
         help="largest residue space Z/QZ that may be scanned")
    _opt(parser, "--limit-interval", type=int, default=DEFAULT_LIMITS.interval,
         help="longest initial segment that may be scanned")
    _opt(parser, "--limit-divisors", type=int, default=DEFAULT_LIMITS.divisors,
         help="largest divisor enumeration")
    return parser


def _system_flags() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    _opt(parser, "--system", help="inline system, classes separated by commas")
    _opt(parser, "--input", help="path to a system file, or - for stdin")
    return parser


def _load_system(args) -> CongruenceSystem:
    if args.system is not None and args.input is not None:
        raise _UsageError("give either --system or --input, not both")
    if args.system is not None:
        return parse_system(args.system.replace(",", "\n"))
    if args.input is not None:
        if args.input == "-":
            return parse_system(sys.stdin.read())
        with open(args.input, encoding="utf-8") as fh:
            return parse_system(fh.read())
    raise _UsageError("a system is required: use --system or --input")


def _bool(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# handlers


def _cmd_verify(args, cfg: RunConfig) -> str:
    system = _load_system(args)
    method = args.method
    if method == "auto":
        method = "oracle" if system.lcm_modulus <= 2 ** len(system.classes) else "interval"
    if method == "oracle":
        report = covers_oracle(system, limits=cfg.limits)
        witness = "none" if report.witness is None else str(report.witness)
        text = (
            f"covers: {_bool(report.covers)}\n"
            f"method: oracle\n"
            f"witness: {witness}\n"
            f"uncovered: {report.uncovered_count}"
        )
        payload = {
            "covers": report.covers,
            "method": "oracle",
            "witness": report.witness,
            "uncovered_count": report.uncovered_count,
        }
        return cfg.emit(text, payload)
    covered = covers_interval(system, limits=cfg.limits)
    text = f"covers: {_bool(covered)}\nmethod: interval"
    return cfg.emit(text, {"covers": covered, "method": "interval"})


def _cmd_witness(args, cfg: RunConfig) -> str:
    system = _load_system(args)
    report = covers_oracle(system, limits=cfg.limits)
    witness = "none" if report.witness is None else str(report.witness)
    text = f"covers: {_bool(report.covers)}\nwitness: {witness}"
    return cfg.emit(text, {"covers": report.covers, "witness": report.witness})


def _cmd_minimal(args, cfg: RunConfig) -> str:
    system = _load_system(args)
    minimal, redundant = is_minimal(system, limits=cfg.limits)
    text = f"minimal: {_bool(minimal)}\nredundant: {json.dumps(redundant)}"
    return cfg.emit(text, {"minimal": minimal, "redundant": redundant})


def _cmd_multiplicity(args, cfg: RunConfig) -> str:
    system = _load_system(args)
    value = multiplicity(system)
    return cfg.emit(f"multiplicity: {value}", {"multiplicity": value})


def _cmd_density(args, cfg: RunConfig) -> str:
    system = _load_system(args)
    value = density_uncovered(system, limits=cfg.limits)
    return cfg.emit(
        f"density_uncovered: {rational_str(value)}",
        {"density_uncovered": rational_str(value)},
    )


def _cmd_construct(args, cfg: RunConfig) -> str:
    return cfg.emit_system(construct_minimal_family(args.j).sorted_by_modulus())


def _cmd_reduce(args, cfg: RunConfig) -> str:
    return cfg.emit_system(shift_expand(_load_system(args), args.ell, limits=cfg.limits))


def _parse_deltas(raw: str) -> list[Fraction]:
    parts = [piece.strip() for piece in raw.split(",")] if raw.strip() else []
    try:
        return [Fraction(piece) for piece in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad delta list {raw!r}: {exc}") from exc


def _cmd_certify(args, cfg: RunConfig) -> str:
    system = _load_system(args)
    # Q is checked before it is factored: trial division of a huge Q hangs
    cfg.limits.require_residue_space(system.lcm_modulus, "pipeline")
    if args.deltas is not None:
        depth = len(system.factorization.pairs)
        deltas = _parse_deltas(args.deltas)
        if len(deltas) != depth:
            raise _UsageError(
                f"--deltas has {len(deltas)} entries, the system needs {depth}"
            )
        schedule = DeltaSchedule(tuple(deltas))
    else:
        raw_constant = args.schedule_C
        if raw_constant is None:
            raw_constant = "1"
            print(
                "notice: no --deltas given; using the default schedule with C = 1",
                file=sys.stderr,
            )
        try:
            constant = Fraction(raw_constant)
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"bad schedule constant {raw_constant!r}: {exc}") from exc
        schedule = system_default_schedule(system, constant, limits=cfg.limits)
    cert = certify(system, schedule, limits=cfg.limits)
    witness = "none" if cert.witness is None else str(cert.witness)
    lines = [
        f"eta: {rational_str(cert.eta)}",
        f"verdict: {cert.verdict}",
        f"witness: {witness}",
    ]
    for t in cert.terms:
        lines.append(
            f"term p={t.prime} delta={rational_str(t.delta)}"
            f" m1={rational_str(t.m1)} m2={rational_str(t.m2)}"
            f" term={rational_str(t.term)} branch={t.branch}"
        )
    return cfg.emit("\n".join(lines), cert.to_json_dict())


def _cmd_bounds(args, cfg: RunConfig) -> str:
    if args.j is None and args.s is None:
        raise _UsageError("give --j, --s, or both")
    digits = args.precision
    if digits < 1:
        raise _UsageError(f"--precision must be positive, got {digits}")
    working = digits + 10
    lines = [f"c: {args.c}", f"precision: {digits}"]
    payload: dict = {"c": args.c, "precision": digits}
    if args.j is not None:
        value = mpmath.nstr(jth_modulus_bound(args.j, args.c, dps=working), digits)
        lines.append(f"j: {args.j}")
        lines.append(f"jth_modulus_bound: {value}")
        payload["j"] = args.j
        payload["jth_modulus_bound"] = value
    if args.s is not None:
        value = mpmath.nstr(multiplicity_modulus_bound(args.s, args.c, dps=working), digits)
        lines.append(f"s: {args.s}")
        lines.append(f"multiplicity_modulus_bound: {value}")
        payload["s"] = args.s
        payload["multiplicity_modulus_bound"] = value
    return cfg.emit("\n".join(lines), payload)


def _cmd_smoothsum(args, cfg: RunConfig) -> str:
    value = smooth_reciprocal_sum(args.y, args.threshold, args.cap)
    text = f"smooth_reciprocal_sum: {rational_str(value)}"
    payload = {
        "y": args.y,
        "threshold": args.threshold,
        "cap": args.cap,
        "sum": rational_str(value),
    }
    return cfg.emit(text, payload)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covercert",
        description="verify, build, expand and certify systems of congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag is built once and its action shared by every subcommand
    common, system_source = _common_flags(), _system_flags()

    def command(name, handler, help_text, *, system=False):
        parents = [common, system_source] if system else [common]
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(handler=handler)
        return p

    p = command("verify", _cmd_verify, "decide whether a system covers Z", system=True)
    _opt(p, "--method", choices=("auto", "oracle", "interval"), default="auto",
         help="decision procedure; auto picks the smaller enumeration")

    command("witness", _cmd_witness, "smallest uncovered residue, if any", system=True)
    command("minimal", _cmd_minimal, "check single-removal minimality", system=True)
    command("multiplicity", _cmd_multiplicity, "largest repeated-modulus count", system=True)
    command("density", _cmd_density, "exact density of the uncovered set", system=True)

    p = command("construct", _cmd_construct, "minimal covering family with j distinct moduli")
    _opt(p, "--j", type=int, required=True, help="number of distinct moduli, at least 5")

    p = command("reduce", _cmd_reduce, "shift-expand a minimal covering system", system=True)
    _opt(p, "--ell", type=int, required=True,
         help="block level: multiset multiplicity becomes 2^(ell-1)")

    p = command("certify", _cmd_certify, "run the distorted-measure certificate", system=True)
    _opt(p, "--deltas", help="comma separated deltas in [0,1/2], one per prime of Q")
    _opt(p, "--schedule-C", default=None,
         help="threshold constant for the default schedule (when --deltas is absent)")

    p = command("bounds", _cmd_bounds, "high-precision growth bounds")
    _opt(p, "--j", type=int, help="index for the j-th smallest modulus bound")
    _opt(p, "--s", type=int, help="multiplicity for the largest modulus bound")
    _opt(p, "--c", required=True, help="positive constant in the exponent, no default")
    _opt(p, "--precision", type=int, default=30, help="significant decimal digits")

    p = command("smoothsum", _cmd_smoothsum, "exact reciprocal sum over smooth integers")
    _opt(p, "--y", type=int, required=True, help="smoothness bound, at least 2")
    _opt(p, "--threshold", type=int, required=True, help="sum runs over d > threshold")
    _opt(p, "--cap", type=int, required=True, help="sum runs over d <= cap")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = RunConfig.from_args(args)
        output = args.handler(args, cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(output)
    return 0
