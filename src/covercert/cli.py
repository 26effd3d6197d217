"""Command line front end.

Every value-taking flag can also be supplied through an environment variable
named COVERCERT_<FLAG> (dashes become underscores, upper case).  Exit codes:
0 for success, including an inconclusive certificate; 1 for usage or parse
problems; 2 for an enumeration over a configured limit; 3 for inputs outside
an operation's domain; 4 for a failed internal consistency check, which is a
bug in covercert, reported as one "error: internal:" line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

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
    InternalConsistencyError,
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
    _require_printable,
    _TOO_LONG,
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
                residue_space=args.limit_residue_space, interval=args.limit_interval
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


def _load_system(args) -> CongruenceSystem:
    if args.system is not None and args.input is not None:
        raise _UsageError("give either --system or --input, not both")
    if args.system is not None:
        return parse_system(args.system.replace(",", "\n"))
    if args.input is not None:
        return parse_system(_read_input(args.input))
    raise _UsageError("a system is required: use --system or --input")


def _read_input(path: str) -> str:
    """The text of a system file, or of stdin for "-"."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        source = "stdin" if path == "-" else path
        raise ParseError(f"{source} is not {exc.encoding} text: {exc.reason}") from exc


def _bool(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# handlers


def _cmd_verify(args, cfg: RunConfig) -> str:
    system = _load_system(args)
    method = args.method
    if method == "auto":
        method = "oracle" if system.lcm_modulus <= 2 ** len(system) else "interval"
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
    if args.j >= 5:  # a smaller j is construct_minimal_family's domain error
        # the largest modulus, 3 * 2^(j-3), is checked before the family is
        # built.  Past 2^20 bits, far over the default digit limit, 3 * 2^(2^20)
        # stands in for it, so that a huge j builds no huge int; emit_system
        # checks the real one
        _require_printable(3 << min(args.j - 3, 1 << 20))
    return cfg.emit_system(construct_minimal_family(args.j).sorted_by_modulus())


def _cmd_reduce(args, cfg: RunConfig) -> str:
    return cfg.emit_system(shift_expand(_load_system(args), args.ell, limits=cfg.limits))


def _digit_limit() -> int:
    """Python's int/str digit limit, 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# compiled on first use, by re's cache, so that importing the CLI stays cheap
_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z"


def _fraction(text: str) -> Fraction:
    """Fraction(text), with a decimal exponent bounded before it is applied.

    Fraction builds 10**exponent exactly.  The digits written plus the
    exponent bound the digits of the numerator and the denominator, and when
    that passes Python's int/str digit limit, the limit parse_system applies
    to moduli, the text is rejected before anything is built.
    """
    match = re.search(_EXPONENT, text)
    limit = _digit_limit()
    if match and limit:
        digits = sum(map(str.isdigit, text[: match.start()]))
        if digits + abs(int(match.group(1))) > limit:
            raise ValueError(_TOO_LONG)
    return Fraction(text)


# longest stretch of a flag value quoted in an error line
_QUOTE_LIMIT = 80


def _quote(value: str) -> str:
    """repr of value, cut after _QUOTE_LIMIT characters and marked with an ellipsis."""
    if len(value) <= _QUOTE_LIMIT:
        return repr(value)
    return repr(value[:_QUOTE_LIMIT]) + "…"


def _fraction_reason(exc: Exception, value: str) -> str:
    """Why _fraction(value) raised exc, in words of bounded length."""
    if isinstance(exc, ZeroDivisionError):
        return "zero denominator"
    # Fraction's own message repeats the whole value
    return "not a fraction" if repr(value) in str(exc) else str(exc)


def _parse_deltas(raw: str) -> list[Fraction]:
    parts = [piece.strip() for piece in raw.split(",")] if raw.strip() else []
    deltas = []
    for entry, piece in enumerate(parts, 1):
        try:
            deltas.append(_fraction(piece))
        except (ValueError, ZeroDivisionError) as exc:
            reason = _fraction_reason(exc, piece)
            raise _UsageError(f"bad delta list {_quote(raw)}: entry {entry}: {reason}") from exc
    return deltas


def _parse_fraction(raw: str, what: str) -> Fraction:
    try:
        return _fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad {what} {_quote(raw)}: {_fraction_reason(exc, raw)}") from exc


def _cmd_certify(args, cfg: RunConfig) -> str:
    system = _load_system(args)
    # Q is checked before it is factored: trial division of a huge Q hangs
    cfg.limits.require_residue_space(system.lcm_modulus, "pipeline")
    if args.deltas is not None:
        depth = len(system.factorization)
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
        constant = _parse_fraction(raw_constant, "schedule constant")
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


def _significant(value: Decimal, digits: int) -> str:
    """A bound above 1, rounded half up to digits significant digits.

    Fixed notation while the exponent of the leading digit is below digits,
    else d.ddd...e+N; trailing zeros go, but one digit stays after the point.
    """
    with localcontext() as ctx:
        ctx.rounding = ROUND_HALF_UP
        mantissa, exponent = format(value, f".{digits - 1}e").split("e")
    lead, figures = int(exponent), mantissa.replace(".", "")
    point = lead + 1 if lead < digits else 1
    fraction = figures[point:].rstrip("0") or "0"
    return f"{figures[:point]}.{fraction}" + ("" if lead < digits else f"e+{lead}")


def _cmd_bounds(args, cfg: RunConfig) -> str:
    if args.j is None and args.s is None:
        raise _UsageError("give --j, --s, or both")
    digits = args.precision
    if digits < 1:
        raise _UsageError(f"--precision must be positive, got {digits}")
    # the digit limit parse_system and _fraction apply also bounds the decimal work
    limit = _digit_limit()
    if limit and digits > limit:
        raise ResourceLimitError(
            f"--precision {digits} is over Python's int/str digit limit {limit}"
            " (PYTHONINTMAXSTRDIGITS)",
            required=digits,
            limit=limit,
        )
    constant = _parse_fraction(args.c, "constant")
    working = digits + 10
    payload: dict = {"c": args.c, "precision": digits}
    if args.j is not None:
        payload["j"] = args.j
        value = jth_modulus_bound(args.j, constant, dps=working)
        payload["jth_modulus_bound"] = _significant(value, digits)
    if args.s is not None:
        payload["s"] = args.s
        value = multiplicity_modulus_bound(args.s, constant, dps=working)
        payload["multiplicity_modulus_bound"] = _significant(value, digits)
    return cfg.emit("\n".join(f"{key}: {entry}" for key, entry in payload.items()), payload)


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


# the subcommands in the order of the command list: name, help line, and
# whether the command reads a system (--system or --input).  The handler of
# each is _cmd_<name>.
_COMMANDS = (
    ("verify", "decide whether a system covers Z", True),
    ("witness", "smallest uncovered residue, if any", True),
    ("minimal", "check single-removal minimality", True),
    ("multiplicity", "largest repeated-modulus count", True),
    ("density", "exact density of the uncovered set", True),
    ("construct", "minimal covering family with j distinct moduli", False),
    ("reduce", "shift-expand a minimal covering system", True),
    ("certify", "run the distorted-measure certificate", True),
    ("bounds", "high-precision growth bounds", False),
    ("smoothsum", "exact reciprocal sum over smooth integers", False),
)


def _command_names() -> list[str]:
    return [name for name, _, _ in _COMMANDS]


def _add_flags(p: argparse.ArgumentParser, name: str, reads_system: bool) -> None:
    """Give the subparser of command name its flags, in the order of its usage line."""
    _opt(p, "--format", choices=("text", "json"), default="text", help="output format")
    _opt(p, "--limit-residue-space", type=int, default=DEFAULT_LIMITS.residue_space,
         help="largest residue space Z/QZ that may be scanned")
    _opt(p, "--limit-interval", type=int, default=DEFAULT_LIMITS.interval,
         help="longest initial segment that may be scanned")
    if reads_system:
        _opt(p, "--system", help="inline system, classes separated by commas")
        _opt(p, "--input", help="path to a system file, or - for stdin")
    match name:
        case "verify":
            _opt(p, "--method", choices=("auto", "oracle", "interval"), default="auto",
                 help="decision procedure; auto picks the smaller enumeration")
        case "construct":
            _opt(p, "--j", type=int, required=True, help="number of distinct moduli, at least 5")
        case "reduce":
            _opt(p, "--ell", type=int, required=True,
                 help="block level: multiset multiplicity becomes 2^(ell-1)")
        case "certify":
            _opt(p, "--deltas", help="comma separated deltas in [0,1/2], one per prime of Q")
            _opt(p, "--schedule-C", default=None,
                 help="threshold constant for the default schedule (when --deltas is absent)")
        case "bounds":
            _opt(p, "--j", type=int, help="index for the j-th smallest modulus bound")
            _opt(p, "--s", type=int, help="multiplicity for the largest modulus bound")
            _opt(p, "--c", required=True, help="positive constant in the exponent, no default")
            _opt(p, "--precision", type=int, default=30, help="significant decimal digits")
        case "smoothsum":
            _opt(p, "--y", type=int, required=True, help="smoothness bound, at least 2")
            _opt(p, "--threshold", type=int, required=True, help="sum runs over d > threshold")
            _opt(p, "--cap", type=int, required=True, help="sum runs over d <= cap")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The covercert parser, with every subcommand, or with only the one named command."""
    parser = argparse.ArgumentParser(
        prog="covercert",
        description="verify, build, expand and certify systems of congruences",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        # the usage line of a top-level error still lists every command.  The
        # full build keeps the default, which names the missing-command error
        metavar = "{" + ",".join(_command_names()) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, reads_system in _COMMANDS:
        if command in (None, name):
            _add_flags(sub.add_parser(name, help=help_text), name, reads_system)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a call that starts with a command builds only that command's parser;
    # anything else (-h, no argument, a misspelt name) needs the command list
    command = argv[0] if argv and argv[0] in _command_names() else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = RunConfig.from_args(args)
        output = globals()[f"_cmd_{args.command}"](args, cfg)
    except (_UsageError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4
    print(output)
    return 0
