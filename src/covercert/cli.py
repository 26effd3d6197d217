"""Command line front end.

Every value-taking flag can also be supplied through an environment variable
named COVERCERT_<FLAG> (dashes become underscores, upper case), and is then
checked as a value given on the command line would be.  Exit codes:
0 for success, including an inconclusive certificate; 1 for usage or parse
problems; 2 for an enumeration over a configured limit; 3 for inputs outside
an operation's domain; 4 for a failed internal consistency check, which is a
bug in covercert, reported as one "error: internal:" line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from collections import namedtuple
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
    _shown,
    _TOO_LONG,
)
from .distortion import DeltaSchedule, certify, system_default_schedule


class _UsageError(Exception):
    pass


_JSON_INDENT = 2


class RunConfig(namedtuple("RunConfig", "output_format limits")):
    """Resolved per-invocation configuration shared by the subcommands."""

    __slots__ = ()

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        try:
            limits = Limits(args.limit_residue_space, args.limit_interval)
        except DomainError as exc:
            raise _UsageError("limits must be positive") from exc
        return cls(args.format, limits)

    def emit(self, payload: dict, text: str | None = None) -> str:
        """payload as JSON, or as text: the text given, else _lines(payload)."""
        if self.output_format == "json":
            return json.dumps(payload, indent=_JSON_INDENT)
        return _lines(payload) if text is None else text

    def emit_system(self, system: CongruenceSystem) -> str:
        """Render a system in the chosen format, building only that format."""
        if self.output_format == "json":
            return emit_system_json(system, indent=_JSON_INDENT)
        return emit_system(system).rstrip("\n")


def _lines(fields: dict) -> str:
    """One "key: value" line per field; true, false and lists as JSON writes them, null as none."""
    return "\n".join(
        f"{key}: "
        + ("none" if value is None else json.dumps(value) if isinstance(value, (bool, list))
           else str(value))
        for key, value in fields.items()
    )


def _opt(parser, flag: str, *, required: bool = False, **kwargs):
    env_value = os.environ.get("COVERCERT_" + flag.lstrip("-").replace("-", "_").upper())
    if env_value is not None:
        kwargs["default"] = env_value
        required = False
    if "choices" in kwargs:
        # argparse checks a value given on the command line against choices,
        # but a string default, as from the environment, only goes through type
        kwargs["type"] = functools.partial(_one_of, kwargs["choices"])
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
        source = "stdin" if path == "-" else _shown(path)
        raise ParseError(f"{source} is not {exc.encoding} text: {exc.reason}") from exc
    except OSError as exc:
        if exc.filename is None:
            raise
        # OSError's own text quotes the whole path
        raise OSError(f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}") from exc


# ---------------------------------------------------------------------------
# handlers


def _cmd_verify(args, cfg: RunConfig) -> str:
    system = _load_system(args)
    method = args.method
    if method == "auto":
        method = "oracle" if system.lcm_modulus <= 2 ** len(system) else "interval"
    if method != "oracle":
        covered = covers_interval(system, limits=cfg.limits)
        return cfg.emit({"covers": covered, "method": "interval"})
    report = covers_oracle(system, limits=cfg.limits)
    fields = {"covers": report.covers, "method": "oracle", "witness": report.witness}
    return cfg.emit(
        {**fields, "uncovered_count": report.uncovered_count},
        _lines({**fields, "uncovered": report.uncovered_count}),
    )


def _cmd_witness(args, cfg: RunConfig) -> str:
    report = covers_oracle(_load_system(args), limits=cfg.limits)
    return cfg.emit({"covers": report.covers, "witness": report.witness})


def _cmd_minimal(args, cfg: RunConfig) -> str:
    minimal, redundant = is_minimal(_load_system(args), limits=cfg.limits)
    return cfg.emit({"minimal": minimal, "redundant": redundant})


def _cmd_multiplicity(args, cfg: RunConfig) -> str:
    return cfg.emit({"multiplicity": multiplicity(_load_system(args))})


def _cmd_density(args, cfg: RunConfig) -> str:
    value = density_uncovered(_load_system(args), limits=cfg.limits)
    return cfg.emit({"density_uncovered": rational_str(value)})


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


def _parse_fraction(raw: str, what: str) -> Fraction:
    """Fraction(raw), else a usage error "bad <what>: <reason>" of bounded length.

    Fraction builds 10**exponent exactly.  The digits written plus the
    exponent bound the digits of the numerator and the denominator, and when
    that passes Python's int/str digit limit, the limit parse_system applies
    to moduli, the text is rejected before anything is built.
    """
    try:
        match = re.search(_EXPONENT, raw)
        limit = _digit_limit()
        if match and limit:
            digits = sum(map(str.isdigit, raw[: match.start()]))
            if digits + abs(int(match.group(1))) > limit:
                raise ValueError(_TOO_LONG)
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        # Fraction's own message repeats the whole value
        reason = (
            "zero denominator" if isinstance(exc, ZeroDivisionError)
            else "not a fraction" if repr(raw) in str(exc) else str(exc)
        )
        raise _UsageError(f"bad {what}: {reason}") from exc


def _cmd_certify(args, cfg: RunConfig) -> str:
    if args.deltas is not None and args.schedule_C is not None:
        raise _UsageError("give either --deltas or --schedule-C, not both")
    system = _load_system(args)
    # Q is checked before it is factored: trial division of a huge Q hangs
    cfg.limits.require_residue_space(system.lcm_modulus, "pipeline")
    if args.deltas is not None:
        depth = len(system.factorization)
        pieces = args.deltas.split(",") if args.deltas.strip() else []
        deltas = [
            _parse_fraction(piece.strip(), f"delta list {_shown(args.deltas)}: entry {entry}")
            for entry, piece in enumerate(pieces, 1)
        ]
        if len(deltas) != depth:
            raise _UsageError(f"--deltas has {len(deltas)} entries, the system needs {depth}")
        schedule = DeltaSchedule(deltas)
    else:
        raw = args.schedule_C
        if raw is None:
            raw = "1"
            print("notice: no --deltas given; using the default schedule with C = 1",
                  file=sys.stderr)
        constant = _parse_fraction(raw, f"schedule constant {_shown(raw)}")
        schedule = system_default_schedule(system, constant, limits=cfg.limits)
    payload = certify(system, schedule, limits=cfg.limits).to_json_dict()
    lines = [_lines({key: payload[key] for key in ("eta", "verdict", "witness")})]
    for term in payload["terms"]:
        lines.append("term " + " ".join(f"{key}={value}" for key, value in term.items()))
    return cfg.emit(payload, "\n".join(lines))


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
        raise _UsageError(f"--precision must be positive, got {_shown(digits)}")
    # the digit limit parse_system and _parse_fraction apply also bounds the decimal work
    limit = _digit_limit()
    if limit and digits > limit:
        raise ResourceLimitError(
            f"--precision {_shown(digits)} is over Python's int/str digit limit {limit}"
            " (PYTHONINTMAXSTRDIGITS)",
            required=digits,
            limit=limit,
        )
    constant = _parse_fraction(args.c, f"constant {_shown(args.c)}")
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
    return cfg.emit(payload)


def _cmd_smoothsum(args, cfg: RunConfig) -> str:
    total = rational_str(smooth_reciprocal_sum(args.y, args.threshold, args.cap))
    payload = {"y": args.y, "threshold": args.threshold, "cap": args.cap, "sum": total}
    return cfg.emit(payload, _lines({"smooth_reciprocal_sum": total}))


# ---------------------------------------------------------------------------
# parser


def _int(text: str) -> int:
    """int(text) for argparse, whose own error would quote the whole text."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


def _one_of(choices: tuple[str, ...], text: str) -> str:
    """text, if it is one of choices; else argparse's invalid-choice error text, cut by _shown."""
    if text not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {_shown(text)} (choose from {', '.join(map(repr, choices))})"
        )
    return text


class _Choice(str):
    """A command name; argparse's invalid-choice error shows its cut repr."""

    def __repr__(self) -> str:
        return _shown(str(self))


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


def _add_flags(p: argparse.ArgumentParser, name: str, reads_system: bool) -> None:
    """Give the parser of command name its flags, in the order of its usage line."""
    _opt(p, "--format", choices=("text", "json"), default="text", help="output format")
    _opt(p, "--limit-residue-space", type=_int, default=DEFAULT_LIMITS.residue_space,
         help="largest residue space Z/QZ that may be scanned")
    _opt(p, "--limit-interval", type=_int, default=DEFAULT_LIMITS.interval,
         help="longest initial segment that may be scanned")
    if reads_system:
        _opt(p, "--system", help="inline system, classes separated by commas")
        _opt(p, "--input", help="path to a system file, or - for stdin")
    match name:
        case "verify":
            _opt(p, "--method", choices=("auto", "oracle", "interval"), default="auto",
                 help="decision procedure; auto picks the smaller enumeration")
        case "construct":
            _opt(p, "--j", type=_int, required=True, help="number of distinct moduli, at least 5")
        case "reduce":
            _opt(p, "--ell", type=_int, required=True,
                 help="block level: multiset multiplicity becomes 2^(ell-1)")
        case "certify":
            _opt(p, "--deltas", help="comma separated deltas in [0,1/2], one per prime of Q")
            _opt(p, "--schedule-C", default=None,
                 help="threshold constant for the default schedule (when --deltas is absent)")
        case "bounds":
            _opt(p, "--j", type=_int, help="index for the j-th smallest modulus bound")
            _opt(p, "--s", type=_int, help="multiplicity for the largest modulus bound")
            _opt(p, "--c", required=True, help="positive constant in the exponent, no default")
            _opt(p, "--precision", type=_int, default=30, help="significant decimal digits")
        case "smoothsum":
            _opt(p, "--y", type=_int, required=True, help="smoothness bound, at least 2")
            _opt(p, "--threshold", type=_int, required=True, help="sum runs over d > threshold")
            _opt(p, "--cap", type=_int, required=True, help="sum runs over d <= cap")


def build_parser() -> argparse.ArgumentParser:
    """The full covercert parser: the command list and every subcommand."""
    parser = argparse.ArgumentParser(
        prog="covercert",
        description="verify, build, expand and certify systems of congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.type = _Choice
    for name, help_text, reads_system in _COMMANDS:
        _add_flags(sub.add_parser(name, help=help_text), name, reads_system)
    return parser


def _parse(argv) -> argparse.Namespace:
    """argv as build_parser() reads it; a named command builds only its own parser.

    What that parser leaves over, and any call that does not start with a
    command name (-h, no argument, a misspelt name), goes to the full parser.
    """
    for name, _, reads_system in _COMMANDS:
        if argv and argv[0] == name:
            parser = argparse.ArgumentParser(prog=f"covercert {name}")
            _add_flags(parser, name, reads_system)
            args, rest = parser.parse_known_args(argv[1:])
            if not rest:
                args.command = name
                return args
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if rest:
        # as parse_args, but an argument past 80 characters is cut.  The
        # subparsers action passes every argument through _Choice, hence str()
        shown = (arg if len(arg) <= 80 else _shown(str(arg)) for arg in rest)
        parser.error(f"unrecognized arguments: {' '.join(shown)}")
    return args


def main(argv=None) -> int:
    """Run one covercert call on argv (sys.argv[1:] by default); return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
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
