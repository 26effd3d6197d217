"""The command line: outputs, formats, exit codes, environment mirroring."""

import argparse
import errno
import io
import os
import json
import subprocess
import sys
from decimal import Decimal

import jsonschema
import mpmath
import pytest

from covercert import Limits, cli, distortion
from covercert.cli import RunConfig, _significant, build_parser, main
from covercert.core import _TOO_LONG

from helpers import (
    DIGIT_LIMIT,
    mpmath_jth_modulus_bound,
    mpmath_multiplicity_modulus_bound,
    needs_digit_limit,
    subcommand_help,
    time_limit,
    zero_first_hit,
)

TWO_THREE = "0 mod 2, 0 mod 3"
NOTICE = "notice: no --deltas given; using the default schedule with C = 1\n"
FAMILY_5 = "1 mod 2, 0 mod 3, 2 mod 4, 4 mod 6, 8 mod 12"
NINES = "9" * 4000

CERT_SCHEMA = {
    "type": "object",
    "required": ["eta", "verdict", "terms", "witness"],
    "additionalProperties": False,
    "properties": {
        "eta": {"type": "string", "pattern": r"^\d+/\d+$"},
        "verdict": {"enum": ["NotCovering", "Inconclusive"]},
        "witness": {"type": ["integer", "null"]},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["p", "delta", "m1", "m2", "term", "branch"],
                "additionalProperties": False,
                "properties": {
                    "p": {"type": "integer", "minimum": 2},
                    "delta": {"type": "string", "pattern": r"^\d+/\d+$"},
                    "m1": {"type": "string", "pattern": r"^\d+/\d+$"},
                    "m2": {"type": "string", "pattern": r"^\d+/\d+$"},
                    "term": {"type": "string", "pattern": r"^\d+/\d+$"},
                    "branch": {"enum": ["first-moment", "second-moment"]},
                },
            },
        },
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_oracle_covering(self, capsys):
        code, out, _ = run(capsys, "verify", "--system", FAMILY_5)
        assert code == 0
        assert out == "covers: true\nmethod: oracle\nwitness: none\nuncovered: 0\n"

    def test_auto_picks_interval_when_smaller(self, capsys):
        # two classes, lcm 6 > 2^2: the initial-segment check wins
        code, out, _ = run(capsys, "verify", "--system", TWO_THREE)
        assert code == 0
        assert out == "covers: false\nmethod: interval\n"

    def test_method_override(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--method", "interval", "--system", FAMILY_5
        )
        assert code == 0
        assert out == "covers: true\nmethod: interval\n"

    def test_resource_limit_exit_code(self, capsys):
        code, _, err = run(
            capsys, "verify", "--method", "oracle",
            "--limit-residue-space", "5", "--system", TWO_THREE,
        )
        assert code == 2
        assert "error:" in err

    def test_modulus_zero_is_parse_error(self, capsys):
        code, _, err = run(capsys, "verify", "--system", "0 mod 0")
        assert code == 1
        assert "error:" in err


class TestSystemSources:
    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "system.txt"
        path.write_text("# a covering pair\n1 mod 2\n\n0 mod 2\n")
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0
        assert "covers: true" in out

    def test_json_file_input(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"classes": [{"r": 0, "d": 2}, {"r": 1, "d": 2}]}))
        code, out, _ = run(capsys, "witness", "--input", str(path))
        assert code == 0
        assert out == "covers: true\nwitness: none\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_json_boolean_is_parse_error(self, capsys, tmp_path, fmt):
        path = tmp_path / "system.json"
        path.write_text('{"classes": [{"r": 1, "d": 2}, {"r": 0, "d": true}]}')
        code, out, err = run(capsys, "witness", "--input", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: class 1: residue and modulus must be integers\n"

    def test_json_classes_not_a_list_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text('{"classes": 5}')
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == 'error: JSON system must be an object with a "classes" array\n'

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("0 mod 2\n0 mod 3\n"))
        code, out, _ = run(capsys, "witness", "--input", "-")
        assert code == 0
        assert out == "covers: false\nwitness: 1\n"

    def test_stdin_read_error_is_one_line(self, capsys, monkeypatch):
        # an OSError with no file name is re-raised as it is
        def read():
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(sys.stdin, "read", read)
        code, out, err = run(capsys, "witness", "--input", "-")
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["file", "long-name", "stdin"])
    @pytest.mark.parametrize("command", ["verify", "witness"])
    def test_input_not_utf8_is_parse_error(
        self, capsys, monkeypatch, tmp_path, command, source, fmt
    ):
        # a strict decoder, as for a file; a real stdin may decode with
        # surrogateescape and then fail in the parser instead
        data = b"\xff0 mod 2\n1 mod 2\n"
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            where, shown = "-", "stdin"
        else:
            path = tmp_path / ("system.txt" if source == "file" else "s" * 200)
            path.write_bytes(data)
            where = str(path)
            # the path is cut, as every value in an error line is
            shown = repr(where) if len(where) <= 80 else f"{where[:80]!r}…"
        code, out, err = run(capsys, command, "--input", where, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: {shown} is not utf-8 text: invalid start byte\n"
        assert len(err) < 140

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--input", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "error:" in err
        # a long path is cut, as every value in an error line is
        path = str(tmp_path.joinpath(*["p" * 100] * 3))
        code, out, err = run(capsys, "witness", "--input", path)
        assert (code, out) == (1, "")
        reason = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
        assert err == f"error: {reason}: {path[:80]!r}…\n"

    def test_both_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "system.txt"
        path.write_text("0 mod 2\n")
        code, _, err = run(
            capsys, "verify", "--system", "0 mod 2", "--input", str(path)
        )
        assert code == 1
        assert "not both" in err

    def test_no_source_rejected(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 1
        assert "a system is required" in err

    def test_negative_residue_normalized(self, capsys):
        code, out, _ = run(capsys, "multiplicity", "--system", "-1 mod 2, 1 mod 2")
        assert code == 0
        assert out == "multiplicity: 2\n"


class TestSimpleQueries:
    def test_witness_none_when_covering(self, capsys):
        code, out, _ = run(capsys, "witness", "--system", FAMILY_5)
        assert code == 0
        assert out == "covers: true\nwitness: none\n"

    def test_minimal_true(self, capsys):
        code, out, _ = run(capsys, "minimal", "--system", FAMILY_5)
        assert code == 0
        assert out == "minimal: true\nredundant: []\n"

    def test_minimal_domain_error_when_not_covering(self, capsys):
        code, _, err = run(capsys, "minimal", "--system", TWO_THREE)
        assert code == 3
        assert "error:" in err

    def test_smoothsum(self, capsys):
        code, out, _ = run(
            capsys, "smoothsum", "--y", "2", "--threshold", "1", "--cap", "8"
        )
        assert code == 0
        assert out == "smooth_reciprocal_sum: 7/8\n"

    def test_smoothsum_domain_error(self, capsys):
        code, _, err = run(
            capsys, "smoothsum", "--y", "1", "--threshold", "1", "--cap", "8"
        )
        assert code == 3
        assert "error:" in err


# the exact stdout of each command in both formats: a key order, an indent or
# a rendering slip fails here, where a json.loads comparison would pass
EXACT_OUTPUTS = [
    (
        "verify-oracle",
        ["verify", "--method", "oracle", "--system", TWO_THREE],
        "covers: false\nmethod: oracle\nwitness: 1\nuncovered: 2\n",
        '{\n  "covers": false,\n  "method": "oracle",\n  "witness": 1,\n'
        '  "uncovered_count": 2\n}\n',
    ),
    (
        "verify-oracle-covering",
        ["verify", "--method", "oracle", "--system", FAMILY_5],
        "covers: true\nmethod: oracle\nwitness: none\nuncovered: 0\n",
        '{\n  "covers": true,\n  "method": "oracle",\n  "witness": null,\n'
        '  "uncovered_count": 0\n}\n',
    ),
    (
        "verify-interval",
        ["verify", "--method", "interval", "--system", TWO_THREE],
        "covers: false\nmethod: interval\n",
        '{\n  "covers": false,\n  "method": "interval"\n}\n',
    ),
    (
        "witness",
        ["witness", "--system", TWO_THREE],
        "covers: false\nwitness: 1\n",
        '{\n  "covers": false,\n  "witness": 1\n}\n',
    ),
    (
        "minimal",
        ["minimal", "--system", "0 mod 2, 1 mod 2, 0 mod 3"],
        "minimal: false\nredundant: [2]\n",
        '{\n  "minimal": false,\n  "redundant": [\n    2\n  ]\n}\n',
    ),
    (
        "multiplicity",
        ["multiplicity", "--system", "1 mod 2, 3 mod 2, 0 mod 3"],
        "multiplicity: 2\n",
        '{\n  "multiplicity": 2\n}\n',
    ),
    (
        "density",
        ["density", "--system", TWO_THREE],
        "density_uncovered: 1/3\n",
        '{\n  "density_uncovered": "1/3"\n}\n',
    ),
    (
        "certify",
        ["certify", "--deltas", "0,1/2", "--system", TWO_THREE],
        "eta: 11/18\nverdict: NotCovering\nwitness: 1\n"
        "term p=2 delta=0/1 m1=1/2 m2=1/4 term=1/2 branch=first-moment\n"
        "term p=3 delta=1/2 m1=1/3 m2=1/9 term=1/9 branch=second-moment\n",
        '{\n  "eta": "11/18",\n  "verdict": "NotCovering",\n  "terms": [\n'
        '    {\n      "p": 2,\n      "delta": "0/1",\n      "m1": "1/2",\n'
        '      "m2": "1/4",\n      "term": "1/2",\n      "branch": "first-moment"\n    },\n'
        '    {\n      "p": 3,\n      "delta": "1/2",\n      "m1": "1/3",\n'
        '      "m2": "1/9",\n      "term": "1/9",\n      "branch": "second-moment"\n    }\n'
        '  ],\n  "witness": 1\n}\n',
    ),
    (
        "certify-inconclusive",
        ["certify", "--deltas", "0", "--system", "0 mod 2, 1 mod 2"],
        "eta: 1/1\nverdict: Inconclusive\nwitness: none\n"
        "term p=2 delta=0/1 m1=1/1 m2=1/1 term=1/1 branch=first-moment\n",
        '{\n  "eta": "1/1",\n  "verdict": "Inconclusive",\n  "terms": [\n'
        '    {\n      "p": 2,\n      "delta": "0/1",\n      "m1": "1/1",\n'
        '      "m2": "1/1",\n      "term": "1/1",\n      "branch": "first-moment"\n    }\n'
        '  ],\n  "witness": null\n}\n',
    ),
    (
        "smoothsum",
        ["smoothsum", "--y", "3", "--threshold", "1", "--cap", "6"],
        "smooth_reciprocal_sum: 5/4\n",
        '{\n  "y": 3,\n  "threshold": 1,\n  "cap": 6,\n  "sum": "5/4"\n}\n',
    ),
    (
        "bounds",
        ["bounds", "--j", "2", "--s", "3", "--c", "1/2", "--precision", "12"],
        "c: 1/2\nprecision: 12\nj: 2\njth_modulus_bound: 6.17481210218\n"
        "s: 3\nmultiplicity_modulus_bound: 7.53228157394\n",
        '{\n  "c": "1/2",\n  "precision": 12,\n  "j": 2,\n'
        '  "jth_modulus_bound": "6.17481210218",\n  "s": 3,\n'
        '  "multiplicity_modulus_bound": "7.53228157394"\n}\n',
    ),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, text, json_text",
    [case[1:] for case in EXACT_OUTPUTS],
    ids=[case[0] for case in EXACT_OUTPUTS],
)
def test_exact_output(capsys, monkeypatch, argv, text, json_text, fmt):
    monkeypatch.delenv("COVERCERT_FORMAT", raising=False)
    expected = text if fmt == "text" else json_text
    assert run(capsys, *argv, "--format", fmt) == (0, expected, "")


class TestConstructReduce:
    def test_construct_sorted_output(self, capsys):
        code, out, _ = run(capsys, "construct", "--j", "5")
        assert code == 0
        assert out == "1 mod 2\n0 mod 3\n2 mod 4\n4 mod 6\n8 mod 12\n"

    def test_construct_json_layout(self, capsys):
        code, out, _ = run(capsys, "construct", "--j", "5", "--format", "json")
        pairs = [(1, 2), (0, 3), (2, 4), (4, 6), (8, 12)]
        payload = {"classes": [{"r": r, "d": d} for r, d in pairs]}
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_construct_domain_error(self, capsys):
        code, _, err = run(capsys, "construct", "--j", "4")
        assert code == 3
        assert "error:" in err

    def test_reduce_block_output(self, capsys):
        code, out, _ = run(capsys, "reduce", "--ell", "2", "--system", FAMILY_5)
        assert code == 0
        assert out == (
            "0 mod 3\n2 mod 3\n2 mod 4\n1 mod 4\n"
            "4 mod 6\n3 mod 6\n8 mod 12\n7 mod 12\n"
        )

    def test_reduce_identity_level(self, capsys):
        code, out, _ = run(capsys, "reduce", "--ell", "1", "--system", FAMILY_5)
        assert code == 0
        assert out == "1 mod 2\n0 mod 3\n2 mod 4\n4 mod 6\n8 mod 12\n"

    def test_reduce_rejects_non_minimal(self, capsys):
        code, _, err = run(
            capsys, "reduce", "--ell", "2", "--system", "0 mod 2, 1 mod 2, 0 mod 3"
        )
        assert code == 3
        assert "error:" in err

    def test_reduce_level_out_of_range(self, capsys):
        code, _, err = run(capsys, "reduce", "--ell", "9", "--system", FAMILY_5)
        assert code == 3
        assert "error:" in err


class TestCertify:
    def test_explicit_deltas_text(self, capsys):
        code, out, err = run(
            capsys, "certify", "--deltas", "0,0", "--system", TWO_THREE
        )
        assert code == 0
        assert err == ""
        assert out == (
            "eta: 5/6\n"
            "verdict: NotCovering\n"
            "witness: 1\n"
            "term p=2 delta=0/1 m1=1/2 m2=1/4 term=1/2 branch=first-moment\n"
            "term p=3 delta=0/1 m1=1/3 m2=1/9 term=1/3 branch=first-moment\n"
        )

    def test_json_matches_schema(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--deltas", "0,0", "--format", "json",
            "--system", TWO_THREE,
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, CERT_SCHEMA)
        assert payload == {
            "eta": "5/6",
            "verdict": "NotCovering",
            "witness": 1,
            "terms": [
                {"p": 2, "delta": "0/1", "m1": "1/2", "m2": "1/4",
                 "term": "1/2", "branch": "first-moment"},
                {"p": 3, "delta": "0/1", "m1": "1/3", "m2": "1/9",
                 "term": "1/3", "branch": "first-moment"},
            ],
        }

    def test_default_schedule_notice(self, capsys):
        code, out, err = run(capsys, "certify", "--system", TWO_THREE)
        assert code == 0
        assert "notice: no --deltas given" in err
        assert "eta: 13/36" in out
        assert "branch=second-moment" in out

    def test_schedule_constant_suppresses_notice(self, capsys):
        code, out, err = run(
            capsys, "certify", "--schedule-C", "9", "--system", TWO_THREE
        )
        assert code == 0
        assert err == ""
        assert "eta: 5/6" in out

    def test_inconclusive_is_success(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--deltas", "0", "--system", "0 mod 2, 1 mod 2"
        )
        assert code == 0
        assert "eta: 1/1\nverdict: Inconclusive\nwitness: none" in out

    def test_inconclusive_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--deltas", "1/4", "--format", "json",
            "--system", "0 mod 2, 1 mod 2",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, CERT_SCHEMA)
        assert payload["verdict"] == "Inconclusive"
        assert payload["witness"] is None

    def test_delta_count_mismatch(self, capsys):
        code, _, err = run(capsys, "certify", "--deltas", "0", "--system", TWO_THREE)
        assert code == 1
        assert "--deltas has 1 entries, the system needs 2" in err

    def test_malformed_delta(self, capsys):
        code, _, err = run(
            capsys, "certify", "--deltas", "0,zebra", "--system", TWO_THREE
        )
        assert code == 1
        assert "bad delta list" in err

    def test_delta_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "certify", "--deltas", "0,2/3", "--system", TWO_THREE
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("schedule", [[], ["--deltas", "0,0"]])
    def test_huge_modulus_hits_limit_before_factoring(self, capsys, schedule):
        # Q = 2 (2^61 - 1) is over the residue-space limit; factoring it by
        # trial division first would run for hours
        with time_limit(30):
            code, _, err = run(
                capsys, "certify", *schedule, "--system", "0 mod 2, 1 mod 2305843009213693951"
            )
        assert code == 2
        assert "over the limit" in err

    def test_modulus_one_is_domain_error(self, capsys):
        message = "error: distortion requires every modulus to be at least 2\n"
        code, out, err = run(capsys, "certify", "--system", "0 mod 1")
        assert (code, out, err) == (3, "", NOTICE + message)
        # a modulus 1 is rejected before the threshold constant is checked
        code, out, err = run(capsys, "certify", "--schedule-C", "0", "--system", "0 mod 1, 0 mod 2")
        assert (code, out, err) == (3, "", message)

    def test_empty_system_takes_default_schedule(self, capsys):
        code, out, err = run(capsys, "certify", "--system", "")
        assert (code, err) == (0, NOTICE)
        assert out == "eta: 0/1\nverdict: NotCovering\nwitness: 0\n"
        code, out, err = run(capsys, "certify", "--schedule-C", "zebra", "--system", "")
        assert (code, out) == (1, "")
        assert err.startswith("error: bad schedule constant 'zebra'")

    def test_deltas_and_schedule_constant_rejected_together(self, capsys, monkeypatch):
        message = "error: give either --deltas or --schedule-C, not both\n"
        code, out, err = run(
            capsys, "certify", "--system", "0 mod 2", "--deltas", "1/2", "--schedule-C", "garbage"
        )
        assert (code, out, err) == (1, "", message)
        # a value from the environment counts as given, as for --system and --input
        monkeypatch.setenv("COVERCERT_SCHEDULE_C", "2")
        assert run(capsys, "certify", "--system", "0 mod 2", "--deltas", "1/2") == (1, "", message)

    def test_deterministic_output(self, capsys):
        first = run(capsys, "certify", "--deltas", "0,0", "--system", TWO_THREE)
        second = run(capsys, "certify", "--deltas", "0,0", "--system", TWO_THREE)
        assert first == second


class TestBounds:
    def test_jth_bound_text(self, capsys):
        code, out, _ = run(capsys, "bounds", "--j", "2", "--c", "1")
        assert code == 0
        assert out == (
            "c: 1\n"
            "precision: 30\n"
            "j: 2\n"
            "jth_modulus_bound: 38.1283044971798060115509594716\n"
        )

    def test_multiplicity_bound_text(self, capsys):
        code, out, _ = run(capsys, "bounds", "--s", "1", "--c", "1")
        assert code == 0
        assert "multiplicity_modulus_bound: 165.439074292153633388165909036" in out

    def test_both_bounds_json(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--j", "2", "--s", "1", "--c", "1/2",
            "--precision", "20", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["c"] == "1/2"
        assert payload["precision"] == 20
        assert payload["j"] == 2
        assert payload["s"] == 1
        assert payload["jth_modulus_bound"] == "6.1748121021760496977"
        assert payload["multiplicity_modulus_bound"] == "12.862312167419730036"

    def test_requires_an_index(self, capsys):
        code, _, err = run(capsys, "bounds", "--c", "1")
        assert code == 1
        assert "give --j, --s, or both" in err

    def test_constant_is_required(self, capsys):
        code, _, _ = run(capsys, "bounds", "--j", "2")
        assert code == 1

    def test_nonpositive_constant(self, capsys):
        for constant in ("0", "-1"):
            code, _, err = run(capsys, "bounds", "--j", "2", "--c", constant)
            assert code == 3
            assert err == f"error: constant must be positive, got {constant}\n"

    @pytest.mark.parametrize("constant", ["abc", "nan", "inf", "1/0"])
    def test_constant_not_a_rational(self, capsys, constant):
        code, out, err = run(capsys, "bounds", "--j", "5", "--c", constant)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: bad constant {constant!r}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            # the constant has 4001 digits, under the int/str digit limit;
            # only a few of them are converted
            ["--s", "3", "--c", "1e4000"],
            # exp(10^24 / log(10^12 + 1)) is past 10^(10^18)
            ["--j", "1000000000000", "--c", "1"],
        ],
    )
    def test_bound_past_decimal_range(self, capsys, args):
        with time_limit(30):
            code, out, err = run(capsys, "bounds", *args)
        assert (code, out) == (3, "")
        assert err.startswith("error: bound exceeds 10^") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "value,digits",
        [("2.5", 1), ("1.25", 2), ("38.5", 2), ("99.96", 3), ("999.6", 3), ("1.0001", 3),
         ("123456", 6), ("1234567", 6), ("7.0", 1)],
    )
    def test_rounding_and_notation_match_nstr(self, value, digits):
        # exact ties are rounded half up, and a carry can switch the notation
        assert _significant(Decimal(value), digits) == mpmath.nstr(mpmath.mpf(value), digits)

    def test_matches_mpmath_reference_on_grid(self, capsys):
        # an mpmath evaluation at precision + 10 digits, printed by mpmath.nstr:
        # the fixed and exponent notation switch included, byte for byte
        sizes = (1, 2, 3, 5, 10, 100, 10**3, 10**4, 10**6)
        for c in ("1/10", "1", "7/3", "10"):
            for digits in (1, 2, 5, 15, 30, 60, 200):
                for k, j in enumerate((1, 2, 3, 5, 8, 13, 21, 34, 59, 100, 200)):
                    s = sizes[k % len(sizes)]
                    jth = mpmath_jth_modulus_bound(j, c, dps=digits + 10)
                    mult = mpmath_multiplicity_modulus_bound(s, c, dps=digits + 10)
                    payload = {
                        "c": c, "precision": digits,
                        "j": j, "jth_modulus_bound": mpmath.nstr(jth, digits),
                        "s": s, "multiplicity_modulus_bound": mpmath.nstr(mult, digits),
                    }
                    text = "".join(f"{key}: {value}\n" for key, value in payload.items())
                    argv = ["bounds", "--j", str(j), "--s", str(s), "--c", c,
                            "--precision", str(digits)]
                    assert run(capsys, *argv) == (0, text, "")
                    want = json.dumps(payload, indent=2) + "\n"
                    assert run(capsys, *argv, "--format", "json") == (0, want, "")

    def test_bad_precision(self, capsys):
        code, _, err = run(capsys, "bounds", "--j", "2", "--c", "1", "--precision", "0")
        assert code == 1
        assert "--precision must be positive" in err

    @needs_digit_limit
    def test_precision_up_to_the_digit_limit(self, capsys):
        # the smallest limit Python allows keeps the accepted run short
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            argv = ["bounds", "--j", "12", "--s", "100", "--c", "1/2", "--precision"]
            code, out, err = run(capsys, *argv, "640")
            assert (code, err) == (0, "") and "precision: 640" in out
            with time_limit(5):
                code, out, err = run(capsys, *argv, "641")
        finally:
            sys.set_int_max_str_digits(previous)
        assert (code, out) == (2, "")
        assert err == (
            "error: --precision 641 is over Python's int/str digit limit 640"
            " (PYTHONINTMAXSTRDIGITS)\n"
        )


class TestEnvironmentMirroring:
    def test_format_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COVERCERT_FORMAT", "json")
        code, out, _ = run(capsys, "multiplicity", "--system", "0 mod 2")
        assert code == 0
        assert json.loads(out) == {"multiplicity": 1}

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COVERCERT_FORMAT", "json")
        code, out, _ = run(
            capsys, "multiplicity", "--format", "text", "--system", "0 mod 2"
        )
        assert code == 0
        assert out == "multiplicity: 1\n"

    def test_env_satisfies_required_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("COVERCERT_J", "5")
        code, out, _ = run(capsys, "construct")
        assert code == 0
        assert out.startswith("1 mod 2\n")

    def test_env_system(self, capsys, monkeypatch):
        monkeypatch.setenv("COVERCERT_SYSTEM", TWO_THREE)
        code, out, _ = run(capsys, "density")
        assert code == 0
        assert out == "density_uncovered: 1/3\n"

    def test_env_limits(self, capsys, monkeypatch):
        monkeypatch.setenv("COVERCERT_LIMIT_RESIDUE_SPACE", "5")
        code, _, _ = run(
            capsys, "verify", "--method", "oracle", "--system", TWO_THREE
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--format", "xml"), ("--method", "bogus"), ("--format", "x" * 3000)],
        ids=["format", "method", "format-3000"],
    )
    def test_env_value_outside_choices(self, capsys, monkeypatch, flag, value):
        # the same usage error as the value given as the flag, value cut
        given = run(capsys, "verify", flag, value, "--system", TWO_THREE)
        monkeypatch.setenv("COVERCERT_" + flag[2:].upper(), value)
        code, out, err = run(capsys, "verify", "--system", TWO_THREE)
        assert (code, out, err) == given
        assert code == 1 and f"error: argument {flag}: invalid choice: " in err
        assert max(map(len, err.splitlines())) < 200

    def test_env_value_outside_choices_only_where_read(self, capsys, monkeypatch):
        monkeypatch.setenv("COVERCERT_METHOD", "bogus")
        code, out, err = run(capsys, "witness", "--system", TWO_THREE)
        assert (code, out, err) == (0, "covers: false\nwitness: 1\n", "")
        monkeypatch.setenv("COVERCERT_FORMAT", "xml")
        code, out, _ = run(capsys, "multiplicity", "--format", "text", "--system", TWO_THREE)
        assert (code, out) == (0, "multiplicity: 1\n")


class TestUsageAndExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_no_command(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_subcommand_help_is_success(self, capsys):
        assert main(["certify", "--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--deltas", "1/2," + "x" * 1_000_000, "--system", TWO_THREE],
            ["certify", "--deltas", "7" * 1_000_000, "--system", TWO_THREE],
            ["certify", "--deltas", "1/2,1/" + "0" * 4000, "--system", TWO_THREE],
            ["certify", "--schedule-C", "z" * 1_000_000, "--system", TWO_THREE],
            ["bounds", "--j", "5", "--c", "1/" + "0" * 4000],
        ],
        ids=["deltas-not-fraction", "deltas-digits", "deltas-zero", "schedule-C", "c-zero"],
    )
    def test_bad_fraction_error_line_is_bounded(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad ") and err.count("\n") == 1
        assert len(err) < 400

    def test_bad_fraction_reasons(self, capsys):
        code, _, err = run(capsys, "certify", "--deltas", "1/2,x", "--system", TWO_THREE)
        assert (code, err) == (1, "error: bad delta list '1/2,x': entry 2: not a fraction\n")
        code, _, err = run(capsys, "bounds", "--j", "5", "--c", "1/0")
        assert (code, err) == (1, "error: bad constant '1/0': zero denominator\n")
        long_value = "y" * 100
        code, _, err = run(capsys, "bounds", "--j", "5", "--c", long_value)
        assert err == f"error: bad constant {long_value[:80]!r}…: not a fraction\n"

    def test_limit_defaults_are_the_library_defaults(self, monkeypatch):
        for name in ("RESIDUE_SPACE", "INTERVAL"):
            monkeypatch.delenv(f"COVERCERT_LIMIT_{name}", raising=False)
        args = build_parser().parse_args(["witness", "--system", "0 mod 2"])
        assert RunConfig.from_args(args).limits == Limits()

    def test_limit_divisors_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "witness", "--limit-divisors", "5", "--system", "0 mod 2")
        assert (code, out) == (1, "")
        assert err.endswith("error: unrecognized arguments: --limit-divisors 5\n")

    def test_nonpositive_limit(self, capsys):
        code, _, err = run(
            capsys, "verify", "--limit-interval", "0", "--system", "0 mod 2"
        )
        assert code == 1
        assert "limits must be positive" in err

    @needs_digit_limit
    def test_number_past_digit_limit(self, capsys):
        with time_limit(30):
            code, out, err = run(capsys, "witness", "--system", "0 mod 1" + "0" * DIGIT_LIMIT)
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1:") and err.count("\n") == 1

    @needs_digit_limit
    def test_construct_past_digit_limit(self, capsys):
        # the largest modulus 3 * 2^(j-3) has more digits than the limit
        j = int(DIGIT_LIMIT * 3.33) + 3
        with time_limit(30):
            code, out, err = run(capsys, "construct", "--j", str(j))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot print the system") and err.count("\n") == 1

    @needs_digit_limit
    def test_construct_json_past_digit_limit(self, capsys):
        j = int(DIGIT_LIMIT * 3.33) + 3
        with time_limit(30):
            code, out, err = run(capsys, "construct", "--j", str(j), "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot print the system") and err.count("\n") == 1

    @needs_digit_limit
    @pytest.mark.parametrize("j", ["100000", "100000000000"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_construct_checks_digits_before_building(self, capsys, monkeypatch, fmt, j):
        # the largest modulus, 3 * 2^(j-3), is checked first: the family of
        # j = 100000 would take seconds and hundreds of megabytes to build,
        # and 3 * 2^(j-3) itself gigabytes at j = 10^11
        def unbuilt(j):
            raise AssertionError(f"construct_minimal_family({j}) was called")

        monkeypatch.setattr(cli, "construct_minimal_family", unbuilt)
        with time_limit(30):
            code, out, err = run(capsys, "construct", "--j", j, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: cannot print the system: {_TOO_LONG}\n"

    def test_parse_error_carries_line(self, capsys):
        code, _, err = run(capsys, "verify", "--system", "0 mod 2, zebra")
        assert code == 1
        assert "line 2" in err

    @needs_digit_limit
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bounds", "--j", "5", "--c", "1e10000000"], "bad constant '1e10000000'"),
            (["bounds", "--j", "5", "--c", "1e-10000000"], "bad constant '1e-10000000'"),
            (
                ["certify", "--schedule-C", "1e10000000", "--system", TWO_THREE],
                "bad schedule constant '1e10000000'",
            ),
            (
                ["certify", "--deltas", "0,1E-10000000", "--system", TWO_THREE],
                "bad delta list '0,1E-10000000'",
            ),
            # an exponent whose own digits are past the limit
            (["bounds", "--j", "5", "--c", "1e" + "9" * (DIGIT_LIMIT + 1)], "bad constant"),
        ],
        ids=["c-big", "c-small", "schedule-C", "deltas", "exponent-digits"],
    )
    def test_decimal_exponent_past_digit_limit(self, capsys, argv, message):
        # Fraction would build 10**exponent exactly, for seconds per call
        with time_limit(5):
            code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @needs_digit_limit
    def test_decimal_exponent_up_to_digit_limit(self, capsys):
        # 1 digit and exponent DIGIT_LIMIT - 1: a numerator of DIGIT_LIMIT digits
        exponent = DIGIT_LIMIT - 1
        code, out, err = run(capsys, "bounds", "--j", "1", "--c", f"1e-{exponent}")
        assert (code, err) == (0, "")
        code, _, err = run(capsys, "bounds", "--j", "1", "--c", f"10e-{exponent}")
        assert code == 1 and err.startswith("error: bad constant")

    @needs_digit_limit
    @pytest.mark.parametrize(
        "argv",
        [
            ["witness"],
            ["density"],
            ["minimal"],
            ["verify", "--method", "oracle"],
            ["certify"],
            ["certify", "--deltas", "0,0"],
        ],
        ids=["witness", "density", "minimal", "verify-oracle", "certify", "certify-deltas"],
    )
    def test_residue_space_past_digit_limit_is_one_line(self, capsys, argv):
        # each modulus is printable, but Q, their product, has more digits than the limit
        big = 10 ** (DIGIT_LIMIT // 2 + 50)
        with time_limit(30):
            code, out, err = run(capsys, *argv, "--system", f"0 mod {big + 1}, 1 mod {big + 3}")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) <= 201
        assert err.startswith("error: ") and "needs a residue space of size at least 10^" in err

    @needs_digit_limit
    @pytest.mark.parametrize("classes", [3000, int(DIGIT_LIMIT / 0.30103) + 20])
    def test_interval_past_digit_limit_is_one_line(self, capsys, classes):
        # 2^3000 has 904 digits, and 2^n passes the digit limit from n = 14285
        system = ", ".join(["0 mod 2"] * classes)
        with time_limit(30):
            code, out, err = run(capsys, "verify", "--method", "interval", "--system", system)
        assert (code, out) == (2, "")
        assert err == f"error: interval check needs 2^{classes} integers, over the limit 16777216\n"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (
                ["witness", "--system", "x" * 5000],
                1,
                f"line 1: expected 'R mod D', got {'x' * 80!r}…",
            ),
            (
                ["witness", "--system", f"0 mod -{NINES}"],
                1,
                "line 1: invalid modulus at most -10^3999",
            ),
            (
                ["reduce", "--ell", NINES, "--system", "0 mod 2, 1 mod 2"],
                3,
                "shift level must satisfy 1 <= ell <= 2, got at least 10^3999",
            ),
            (
                ["construct", "--j", f"-{NINES}"],
                3,
                "the minimal covering family needs j >= 5, got at most -10^3999",
            ),
            (
                ["bounds", "--precision", f"-{NINES}", "--j", "5", "--c", "1"],
                1,
                "--precision must be positive, got at most -10^3999",
            ),
            pytest.param(
                ["bounds", "--precision", NINES, "--j", "5", "--c", "1"],
                2,
                f"--precision at least 10^3999 is over Python's int/str digit limit {DIGIT_LIMIT}"
                " (PYTHONINTMAXSTRDIGITS)",
                marks=needs_digit_limit,
            ),
            (
                ["bounds", "--j", f"-{NINES}", "--c", "1"],
                3,
                "index must be at least 1, got at most -10^3999",
            ),
            (
                ["bounds", "--s", f"-{NINES}", "--c", "1"],
                3,
                "multiplicity must be at least 1, got at most -10^3999",
            ),
            (
                ["bounds", "--j", "5", "--c", f"-{NINES}"],
                3,
                "constant must be positive, got at most -10^3999",
            ),
            (
                ["smoothsum", "--y", f"-{NINES}", "--threshold", "1", "--cap", "5"],
                3,
                "smoothness bound must be at least 2, got at most -10^3999",
            ),
            (
                ["smoothsum", "--y", "5", "--threshold", f"-{NINES}", "--cap", "5"],
                3,
                "invalid range: need 1 <= threshold <= cap, got (at most -10^3999, 5)",
            ),
            (
                ["certify", "--deltas", f"-{NINES[:3000]}", "--system", "0 mod 2"],
                3,
                "delta must lie in [0, 1/2], got at most -10^2999",
            ),
            (
                ["certify", f"--deltas=-1/{NINES[:3000]},0", "--system", TWO_THREE],
                3,
                "delta must lie in [0, 1/2], got -1/at least 10^2999",
            ),
            (
                ["certify", "--schedule-C", f"-{NINES[:3000]}", "--system", TWO_THREE],
                3,
                "threshold constant must be positive, got at most -10^2999",
            ),
        ],
        ids=[
            "system-text", "system-modulus", "reduce-ell", "construct-j", "bounds-precision",
            "bounds-precision-over-limit", "bounds-j", "bounds-s", "bounds-c", "smoothsum-y",
            "smoothsum-threshold", "certify-deltas", "certify-deltas-fraction",
            "certify-schedule-C",
        ],
    )
    def test_long_value_error_line_is_bounded(self, capsys, argv, code, message):
        # a value of thousands of digits or characters is shown in at most 80
        assert run(capsys, *argv) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["construct", "--j", "9" * 5000],
                f"argument --j: invalid int value: {'9' * 80!r}…",
                marks=needs_digit_limit,
            ),
            (
                ["witness", "--format", "x" * 3000],
                f"argument --format: invalid choice: {'x' * 80!r}… (choose from 'text', 'json')",
            ),
        ],
        ids=["construct-j", "witness-format"],
    )
    def test_argparse_error_line_is_bounded(self, capsys, argv, message):
        # argparse's own error quotes the value; the flag's type cuts it
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: covercert {argv[0]} ")
        assert err.endswith(f"\ncovercert {argv[0]}: error: {message}\n")
        assert max(map(len, err.splitlines())) < 200

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["x" * 3000],
                f"argument command: invalid choice: {'x' * 80!r}… (choose from "
                + ", ".join(repr(name) for name, _, _ in cli._COMMANDS) + ")",
            ),
            (
                ["witness", "--system", "0 mod 2", "y" * 3000],
                f"unrecognized arguments: {'y' * 80!r}…",
            ),
            (
                ["witness", "--sys" + "t" * 3000, "0 mod 2"],
                f"unrecognized arguments: {'--sys' + 't' * 75!r}… 0 mod 2",
            ),
        ],
        ids=["command", "extra-argument", "unknown-option"],
    )
    def test_argument_error_line_is_bounded(self, capsys, argv, message):
        # a long argument is cut as a flag value is; the command list alone
        # takes 114 characters of the misspelt command's error line
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: covercert ")
        assert err.endswith(f"\ncovercert: error: {message}\n")
        assert max(map(len, err.splitlines())) < 300

    def test_internal_error_is_one_line(self, capsys, tamper_level):
        tamper_level(6, counts=zero_first_hit)
        code, out, err = run(capsys, "certify", "--deltas", "0,0", "--system", TWO_THREE)
        assert (code, out) == (4, "")
        assert err == "error: internal: level set member above a fiber with hit fraction 0\n"

    def test_eta_below_one_for_a_covering_system_is_internal(self, capsys, monkeypatch):
        # every term 0 would certify a system that covers: certify must notice
        monkeypatch.setattr(distortion, "_level_term", lambda m1, m2, delta: (0, "first-moment"))
        code, out, err = run(capsys, "certify", "--deltas", "0", "--system", "0 mod 2, 1 mod 2")
        assert (code, out) == (4, "")
        assert err == "error: internal: eta below 1 for a system that covers\n"


SUBCOMMANDS = list(subcommand_help(build_parser()))


class TestParserBuild:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_single_command_parser_parses_as_the_full_one(self, name, capsys, monkeypatch):
        # main with its own parsing against main reading argv with the full parser
        tails = [
            ["-h"],
            [],  # a missing required flag, where the command has one
            ["--bogus"],
            ["extra"],
            ["--format", "json", "extra"],  # left over after a valid flag
            ["--syst", TWO_THREE],
            ["--format", "xml"],
            ["--limit-interval", "abc"],
        ]
        parses = (cli._parse, lambda argv: build_parser().parse_args(argv))
        for env in ({}, {"COVERCERT_FORMAT": "json", "COVERCERT_J": "5"}):
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            for tail in tails:
                outcomes = []
                for parse in parses:
                    monkeypatch.setattr(cli, "_parse", parse)
                    outcomes.append(run(capsys, name, *tail))
                assert outcomes[0] == outcomes[1], tail
                if tail == ["-h"]:
                    assert outcomes[0][0] == 0 and f"usage: covercert {name}" in outcomes[0][1]

    def test_a_named_command_builds_only_its_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        full = 1 + len(SUBCOMMANDS)
        for argv, parsers in [
            (["witness", "--system", "0 mod 2"], 1),
            (["-h"], full),
            (["verif"], full),
        ]:
            built.clear()
            main(argv)
            assert len(built) == parsers, argv
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["construct", "--j", "5"], ["-h"]])
    def test_console_script_reads_sys_argv(self, argv, capsys, monkeypatch):
        expected = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["covercert", *argv])
        code = main()
        assert (code, *capsys.readouterr()) == expected


def test_import_needs_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, covercert.cli; print('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_import_loads_no_dataclasses():
    # a one-shot call pays for no dataclasses, nor for the modules it imports
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (
        "import sys; before = set(sys.modules); import covercert.cli;"
        f" print(sorted(set(sys.modules) - before & set({heavy!r})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "covercert", "witness", "--system", "0 mod 2, 1 mod 2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "covers: true\nwitness: none\n"
