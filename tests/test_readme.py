"""The examples in README.md run and print what the README shows."""

import ast
import contextlib
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from covercert.cli import build_parser, main

from helpers import subcommand_help

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, re.M | re.S)


def _commands():
    """Each single-command `$ covercert ...` example, with the output shown under it."""
    examples = []
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        for example in body.split("\n\n"):
            command, _, output = example.partition("\n")
            if command.startswith("$ covercert ") and "|" not in command:
                examples.append((command[2:], output.rstrip("\n") + "\n"))
    return examples


COMMANDS = _commands()
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]


def test_examples_found():
    assert len(COMMANDS) >= 3
    assert len(PYTHON_BLOCKS) >= 2


def test_command_table_lists_every_subcommand():
    # the table of the Command line section, one "covercert <name> <help>" row each
    table = next(body for lang, body in BLOCKS if lang == "text" and body.startswith("covercert "))
    rows = [tuple(line.split(None, 2)[1:]) for line in table.splitlines()]
    assert rows == list(subcommand_help(build_parser()).items())


@pytest.mark.parametrize("command, output", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_example(command, output, monkeypatch):
    for name in ("FORMAT", "LIMIT_RESIDUE_SPACE", "LIMIT_INTERVAL"):
        monkeypatch.delenv(f"COVERCERT_{name}", raising=False)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(shlex.split(command)[1:])
    assert (code, stderr.getvalue()) == (0, "")
    assert stdout.getvalue() == output


@pytest.mark.parametrize(
    "source", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))]
)
def test_python_block(source):
    # an expression statement with a trailing comment must evaluate to the
    # repr the comment starts with ("# 1: ..." or "# Fraction(5, 6)")
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr) and node.lineno in comments:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == comments[node.lineno].split(": ", 1)[0]
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
