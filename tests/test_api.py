"""The public surface of the package, and the independence of the test references."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import covercert

ROOT = Path(__file__).parent.parent

# every name README, scripts/, cli.py or perfbench/ imports from covercert,
# and the exception classes
PUBLIC = {
    "CongruenceSystem", "Limits", "DEFAULT_LIMITS", "DeltaSchedule",
    "CovercertError", "DomainError", "InvalidModulusError", "ParseError",
    "ResourceLimitError", "InternalConsistencyError",
    "parse_system", "emit_system", "emit_system_json", "rational_str", "covers_oracle",
    "covers_interval", "is_minimal", "density_uncovered", "deduplicated", "multiplicity",
    "construct_minimal_family", "shift_expand", "certify", "run_levels", "prime_ladder",
    "default_delta_schedule", "system_default_schedule",
    "jth_modulus_bound", "multiplicity_modulus_bound", "smooth_reciprocal_sum",
}


def test_public_names():
    names = {
        name
        for name, value in vars(covercert).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert names == PUBLIC


def test_helpers_import_nothing_from_covercert():
    # the references that the tests and the benchmark's output checks compare
    # covercert's results with
    for path in ("tests/helpers.py", "perfbench/oracle.py"):
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert imported and not any(
            name == "covercert" or name.startswith(("covercert.", ".")) for name in imported
        ), path


def test_sources_parse_at_the_declared_python_floor():
    # the tests run on a newer Python than the floor pyproject.toml declares;
    # except* (3.11) must fail to parse there, or feature_version checks nothing.
    # The tests run perfbench/oracle.py's code, so perfbench/ is parsed too
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert floor
    version = (int(floor[1]), int(floor[2]))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=version)
    folders = ("src/covercert", "scripts", "tests", "perfbench")
    paths = sorted(path for folder in folders for path in (ROOT / folder).glob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
