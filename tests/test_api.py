"""The public surface of the package, and the independence of the test references."""

import ast
import inspect
from pathlib import Path

import covercert

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
    tree = ast.parse((Path(__file__).parent / "helpers.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not any(
        name == "covercert" or name.startswith(("covercert.", ".")) for name in imported
    )
