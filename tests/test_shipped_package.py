"""The shipped package carries only the production path.

Semantics oracles (the naive detector, the dict mapping table, the
brute-force victim scan) live in ``tests/oracles/``; nothing under
``src/repro`` may define or import them, and the translation table is
no longer a user-settable option.
"""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import repro
import repro.ftl.mapping
import repro.ftl.victim
from repro.ssd.config import SSDConfig

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def test_reference_detector_left_the_package():
    assert importlib.util.find_spec("repro.core.reference") is None


def test_dict_mapping_table_left_the_package():
    assert not hasattr(repro.ftl.mapping, "DictMappingTable")


def test_brute_force_victim_scan_left_the_package():
    assert not hasattr(repro.ftl.victim, "select_victim")


def test_mapping_backend_is_not_a_config_field():
    names = {field.name for field in dataclasses.fields(SSDConfig)}
    assert "mapping_backend" not in names


def test_no_package_module_imports_tests():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            if any(m == "tests" or m.startswith("tests.") for m in modules):
                offenders.append(str(path.relative_to(PACKAGE_ROOT)))
    assert offenders == []
