"""Experiment scripts: each imports, and every mhnes name it reads exists."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def _from_mhnes(obj):
    if inspect.ismodule(obj):
        return obj.__name__.startswith("mhnes")
    return inspect.isclass(obj) and obj.__module__.startswith("mhnes")


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_and_reads_existing_names(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() stays behind the __main__ guard
    assert callable(module.main)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = getattr(module, node.value.id, None)
            if _from_mhnes(owner):
                assert hasattr(owner, node.attr), (
                    f"{path.name}: {node.value.id}.{node.attr} does not exist"
                )
