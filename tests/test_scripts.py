"""Experiment scripts: each imports, every mhnes name it reads exists, every
keyword it passes to an mhnes class or function is a parameter of it, and
the configs it builds validate."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from mhnes.config import METHODS

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def _from_mhnes(obj):
    if inspect.ismodule(obj):
        return obj.__name__.startswith("mhnes")
    return ((inspect.isclass(obj) or inspect.isroutine(obj))
            and (obj.__module__ or "").startswith("mhnes"))


def _mhnes_callee(module, func):
    """The mhnes class or function that a call names as ``name(...)`` or
    ``owner.name(...)``, or None."""
    if isinstance(func, ast.Name):
        obj = getattr(module, func.id, None)
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = getattr(module, func.value.id, None)
        obj = getattr(owner, func.attr, None) if _from_mhnes(owner) else None
    else:
        return None
    return obj if _from_mhnes(obj) and not inspect.ismodule(obj) else None


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() stays behind the __main__ guard
    return module


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_and_reads_existing_names(path):
    module = _load(path)
    assert callable(module.main)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = getattr(module, node.value.id, None)
            if _from_mhnes(owner):
                assert hasattr(owner, node.attr), (
                    f"{path.name}: {node.value.id}.{node.attr} does not exist"
                )
        callee = isinstance(node, ast.Call) and _mhnes_callee(module, node.func)
        if callee:
            params = inspect.signature(callee).parameters.values()
            if any(p.kind is p.VAR_KEYWORD for p in params):
                continue
            names = {p.name for p in params}
            for kw in node.keywords:
                assert kw.arg is None or kw.arg in names, (
                    f"{path.name}: {ast.unparse(node.func)}({kw.arg}=...) "
                    "is no parameter"
                )


@pytest.mark.parametrize("method", METHODS)
def test_method_comparison_config_validates(tmp_path, method):
    module = _load(SCRIPT_DIR / "method_comparison.py")
    defaults = module.parser().parse_args([])
    cfg = module.config_for(method, tmp_path, defaults)
    assert cfg.method == method
    assert not any(tmp_path.iterdir())
