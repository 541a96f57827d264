"""No stale exports: every exported name of the package and its modules exists."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import dqeig

MODULES = sorted(m.name for m in pkgutil.iter_modules(dqeig.__path__))


def reexports():
    """(module, name) of every `from .module import name` in dqeig/__init__.py."""
    tree = ast.parse(pathlib.Path(dqeig.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dqeig.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_the_package_reexports_only_exported_names():
    pairs = reexports()
    assert {module for module, _ in pairs} <= set(MODULES)
    for module_name, name in pairs:
        module = importlib.import_module(f"dqeig.{module_name}")
        assert getattr(dqeig, name) is getattr(module, name)
        assert name in getattr(module, "__all__", [name]), f"{module_name}.{name}"


def test_every_module_export_is_reexported():
    reexported = {name for _, name in reexports()}
    for name in MODULES:
        exported = getattr(importlib.import_module(f"dqeig.{name}"), "__all__", [])
        assert set(exported) <= reexported, name
