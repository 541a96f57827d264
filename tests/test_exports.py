"""No stale exports: every exported name of the package and its modules exists."""

import ast
import importlib
import pathlib
import pkgutil

import numpy as np
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


# -- the dual quaternion object layer ------------------------------------------

ROOT = pathlib.Path(dqeig.__file__).parents[2]
# members reached through operator syntax or construction, not by name
OPERATORS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__"}
OBJECTS = (dqeig.DualQuaternionMatrix, dqeig.DualQuaternionVector)


def test_each_object_keeps_its_parts_as_one_read_only_stack():
    q = dqeig.random_hermitian(3, 0)
    v = dqeig.random_unit_vector(3, np.random.default_rng(0))
    for obj, shape, first in ((q, (4, 3, 3), q.a1), (v, (4, 3), v.v1)):
        parts = obj._parts
        assert type(parts) is np.ndarray and parts.shape == shape
        assert parts.dtype == np.complex128 and not parts.flags.writeable
        assert np.shares_memory(first, parts) and np.array_equal(first, parts[0])
    # the eigenvectors eddcam returns are views of one stack of all of them
    vecs = dqeig.solve(q, "eddcam").eigenvectors()
    base = vecs[0]._parts.base
    assert isinstance(base, np.ndarray) and all(a._parts.base is base for a in vecs)


def library_example():
    """The python block of the README's Library section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def referenced_attributes():
    """Every attribute name read in src/, perfbench/ and the README example."""
    sources = [p.read_text(encoding="utf-8")
               for d in ("src/dqeig", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    names = set()
    for source in sources + [library_example()]:
        names |= {n.attr for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)}
    return names


@pytest.mark.parametrize("cls", OBJECTS, ids=lambda c: c.__name__)
def test_every_public_member_has_a_caller_outside_the_tests(cls):
    members = {
        name
        for klass in cls.__mro__[:-1]
        for name, value in vars(klass).items()
        if not name.startswith("_") or (name.endswith("__") and callable(value))
    }
    unused = members - OPERATORS - referenced_attributes()
    assert not unused, f"{cls.__name__} members only tests reach: {sorted(unused)}"
