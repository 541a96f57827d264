"""No stale exports: every exported name of the package and its modules exists."""

import ast
import importlib
import math
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


# -- the dual quaternion object layer and the scalars --------------------------

ROOT = pathlib.Path(dqeig.__file__).parents[2]
# members reached through operator syntax, construction, repr or the frozen
# dataclass machinery, not by name
OPERATORS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__matmul__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__",
    "__repr__", "__setattr__", "__delattr__",
}
OBJECTS = (
    dqeig.DualQuaternionMatrix, dqeig.DualQuaternionVector,
    dqeig.DualNumber, dqeig.Quaternion, dqeig.DualQuaternion,
)


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


def caller_trees():
    """The syntax trees of src/, perfbench/ and the README example."""
    sources = [p.read_text(encoding="utf-8")
               for d in ("src/dqeig", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    return [ast.parse(source) for source in sources + [library_example()]]


def referenced_attributes():
    """Every attribute name read in src/, perfbench/ and the README example."""
    return {n.attr for tree in caller_trees() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)}


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


# -- optional parameters -------------------------------------------------------


def public_functions():
    """(name, callee, bound, node) of every public function, and of every
    public method or constructor of a public class, in src/dqeig. callee is
    the name a call spells, the class for a constructor, and bound whether
    the call passes self or cls without spelling it."""
    for path in sorted((ROOT / "src/dqeig").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name, False, node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name.startswith("_") and item.name != "__init__":
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    yield f"{path.stem}.{node.name}.{item.name}", callee, not static, item


def optional_parameters():
    """(name, callee, position, parameter) of every parameter with a default
    of the public functions; position is the index of the argument that
    passes it in a call, or None for a keyword-only parameter."""
    for name, callee, bound, node in public_functions():
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield name, callee, i - bound, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, callee, None, arg.arg


def calls():
    """(callee, positional count, keyword names) of every call in src/,
    perfbench/ and the README example; a *args spread counts as every
    position and a **kwargs spread as every keyword (None)."""
    out = []
    for tree in caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", None) or getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                out.append((callee, math.inf if starred else len(node.args),
                            {k.arg for k in node.keywords}))
    return out


def test_optional_parameters_are_found():
    found = {(name, parameter) for name, _, _, parameter in optional_parameters()}
    assert {("solve.solve", "v0"), ("matrices.DualQuaternionMatrix.__init__", "a3"),
            ("bench.run_benchmark", "trials")} <= found


def test_every_optional_parameter_is_passed_outside_the_tests():
    seen = calls()
    unused = [
        f"{name}({parameter})"
        for name, callee, position, parameter in optional_parameters()
        if not any(c == callee and (parameter in kw or None in kw
                                    or (position is not None and count > position))
                   for c, count, kw in seen)
    ]
    assert not unused, f"optional parameters only tests pass: {unused}"
