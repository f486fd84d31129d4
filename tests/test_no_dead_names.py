"""An error type or a linalg wrapper cannot outlive its last caller: each is
used by the package itself, not only by its tests."""

import ast
import inspect
from pathlib import Path

import pytest

import riccati
from riccati import errors, linalg

TREES = {path.stem: ast.parse(path.read_text()) for path in Path(riccati.__file__).parent.glob("*.py")}


def _linalg_names_read(node) -> set:
    """Names read in node, bare or as `linalg.name`; an attribute of any
    other object (such as the property `lu.min_pivot`) is not counted."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id == "linalg":
            names.add(sub.attr)
    return names


def _raised_names() -> set:
    names = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


ERROR_CLASSES = sorted(
    name for name, obj in vars(errors).items() if inspect.isclass(obj) and obj.__module__ == errors.__name__
)


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_error_class_is_raised(name):
    # the base class counts as raised through its subclasses
    subclasses = {cls.__name__ for cls in getattr(errors, name).__subclasses__()}
    raised = _raised_names()
    assert name in raised or subclasses & raised, f"no module of riccati raises {name}"


@pytest.mark.parametrize("name", linalg.__all__)
def test_linalg_name_is_used(name):
    used = False
    for module, tree in TREES.items():
        for node in tree.body:
            own = module == "linalg" and getattr(node, "name", None) == name
            if not own and not isinstance(node, ast.ImportFrom) and name in _linalg_names_read(node):
                used = True
    assert used, f"linalg.{name} is used nowhere in riccati outside its definition"
