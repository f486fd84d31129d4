"""A name cannot outlive its last caller.  Every error class is raised by the
package itself, and every public top-level function and class, and every
`__all__` entry, of every riccati module is read outside its own definition
and outside the re-exports of `riccati/__init__.py`: in the package, in
`demos/`, in `tools/` or in the acceptance tests (the invariants), not only
in other tests.  No file in src/, demos/, tools/ or tests/ imports a name it
never reads."""

import ast
import inspect
from pathlib import Path

import pytest

import riccati
from riccati import errors

PACKAGE = Path(riccati.__file__).parent
REPO = Path(__file__).resolve().parent.parent
TREES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
READERS = {
    path: ast.parse(path.read_text())
    for path in [
        *PACKAGE.glob("*.py"),
        *(REPO / "demos").glob("*.py"),
        *(REPO / "tools").glob("*.py"),
        REPO / "tests" / "test_acceptance.py",
    ]
    if path.name != "__init__.py"
}


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


def _public_names(tree) -> set:
    names = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


PUBLIC = {module: sorted(_public_names(tree)) for module, tree in TREES.items()}


def _imported_from_riccati(tree) -> dict:
    """{local name: original name} of every `from riccati... import` and
    relative import in tree."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "riccati"):
            aliases.update({alias.asname or alias.name: alias.name for alias in node.names})
    return aliases


def _names_read(node, aliases: dict) -> set:
    """Names node reads: a bare name in `aliases` (mapped to its original), or
    `module.name` for a riccati module (an attribute of any other object,
    such as a method, is not counted)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in aliases:
            names.add(aliases[sub.id])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in TREES:
            names.add(sub.attr)
    return names


def _is_read(module: str, name: str) -> bool:
    for path, tree in READERS.items():
        own_module = path.parent == PACKAGE and path.stem == module
        aliases = _imported_from_riccati(tree) | ({name: name} if own_module else {})
        for node in tree.body:
            own = own_module and getattr(node, "name", None) == name
            if not own and name in _names_read(node, aliases):
                return True
    return False


@pytest.mark.parametrize("name", PUBLIC["linalg"])
def test_linalg_name_is_used(name):
    assert _is_read("linalg", name), f"linalg.{name} is read nowhere outside its definition but in tests"


OTHERS = [(module, name) for module, names in sorted(PUBLIC.items()) if module != "linalg" for name in names]


@pytest.mark.parametrize("module, name", OTHERS, ids=[f"{m}.{n}" for m, n in OTHERS])
def test_public_name_is_read(module, name):
    assert _is_read(module, name), f"{module}.{name} is read nowhere outside its definition but in tests"


def _unread_imports(tree) -> list:
    """Names an import statement anywhere in tree binds that no expression in
    the file reads; a name listed in `__all__` counts as read."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted(set(bound) - read)


# the package's __init__.py imports in order to re-export
SOURCES = sorted(
    path
    for tree in ("src", "demos", "tools", "tests")
    for path in (REPO / tree).rglob("*.py")
    if path.relative_to(REPO).as_posix() != "src/riccati/__init__.py"
)


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(REPO)) for p in SOURCES])
def test_every_import_is_read(path):
    unread = _unread_imports(ast.parse(path.read_text()))
    assert unread == [], f"{path.relative_to(REPO)} imports {unread} and never reads them"
