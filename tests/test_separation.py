"""The solvers share no code path with the oracles that check them, and every
solver report comes from the one iteration driver."""

import ast
from pathlib import Path

import pytest

import riccati

SOLVER_MODULES = ("stein", "lyapunov", "dare", "care", "nme", "reporting", "linalg")


def _is_importlib_call(node) -> bool:
    """Whether node calls a function of `importlib` or of one of its
    submodules, such as `importlib.import_module` or `importlib.util.find_spec`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    while isinstance(func, ast.Attribute):
        func = func.value
    return isinstance(func, ast.Name) and func.id == "importlib"


def _imported_modules(tree):
    """Every module an import statement anywhere in the tree names, including
    the names of a `from package import module` form, and every module an
    `importlib` call names by a string literal as its first argument."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module
            yield from (alias.name for alias in node.names)
        elif _is_importlib_call(node) and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                yield first.value


@pytest.mark.parametrize("module", SOLVER_MODULES)
def test_solver_module_does_not_import_oracle(module):
    path = Path(riccati.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [name for name in _imported_modules(tree) if "oracle" in name.split(".")]
    assert offending == [], f"{module}.py imports {offending}"


def _called_names(tree):
    """The name of every function or class a call anywhere in the tree names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node.lineno
            elif isinstance(func, ast.Attribute):
                yield func.attr, node.lineno


@pytest.mark.parametrize("module", ("stein", "lyapunov", "dare", "care", "nme"))
def test_solver_module_builds_no_report(module):
    """Every solver's report comes from the one iteration driver."""
    path = Path(riccati.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [line for name, line in _called_names(tree) if name == "SolveReport"]
    assert lines == [], f"{module}.py constructs SolveReport on lines {lines}"


@pytest.mark.parametrize("module", ("stein", "dare", "nme"))
def test_equation_module_runs_map_or_doubling_driver(module):
    """The basic iterations run on `iterate_map` and the doubling ones on
    `iterate_doubling`; none calls the raw `iterate`."""
    path = Path(riccati.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [line for name, line in _called_names(tree) if name == "iterate"]
    assert lines == [], f"{module}.py calls iterate on lines {lines}"


def test_only_linalg_imports_scipy():
    """scipy is reached in the package by `linalg` alone, at the first
    factorization, whether by an import statement or through `importlib`;
    every other module reaches LAPACK through `linalg`."""
    package = Path(riccati.__file__).parent
    importers = [
        path.stem
        for path in sorted(package.glob("*.py"))
        if any(
            name.split(".")[0] == "scipy"
            for name in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        )
    ]
    assert importers == ["linalg"]


def test_the_scan_sees_importlib_calls():
    tree = ast.parse('import importlib.util\nimportlib.util.find_spec("scipy")\nimportlib.import_module("x.y")')
    assert sorted(_imported_modules(tree)) == ["importlib.util", "scipy", "x.y"]


def _names_read(tree):
    """Every name a tree reads, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_oracle_takes_numpys_norm():
    """The package takes every Frobenius norm with `linalg._frobenius`, except
    `oracle`, which shares no code path with the solvers it checks."""
    path = Path(riccati.__file__).with_name("oracle.py")
    assert "_frobenius" not in set(_names_read(ast.parse(path.read_text())))


def test_only_oracle_imports_scipy_linalg():
    """The solvers and the CLI reach LAPACK through `linalg._lapack` and
    `_blas`, which load scipy's compiled modules alone; `_scipy_linalg`,
    which imports the whole scipy.linalg package, serves `oracle` only."""
    package = Path(riccati.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    readers = [stem for stem, tree in trees.items() if "_scipy_linalg" in _names_read(tree)]
    assert readers == ["oracle"]
    assert [node.name for node in trees["linalg"].body if isinstance(node, ast.FunctionDef)].count("_scipy_linalg") == 1


def _collector_calls(tree):
    """The line of every `gc.<function>(...)` call anywhere in the tree."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "gc"
    }


def test_only_cli_run_touches_the_collector():
    """The garbage collector belongs to the host process: only the process
    entry point `cli.run` imports `gc` and calls it, so no library import or
    solver changes a host application's collector."""
    package = Path(riccati.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    importers = [stem for stem, tree in trees.items() if "gc" in _imported_modules(tree)]
    assert importers == ["cli"]
    (run,) = [node for node in trees["cli"].body if isinstance(node, ast.FunctionDef) and node.name == "run"]
    assert _collector_calls(run)
    assert _collector_calls(trees["cli"]) == _collector_calls(run)


def test_only_to_problem_builds_a_problem():
    """`io.to_problem` is the one place a problem file becomes a problem
    object: no other code of `io` reads the problem classes, so reading and
    writing a file import no solver module."""
    path = Path(riccati.__file__).with_name("io.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    (to_problem,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "to_problem"]
    calls = {line for name, line in _called_names(tree) if name == "problem_class"}
    assert calls and calls == {line for name, line in _called_names(to_problem) if name == "problem_class"}
