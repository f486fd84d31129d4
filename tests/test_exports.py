"""The package's exports resolve on first access to the objects of the
modules that define them, as eager imports would bind them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import riccati


def test_every_export_is_its_modules_object():
    for name in riccati.__all__:
        obj = getattr(riccati, name)
        assert obj.__module__.split(".")[0] == "riccati", name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_fresh_star_import_binds_each_modules_object():
    """In a new interpreter, `from riccati import *` binds exactly the names
    of `__all__`, each to the object its defining module holds."""
    code = (
        "import sys\n"
        "namespace = {}\n"
        "exec('from riccati import *', namespace)\n"
        "del namespace['__builtins__']\n"
        "import riccati\n"
        "wrong = [n for n, obj in namespace.items() if getattr(sys.modules[obj.__module__], n) is not obj]\n"
        "print(sorted(namespace) == sorted(riccati.__all__), wrong)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(riccati.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True []\n"


def test_exports_are_unique_and_listed_by_dir():
    assert len(riccati.__all__) == len(set(riccati.__all__))
    assert set(riccati.__all__) <= set(dir(riccati))
    assert "__version__" in dir(riccati)


@pytest.mark.parametrize("name", ["no_such_name", "default_cayley_tau"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(riccati, name)
    assert not hasattr(riccati, name)


def test_submodule_import_still_works():
    from riccati import nme

    assert nme.NmeProblem is riccati.NmeProblem
