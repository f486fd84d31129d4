"""Smoke test of tools/fingerprint.py on an n=1 grid."""

import importlib.util
from pathlib import Path

from riccati.cli import SOLVERS

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
# the keys of a solve entry made by a library call; a CLI cell adds the
# printed final residual.  Pinned exactly, so an added or dropped key shows.
LIBRARY_KEYS = {"iterations", "converged", "X", "history", "rate_estimate"}


def load_script():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_cli_cell_has_an_entry():
    script = load_script()
    # no critical instances: their basic iterations run to the 10^4 budget
    entries = script.fingerprint(sizes=(1,), seeds=(0,), tols=(1e-12,), critical_kinds=())
    for kind, methods in SOLVERS.items():
        assert f"file {kind} n=1 seed=0" in entries
        for method in methods:
            for path in ("tol=1e-12", "tol=1e-12 max_iter=1", "tol=1e-300 max_iter=200"):
                entry = entries[f"solve {kind} {method} n=1 seed=0 {path}"]
                assert set(entry) in ({"error"}, LIBRARY_KEYS | {"final_residual"})
    # rho(A) = 1.2: neither Stein method converges
    assert "file stein radius=1.2 n=1 seed=0" in entries
    for method in SOLVERS["stein"]:
        assert not entries[f"solve stein radius=1.2 {method} n=1 seed=0 tol=1e-12"]["converged"]
    assert set(entries["newton_care_solve x0=0.1I n=1 seed=0"]) == LIBRARY_KEYS
    for tol in ("1e-12", "0.001"):
        assert set(entries[f"sign_solve scaling=none n=1 seed=0 tol={tol}"]) == LIBRARY_KEYS
    # the public residuals at X = Q, as the repr of a finite float
    for kind in ("stein", "dare", "nme"):
        assert float(entries[f"{kind}_residual X=Q {kind} n=1 seed=0"]) >= 0.0
    assert float(entries["stein_residual X=Q stein radius=1.2 n=1 seed=0"]) >= 0.0
    scalar = entries["care_sda_solve tau=1.0 scalar A=0 G=Q=1"]
    assert set(scalar) == LIBRARY_KEYS
    assert scalar["converged"] and scalar["iterations"] == 0
    # Newton from a non-Hurwitz closed loop records its inner failure
    for label in script.NEWTON_FAILURES:
        assert entries[f"newton_care_solve {label}"]["error"].startswith("InnerSolveFailed: ")
