"""Bit-level fingerprint of every CLI solve and every generated problem file.

Prints one JSON object, one entry per line, keyed by cell.  Each CLI cell
of the grid also runs on its stop paths (STOP_PATHS): once at tol 1e-12
with max_iter=1, the path of an exhausted budget, and once at the
unreachable tol 1e-300 with max_iter=200, which ends on stagnation, on a
doubling iteration's structural floor or on the budget.  The Stein cells
also run on instances with spectral radius 1.2, which end on the iterate
overflow guard.  Besides the grid it runs `sign_solve` unscaled at two
tolerances on each CARE instance (the CLI runs only determinantal scaling),
records `stein_residual`, `dare_residual` and `nme_residual` at X = Q on
each instance of their kind, and runs `care_sda_solve` on the scalar CARE
A = 0, G = Q = 1 at three shifts.  It also runs `newton_care_solve` on
constructed cases whose closed loop is not Hurwitz (NEWTON_FAILURES), so
the entries record where and how its inner doubling gives up.  Run it on two
checkouts and diff the outputs to see which results a change moved:

    python3 tools/fingerprint.py > after.json
    (cd ../other-checkout && python3 tools/fingerprint.py) > before.json
    diff before.json after.json

Each solve entry holds the iteration count, the converged flag, SHA-256
digests of X and of the residual history (both hashed by value, as
complex128), the rate estimate and the final residual as `riccati solve`
prints it; a residual entry holds the repr of the float.  No solve
computes the closed-loop radius, so no entry holds it.
A solve that raises records its error instead.  The script imports riccati
from the `src/` next to it, so each checkout fingerprints its own code.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from riccati import cli  # noqa: E402
from riccati.care import (  # noqa: E402
    CareProblem,
    SignOptions,
    care_sda_solve,
    newton_care_solve,
    sign_solve,
)
from riccati.dare import dare_residual  # noqa: E402
from riccati.errors import RiccatiError  # noqa: E402
from riccati.generators import GeneratorSpec, gen_problem  # noqa: E402
from riccati.io import save_problem, to_problem  # noqa: E402
from riccati.nme import nme_residual  # noqa: E402
from riccati.reporting import SolveOptions  # noqa: E402
from riccati.stein import stein_residual  # noqa: E402

SIZES = (1, 6, 16, 32)
SEEDS = (0, 1, 2, 3)
TOLS = (1e-12, 1e-14, 1e-3)
CRITICAL_KINDS = ("stein", "dare", "nme")
CARE_SDA_TAUS = (None, 0.5, 2.0, 1e-6)
# A = 0, G = Q = 1: H has eigenvalues +-1, so tau = 1 makes the discrete A zero
SCALAR_CARE = CareProblem(A=[[0.0]], G=[[1.0]], Q=[[1.0]])
SCALAR_CARE_TAUS = (None, 1.0, 2.0)
SIGN_TOLS = (1e-12, 1e-3)
# Newton starts whose first closed loop A - G X_0 is not Hurwitz: label ->
# (problem, X_0).  With Q = G = 0 and X_0 = I the reduced right-hand side is
# 0, so only ||A_j|| can end the inner doubling.
_ZERO = np.zeros((2, 2))
NEWTON_FAILURES = {
    "eigenvalues +-i": (CareProblem(A=[[0.0, 1.0], [-1.0, 0.0]], G=_ZERO, Q=np.eye(2)), _ZERO),
    "eigenvalues 2, 3 Q=0": (CareProblem(A=[[2.0, 1.0], [0.0, 3.0]], G=_ZERO, Q=_ZERO), np.eye(2)),
    "Jordan block at 1 Q=0": (CareProblem(A=[[1.0, -50.0], [0.0, 1.0]], G=_ZERO, Q=_ZERO), np.eye(2)),
}
RESIDUALS = {"stein": stein_residual, "dare": dare_residual, "nme": nme_residual}
STOP_PATHS = (SolveOptions(tol=1e-12, max_iter=1), SolveOptions(tol=1e-300, max_iter=200))
# rho(A) > 1: the Stein iterations diverge and stop on the overflow guard
DIVERGENT_STEIN_RADIUS = 1.2


def _sha(a) -> str:
    # hashed as complex128, so an array moves only when a value does, not
    # when its dtype does (real data is solved as float64)
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.complex128).tobytes()).hexdigest()


def _entry(run) -> dict:
    """run() -> (report, final residual or None) as a JSON-ready entry."""
    try:
        report, final = run()
    except (RiccatiError, ValueError, np.linalg.LinAlgError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    entry = {
        "iterations": report.iterations,
        "converged": bool(report.converged),
        "X": _sha(report.X),
        "history": _sha(np.asarray(report.residual_history, dtype=float)),
        "rate_estimate": repr(float(report.rate_estimate)),
    }
    if final is not None:
        entry["final_residual"] = f"{final:.6e}"
    return entry


def _file_sha(pf, directory: Path) -> str:
    path = directory / "problem.json"
    save_problem(path, pf)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(sizes=SIZES, seeds=SEEDS, tols=TOLS, critical_kinds=CRITICAL_KINDS) -> dict:
    """Entries for the grid sizes x seeds x tols; the kinds in critical_kinds
    also get their critical instances, and stein its divergent ones."""
    out = {}
    instances = [(kind, {}, kind) for kind in cli.SOLVERS]
    instances += [(kind, {"critical": True}, f"{kind}-critical") for kind in critical_kinds]
    instances.append(("stein", {"radius": DIVERGENT_STEIN_RADIUS}, f"stein radius={DIVERGENT_STEIN_RADIUS}"))
    with tempfile.TemporaryDirectory() as tmp:
        for kind, spec, label in instances:
            methods = cli.SOLVERS[kind]
            for n in sizes:
                for seed in seeds:
                    pf = gen_problem(GeneratorSpec(kind=kind, n=n, seed=seed, **spec))
                    cell = f"n={n} seed={seed}"
                    out[f"file {label} {cell}"] = _file_sha(pf, Path(tmp))
                    if kind in RESIDUALS:
                        p = to_problem(pf)
                        out[f"{kind}_residual X=Q {label} {cell}"] = repr(RESIDUALS[kind](p.Q, p))
                    for method in methods:
                        for tol in tols:
                            opts = SolveOptions(tol=tol)
                            out[f"solve {label} {method} {cell} tol={tol:g}"] = _entry(
                                lambda: cli._solve_dispatch(pf, method, opts, None)
                            )
                        for opts in STOP_PATHS:
                            key = f"solve {label} {method} {cell} tol={opts.tol:g} max_iter={opts.max_iter}"
                            out[key] = _entry(lambda: cli._solve_dispatch(pf, method, opts, None))
    for n in sizes:
        for seed in seeds:
            p = to_problem(gen_problem(GeneratorSpec(kind="care", n=n, seed=seed)))
            cell = f"n={n} seed={seed}"
            for tau in CARE_SDA_TAUS:
                out[f"care_sda_solve tau={tau} {cell}"] = _entry(
                    lambda: (care_sda_solve(p, tau).report, None)
                )
            for tol in SIGN_TOLS:
                out[f"sign_solve scaling=none {cell} tol={tol:g}"] = _entry(
                    lambda: (sign_solve(p, SignOptions(tol=tol)).report, None)
                )
            out[f"newton_care_solve x0=0.1I {cell}"] = _entry(
                lambda: (newton_care_solve(p, 0.1 * np.eye(n)).report, None)
            )
    for tau in SCALAR_CARE_TAUS:
        out[f"care_sda_solve tau={tau} scalar A=0 G=Q=1"] = _entry(
            lambda: (care_sda_solve(SCALAR_CARE, tau).report, None)
        )
    for label, (p, x0) in NEWTON_FAILURES.items():
        out[f"newton_care_solve {label}"] = _entry(lambda: (newton_care_solve(p, x0).report, None))
    return out


if __name__ == "__main__":
    entries = fingerprint()
    lines = (f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}" for key in sorted(entries))
    print("{\n" + ",\n".join(lines) + "\n}")
