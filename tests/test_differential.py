"""Solvers against independent references above the oracle caps, at n = 64.

The CARE sign iteration is checked against scipy's Schur-based
`solve_continuous_are`; the NME solvers, which scipy does not cover, against
the maximal-solution certificate.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from riccati import SignOptions, cyclic_reduction_solve, nme_fixed_point_solve, sign_solve
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem

N = 64
SEEDS = (0, 1)


def instance(kind, seed):
    return to_problem(gen_problem(GeneratorSpec(kind=kind, n=N, seed=seed)))


def rel(x, y) -> float:
    return float(np.linalg.norm(x - y) / np.linalg.norm(y))


@pytest.mark.parametrize("scaling", ["none", "determinantal"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sign_matches_scipy(seed, scaling):
    p = instance("care", seed)
    # G = B B^* from an eigendecomposition, with R = I
    w, v = np.linalg.eigh(p.G)
    b = v * np.sqrt(np.clip(w, 0.0, None))
    x_ref = sla.solve_continuous_are(p.A, b, p.Q, np.eye(N))
    sol = sign_solve(p, SignOptions(scaling=scaling))
    assert sol.report.converged
    assert rel(sol.X_plus, x_ref) <= 1e-8


@pytest.mark.parametrize(
    "solve", [cyclic_reduction_solve, nme_fixed_point_solve], ids=["cr", "fixed-point"]
)
@pytest.mark.parametrize("seed", SEEDS)
def test_nme_maximal_solution(seed, solve):
    """X is the maximal solution: Hermitian positive definite, residual <=
    1e-10 and rho(X^{-1} A) <= 1 + 1e-6."""
    p = instance("nme", seed)
    report = solve(p)
    x, a, q = report.X, p.A, p.Q
    assert report.converged
    assert rel(x, x.conj().T) <= 1e-14
    assert np.linalg.eigvalsh(x)[0] > 0
    y = np.linalg.solve(x, a)
    assert rel(x + a.conj().T @ y, q) <= 1e-10
    assert np.max(np.abs(np.linalg.eigvals(y))) <= 1 + 1e-6
