"""Solvers against independent references above the oracle caps.

At n = 64 the CARE sign iteration is checked against scipy's Schur-based
`solve_continuous_are`, and the NME solvers, which scipy does not cover,
against the maximal-solution certificate.  At n in {64, 128} DARE SDA is
checked against `solve_discrete_are` (full-rank and rank-n/4 G), squared
Smith against `solve_discrete_lyapunov` and ADI at the default shift against
`solve_continuous_lyapunov`.  CARE-SDA is checked against
`solve_continuous_are` at n in {64, 128}.  Badly scaled data: SDA and
CARE-SDA on (A, G s, Q / s) for s in {1e-4, 1e4}, and the Cayley reduction
plus squared Smith on (1e3 A, Q), at the CLI's default shift.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from riccati import (
    CareProblem,
    DareProblem,
    LyapunovProblem,
    ShiftSequence,
    SignOptions,
    adi_solve,
    care_sda_solve,
    cayley_to_stein,
    cyclic_reduction_solve,
    nme_fixed_point_solve,
    sda_solve,
    sign_solve,
    squared_smith_solve,
)
from riccati.care import default_cayley_tau
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem

N = 64
SIZES = (64, 128)
SEEDS = (0, 1)
SCALES = (1e-4, 1e4)
SCALED_SEEDS = (0, 1, 2)
# the measured errors were 1.9e-14 to 3.2e-11 on these instances
BOUND = 1e-8


def instance(kind, seed, n=N):
    return to_problem(gen_problem(GeneratorSpec(kind=kind, n=n, seed=seed)))


def gram_factor(m):
    """B with B B^* = M for a Hermitian PSD M, from an eigendecomposition."""
    w, v = np.linalg.eigh(m)
    return v * np.sqrt(np.clip(w, 0.0, None))


def rel(x, y) -> float:
    return float(np.linalg.norm(x - y) / np.linalg.norm(y))


@pytest.mark.parametrize("scaling", ["none", "determinantal"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sign_matches_scipy(seed, scaling):
    p = instance("care", seed)
    # G = B B^* with R = I
    x_ref = sla.solve_continuous_are(p.A, gram_factor(p.G), p.Q, np.eye(N))
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


@pytest.mark.parametrize("rank", ["full", "n/4"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_sda_matches_scipy(n, seed, rank):
    p = instance("dare", seed, n)
    if rank == "full":
        b = gram_factor(p.G)
    else:
        # A is stable, so (A, B) is stabilizable for any B
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, n // 4)) + 1j * rng.standard_normal((n, n // 4))
        p = DareProblem(A=p.A, G=b @ b.conj().T, Q=p.Q)
    x_ref = sla.solve_discrete_are(p.A, b, p.Q, np.eye(b.shape[1]))
    sol = sda_solve(p)
    assert sol.report.converged
    assert rel(sol.X_plus, x_ref) <= BOUND


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_squared_smith_matches_scipy(n, seed):
    p = instance("stein", seed, n)
    # scipy solves X = A X A^* + Q
    x_ref = sla.solve_discrete_lyapunov(p.A.conj().T, p.Q)
    report = squared_smith_solve(p)
    assert report.converged
    assert rel(report.X, x_ref) <= BOUND


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_adi_matches_scipy(n, seed):
    p = instance("lyapunov", seed, n)
    # scipy solves A X + X A^* = Q
    x_ref = sla.solve_continuous_lyapunov(p.A.conj().T, -p.Q)
    # the shift `riccati solve --method adi` uses when none is given
    report = adi_solve(p, ShiftSequence((default_cayley_tau(p.norms["A"], n),)))
    assert report.converged
    assert rel(report.X, x_ref) <= BOUND


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_care_sda_matches_scipy(n, seed):
    p = instance("care", seed, n)
    x_ref = sla.solve_continuous_are(p.A, gram_factor(p.G), p.Q, np.eye(n))
    sol = care_sda_solve(p)
    assert sol.report.converged
    assert rel(sol.X_plus, x_ref) <= BOUND


@pytest.mark.parametrize("seed", SCALED_SEEDS)
@pytest.mark.parametrize("s", SCALES)
def test_sda_scaled_matches_scipy(s, seed):
    # X solves (A, G, Q) exactly when X / s solves (A, G s, Q / s)
    p = instance("dare", seed)
    p = DareProblem(A=p.A, G=p.G * s, Q=p.Q / s)
    x_ref = sla.solve_discrete_are(p.A, gram_factor(p.G), p.Q, np.eye(N))
    sol = sda_solve(p)
    assert sol.report.converged
    assert rel(sol.X_plus, x_ref) <= BOUND


@pytest.mark.parametrize("seed", SCALED_SEEDS)
@pytest.mark.parametrize("s", SCALES)
def test_care_sda_scaled_matches_scipy(s, seed):
    p = instance("care", seed)
    p = CareProblem(A=p.A, G=p.G * s, Q=p.Q / s)
    x_ref = sla.solve_continuous_are(p.A, gram_factor(p.G), p.Q, np.eye(N))
    sol = care_sda_solve(p)
    assert sol.report.converged
    assert rel(sol.X_plus, x_ref) <= BOUND


@pytest.mark.parametrize("seed", SEEDS)
def test_cayley_smith_large_a_matches_scipy(seed):
    p = instance("lyapunov", seed)
    p = LyapunovProblem(A=p.A * 1e3, Q=p.Q)
    x_ref = sla.solve_continuous_lyapunov(p.A.conj().T, -p.Q)
    # `riccati solve --method cayley-smith` with its default shift
    stein = cayley_to_stein(p, default_cayley_tau(p.norms["A"], N))
    report = squared_smith_solve(stein)
    assert report.converged
    assert rel(report.X, x_ref) <= BOUND
