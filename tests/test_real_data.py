"""Real data is solved in real arithmetic, by every CLI (kind, method) cell.

`Coefficients` stores a coefficient whose imaginary part is exactly 0 as
float64 and every kernel keeps the field it is given, so a real problem
returns a float64 X, whether its data arrives as float64 or as complex128
with a zero imaginary part.  Complex data and complex shifts promote.  The
real instances are drawn here, since the generator emits complex data, and
checked against scipy.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from riccati.cli import SOLVERS
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import problem_class, to_problem
from riccati.lyapunov import LyapunovProblem, ShiftSequence, adi_solve, cayley_reduce
from riccati.reporting import SolveOptions

N = 16
OPTS = SolveOptions(tol=1e-12)
CELLS = sorted((kind, method) for kind in SOLVERS for method in SOLVERS[kind])


def _stable(rng, radius):
    a = rng.standard_normal((N, N))
    return a * (radius / np.max(np.abs(np.linalg.eigvals(a))))


def _gram(rng):
    c = rng.standard_normal((N, N))
    return c.T @ c


def real_data(kind, seed=0) -> dict:
    """Real float64 coefficients of one instance of `kind` at n=16."""
    rng = np.random.default_rng(seed)
    if kind == "stein":
        return {"A": _stable(rng, 0.9), "Q": _gram(rng)}
    if kind == "lyapunov":
        u, _ = np.linalg.qr(rng.standard_normal((N, N)))
        c = rng.standard_normal((N, N))
        return {"A": -(u * rng.uniform(0.5, 2.0, N)) @ u.T, "Q": c.T @ c, "C": c}
    if kind == "dare":
        return {"A": _stable(rng, 0.9), "G": _gram(rng), "Q": _gram(rng)}
    if kind == "care":
        r = rng.standard_normal((N, N))
        return {"A": r - (np.linalg.norm(r) + 0.5) * np.eye(N), "G": _gram(rng), "Q": _gram(rng)}
    a = rng.standard_normal((N, N))
    return {"A": a, "Q": _gram(rng) + (2 * np.linalg.norm(a) + 1.0) * np.eye(N)}


def reference(kind, m) -> np.ndarray:
    a, q = m["A"], m["Q"]
    if kind == "stein":  # X - A^T X A = Q
        return sla.solve_discrete_lyapunov(a.T, q)
    if kind == "lyapunov":  # A^T X + X A + Q = 0
        return sla.solve_continuous_lyapunov(a.T, -q)
    # G = B B^T from an eigendecomposition, with R = I
    w, v = np.linalg.eigh(m["G"])
    b = v * np.sqrt(np.clip(w, 0.0, None))
    solve = sla.solve_discrete_are if kind == "dare" else sla.solve_continuous_are
    return solve(a, b, q, np.eye(N))


def rel(x, y) -> float:
    return float(np.linalg.norm(x - y) / np.linalg.norm(y))


def nme_certificate(x, m):
    """X is the maximal solution: Hermitian positive definite, residual <=
    1e-10 and rho(X^{-1} A) <= 1 + 1e-6."""
    a, q = m["A"], m["Q"]
    assert rel(x, x.conj().T) <= 1e-14
    assert np.linalg.eigvalsh(x)[0] > 0
    y = np.linalg.solve(x, a)
    assert rel(x + a.conj().T @ y, q) <= 1e-10
    assert np.max(np.abs(np.linalg.eigvals(y))) <= 1 + 1e-6


def solve(kind, method, matrices, shifts=None) -> np.ndarray:
    report, _ = SOLVERS[kind][method](problem_class(kind)(**matrices), OPTS, shifts)
    return report.X


@pytest.mark.parametrize("kind, method", CELLS)
def test_real_data_gives_real_x(kind, method):
    m = real_data(kind)
    x = solve(kind, method, m)
    assert x.dtype == np.float64
    if kind == "nme":
        nme_certificate(x, m)
    else:
        assert rel(x, reference(kind, m)) <= 1e-8


@pytest.mark.parametrize("kind, method", CELLS)
def test_zero_imaginary_part_gives_the_same_x(kind, method):
    m = real_data(kind)
    x = solve(kind, method, m)
    x_from_complex = solve(kind, method, {k: v.astype(np.complex128) for k, v in m.items()})
    assert x_from_complex.dtype == np.float64
    assert np.array_equal(x_from_complex, x)


@pytest.mark.parametrize("kind, method", CELLS)
def test_complex_data_stays_complex(kind, method):
    problem = to_problem(gen_problem(GeneratorSpec(kind=kind, n=6, seed=0)))
    assert problem.A.dtype == np.complex128
    report, _ = SOLVERS[kind][method](problem, OPTS, None)
    assert report.X.dtype == np.complex128


@pytest.mark.parametrize("method", sorted(SOLVERS["lyapunov"]))
def test_complex_shift_promotes(method):
    m = real_data("lyapunov")
    x = solve("lyapunov", method, m, [2.0 + 1.0j])
    assert x.dtype == np.complex128
    assert rel(x, reference("lyapunov", m)) <= 1e-8


def test_real_shift_given_as_complex_stays_real():
    m = real_data("lyapunov")
    assert type(ShiftSequence((2.0 + 0.0j,)).at(0)) is float
    assert adi_solve(LyapunovProblem(**m), ShiftSequence((2.0 + 0.0j,)), OPTS).X.dtype == np.float64
    for part in cayley_reduce(m["A"], m["Q"], 2.0 + 0.0j):
        assert part.dtype == np.float64


def test_critical_nme_file_is_real():
    problem = to_problem(gen_problem(GeneratorSpec(kind="nme", n=6, seed=0, critical=True)))
    assert problem.A.dtype == np.float64 and problem.Q.dtype == np.float64
