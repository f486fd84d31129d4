"""Nonlinear matrix equation X + A^*X^{-1}A = Q, cyclic reduction, and the
spectral factorization of the palindromic Laurent polynomial it encodes."""

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, SingularMatrix
from .linalg import (
    Coefficients,
    as_matrix,
    cholesky_factor,
    hermitian_part,
    solve_linear,
    spectral_radius_estimate,
    symmetrize,
)
from .reporting import SolveOptions, SolveReport, iterate_doubling, iterate_map, map_residual, relative

__all__ = [
    "NmeProblem",
    "CrState",
    "SpectralFactorization",
    "nme_step",
    "nme_residual",
    "nme_fixed_point_solve",
    "cyclic_reduction_solve",
    "spectral_factorize",
    "uqme_residual",
]


@dataclass(frozen=True)
class NmeProblem(Coefficients):
    """Coefficients of X + A^*X^{-1}A = Q with Q Hermitian positive definite."""

    HERMITIAN = ("Q",)
    A: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        try:
            definite = cholesky_factor(self.Q).min_pivot >= 1e-12 * self.norms["Q"]
        except SingularMatrix:
            definite = False
        if not definite:
            raise ValueError("Q must be positive definite")


@dataclass(frozen=True)
class CrState:
    """Cyclic-reduction state; U_k = Q_k - G_k in the SDA-II bookkeeping."""

    Ak: np.ndarray
    Qk: np.ndarray
    Uk: np.ndarray
    k: int


@dataclass(frozen=True)
class SpectralFactorization:
    """Factors of P(z) = (z Y^* - I) X (z^{-1} Y - I) with rho(Y) <= 1.

    Matching coefficients with A z^{-1} + Q + A^* z forces -XY = A and
    X + Y^*XY = Q; both identities are validated on construction.
    """

    X: np.ndarray
    Y: np.ndarray
    A: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        x = hermitian_part(self.X)
        y = as_matrix(self.Y)
        a = as_matrix(self.A)
        q = as_matrix(self.Q)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)
        if np.linalg.norm(x @ y + a) > 1e-9 * max(1.0, np.linalg.norm(a)):
            raise ValueError("factorization does not match the coefficient -XY = A")
        if np.linalg.norm(x + y.conj().T @ x @ y - q) > 1e-9 * np.linalg.norm(q):
            raise ValueError("factorization does not match the coefficient X + Y^*XY = Q")
        if spectral_radius_estimate(y, 40) > 1 + 1e-6:
            raise ValueError("right factor is not stable: rho(Y) > 1")


def _definite_factor(m, what: str):
    """cholesky_factor(m), with SingularMatrix(what) for an m that is not
    positive definite; a non-finite m keeps the factorization's reason."""
    try:
        return cholesky_factor(m)
    except SingularMatrix:
        if not np.linalg.norm(m) < np.inf:
            raise
        raise SingularMatrix(what) from None


def _nme_map(x, problem: NmeProblem):
    """(Q - A^* X^{-1} A re-symmetrized, residual scale of X as a function of
    ||X||_F) from one Cholesky factorization X = R^* R: with Y = R^{-*} A,
    A^* X^{-1} A = Y^* Y.

    The scale term ||A||^2 ||X^{-1}|| is approximated through the smallest
    pivot r_ii^2 of that factorization.  An X that is not positive definite
    raises SingularMatrix: every iterate from Q stays above the maximal
    solution, so an indefinite one proves that no positive definite solution
    exists.
    """
    a, q = problem.A, problem.Q
    chol = _definite_factor(x, "NME iterate X is not positive definite")
    y = chol.half_solve(a)
    x_next = symmetrize(q - y.conj().T @ y)
    inv_proxy = 1.0 / chol.min_pivot
    norms = problem.norms
    return x_next, lambda nx: float(norms["Q"] + nx + norms["A"] ** 2 * inv_proxy)


def nme_step(xk, problem: NmeProblem) -> np.ndarray:
    """One fixed-point step Q - A^* X_k^{-1} A, re-symmetrized.  X_k is not
    scanned; a non-finite X_k raises SingularMatrix from the factorization."""
    return _nme_map(np.asarray(xk), problem)[0]


def nme_residual(x, problem: NmeProblem) -> float:
    """Relative residual of X + A^*X^{-1}A = Q.

    The denominator term ||A||^2 ||X^{-1}|| is approximated through the
    smallest pivot of the Cholesky factorization of X; an X that is not
    positive definite, or is not finite (X is not scanned), raises
    SingularMatrix.
    """
    x = np.asarray(x)
    return map_residual(x, float(np.linalg.norm(x)), _nme_map(x, problem))


def nme_fixed_point_solve(
    problem: NmeProblem, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """Iterate X_{k+1} = Q - A^* X_k^{-1} A from X_1 = Q (zero cannot start
    this iteration); the iterates decrease monotonically to the maximal
    solution.  Critical spectra surface as sublinear rate_estimate -> 1.  An
    iterate that is not positive definite raises SingularMatrix: the
    equation then has no positive definite solution."""
    return iterate_map(problem.Q.copy(), lambda x: _nme_map(x, problem), opts, first_iteration=1)[0]


def cr_step(state: CrState) -> CrState:
    """One cyclic-reduction step (one odd-even block elimination).

    U_k stays Hermitian positive definite while a positive definite solution
    exists, so it is factored U_k = R^* R, and one triangular solve of
    [A_k, A_k^*] gives Y = R^{-*} A_k and Z = R^{-*} A_k^*.  Then
    A_{k+1} = -Z^* Y, Q_{k+1} = Q_k - Y^* Y and U_{k+1} = U_k - Y^* Y - Z^* Z.
    """
    ak, qk, uk = state.Ak, state.Qk, state.Uk
    n = ak.shape[0]
    chol = _definite_factor(uk, "cyclic-reduction pivot block U_k is singular or not positive definite")
    both = chol.half_solve(np.hstack([ak, ak.conj().T]))
    y, z = both[:, :n], both[:, n:]
    yy = y.conj().T @ y
    q_next = symmetrize(qk - yy)
    u_next = symmetrize(uk - yy - z.conj().T @ z)
    return CrState(Ak=-(z.conj().T @ y), Qk=q_next, Uk=u_next, k=state.k + 1)


def cyclic_reduction_solve(
    problem: NmeProblem, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """Doubling variant of the fixed point: Q_k equals the 2^k-th iterate.

    In the critical case (unit-circle roots of the Laurent polynomial) the
    error halves each step; rate_estimate reports it.  A Q_k or U_k that is
    not positive definite raises SingularMatrix: the equation then has no
    positive definite solution."""
    report, _ = iterate_doubling(
        CrState(Ak=problem.A.copy(), Qk=problem.Q.copy(), Uk=problem.Q.copy(), k=0),
        cr_step,
        lambda q, nq: map_residual(q, nq, _nme_map(q, problem)),
        opts,
    )
    return report


def spectral_factorize(
    problem: NmeProblem, opts: SolveOptions = SolveOptions()
) -> SpectralFactorization:
    """Spectral factorization via cyclic reduction: X = X_plus, Y = -X^{-1}A.

    A run that does not converge, or whose X and Y fail the identities or
    the rho(Y) <= 1 check of SpectralFactorization, raises NotConverged."""
    report = cyclic_reduction_solve(problem, opts)
    if not report.converged:
        raise NotConverged(f"cyclic reduction did not converge in {report.iterations} steps")
    y = -solve_linear(report.X, problem.A)
    try:
        return SpectralFactorization(X=report.X, Y=y, A=problem.A, Q=problem.Q)
    except ValueError as exc:
        raise NotConverged(f"cyclic reduction converged in {report.iterations} steps, but {exc}") from exc


def uqme_residual(y, problem: NmeProblem) -> float:
    """Relative residual of the unilateral equation A + QY + A^*Y^2 = 0."""
    y = as_matrix(y)
    a, q = problem.A, problem.Q
    raw = float(np.linalg.norm(a + q @ y + a.conj().T @ y @ y))
    ny = float(np.linalg.norm(y))
    return relative(raw, float(problem.norms["A"]) * (1.0 + ny**2) + float(problem.norms["Q"]) * ny)
