"""Stein equation X - A^*XA = Q: Smith iteration and its squared variant."""

import time
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, hermitian_part, psd_check, symmetrize
from .reporting import (
    DEFAULT_DOUBLING_MAX_ITER,
    NORM_OVERFLOW,
    SolveOptions,
    SolveReport,
    fixed_point_solve,
    rate_from_updates,
    relative_residual,
)

__all__ = ["SteinProblem", "smith_step", "smith_solve", "squared_smith_solve", "stein_residual"]


@dataclass(frozen=True)
class SteinProblem:
    """Coefficients of X - A^*XA = Q with Q Hermitian PSD."""

    A: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A)
        q = hermitian_part(self.Q)
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if q.shape != a.shape:
            raise ValueError("Q must match the shape of A")
        if not psd_check(q, 1e-10):
            raise ValueError("Q must be positive semidefinite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "Q", q)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def smith_step(xk, problem: SteinProblem) -> np.ndarray:
    """One fixed-point step Q + A^* X_k A, re-symmetrized."""
    a = problem.A
    return symmetrize(problem.Q + a.conj().T @ as_matrix(xk) @ a)


def _stein_scale(x, problem: SteinProblem) -> float:
    nx = float(np.linalg.norm(x))
    return float(np.linalg.norm(problem.Q) + np.linalg.norm(problem.A) ** 2 * nx + nx)


def stein_residual(x, problem: SteinProblem) -> float:
    """Relative residual ||X - A^*XA - Q|| / (||Q|| + ||A||^2 ||X|| + ||X||)."""
    x = as_matrix(x)
    return relative_residual(x, smith_step(x, problem), _stein_scale(x, problem))


def smith_solve(problem: SteinProblem, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Iterate X_{k+1} = Q + A^* X_k A from X_0 = 0.

    Stops on relative residual <= opts.tol, on residual stagnation, or at
    max_iter (reported with converged=False).  Divergence for rho(A) >= 1 is
    caught by an iterate-norm overflow guard rather than precluded.
    """
    return fixed_point_solve(
        np.zeros_like(problem.Q),
        lambda x: (smith_step(x, problem), _stein_scale(x, problem)),
        opts,
    )


def squared_smith_solve(problem: SteinProblem, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Doubling variant: A_{k+1} = A_k^2, Q_{k+1} = Q_k + A_k^* Q_k A_k.

    Q_k equals the 2^k-th Smith iterate; `iterations` counts doubling steps.
    A residual stop counts as converged only when ||A_k||_F < 1, which proves
    rho(A) < 1: for rho(A) = 1 the Stein operator is singular, and Q_k can
    reach a small relative residual while growing without bound.
    """
    max_iter = opts.resolve_max_iter(DEFAULT_DOUBLING_MAX_ITER)
    ak = problem.A.copy()
    qk = problem.Q.copy()
    t0 = time.perf_counter_ns()
    history = [stein_residual(qk, problem)]
    times = [time.perf_counter_ns() - t0]
    updates: list[float] = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        qn = symmetrize(qk + ak.conj().T @ qk @ ak)
        updates.append(float(np.linalg.norm(qn - qk)))
        qk = qn
        ak = ak @ ak
        iterations += 1
        res = stein_residual(qk, problem)
        history.append(res)
        times.append(time.perf_counter_ns() - t0)
        if res <= opts.tol:
            converged = bool(np.linalg.norm(ak) < 1.0)
            break
        if np.linalg.norm(ak) > NORM_OVERFLOW or np.linalg.norm(qk) > NORM_OVERFLOW:
            break
        if not np.isfinite(res):
            break
    report = SolveReport(
        X=qk,
        converged=converged,
        iterations=iterations,
        residual_history=history,
        rate_estimate=rate_from_updates(updates),
    )
    report.elapsed_ns = times
    return report
