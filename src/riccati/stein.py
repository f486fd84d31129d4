"""Stein equation X - A^*XA = Q: Smith iteration and its squared variant."""

from dataclasses import dataclass

import numpy as np

from .linalg import Coefficients, symmetrize
from .reporting import SolveOptions, SolveReport, iterate_doubling, iterate_map, map_residual

__all__ = [
    "SteinProblem",
    "SmithState",
    "smith_step",
    "smith_solve",
    "squared_smith_step",
    "squared_smith_solve",
    "stein_residual",
]


@dataclass(frozen=True)
class SteinProblem(Coefficients):
    """Coefficients of X - A^*XA = Q with Q Hermitian PSD."""

    HERMITIAN = ("Q",)
    A: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class SmithState:
    """The (A_k, Q_k) pair advanced by squared Smith."""

    Ak: np.ndarray
    Qk: np.ndarray


def smith_step(xk, problem: SteinProblem) -> np.ndarray:
    """One fixed-point step Q + A^* X_k A, re-symmetrized; X_k is not
    scanned for non-finite entries."""
    a = problem.A
    return symmetrize(problem.Q + a.conj().T @ np.asarray(xk) @ a)


def _smith_map(x, problem: SteinProblem):
    """(`smith_step` of X, residual scale of X as a function of ||X||_F)."""
    norms = problem.norms
    return smith_step(x, problem), lambda nx: float(norms["Q"] + norms["A"] ** 2 * nx + nx)


def stein_residual(x, problem: SteinProblem) -> float:
    """Relative residual ||X - A^*XA - Q|| / (||Q|| + ||A||^2 ||X|| + ||X||).

    X is not scanned: a non-finite X gives a non-finite residual."""
    x = np.asarray(x)
    return map_residual(x, float(np.linalg.norm(x)), _smith_map(x, problem))


def smith_solve(problem: SteinProblem, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Iterate X_{k+1} = Q + A^* X_k A from X_0 = 0.

    Stops on relative residual <= opts.tol, on residual stagnation, or at
    max_iter (reported with converged=False).  Divergence for rho(A) >= 1 is
    caught by an iterate-norm overflow guard rather than precluded.
    """
    return iterate_map(np.zeros_like(problem.Q), lambda x: _smith_map(x, problem), opts)[0]


def squared_smith_step(state: SmithState) -> SmithState:
    """One doubling step (A_k, Q_k) -> (A_k^2, Q_k + A_k^* Q_k A_k)."""
    ak, qk = state.Ak, state.Qk
    return SmithState(Ak=ak @ ak, Qk=symmetrize(qk + ak.conj().T @ qk @ ak))


def squared_smith_solve(problem: SteinProblem, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Doubling variant: A_{k+1} = A_k^2, Q_{k+1} = Q_k + A_k^* Q_k A_k, run
    by `iterate_doubling` from (A, Q).

    Q_k equals the 2^k-th Smith iterate; `iterations` counts doubling steps.
    A residual stop counts as converged only when ||A_k||_F < 1, which
    proves rho(A) < 1: for rho(A) = 1 the Stein operator is singular, and
    Q_k can reach a small relative residual while growing without bound.
    A start Q that meets tol is returned after no step, so it counts as
    converged only when ||A||_F < 1.
    """
    report, state = iterate_doubling(
        SmithState(Ak=problem.A.copy(), Qk=problem.Q.copy()),
        squared_smith_step,
        lambda q, nq: map_residual(q, nq, _smith_map(q, problem)),
        opts,
    )
    report.converged = report.converged and bool(np.linalg.norm(state.Ak) < 1.0)
    return report
