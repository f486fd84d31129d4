"""Stein equation X - A^*XA = Q: Smith iteration and its squared variant."""

from dataclasses import dataclass

import numpy as np

from .linalg import Coefficients, symmetrize
from .reporting import (
    DEFAULT_DOUBLING_MAX_ITER,
    NORM_OVERFLOW,
    SolveOptions,
    SolveReport,
    iterate,
    iterate_map,
    map_residual,
)

__all__ = [
    "SteinProblem",
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


def squared_smith_step(state):
    """One doubling step (A_k, Q_k) -> (A_k^2, Q_k + A_k^* Q_k A_k) and the
    update norm ||Q_{k+1} - Q_k||."""
    ak, qk = state
    q_next = symmetrize(qk + ak.conj().T @ qk @ ak)
    return (ak @ ak, q_next), float(np.linalg.norm(q_next - qk))


def a_overflow(state, *_) -> bool:
    """Structural stop of a squared-Smith state (A_k, Q_k): ||A_k|| > 1e150."""
    return bool(np.linalg.norm(state[0]) > NORM_OVERFLOW)


def squared_smith_solve(problem: SteinProblem, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Doubling variant: A_{k+1} = A_k^2, Q_{k+1} = Q_k + A_k^* Q_k A_k.

    Q_k equals the 2^k-th Smith iterate; `iterations` counts doubling steps,
    and at least one is taken.  A residual stop counts as converged only when
    ||A_k||_F < 1, which proves rho(A) < 1: for rho(A) = 1 the Stein operator
    is singular, and Q_k can reach a small relative residual while growing
    without bound.
    """
    report, (ak, _) = iterate(
        (problem.A.copy(), problem.Q.copy()),
        squared_smith_step,
        lambda s, nq: map_residual(s[1], nq, _smith_map(s[1], problem)),
        opts,
        DEFAULT_DOUBLING_MAX_ITER,
        solution=lambda s: s[1],
        stop=a_overflow,
        always_step=True,
    )
    report.converged = report.converged and bool(np.linalg.norm(ak) < 1.0)
    return report
