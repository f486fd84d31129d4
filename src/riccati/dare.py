"""Discrete-time algebraic Riccati equation X = Q + A^*X(I+GX)^{-1}A.

Fixed-point iteration and the structure-preserving doubling algorithm (SDA),
which also delivers the maximal solution of the dual equation.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Coefficients,
    as_matrix,
    lu_factor,
    solve_linear,
    solve_right,
    symmetrize,
)
from .reporting import SolveOptions, SolveReport, iterate_doubling, iterate_map, map_residual

__all__ = [
    "DareProblem",
    "DoublingState",
    "DareSolution",
    "dare_step",
    "dare_fixed_point_solve",
    "sda_solve",
    "dare_residual",
    "wiener_hopf_check",
    "build_symplectic",
]


@dataclass(frozen=True)
class DareProblem(Coefficients):
    """Coefficients (A, G, Q) with G, Q Hermitian PSD."""

    HERMITIAN = ("G", "Q")
    A: np.ndarray
    G: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class DoublingState:
    """The (A_k, G_k, Q_k) triple advanced by SDA."""

    Ak: np.ndarray
    Gk: np.ndarray
    Qk: np.ndarray
    k: int


@dataclass
class DareSolution:
    """Maximal solution X_plus, dual solution Y_plus (when the method
    produces it), and the convergence report."""

    X_plus: np.ndarray
    Y_plus: np.ndarray | None
    report: SolveReport


def dare_step(xk, problem: DareProblem) -> np.ndarray:
    """One step Q + A^* X_k (I + G X_k)^{-1} A, via the Hermitian middle
    factor (I + X G)^{-1} X.  X_k is not scanned; a non-finite X_k raises
    SingularMatrix from the factorization."""
    x = np.asarray(xk)
    a, g, q = problem.A, problem.G, problem.Q
    eye = np.eye(problem.n)
    middle = solve_linear(eye + x @ g, x)  # equals X (I+GX)^{-1}, Hermitian
    return symmetrize(q + a.conj().T @ middle @ a)


def _dare_map(x, problem: DareProblem):
    """(`dare_step` of X, residual scale of X as a function of ||X||_F)."""
    norms = problem.norms
    return dare_step(x, problem), lambda nx: float(norms["Q"] + nx * (1.0 + norms["A"] ** 2))


def dare_residual(x, problem: DareProblem) -> float:
    """Relative residual ||Q + A^*X(I+GX)^{-1}A - X|| / (||Q|| + ||X|| (1 + ||A||^2)).

    X is not scanned: a non-finite X raises SingularMatrix (`dare_step`)."""
    x = np.asarray(x)
    return map_residual(x, float(np.linalg.norm(x)), _dare_map(x, problem))


def dare_fixed_point_solve(
    problem: DareProblem, opts: SolveOptions = SolveOptions()
) -> DareSolution:
    """Natural fixed-point iteration from X_0 = 0 (a disguised inverse
    subspace iteration); does not produce the dual solution."""
    report, _ = iterate_map(np.zeros_like(problem.Q), lambda x: _dare_map(x, problem), opts)
    return DareSolution(X_plus=report.X, Y_plus=None, report=report)


def sda_step(state: DoublingState) -> DoublingState:
    """Advance (A_k, G_k, Q_k) one doubling step.

    One factorization of W = I + G_k Q_k gives V1 = W^{-1} A_k and
    V2 = W^{-1} G_k; then A_{k+1} = A_k V1, G_{k+1} = G_k + A_k V2 A_k^* and
    Q_{k+1} = Q_k + A_k^* Q_k V1.  W^{-1} is formed from the factors (getri)
    and applied to [A_k, G_k] as one product: for 2n right-hand sides that
    runs at matrix-product speed, where the triangular solves of getrs do not.
    """
    ak, gk, qk = state.Ak, state.Gk, state.Qk
    n = ak.shape[0]
    v = lu_factor(np.eye(n) + gk @ qk).inverse() @ np.hstack([ak, gk])
    v1, v2 = v[:, :n], v[:, n:]
    a_next = ak @ v1
    g_next = symmetrize(gk + ak @ v2 @ ak.conj().T)
    q_next = symmetrize(qk + ak.conj().T @ qk @ v1)
    return DoublingState(Ak=a_next, Gk=g_next, Qk=q_next, k=state.k + 1)


def sda_solve(problem: DareProblem, opts: SolveOptions = SolveOptions(), residual=None) -> DareSolution:
    """Structure-preserving doubling algorithm.

    The Q_k converge monotonically (Loewner order) to X_plus = X_{2^k} in the
    limit, and the G_k to the maximal solution Y_plus of the dual equation
    obtained by swapping A with A^* and G with Q.  `residual(Q_k, ||Q_k||_F)`
    measures Q_k in the equation the caller is actually solving, given the
    norm `iterate` takes once per iterate; it defaults to the DARE residual.
    """
    report, state = iterate_doubling(
        DoublingState(Ak=problem.A.copy(), Gk=problem.G.copy(), Qk=problem.Q.copy(), k=0),
        sda_step,
        residual or (lambda q, nq: map_residual(q, nq, _dare_map(q, problem))),
        opts,
    )
    return DareSolution(X_plus=state.Qk, Y_plus=state.Gk, report=report)


def build_symplectic(a, g, q) -> np.ndarray:
    """The symplectic matrix [I G; 0 A^*]^{-1} [A 0; -Q I] of raw coefficients,
    which need not be definite (no DareProblem validation)."""
    a, g, q = as_matrix(a), as_matrix(g), as_matrix(q)
    n = a.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    left = np.block([[eye, g], [zero, a.conj().T]])
    right = np.block([[a, zero], [-q, eye]])
    return solve_linear(left, right)


def wiener_hopf_check(sol: DareSolution, problem: DareProblem) -> float:
    """Relative defect of S = W diag(((I+QY)^{-1}A^*)^{-1}, (I+GX)^{-1}A) W^{-1}
    with W = [-Y I; I X]; requires A invertible and the dual solution."""
    if sol.Y_plus is None:
        raise ValueError("wiener_hopf_check needs the dual solution Y_plus")
    x = as_matrix(sol.X_plus)
    y = as_matrix(sol.Y_plus)
    a, g, q = problem.A, problem.G, problem.Q
    n = problem.n
    eye = np.eye(n)
    s = build_symplectic(problem.A, problem.G, problem.Q)
    d1 = solve_linear(a.conj().T, eye + q @ y)  # ((I+QY)^{-1}A^*)^{-1}
    d2 = solve_linear(eye + g @ x, a)
    w = np.block([[-y, eye], [eye, x]])
    d = np.block([[d1, np.zeros((n, n))], [np.zeros((n, n)), d2]])
    reconstructed = solve_right(w @ d, w)
    return float(np.linalg.norm(s - reconstructed) / np.linalg.norm(s))
