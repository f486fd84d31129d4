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
    spectral_radius_estimate,
    symmetrize,
)
from .reporting import (
    SolveOptions,
    SolveReport,
    iterate_doubling,
    iterate_map,
    relative_residual,
)

__all__ = [
    "DareProblem",
    "DoublingState",
    "DareSolution",
    "dare_step",
    "dare_fixed_point_solve",
    "sda_solve",
    "bmf_factorize",
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
    factor (I + X G)^{-1} X."""
    x = as_matrix(xk)
    a, g, q = problem.A, problem.G, problem.Q
    eye = np.eye(problem.n)
    middle = solve_linear(eye + x @ g, x)  # equals X (I+GX)^{-1}, Hermitian
    return symmetrize(q + a.conj().T @ middle @ a)


def _dare_scale(x, problem: DareProblem) -> float:
    return float(np.linalg.norm(problem.Q) + np.linalg.norm(x) * (1.0 + np.linalg.norm(problem.A) ** 2))


def dare_residual(x, problem: DareProblem) -> float:
    """Relative residual ||Q + A^*X(I+GX)^{-1}A - X|| / (||Q|| + ||X|| (1 + ||A||^2))."""
    x = as_matrix(x)
    return relative_residual(x, dare_step(x, problem), _dare_scale(x, problem))


def closed_loop_radius(x, problem: DareProblem, max_doublings: int = 30) -> float:
    """Spectral-radius estimate of the closed loop (I + G X)^{-1} A."""
    eye = np.eye(problem.n)
    k = solve_linear(eye + problem.G @ as_matrix(x), problem.A)
    return spectral_radius_estimate(k, max_doublings)


def dare_fixed_point_solve(
    problem: DareProblem, opts: SolveOptions = SolveOptions()
) -> DareSolution:
    """Natural fixed-point iteration from X_0 = 0 (a disguised inverse
    subspace iteration); does not produce the dual solution."""
    report = iterate_map(
        np.zeros_like(problem.Q),
        lambda x: (dare_step(x, problem), _dare_scale(x, problem)),
        opts,
    )
    report.closed_loop_radius = closed_loop_radius(report.X, problem)
    return DareSolution(X_plus=report.X, Y_plus=None, report=report)


def sda_step(state: DoublingState) -> DoublingState:
    """Advance (A_k, G_k, Q_k) one doubling step.

    One factorization of W = I + G_k Q_k gives V1 = W^{-1} A_k and
    V2 = W^{-1} G_k; then A_{k+1} = A_k V1, G_{k+1} = G_k + A_k V2 A_k^* and
    Q_{k+1} = Q_k + A_k^* Q_k V1.
    """
    ak, gk, qk = state.Ak, state.Gk, state.Qk
    n = ak.shape[0]
    v = lu_factor(np.eye(n) + gk @ qk).solve(np.hstack([ak, gk]))
    v1, v2 = v[:, :n], v[:, n:]
    a_next = ak @ v1
    g_next = symmetrize(gk + ak @ v2 @ ak.conj().T)
    q_next = symmetrize(qk + ak.conj().T @ qk @ v1)
    return DoublingState(Ak=a_next, Gk=g_next, Qk=q_next, k=state.k + 1)


def sda_solve(problem: DareProblem, opts: SolveOptions = SolveOptions(), residual=None) -> DareSolution:
    """Structure-preserving doubling algorithm.

    The Q_k converge monotonically (Loewner order) to X_plus = X_{2^k} in the
    limit, and the G_k to the maximal solution Y_plus of the dual equation
    obtained by swapping A with A^* and G with Q.  `residual(Q_k)` measures
    Q_k in the equation the caller is actually solving; it defaults to the
    DARE residual.
    """
    report, state = iterate_doubling(
        DoublingState(Ak=problem.A.copy(), Gk=problem.G.copy(), Qk=problem.Q.copy(), k=0),
        sda_step,
        residual or (lambda q: dare_residual(q, problem)),
        opts,
        lambda s: float(np.linalg.norm(s.Qk)),
    )
    report.closed_loop_radius = closed_loop_radius(state.Qk, problem)
    return DareSolution(X_plus=state.Qk, Y_plus=state.Gk, report=report)


def bmf_factorize(m1, m2, n1, n2):
    """Blocks (A11, A12, A21, A22) of the one-inversion factorization
    [M1 M2]^{-1} [N1 N2] = [A11 0; A21 I]^{-1} [I A12; 0 A22].

    The blocks are read off [N1 M2]^{-1} [M1 N2]; existence is equivalent to
    [N1 M2] being invertible.
    """
    m1, m2 = as_matrix(m1), as_matrix(m2)
    n1, n2 = as_matrix(n1), as_matrix(n2)
    n = m1.shape[1]
    blocks = solve_linear(np.hstack([n1, m2]), np.hstack([m1, n2]))
    return blocks[:n, :n], blocks[:n, n:], blocks[n:, :n], blocks[n:, n:]


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
