"""Discrete-time algebraic Riccati equation X = Q + A^*X(I+GX)^{-1}A.

Fixed-point iteration and the structure-preserving doubling algorithm (SDA),
which also delivers the maximal solution of the dual equation.
"""

import time
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_matrix,
    hermitian_part,
    lu_factor,
    psd_check,
    solve_linear,
    solve_right,
    spectral_radius_estimate,
    symmetrize,
)
from .reporting import (
    DEFAULT_DOUBLING_MAX_ITER,
    SolveOptions,
    SolveReport,
    fixed_point_solve,
    rate_from_updates,
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
class DareProblem:
    """Coefficients (A, G, Q) with G, Q Hermitian PSD."""

    A: np.ndarray
    G: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A)
        g = hermitian_part(self.G)
        q = hermitian_part(self.Q)
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if g.shape != a.shape or q.shape != a.shape:
            raise ValueError("G and Q must match the shape of A")
        if not psd_check(g, 1e-10) or not psd_check(q, 1e-10):
            raise ValueError("G and Q must be positive semidefinite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "G", g)
        object.__setattr__(self, "Q", q)

    @property
    def n(self) -> int:
        return self.A.shape[0]


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
    report = fixed_point_solve(
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


def _sda_core(problem: DareProblem, opts: SolveOptions, residual_fn):
    """Shared SDA driver; `residual_fn` measures the residual of Q_k in
    whichever equation the caller is actually solving."""
    max_iter = opts.resolve_max_iter(DEFAULT_DOUBLING_MAX_ITER)
    state = DoublingState(Ak=problem.A.copy(), Gk=problem.G.copy(), Qk=problem.Q.copy(), k=0)
    t0 = time.perf_counter_ns()
    history = [residual_fn(state.Qk)]
    times = [time.perf_counter_ns() - t0]
    updates: list[float] = []
    converged = history[-1] <= opts.tol
    while not converged and state.k < max_iter:
        nxt = sda_step(state)
        upd = float(np.linalg.norm(nxt.Qk - state.Qk))
        updates.append(upd)
        state = nxt
        res = residual_fn(state.Qk)
        history.append(res)
        times.append(time.perf_counter_ns() - t0)
        if res <= opts.tol:
            converged = True
            break
        if not np.isfinite(res):
            break
        # structural stop well below tol so the residual confirmation wins the
        # race against the A_k criterion in critical (rate-1/2) cases
        floor = 1e-4 * opts.tol * max(float(np.linalg.norm(state.Qk)), 1.0)
        if np.linalg.norm(state.Ak) ** 2 <= floor or upd <= floor:
            break
    return state, history, updates, converged, times


def sda_solve(problem: DareProblem, opts: SolveOptions = SolveOptions()) -> DareSolution:
    """Structure-preserving doubling algorithm.

    The Q_k converge monotonically (Loewner order) to X_plus = X_{2^k} in the
    limit, and the G_k to the maximal solution Y_plus of the dual equation
    obtained by swapping A with A^* and G with Q.
    """
    state, history, updates, converged, times = _sda_core(
        problem, opts, lambda q: dare_residual(q, problem)
    )
    report = SolveReport(
        X=state.Qk,
        converged=converged,
        iterations=state.k,
        residual_history=history,
        rate_estimate=rate_from_updates(updates),
        closed_loop_radius=closed_loop_radius(state.Qk, problem),
    )
    report.elapsed_ns = times
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


def build_symplectic(problem: DareProblem) -> np.ndarray:
    """The symplectic matrix [I G; 0 A^*]^{-1} [A 0; -Q I]."""
    a, g, q = problem.A, problem.G, problem.Q
    n = problem.n
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
    s = build_symplectic(problem)
    d1 = solve_linear(a.conj().T, eye + q @ y)  # ((I+QY)^{-1}A^*)^{-1}
    d2 = solve_linear(eye + g @ x, a)
    w = np.block([[-y, eye], [eye, x]])
    d = np.block([[d1, np.zeros((n, n))], [np.zeros((n, n)), d2]])
    reconstructed = solve_right(w @ d, w)
    return float(np.linalg.norm(s - reconstructed) / np.linalg.norm(s))
