"""Continuous-time algebraic Riccati equation Q + A^*X + XA - XGX = 0.

Three routes: Cayley reduction to a DARE followed by SDA, the scaled matrix
sign iteration, and Newton-Kleinman, whose inner Lyapunov solves are a Cayley
reduction to a Stein equation followed by squared Smith.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dare import DareProblem, DareSolution, sda_solve
from .errors import (
    InnerSolveFailed,
    RankMismatch,
    SingularAd,
    SingularMatrix,
    SingularShift,
    SingularU1,
    StructureLoss,
)
from .linalg import (
    Coefficients,
    as_matrix,
    lu_factor,
    min_pivot,
    solve_linear,
    solve_right,
    symmetrize,
)
from .lyapunov import LyapunovProblem, cayley_to_stein
from .reporting import DEFAULT_DOUBLING_MAX_ITER, SolveOptions, iterate
from .stein import a_overflow, squared_smith_step

__all__ = [
    "CareProblem",
    "SignOptions",
    "hamiltonian",
    "care_to_dare",
    "default_cayley_tau",
    "care_sda_solve",
    "sign_solve",
    "sign_extract",
    "determinantal_tau",
    "newton_care_solve",
    "care_residual",
]

# the inner doubling stops at ||A_j||_F <= sqrt(eps), a bound set by rounding,
# not by the outer tolerance
_INNER_OPTS = SolveOptions(tol=math.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class CareProblem(Coefficients):
    """Coefficients (A, G, Q) with G, Q Hermitian PSD."""

    HERMITIAN = ("G", "Q")
    A: np.ndarray
    G: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class SignOptions(SolveOptions):
    """Stopping controls of the sign iteration (`max_iter=None` means 100)
    plus its `scaling`, "none" or "determinantal"."""

    scaling: str = "none"

    def __post_init__(self):
        if self.scaling not in ("none", "determinantal"):
            raise ValueError("scaling must be 'none' or 'determinantal'")
        super().__post_init__()


def hamiltonian(problem: CareProblem) -> np.ndarray:
    """The Hamiltonian matrix [A -G; -Q -A^*]."""
    a, g, q = problem.A, problem.G, problem.Q
    return np.block([[a, -g], [-q, -a.conj().T]])


def care_residual(x, problem: CareProblem) -> float:
    """Relative residual ||Q + A^*X + XA - XGX|| normalized by
    ||Q|| + 2 ||A|| ||X|| + ||G|| ||X||^2."""
    x = as_matrix(x)
    a, g, q = problem.A, problem.G, problem.Q
    raw = float(np.linalg.norm(q + a.conj().T @ x + x @ a - x @ g @ x))
    if raw == 0.0:
        return 0.0
    nx = float(np.linalg.norm(x))
    den = float(np.linalg.norm(q)) + 2 * float(np.linalg.norm(a)) * nx
    den += float(np.linalg.norm(g)) * nx**2
    return raw / den


def care_to_dare(problem: CareProblem, tau: float) -> DareProblem:
    """Cayley-reduce the CARE to a DARE with the same solution set.

    The discrete coefficients are read off I + 2 tau K^{-1} with
    K = [A - tau I, -G; Q, A^* - tau I].
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    a, g, q = problem.A, problem.G, problem.Q
    n = problem.n
    eye = np.eye(n)
    k = np.block([[a - tau * eye, -g], [q, a.conj().T - tau * eye]])
    try:
        m = np.eye(2 * n) + 2 * tau * solve_linear(k, np.eye(2 * n))
    except SingularMatrix as exc:
        raise SingularShift(f"tau={tau} is (numerically) an eigenvalue of H") from exc
    a_d = m[:n, :n]
    try:
        pivot = min_pivot(a_d)
    except SingularMatrix:
        pivot = 0.0
    if pivot < 1e-14 * max(1.0, float(np.linalg.norm(m))):
        raise SingularAd(f"discrete A block is singular for tau={tau}")
    try:
        # G_d and Q_d are symmetrized, so definiteness is the one check
        # DareProblem can fail on them
        return DareProblem(A=a_d, G=symmetrize(m[:n, n:]), Q=symmetrize(-m[n:, :n]))
    except ValueError as exc:
        raise StructureLoss(f"Cayley reduction with tau={tau} lost definiteness") from exc


def default_cayley_tau(problem) -> float:
    """max(1, ||A||_F / sqrt(n)) for any problem with fields A and n."""
    return max(1.0, float(np.linalg.norm(problem.A)) / math.sqrt(problem.n))


def care_sda_solve(
    problem: CareProblem,
    tau: float | None = None,
    opts: SolveOptions = SolveOptions(),
) -> DareSolution:
    """Cayley-reduce to a DARE and run SDA, tracking CARE residuals.

    With tau=None a heuristic tau = max(1, ||A||_F / sqrt(n)) is used and
    doubled up to twice on a singular reduction or a loss of definiteness.
    """
    if tau is None:
        base = default_cayley_tau(problem)
        last_exc = None
        dare_problem = None
        for factor in (1.0, 2.0, 4.0):
            try:
                dare_problem = care_to_dare(problem, base * factor)
                break
            except (SingularShift, SingularAd, StructureLoss) as exc:
                last_exc = exc
        if dare_problem is None:
            raise last_exc
    else:
        dare_problem = care_to_dare(problem, tau)
    return sda_solve(dare_problem, opts, lambda q: care_residual(q, problem))


def _geometric_mean(pivots) -> float:
    # exponentiated mean of log-moduli, so it never overflows
    return float(np.exp(np.mean(np.log(pivots))))


def determinantal_tau(hk) -> float:
    """|det H_k|^(1/size) via the pivots of a row-pivoted factorization.

    Computed as the exponentiated mean of pivot log-moduli, so it never
    overflows; the geometric mean of the eigenvalue moduli.
    """
    return _geometric_mean(lu_factor(hk).pivots)


def sign_solve(problem: CareProblem, opts: SolveOptions = SignOptions()) -> DareSolution:
    """Matrix sign iteration H <- ((H/tau) + (H/tau)^{-1}) / 2.

    With determinantal scaling every iterate is renormalized to unit
    determinantal scale, so the limit is the true sign of the Hamiltonian
    (eigenvalues +-1) in both scaling modes and extraction always uses the
    reference shift 1.  The state (H_k, ||H_k - H_{k-1}|| / ||H_{k-1}||) runs
    on `iterate` from H_1, so `residual_history` holds one relative step norm
    per step, and X is extracted from the final H_k.  One factorization of
    H_k gives both tau and (H_k/tau)^{-1} = tau H_k^{-1}.  A plain
    SolveOptions as `opts` means scaling="none".
    """
    eye2n = np.eye(2 * problem.n)
    determinantal = isinstance(opts, SignOptions) and opts.scaling == "determinantal"

    def advance(h):
        lu = lu_factor(h)
        tau = _geometric_mean(lu.pivots) if determinantal else 1.0
        hn = (h / tau + tau * lu.solve(eye2n)) / 2
        return hn, float(np.linalg.norm(hn - h) / max(np.linalg.norm(h), np.finfo(float).tiny))

    def step(state):
        nxt = advance(state[0])
        return nxt, nxt[1]

    report, (h, _) = iterate(
        advance(hamiltonian(problem)),
        step,
        lambda s: s[1],
        opts,
        100,
        solution=lambda s: s[0],
        first_iteration=1,
    )
    report.X = sign_extract(h, 1.0)
    return DareSolution(X_plus=report.X, Y_plus=None, report=report)


def sign_extract(h_inf, tau_ref: float) -> np.ndarray:
    """Read the stabilizing solution off a converged sign iterate.

    Takes the n smallest singular directions of H_inf + tau_ref I as an
    orthonormal null-space basis [U1; U2] and returns U2 U1^{-1}.
    """
    h_inf = as_matrix(h_inf)
    if tau_ref <= 0:
        raise ValueError("tau_ref must be positive")
    size = h_inf.shape[0]
    if size % 2 != 0:
        raise ValueError("sign iterate must be 2n x 2n")
    n = size // 2
    shifted = h_inf + tau_ref * np.eye(size)
    _, s, vh = np.linalg.svd(shifted)
    rank_tol = 1e-8 * max(float(s[0]) if s.size else 0.0, 1.0)
    rank = int(np.sum(s > rank_tol))
    if rank != n:
        raise RankMismatch(f"null space of H_inf + tau I has dimension {size - rank}, expected {n}")
    basis = vh[rank:, :].conj().T  # orthonormal kernel basis, 2n x n
    u1, u2 = basis[:n, :], basis[n:, :]
    sv = np.linalg.svd(u1, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e8:
        raise SingularU1("top block of the null-space basis is ill conditioned")
    return symmetrize(solve_right(u2, u1))


def _kleinman_lyap_solve(closed_loop, rhs) -> np.ndarray:
    """Solve A_cl^* X + X A_cl = -rhs by a Cayley reduction and squared Smith.

    The doubling runs until ||A_j||_F^2 <= eps, where the remaining tail
    A_j^* X A_j is below rounding.  That stop also certifies A_cl Hurwitz:
    ||A_j||_F < 1 proves rho(c(A_cl)) < 1.  A shift on the spectrum, an
    overflow of A_j or no certificate within 60 doublings raises
    InnerSolveFailed.
    """
    lyap = LyapunovProblem(A=closed_loop, Q=rhs)
    try:
        stein_problem = cayley_to_stein(lyap, default_cayley_tau(lyap))
    except SingularShift as exc:
        raise InnerSolveFailed("closed loop A - G X_k has an eigenvalue at the Cayley shift") from exc
    report, (ak, qk) = iterate(
        (stein_problem.A, stein_problem.Q),
        squared_smith_step,
        lambda s: float(np.linalg.norm(s[0])),
        _INNER_OPTS,
        DEFAULT_DOUBLING_MAX_ITER,
        solution=lambda s: s[1],
        stop=a_overflow,
    )
    if not report.converged:
        raise InnerSolveFailed(
            f"closed loop A - G X_k is not Hurwitz: ||c(A_cl)^(2^j)||_F = "
            f"{np.linalg.norm(ak):.3g} after {report.iterations} doublings"
        )
    return qk


def newton_care_solve(
    problem: CareProblem, x0, opts: SolveOptions = SolveOptions()
) -> DareSolution:
    """Newton-Kleinman iteration: each step solves the Lyapunov equation
    (A - G X_k)^* X_{k+1} + X_{k+1} (A - G X_k) = -Q - X_k G X_k.

    Each inner solve Cayley-reduces the closed loop to a Stein equation and
    runs squared Smith to machine precision, independently of opts.tol.  A
    non-stabilizing iterate surfaces as InnerSolveFailed: the doubling of
    c(A - G X_k) then overflows or never certifies rho < 1.
    """
    a, g, q = problem.A, problem.G, problem.Q

    def step(x):
        x_next = _kleinman_lyap_solve(a - g @ x, symmetrize(q + x @ g @ x))
        return x_next, float(np.linalg.norm(x_next - x))

    report, x = iterate(symmetrize(as_matrix(x0)), step, lambda x: care_residual(x, problem), opts, 100)
    return DareSolution(X_plus=x, Y_plus=None, report=report)
