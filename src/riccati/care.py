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
    SingularMatrix,
    SingularShift,
    SingularU1,
    StructureLoss,
)
from .linalg import (
    Coefficients,
    _scipy_linalg,
    as_matrix,
    lu_factor,
    symmetrize,
)
from .lyapunov import cayley_reduce
from .reporting import DEFAULT_DOUBLING_MAX_ITER, SolveOptions, iterate, iterate_map, relative
from .stein import SmithState, squared_smith_step

__all__ = [
    "CareProblem",
    "SignOptions",
    "hamiltonian",
    "care_to_dare",
    "default_cayley_tau",
    "care_sda_solve",
    "sign_solve",
    "sign_extract",
    "newton_care_solve",
    "care_residual",
]

# the inner doubling stops at ||A_j||_F <= sqrt(eps), a bound set by rounding,
# not by the outer tolerance
_INNER_OPTS = SolveOptions(tol=math.sqrt(np.finfo(float).eps))
# the sign iteration converges quadratically: H_k is within a few times its
# last relative step squared of the sign, and the rank test in sign_extract
# needs it within 1e-8, so the stop is never looser than this
_SIGN_MAX_TOL = 1e-5


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


def _blocks(a, b, c, d) -> np.ndarray:
    """[A B; C D] of four n x n blocks, filled into one array."""
    n = a.shape[0]
    out = np.empty((2 * n, 2 * n), dtype=np.result_type(a, b, c, d))
    out[:n, :n], out[:n, n:], out[n:, :n], out[n:, n:] = a, b, c, d
    return out


def hamiltonian(problem: CareProblem) -> np.ndarray:
    """The Hamiltonian matrix [A -G; -Q -A^*]."""
    a, g, q = problem.A, problem.G, problem.Q
    return _blocks(a, -g, -q, -a.conj().T)


def _care_residual(x, nx: float, problem: CareProblem) -> float:
    """`care_residual` of an X with ||X||_F = nx."""
    a, g, q = problem.A, problem.G, problem.Q
    raw = float(np.linalg.norm(q + a.conj().T @ x + x @ a - x @ g @ x))
    den = float(problem.norms["Q"]) + 2 * float(problem.norms["A"]) * nx
    return relative(raw, den + float(problem.norms["G"]) * nx**2)


def care_residual(x, problem: CareProblem) -> float:
    """Relative residual ||Q + A^*X + XA - XGX|| normalized by
    ||Q|| + 2 ||A|| ||X|| + ||G|| ||X||^2.

    X is not scanned: a non-finite X gives a non-finite residual."""
    x = np.asarray(x)
    return _care_residual(x, float(np.linalg.norm(x)), problem)


def care_to_dare(problem: CareProblem, tau: float) -> DareProblem:
    """Cayley-reduce the CARE to a DARE with the same solution set.

    The discrete coefficients are read off I + 2 tau K^{-1} with
    K = [A - tau I, -G; Q, A^* - tau I].  A_d may be singular: that is the
    Cayley image of an eigenvalue -tau of H, and no DARE solver inverts A_d.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    a, g, q = problem.A, problem.G, problem.Q
    n = problem.n
    k = _blocks(a, -g, q, a.conj().T)
    k[np.diag_indices(2 * n)] -= tau
    try:
        m = lu_factor(k).inverse()
    except SingularMatrix as exc:
        raise SingularShift(f"tau={tau} is (numerically) an eigenvalue of H") from exc
    m *= 2 * tau
    m[np.diag_indices(2 * n)] += 1.0
    try:
        # G_d and Q_d are symmetrized, so definiteness is the one check
        # DareProblem can fail on them
        return DareProblem(A=m[:n, :n], G=symmetrize(m[:n, n:]), Q=symmetrize(-m[n:, :n]))
    except ValueError as exc:
        raise StructureLoss(f"Cayley reduction with tau={tau} lost definiteness") from exc


def default_cayley_tau(norm_a: float, n: int) -> float:
    """The Cayley shift max(1, ||A||_F / sqrt(n)) of an n x n matrix A, from
    norm_a = ||A||_F (a problem's `norms["A"]`)."""
    return max(1.0, float(norm_a) / math.sqrt(n))


def care_sda_solve(
    problem: CareProblem,
    tau: float | None = None,
    opts: SolveOptions = SolveOptions(),
) -> DareSolution:
    """Cayley-reduce to a DARE and run SDA, tracking CARE residuals.

    With tau=None the shift starts at default_cayley_tau(A) and is doubled
    up to twice when it is an eigenvalue of H or loses definiteness.
    """
    if tau is None:
        base = default_cayley_tau(problem.norms["A"], problem.n)
        taus = (base, 2.0 * base, 4.0 * base)
    else:
        taus = (tau,)
    for t in taus[:-1]:
        try:
            dare_problem = care_to_dare(problem, t)
            break
        except (SingularShift, StructureLoss):
            pass
    else:
        dare_problem = care_to_dare(problem, taus[-1])
    return sda_solve(dare_problem, opts, lambda q, nq: _care_residual(q, nq, problem))


def _geometric_mean(pivots) -> float:
    # |det H_k|^(1/size) from the LU pivots, the geometric mean of the
    # eigenvalue moduli: the exponentiated mean of log-moduli never overflows
    return float(np.exp(np.mean(np.log(pivots))))


def sign_solve(problem: CareProblem, opts: SolveOptions = SignOptions()) -> DareSolution:
    """Matrix sign iteration H <- ((H/tau) + (H/tau)^{-1}) / 2.

    With determinantal scaling every iterate is renormalized to unit
    determinantal scale, so the limit is the true sign of the Hamiltonian
    (eigenvalues +-1) in both scaling modes and extraction always uses the
    reference shift 1.  The step is a fixed-point map with scale ||H_k||,
    run by `iterate_map` from H_0 (counted as iteration 1), so
    `residual_history` holds the relative steps ||H_{k+1} - H_k|| / ||H_k||,
    and X is extracted from the map's last value F(X_last) = H_K, K the
    iteration count.  One factorization of H_k gives both tau and
    (H_k/tau)^{-1} = tau H_k^{-1}, inverted from the same factors (getri);
    the step scales that inverse by tau/2 in place and adds H_k/(2 tau).
    The iteration stops at a step of min(opts.tol, 1e-5), since a looser
    stop leaves H_k too far from a sign matrix to extract X.  A run that
    stops unconverged (budget, stagnation) on an H_k the extraction rejects
    returns converged=False with an all-NaN X; a converged run raises its
    RankMismatch or SingularU1.  A plain SolveOptions as `opts` means
    scaling="none".
    """
    determinantal = isinstance(opts, SignOptions) and opts.scaling == "determinantal"

    def sign_map(h):
        lu = lu_factor(h)
        tau = _geometric_mean(lu.pivots) if determinantal else 1.0
        step = lu.inverse()
        step *= tau / 2
        step += h / (2 * tau)
        return step, lambda nh: nh

    report, h = iterate_map(
        hamiltonian(problem),
        sign_map,
        SolveOptions(tol=min(opts.tol, _SIGN_MAX_TOL), max_iter=opts.resolve_max_iter(100)),
        first_iteration=1,
    )
    try:
        report.X = sign_extract(h)
    except (RankMismatch, SingularU1):
        if report.converged:
            raise
        report.X = np.full((problem.n, problem.n), np.nan, dtype=h.dtype)
    return DareSolution(X_plus=report.X, Y_plus=None, report=report)


def sign_extract(h_inf) -> np.ndarray:
    """Read the stabilizing solution off a converged sign iterate W.

    The null space of W + I is the stable subspace [I; X], so
    [W12; W22 + I] X = -[W11 + I; W21]: a consistent 2n x n least-squares
    problem, solved by one Householder QR of its left-hand side.  A
    least-squares defect above 1e-8 max(||W + I||_F, 1) means W + I has no
    null space of dimension n and raises RankMismatch; a triangular factor R
    with an estimated condition number above 1e8 (R is ill conditioned
    exactly when the top block of a null-space basis is) raises SingularU1.
    """
    h_inf = as_matrix(h_inf)
    size = h_inf.shape[0]
    if size % 2 != 0:
        raise ValueError("sign iterate must be 2n x 2n")
    n = size // 2
    shifted = h_inf + np.eye(size)
    left, right = shifted[:, n:], -shifted[:, :n]
    geqrf, ormqr, trcon, trtrs = _scipy_linalg().lapack.get_lapack_funcs(
        ("geqrf", "ormqr", "trcon", "trtrs"), (left,)
    )
    # Householder QR, and Q^* applied to the right-hand side by its
    # reflectors; lwork leaves room for LAPACK's blocked kernels
    lwork = 64 * n
    qr, tau, _, _ = geqrf(left, lwork=lwork)
    c, _, _ = ormqr("L", "C" if np.iscomplexobj(qr) else "T", qr, tau, right, lwork=lwork)
    # the least-squares residual is the part of Q^* right below R
    defect = float(np.linalg.norm(c[n:]))
    if defect > 1e-8 * max(float(np.linalg.norm(shifted)), 1.0):
        raise RankMismatch(
            f"null space of H_inf + I has dimension below {n}: least-squares defect {defect:.3g}"
        )
    r = qr[:n]  # R is its upper triangle
    rcond, _ = trcon(r, norm="1", uplo="U")
    if not rcond >= 1e-8:
        raise SingularU1("top block of the null-space basis is ill conditioned")
    # R X = C[:n] as the transposed solve with the lower triangle R^T: the
    # call scipy.linalg.solve_triangular makes for this row slice of QR, so
    # X has the bits it had through that wrapper
    x, _ = trtrs(r.T, c[:n], lower=1, trans=1)
    return symmetrize(x)


def _kleinman_lyap_solve(closed_loop, rhs) -> np.ndarray:
    """Solve A_cl^* X + X A_cl = -rhs by a Cayley reduction and squared Smith.

    The doubling runs until ||A_j||_F <= sqrt(eps), where the remaining tail
    A_j^* X A_j is below rounding.  That stop also certifies A_cl Hurwitz:
    ||A_j||_F < 1 proves rho(c(A_cl)) < 1.  A shift on the spectrum raises
    InnerSolveFailed, and so does a doubling that ends on one of `iterate`'s
    own guards (a non-finite ||A_j||_F, ||Q_j||_F > 1e150, or ||A_j||_F
    stagnating, as on an imaginary-axis spectrum) or that finds no
    certificate within 60 doublings.  This loop is not `iterate_doubling`,
    whose floor 1e-4 tol max(||Q_j||, 1) would stop it unconverged before
    ||A_j|| reaches sqrt(eps).  Both matrices come from `newton_care_solve`,
    built from a validated problem, so they are used unchecked.
    """
    try:
        tau = default_cayley_tau(np.linalg.norm(closed_loop), closed_loop.shape[0])
        start = SmithState(*cayley_reduce(closed_loop, rhs, tau))
    except SingularShift as exc:
        raise InnerSolveFailed("closed loop A - G X_k has an eigenvalue at the Cayley shift") from exc
    # the report is read for its flag and count only, so no update norm is taken
    report, state = iterate(
        start,
        lambda s: (squared_smith_step(s), 0.0),
        lambda s, _: float(np.linalg.norm(s.Ak)),
        _INNER_OPTS,
        DEFAULT_DOUBLING_MAX_ITER,
        solution=lambda s: s.Qk,
    )
    if not report.converged:
        raise InnerSolveFailed(
            f"closed loop A - G X_k is not Hurwitz: ||c(A_cl)^(2^j)||_F = "
            f"{np.linalg.norm(state.Ak):.3g} after {report.iterations} doublings"
        )
    return state.Qk


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

    report, x = iterate(
        symmetrize(as_matrix(x0)),
        step,
        lambda x, nx: _care_residual(x, nx, problem),
        opts,
        100,
    )
    return DareSolution(X_plus=x, Y_plus=None, report=report)
