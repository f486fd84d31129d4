"""Lyapunov equation A^*X + XA + Q = 0: Cayley reduction, ADI, LR-ADI."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix, SingularShift
from .linalg import LU, Coefficients, as_matrix, lu_factor, symmetrize
from .reporting import DEFAULT_BASIC_MAX_ITER, SolveOptions, SolveReport, iterate, relative
from .stein import SteinProblem, smith_step

__all__ = [
    "LyapunovProblem",
    "ShiftSequence",
    "LowRankFactor",
    "cayley_reduce",
    "cayley_to_stein",
    "adi_solve",
    "lr_adi_solve",
    "lyap_residual",
]


@dataclass(frozen=True)
class LyapunovProblem(Coefficients):
    """Coefficients of A^*X + XA + Q = 0, optionally with Q = C^*C."""

    HERMITIAN = ("Q",)
    A: np.ndarray
    Q: np.ndarray
    C: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.C is not None:
            c = self._store("C", as_matrix)
            if c.shape[1] != self.n:
                raise ValueError("C must have as many columns as A")
            gram = c.conj().T @ c
            if np.linalg.norm(gram - self.Q) > 1e-10 * max(1.0, self.norms["Q"]):
                raise ValueError("C^*C does not match Q")


def _shift(tau) -> complex:
    """tau as a float when its imaginary part is 0, else as a complex: a real
    shift keeps real data in real arithmetic, and a complex one promotes."""
    tau = complex(tau)
    return tau.real if tau.imag == 0 else tau


@dataclass(frozen=True)
class ShiftSequence:
    """Ordered ADI/Cayley shifts, all with positive real part; a shift with
    imaginary part 0 is stored as a float."""

    shifts: tuple

    def __post_init__(self):
        shifts = tuple(_shift(s) for s in self.shifts)
        if not shifts:
            raise ValueError("shift sequence must be nonempty")
        if not all(s.real > 0 and cmath.isfinite(s) for s in shifts):
            raise ValueError("all shifts must be finite with positive real part")
        object.__setattr__(self, "shifts", shifts)

    def at(self, k: int) -> complex:
        """k-th shift, cycling when the list is exhausted."""
        return self.shifts[k % len(self.shifts)]


@dataclass(frozen=True)
class LowRankFactor:
    """Z with X ~ ZZ^*; columns come in blocks of width `block_width`."""

    Z: np.ndarray
    block_width: int

    def __post_init__(self):
        z = as_matrix(self.Z)
        if self.block_width < 1 or z.shape[1] % self.block_width != 0:
            raise ValueError("column count must be a multiple of block_width")
        object.__setattr__(self, "Z", z)

    def gramian(self) -> np.ndarray:
        return self.Z @ self.Z.conj().T


def _shifted(a: np.ndarray, tau: complex) -> np.ndarray:
    return a - np.conj(tau) * np.eye(a.shape[0])


def cayley_reduce(a, q, tau: complex) -> tuple[np.ndarray, np.ndarray]:
    """Unvalidated Stein coefficients c(A) = (A - conj(tau) I)^{-1} (A + tau I)
    and 2 Re(tau) (A^* - tau I)^{-1} Q (A - conj(tau) I)^{-1} of A^*X + XA + Q = 0,
    from one LU; for Re(tau) > 0 both equations have the same solution set.
    Both stay real for real A, Q and a tau with imaginary part 0.  The inverse
    R = (A - conj(tau) I)^{-1} is formed once from the factors (getri), and
    c(A) = R (A + tau I) and R^* Q R are matrix products.
    """
    tau = _shift(tau)
    try:
        lu = lu_factor(_shifted(a, tau))
    except SingularMatrix as exc:
        raise SingularShift(f"conj(tau)={np.conj(tau)} is an eigenvalue of A") from exc
    r = lu.inverse()
    c_of_a = r @ (a + tau * np.eye(a.shape[0]))
    q_tilde = (2 * tau.real) * (r.conj().T @ q @ r)
    return c_of_a, symmetrize(q_tilde)


def cayley_to_stein(problem: LyapunovProblem, tau: complex) -> SteinProblem:
    """Reduce the Lyapunov equation to the Stein equation in c(A)
    (`cayley_reduce`), as a validated SteinProblem."""
    if not (complex(tau).real > 0 and cmath.isfinite(tau)):
        raise ValueError("tau must be finite and lie in the open right half-plane")
    c_of_a, q_tilde = cayley_reduce(problem.A, problem.Q, tau)
    return SteinProblem(A=c_of_a, Q=q_tilde)


def _lyap_residual(x, nx: float, problem: LyapunovProblem) -> float:
    """`lyap_residual` of an X with ||X||_F = nx."""
    a, q = problem.A, problem.Q
    raw = float(np.linalg.norm(a.conj().T @ x + x @ a + q))
    return relative(raw, float(problem.norms["Q"] + 2 * problem.norms["A"] * nx))


def lyap_residual(x, problem: LyapunovProblem) -> float:
    """Relative residual ||A^*X + XA + Q|| / (||Q|| + 2 ||A|| ||X||).

    X is not scanned: a non-finite X gives a non-finite residual."""
    x = np.asarray(x)
    return _lyap_residual(x, float(np.linalg.norm(x)), problem)


def adi_solve(
    problem: LyapunovProblem, shifts: ShiftSequence, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """ADI iteration: per-shift Cayley reduction plus one Smith step.

    Shifts are reused cyclically when the iteration outlives the list; each
    distinct shift is reduced once per call.
    """
    reductions: dict[complex, SteinProblem] = {}

    def step(state):
        x, k = state
        tau = shifts.at(k)
        if tau not in reductions:
            reductions[tau] = cayley_to_stein(problem, tau)
        x_next = smith_step(x, reductions[tau])
        return (x_next, k + 1), float(np.linalg.norm(x_next - x))

    report, _ = iterate(
        (np.zeros_like(problem.Q), 0),
        step,
        lambda s, nx: _lyap_residual(s[0], nx, problem),
        opts,
        DEFAULT_BASIC_MAX_ITER,
        solution=lambda s: s[0],
    )
    return report


def lr_adi_solve(
    problem: LyapunovProblem,
    shifts: ShiftSequence,
    k: int,
    opts: SolveOptions = SolveOptions(),
) -> LowRankFactor:
    """Low-rank ADI: build Z = [V_1 ... V_k] with ZZ^* equal to the k-step
    ADI iterate for the same shift set.

    Shifts are applied in forward order; since the Cayley factors commute,
    only the end-of-sweep Gramian matches ADI, not the intermediate ones.
    Appending stops early when ||V_j|| <= tol * ||Z||.
    """
    if problem.C is None:
        raise ValueError("lr_adi_solve needs a problem with a low-rank factor C")
    if k < 1:
        raise ValueError("k must be >= 1")
    a = problem.A
    c_star = problem.C.conj().T
    factors: dict[complex, LU] = {}  # LU of A - conj(tau) I per distinct shift
    # A^* + conj(tau) I per distinct shift
    adjoints = {tau: a.conj().T + np.conj(tau) * np.eye(problem.n) for tau in shifts.shifts}

    def shifted_adjoint_solve(tau, rhs):  # (A^* - tau I)^{-1} rhs
        if tau not in factors:
            factors[tau] = lu_factor(_shifted(a, tau))
        return factors[tau].solve(rhs, trans=2)

    tau0 = shifts.at(0)
    try:
        v = math.sqrt(2 * tau0.real) * shifted_adjoint_solve(tau0, c_star)
        blocks = [v]
        z_norm_sq = float(np.linalg.norm(v)) ** 2  # ||Z||_F^2 of the blocks kept so far
        for j in range(1, k):
            tau_prev = shifts.at(j - 1)
            tau = shifts.at(j)
            scale = math.sqrt(tau.real / tau_prev.real)
            rhs = adjoints[tau_prev] @ v
            v = scale * shifted_adjoint_solve(tau, rhs)
            v_norm = float(np.linalg.norm(v))
            if v_norm <= opts.tol * math.sqrt(z_norm_sq):
                break
            blocks.append(v)
            z_norm_sq += v_norm**2
    except SingularMatrix as exc:
        raise SingularShift("an ADI shift coincides with an eigenvalue of A") from exc
    return LowRankFactor(Z=np.hstack(blocks), block_width=problem.C.shape[0])
