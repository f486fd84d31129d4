"""Lyapunov equation A^*X + XA + Q = 0: Cayley reduction, ADI, LR-ADI."""

import cmath
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import SingularMatrix, SingularShift
from .linalg import LU, Coefficients, _frobenius, as_matrix, lu_factor, symmetrize
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
            if _frobenius(gram - self.Q) > 1e-10 * max(1.0, self.norms["Q"]):
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
        """X = ZZ^*, exactly Hermitian."""
        return symmetrize(self.Z @ self.Z.conj().T)


def _shifted_lu(a, tau: complex) -> LU:
    """LU of A - conj(tau) I, the factors of every Cayley resolvent
    (A - conj(tau) I)^{-1}; a shift whose conjugate is an eigenvalue of A
    raises SingularShift."""
    try:
        return lu_factor(a - np.conj(tau) * np.eye(a.shape[0]))
    except SingularMatrix as exc:
        raise SingularShift(f"conj(tau)={np.conj(tau)} is an eigenvalue of A") from exc


def cayley_reduce(a, q, tau: complex) -> tuple[np.ndarray, np.ndarray]:
    """Unvalidated Stein coefficients c(A) = (A - conj(tau) I)^{-1} (A + tau I)
    and 2 Re(tau) (A^* - tau I)^{-1} Q (A - conj(tau) I)^{-1} of A^*X + XA + Q = 0,
    from one LU; for Re(tau) > 0 both equations have the same solution set.
    Both stay real for real A, Q and a tau with imaginary part 0.  The inverse
    R = (A - conj(tau) I)^{-1} is formed once from the factors (getri), and
    c(A) = R (A + tau I) and R^* Q R are matrix products.
    """
    tau = _shift(tau)
    r = _shifted_lu(a, tau).inverse()
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
    raw = _frobenius(a.conj().T @ x + x @ a + q)
    return relative(raw, float(problem.norms["Q"] + 2 * problem.norms["A"] * nx))


def lyap_residual(x, problem: LyapunovProblem) -> float:
    """Relative residual ||A^*X + XA + Q|| / (||Q|| + 2 ||A|| ||X||).

    X is not scanned: a non-finite X gives a non-finite residual."""
    x = np.asarray(x)
    return _lyap_residual(x, _frobenius(x), problem)


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
        return (x_next, k + 1), _frobenius(x_next - x)

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

    With R_j = (A^* - tau_j I)^{-1}, the blocks are V_1 = sqrt(2 Re tau_1)
    R_1 C^* and V_j = M_j V_{j-1}, where

        M_j = sqrt(Re tau_j / Re tau_{j-1}) R_j (A^* + conj(tau_{j-1}) I);

    with a single shift M_j = c(A)^*, the adjoint of `cayley_reduce`'s
    Cayley transform.  Each distinct shift costs one LU, and the block
    width p (C is p x n) decides how a block is applied.  For p >= n, M_j
    is formed once per distinct (tau_{j-1}, tau_j) pair, from one inverse
    (getri) per distinct shift and one n x n product, and a block is one
    product with M_j.  For p < n, a block is a product with A^* +
    conj(tau_{j-1}) I and a triangular solve (getrs) with p right-hand
    sides: forming M_j costs about 3n^3 flops and saves about 2n^2 p per
    block, so it pays only once a pair has carried of order n columns,
    which a factor of rank p << n does not reach in a few dozen blocks.
    Either way A^* + conj(tau_{j-1}) I is applied as a factor, so where it
    is exactly zero the blocks are too.

    Shifts are applied in forward order; since the Cayley factors commute,
    only the end-of-sweep Gramian matches ADI, not the intermediate ones.
    Appending stops early when ||V_j|| <= tol * ||Z||.  A shift whose
    conjugate is an eigenvalue of A raises SingularShift.
    """
    if problem.C is None:
        raise ValueError("lr_adi_solve needs a problem with a low-rank factor C")
    if k < 1:
        raise ValueError("k must be >= 1")
    a_star = problem.A.conj().T
    eye = np.eye(problem.n)
    wide = problem.C.shape[0] >= problem.n

    @cache
    def factor(tau):  # LU of A - conj(tau) I
        return _shifted_lu(problem.A, tau)

    @cache
    def adjoint_resolvent(tau):  # R = (A^* - tau I)^{-1}
        return factor(tau).inverse().conj().T

    @cache
    def shifted_adjoint(tau):  # A^* + conj(tau) I
        return a_star + np.conj(tau) * eye

    def resolve(tau, rhs):  # R rhs
        return adjoint_resolvent(tau) @ rhs if wide else factor(tau).solve(rhs, trans=2)

    @cache
    def block_map(tau_prev, tau):  # M_j
        return math.sqrt(tau.real / tau_prev.real) * (adjoint_resolvent(tau) @ shifted_adjoint(tau_prev))

    def next_block(tau_prev, tau, v):  # M_j V_{j-1}
        if wide:
            return block_map(tau_prev, tau) @ v
        return math.sqrt(tau.real / tau_prev.real) * resolve(tau, shifted_adjoint(tau_prev) @ v)

    tau0 = shifts.at(0)
    v = math.sqrt(2 * tau0.real) * resolve(tau0, problem.C.conj().T)
    blocks = [v]
    z_norm_sq = _frobenius(v) ** 2  # ||Z||_F^2 of the blocks kept so far
    for j in range(1, k):
        v = next_block(shifts.at(j - 1), shifts.at(j), v)
        v_norm = _frobenius(v)
        if v_norm <= opts.tol * math.sqrt(z_norm_sq):
            break
        blocks.append(v)
        z_norm_sq += v_norm**2
    return LowRankFactor(Z=np.hstack(blocks), block_width=problem.C.shape[0])
