"""Brute-force ground truth, kept apart from the iterative solvers.

Kronecker-vectorized direct solves, eigendecomposition-based invariant
subspace solutions, explicit symplectic-power factorization checks, and
explicit block-tridiagonal Schur elimination.  Eigendecompositions are
allowed here and only here; everything is capped at desk scale because these
routines exist to verify, not to compete.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .care import CareProblem, hamiltonian
from .dare import DareProblem, DoublingState, build_symplectic
from .errors import (
    OverflowGuard,
    RegionCountMismatch,
    SingularMatrix,
    SingularU1,
)
from .lyapunov import LyapunovProblem
from .linalg import as_matrix, solve_linear, solve_right, symmetrize
from .nme import CrState, NmeProblem
from .stein import SteinProblem

KRON_CAP = 40
EIG_CAP = 20
POWER_NORM_GUARD = 1e12

__all__ = [
    "SymplecticPair",
    "kron_stein_solve",
    "kron_lyap_solve",
    "invariant_subspace_solve",
    "sda_factorization_check",
    "sign_relation_check",
    "tridiag_schur_oracle",
    "symplectic_from_dare",
    "symplectic_from_nme",
    "symplectic_pairing_defect",
    "hamiltonian_pairing_defect",
    "eigenvalues",
]


@dataclass(frozen=True)
class SymplecticPair:
    """A symplectic matrix together with the structure matrix J."""

    S: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        s = as_matrix(self.S)
        j = as_matrix(self.J)
        defect = np.linalg.norm(s.conj().T @ j @ s - j)
        if defect > 1e-8 * np.linalg.norm(j):
            raise ValueError("matrix is not symplectic within tolerance")
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "J", j)


def _structure_j(n: int) -> np.ndarray:
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _check_cap(n: int, cap: int):
    if n > cap:
        raise ValueError(f"oracle cap exceeded: n={n} > {cap}")


def eigenvalues(m) -> np.ndarray:
    return np.linalg.eigvals(as_matrix(m))


def kron_stein_solve(problem: SteinProblem) -> np.ndarray:
    """Direct n^2 x n^2 solve of (I - A^T kron A^*) vec(X) = vec(Q)."""
    _check_cap(problem.n, KRON_CAP)
    a, q = problem.A, problem.Q
    n = problem.n
    system = np.eye(n * n) - np.kron(a.T, a.conj().T)
    vec_x = solve_linear(system, q.reshape(-1, 1, order="F"))
    return symmetrize(vec_x.reshape(n, n, order="F"))


def kron_lyap_solve(problem: LyapunovProblem) -> np.ndarray:
    """Direct solve of (I kron A^* + A^T kron I) vec(X) = -vec(Q)."""
    _check_cap(problem.n, KRON_CAP)
    a, q = problem.A, problem.Q
    n = problem.n
    system = np.kron(np.eye(n), a.conj().T) + np.kron(a.T, np.eye(n))
    vec_x = solve_linear(system, -q.reshape(-1, 1, order="F"))
    return symmetrize(vec_x.reshape(n, n, order="F"))


def invariant_subspace_solve(m, region: str) -> np.ndarray:
    """Solution X = U2 U1^{-1} from the n-dimensional invariant subspace of a
    2n x 2n matrix whose eigenvalues lie strictly in the region.

    `region` is "inside_unit_circle" or "left_half_plane"; strictness margin
    is 1e-8, and a different in-region eigenvalue count raises
    RegionCountMismatch (e.g. for unit-circle critical spectra).
    """
    m = as_matrix(m)
    size = m.shape[0]
    if size % 2 != 0 or m.shape[1] != size:
        raise ValueError("expected a square 2n x 2n matrix")
    n = size // 2
    _check_cap(n, EIG_CAP)
    margin = 1e-8
    if region == "inside_unit_circle":
        select = lambda lam: bool(abs(lam) < 1 - margin)
    elif region == "left_half_plane":
        select = lambda lam: bool(lam.real < -margin)
    else:
        raise ValueError(f"unknown region {region!r}")
    _, z, sdim = scipy.linalg.schur(m, output="complex", sort=select)
    if sdim != n:
        raise RegionCountMismatch(f"{sdim} eigenvalues strictly in region, expected {n}")
    u1, u2 = z[:n, :n], z[n:, :n]
    sv = np.linalg.svd(u1, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e8:
        raise SingularU1("subspace basis has an ill-conditioned top block")
    return symmetrize(solve_right(u2, u1))


def _squared_power(base: np.ndarray, k: int) -> np.ndarray:
    """base^(2^k) by explicit repeated squaring with a norm overflow guard."""
    power = base
    for _ in range(k):
        if np.linalg.norm(power) > POWER_NORM_GUARD:
            raise OverflowGuard("matrix power norm exceeds the representable guard")
        power = power @ power
    if np.linalg.norm(power) > POWER_NORM_GUARD:
        raise OverflowGuard("matrix power norm exceeds the representable guard")
    return power


def sda_factorization_check(state: DoublingState, problem: DareProblem) -> float:
    """Relative defect of S^(-2^k) = [A_k 0; -Q_k I]^{-1} [I G_k; 0 A_k^*],
    with the left side computed by explicit repeated squaring of S^{-1}."""
    n = problem.n
    eye, zero = np.eye(n), np.zeros((n, n))
    s = build_symplectic(problem.A, problem.G, problem.Q)
    s_inv = solve_linear(s, np.eye(2 * n))
    target = _squared_power(s_inv, state.k)
    left = np.block([[state.Ak, zero], [-state.Qk, eye]])
    right = np.block([[eye, state.Gk], [zero, state.Ak.conj().T]])
    factored = solve_linear(left, right)
    return float(np.linalg.norm(target - factored) / np.linalg.norm(target))


def sign_relation_check(problem: CareProblem, tau: float, k: int) -> float:
    """Relative defect of c(H_k) = S^(2^k) after k unscaled sign steps,
    where S = c(H) is the Cayley transform with parameter tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    h = hamiltonian(problem)
    eye = np.eye(h.shape[0])
    s = solve_linear(h - tau * eye, h + tau * eye)
    hk = h
    for _ in range(k):
        hk = (hk + tau**2 * solve_linear(hk, eye)) / 2
    lhs = solve_linear(hk - tau * eye, hk + tau * eye)
    rhs = _squared_power(s, k)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def tridiag_schur_oracle(problem: NmeProblem, m: int) -> CrState:
    """One odd-even elimination on the explicitly assembled block tridiagonal
    (Q on the diagonal, A^* on the subdiagonal, A on the superdiagonal).

    Returns the (A_1, Q_1, U_1) blocks read off the reduced tridiagonal,
    which must match one cyclic-reduction step.  Needs m a power of two with
    4 <= m <= 16.
    """
    if m < 4 or m > 16 or m & (m - 1) != 0:
        raise ValueError("m must be a power of two with 4 <= m <= 16")
    n = problem.n
    a, q = problem.A, problem.Q
    big = np.zeros((m * n, m * n), dtype=np.complex128)
    for i in range(m):
        big[i * n : (i + 1) * n, i * n : (i + 1) * n] = q
        if i + 1 < m:
            big[(i + 1) * n : (i + 2) * n, i * n : (i + 1) * n] = a.conj().T
            big[i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = a
    odd = np.concatenate([np.arange(i * n, (i + 1) * n) for i in range(0, m, 2)])
    even = np.concatenate([np.arange(i * n, (i + 1) * n) for i in range(1, m, 2)])
    t_oo = big[np.ix_(odd, odd)]
    t_eo = big[np.ix_(even, odd)]
    t_oe = big[np.ix_(odd, even)]
    t_ee = big[np.ix_(even, even)]
    try:
        reduced = t_ee - t_eo @ solve_linear(t_oo, t_oe)
    except SingularMatrix:
        raise SingularMatrix("odd-block pivot of the tridiagonal is singular") from None
    a1 = reduced[:n, n : 2 * n]  # superdiagonal coupling block
    u1 = symmetrize(reduced[:n, :n])
    q1 = symmetrize(reduced[-n:, -n:])
    return CrState(Ak=a1, Qk=q1, Uk=u1, k=1)


def symplectic_from_dare(problem: DareProblem) -> SymplecticPair:
    s = build_symplectic(problem.A, problem.G, problem.Q)
    return SymplecticPair(S=s, J=_structure_j(problem.n))


def symplectic_from_nme(problem: NmeProblem, g=None) -> SymplecticPair:
    """Symplectic matrix [G -I; A^* 0]^{-1} [A 0; -Q I] (G = 0 for the plain
    nonlinear matrix equation)."""
    a, q = problem.A, problem.Q
    n = problem.n
    eye, zero = np.eye(n), np.zeros((n, n))
    g = zero if g is None else as_matrix(g)
    left = np.block([[g, -eye], [a.conj().T, zero]])
    right = np.block([[a, zero], [-q, eye]])
    return SymplecticPair(S=solve_linear(left, right), J=_structure_j(n))


def _pairing_defect(eigs: np.ndarray, mapped: np.ndarray) -> float:
    return float(max(np.min(np.abs(eigs - lam)) for lam in mapped))


def symplectic_pairing_defect(s) -> float:
    """Max distance from the spectrum to its image under lambda -> 1/conj(lambda)."""
    eigs = eigenvalues(s)
    return _pairing_defect(eigs, 1.0 / np.conj(eigs))


def hamiltonian_pairing_defect(h) -> float:
    """Max distance from the spectrum to its image under lambda -> -conj(lambda)."""
    eigs = eigenvalues(h)
    return _pairing_defect(eigs, -np.conj(eigs))
