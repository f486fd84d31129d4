"""Dense kernels shared by every solver.

All matrices are float64 or complex128 numpy arrays, and every kernel keeps
the field it is given: real input gives real output, and numpy and scipy
promote to complex where real meets complex.  Whether a problem's data is
real is decided once, by value, in `Coefficients`, which also holds the
Frobenius norms of a problem's coefficients, computed once per problem, for
the residual scales every iterate reads.  Everything here is pure: no routine
mutates its arguments.  The kernels call LAPACK directly, without scipy's
checking wrappers: getrf for LU, getrs for a solve with few right-hand sides
(`LU.solve`), getri for an inverse that a caller applies to a wide block as
one matrix product (`LU.inverse`: SDA's [A_k, G_k], the Cayley reductions
and LR-ADI's block maps, the sign step), potrf for Cholesky, and
sytrf/hetrf, an LDL^* factorization whose inertia decides definiteness
(`psd_check`), in place of eigenvalues.
Each call site picks its kernel; `LU.solve` has no switch.

Every Frobenius norm the package takes, per iterate or once per problem,
is `_frobenius`: np.linalg.norm's arithmetic, bit for bit, without its
dispatch on `ord` and `axis`.  `oracle` alone keeps np.linalg.norm, because
it shares no code path with the solvers it checks.

This is the one module of the package that imports scipy, and it does so
the first time a kernel needs LAPACK or BLAS.  The kernels (and `care`'s
sign extraction) take their routines from `_lapack` and `_blas`, which load
scipy's compiled `_flapack` and `_fblas` modules straight from their files
and never import the `scipy.linalg` package: that import takes longer than
numpy's own, and most of it is array-API and testing machinery, not LAPACK.
Only `oracle`'s Schur form, on the `verify` path, imports `scipy.linalg`,
through `_scipy_linalg`.  A command that only generates or reads problems,
such as `riccati gen`, runs on numpy alone.

Data is checked where it enters: `as_matrix` scans for non-finite entries,
and the problem classes, `hermitian_part`, `psd_check` and
`spectral_radius_estimate` go through it.  The factorizations and `LU.solve`
run on every iterate and do not scan; a NaN or inf entry makes ||M||_F
non-finite, and the factorizations raise SingularMatrix on that.
"""

import importlib
import importlib.machinery
import importlib.util
import math
import sys
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import SingularMatrix

PIVOT_RTOL = 1e-14

__all__ = [
    "as_matrix",
    "hermitian_part",
    "symmetrize",
    "LU",
    "lu_factor",
    "Cholesky",
    "cholesky_factor",
    "solve_linear",
    "solve_right",
    "psd_check",
    "Coefficients",
    "spectral_radius_estimate",
]


@cache
def _scipy_linalg():
    """scipy.linalg, imported on the first call (by `oracle` only)."""
    return importlib.import_module("scipy.linalg")


@cache
def _extension(name: str):
    """scipy's compiled module scipy.linalg.`name` (_flapack or _fblas),
    loaded once from its file in the scipy package, or taken from
    sys.modules when scipy.linalg already loaded it.

    The module initializes single-phase, so loading it registers it in
    sys.modules; the entry is removed again, so that a later `import
    scipy.linalg` builds its own module object from the cached definition,
    holding the same routine objects.  A missing file raises ImportError.
    """
    import scipy

    full_name = f"scipy.linalg.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    directory = Path(scipy.__file__).parent / "linalg"
    paths = [directory / (name + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if path.is_file()), None)
    if path is None:
        raise ImportError(f"scipy {scipy.__version__} has no {name} extension in {directory}")
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(full_name, path))
    sys.modules.pop(full_name, None)
    return module


# routine names that differ by field: LAPACK's complex QR multiply is unmqr,
# and the real case of the Hermitian LDL^* is the symmetric sytrf
_ALIASES = {("z", "ormqr"): "unmqr", ("d", "hetrf"): "sytrf"}


@cache
def _routine(module: str, name: str, is_complex: bool):
    prefix = "z" if is_complex else "d"
    return getattr(_extension(module), prefix + _ALIASES.get((prefix, name), name))


def _lapack(name: str, *arrays):
    """The double-precision LAPACK routine `name` for the field of the numpy
    `arrays`: complex (z) if any of them is complex, real (d) otherwise; the
    same object `scipy.linalg.lapack.get_lapack_funcs` returns for float64
    and complex128 data.  `ormqr` and `hetrf` name their routine in both
    fields.  The lookup is cached, as scipy's is: it runs on every kernel
    call."""
    return _routine("_flapack", name, "c" in [a.dtype.kind for a in arrays])


def _blas(name: str, *arrays):
    """The BLAS routine `name` for the field of `arrays`, as `_lapack`."""
    return _routine("_fblas", name, "c" in [a.dtype.kind for a in arrays])


def as_matrix(a) -> np.ndarray:
    """Validate `a` as a 2-d array in its own field: complex input becomes
    complex128, and bool, integer and float input float64.

    The field follows the dtype alone; entries are not scanned for a zero
    imaginary part (`Coefficients` does that once per problem).  Raises
    ValueError on non-finite entries or wrong dimensionality.  This is the
    check for data entering the library; the steps and residuals of the
    solvers take `np.asarray` of the iterates they built and do not scan them.
    """
    m = np.asarray(a)
    m = np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def hermitian_part(m) -> np.ndarray:
    """Return (M + M^*)/2, checking M is square and close to Hermitian.

    The drift tolerance is 1e-12 * max(1, ||M||_F); iterations that preserve
    Hermitian structure exactly in exact arithmetic are re-symmetrized
    through this to prevent rounding drift.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("Hermitian matrices must be square")
    scale = max(1.0, _frobenius(m))
    if _frobenius(m - m.conj().T) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (m + m.conj().T) / 2


def symmetrize(m) -> np.ndarray:
    """Unchecked Hermitian part (M + M^*)/2, for re-symmetrizing iteration
    updates; it keeps a float dtype of M, and integer input gives float64.

    One fresh array: M^* is copied into it, and M is added and the sum
    halved in place.  The result has the bits of (M + M^*) / 2: addition
    commutes, and the halving is the same division by 2 (for complex data
    numpy divides by 2 + 0j, which rounds signed zeros differently from a
    product with 0.5).
    """
    m = np.asarray(m)
    if m.dtype.kind not in "fc":
        m = m.astype(np.float64)
    out = np.conjugate(m.T, order="C")
    out += m
    out /= 2
    return out


def _frobenius(m) -> float:
    """||M||_F, computed as np.linalg.norm(m) computes it: the entries in
    memory order (ravel order K, so a Fortran-ordered M such as a LAPACK
    result is not copied), the square root of one BLAS dot product, and for
    complex data the sum of the dot products of the real and imaginary
    parts.  The result has np.linalg.norm's bits, as a Python float.
    """
    v = np.asarray(m)
    if v.dtype.kind not in "fc":
        v = v.astype(np.float64)
    v = v.ravel(order="K")
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


class LU:
    """Row-pivoted LU factorization of a square matrix M, checked for singularity.

    `pivots` holds the moduli of the diagonal of U; `solve(b, trans)` solves
    M X = B (trans=0), M^T X = B (trans=1) or M^* X = B (trans=2).
    """

    def __init__(self, lu, piv):
        self._lu = lu
        self._piv = piv
        self.pivots = np.abs(np.diag(lu))

    @property
    def min_pivot(self) -> float:
        return float(np.min(self.pivots))

    def solve(self, b, trans: int = 0) -> np.ndarray:
        b = np.asarray(b)
        if b.shape[0] != self.pivots.shape[0]:
            raise SingularMatrix("dimension mismatch between M and B")
        # the routine follows the field of both operands, as scipy.linalg.lu_solve's does
        x, _ = _lapack("getrs", self._lu, b)(self._lu, self._piv, b, trans=trans)
        return x

    def inverse(self) -> np.ndarray:
        """M^{-1} from the same factors (LAPACK getri)."""
        # room for LAPACK's blocked kernel (block size 64); the default
        # workspace runs the slower unblocked one
        inv, _ = _lapack("getri", self._lu)(self._lu, self._piv, lwork=64 * self._lu.shape[0])
        return inv


def _pivot_floor(m) -> float:
    """PIVOT_RTOL * max(1, ||M||_F), the smallest pivot a factorization of M
    may have.  A NaN or inf entry makes ||M||_F non-finite, which raises
    SingularMatrix here: the norm does the finiteness check, with no scan.
    An empty M has no pivot to check and raises SingularMatrix too, before
    LAPACK, which rejects a 0 x 0 matrix as an illegal argument."""
    if m.size == 0:
        raise SingularMatrix("empty matrix: nothing to factor")
    norm = _frobenius(m)
    if not norm < np.inf:
        raise SingularMatrix("non-finite input: the matrix has a NaN or inf entry")
    return PIVOT_RTOL * max(1.0, norm)


def lu_factor(m) -> LU:
    """Factor M by Gaussian elimination with row pivoting (LAPACK getrf).

    Raises SingularMatrix when M is empty or not square, has a NaN or inf
    entry, or a pivot falls below 1e-14 * ||M||_F (scaled to max(1, .) so
    the exact zero matrix is also rejected).
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SingularMatrix("coefficient matrix must be square")
    floor = _pivot_floor(m)
    # an exact zero pivot (info > 0) fails the pivot test below
    factors, piv, _ = _lapack("getrf", m)(m)
    lu = LU(factors, piv)
    if not lu.min_pivot >= floor:
        raise SingularMatrix("pivot below singularity threshold")
    return lu


class Cholesky:
    """Cholesky factorization M = R^* R of a Hermitian positive definite M,
    R upper triangular, checked like `LU`.

    `pivots` holds r_ii^2, the pivots Gaussian elimination without pivoting
    would meet, so `min_pivot` means what it means for `lu_factor`.
    `half_solve(b)` returns R^{-*} B, one triangular solve: with
    Y = R^{-*} B, B^* M^{-1} B = Y^* Y.
    """

    def __init__(self, r):
        self._r = r
        self.pivots = np.diag(r).real ** 2

    @property
    def min_pivot(self) -> float:
        return float(np.min(self.pivots))

    def half_solve(self, b) -> np.ndarray:
        b = np.asarray(b)
        if b.shape[0] != self._r.shape[0]:
            raise SingularMatrix("dimension mismatch between M and B")
        return _blas("trsm", self._r, b)(1.0, self._r, b, trans_a=2)


def cholesky_factor(m) -> Cholesky:
    """Factor Hermitian M as R^* R (LAPACK potrf), reading its upper triangle.

    Raises SingularMatrix when M is empty or not square, has a NaN or inf
    entry, is not positive definite (potrf fails), or a pivot r_ii^2 falls
    below the `lu_factor` threshold 1e-14 * max(1, ||M||_F).
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SingularMatrix("coefficient matrix must be square")
    floor = _pivot_floor(m)
    r, info = _lapack("potrf", m)(m, lower=0, clean=0)
    if info != 0:
        raise SingularMatrix("matrix is not positive definite")
    chol = Cholesky(r)
    if not chol.min_pivot >= floor:
        raise SingularMatrix("pivot below singularity threshold")
    return chol


def solve_linear(m, b) -> np.ndarray:
    """Solve M X = B through `lu_factor` (which raises SingularMatrix)."""
    return lu_factor(m).solve(b)


def solve_right(b, m) -> np.ndarray:
    """Solve X M = B, i.e. return B M^{-1}."""
    return solve_linear(as_matrix(m).conj().T, as_matrix(b).conj().T).conj().T


def _negative_eigenvalues(h) -> int:
    """The number of negative eigenvalues of Hermitian H, read off the
    Bunch-Kaufman factorization P H P^T = L D L^* (LAPACK sytrf for real H,
    hetrf for complex), which by Sylvester's law of inertia has as many
    negative eigenvalues as the block-diagonal D.

    A 1 x 1 block counts when it is negative.  A 2 x 2 block [a b; b* c]
    has one negative eigenvalue when its determinant ac - |b|^2 is negative,
    two when the determinant is positive and its trace negative, and one when
    the determinant is 0 and the trace negative; the determinant is formed
    from entries divided by the block's largest modulus, so it cannot overflow.
    """
    # lwork leaves room for LAPACK's blocked kernel, as in `LU.inverse`;
    # an exactly zero pivot (info > 0) is a zero eigenvalue, not a failure
    ldu, ipiv, _ = _lapack("hetrf", h)(h, lower=1, lwork=64 * h.shape[0])
    d = ldu.diagonal().real
    # both rows of a 2 x 2 block carry the same negative ipiv, so the rows of
    # the 2 x 2 blocks, in order, pair up as (k, k + 1)
    paired = ipiv < 0
    negative = int(np.count_nonzero(d[~paired] < 0))
    first = np.flatnonzero(paired)[::2]
    if first.size:
        a, c, b = d[first], d[first + 1], np.abs(ldu[first + 1, first])
        top = np.maximum(np.maximum(np.abs(a), np.abs(c)), b)
        a, c, b = a / top, c / top, b / top
        det, trace = a * c - b * b, a + c
        negative += int(np.sum(np.where(det < 0, 1, np.where(trace < 0, 1 + (det > 0), 0))))
    return negative


def psd_check(m, tol: float = 0.0) -> bool:
    """True iff the smallest eigenvalue of Hermitian M is >= -tol * max(1, ||M||_F).

    Decided without eigenvalues: that holds exactly when M + tol max(1,
    ||M||_F) I has no negative eigenvalue, which is counted from its LDL^*
    factorization (`_negative_eigenvalues`), about a quarter of the cost of
    `np.linalg.eigvalsh` at n = 128.  M is read through its Hermitian part;
    a non-square M or a negative or non-finite tol raises ValueError.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("Hermitian matrices must be square")
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be nonnegative and finite")
    if m.size == 0:
        return True
    m = symmetrize(m)
    m[np.diag_indices_from(m)] += tol * max(1.0, _frobenius(m))
    return _negative_eigenvalues(m) == 0


class Coefficients:
    """Base of the frozen problem dataclasses: one validation path.

    `__post_init__` makes A a nonempty square matrix and each coefficient
    named in `HERMITIAN` its Hermitian part, checked to be positive
    semidefinite (at 1e-10) and of A's shape; it raises ValueError naming
    the coefficient that fails.  This is where a problem's field is
    decided: a coefficient whose imaginary part is exactly 0 is stored as
    float64, so real data read from a complex128 file is solved in real
    arithmetic.

    `norms` maps A and each coefficient in `HERMITIAN` to its Frobenius
    norm, computed on first use and then kept: the residual scales of every
    equation read it at each iterate, so a solve pays each coefficient norm
    once per problem, not once per iterate.  The norms are np.float64, whose
    square overflows to inf where a Python float's raises OverflowError.
    """

    HERMITIAN: tuple = ()

    def _store(self, name: str, check) -> np.ndarray:
        """Set the field `name` to M = check(its value), as float64 when M's
        imaginary part is 0; a ValueError of check gets the name in front."""
        try:
            m = check(getattr(self, name))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
        if np.iscomplexobj(m) and not m.imag.any():
            m = np.ascontiguousarray(m.real)
        object.__setattr__(self, name, m)
        return m

    def __post_init__(self):
        a = self._store("A", as_matrix)
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if a.size == 0:
            raise ValueError("A must not be empty")
        for name in self.HERMITIAN:
            m = self._store(name, hermitian_part)
            if m.shape != a.shape:
                raise ValueError(f"{name} must match the shape of A")
            if not psd_check(m, 1e-10):
                raise ValueError(f"{name} must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def norms(self) -> dict:
        return {name: np.float64(_frobenius(getattr(self, name))) for name in ("A", *self.HERMITIAN)}


def spectral_radius_estimate(m, max_doublings: int = 20) -> float:
    """Upper bound on the spectral radius via norms of repeated squares.

    Returns ||M^(2^j)||_F^(1/2^j) for the largest computed j <= max_doublings.
    The estimate never drops below rho(M) and is nonincreasing in j; powers
    are renormalized internally so the squaring never overflows.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    if max_doublings < 1:
        raise ValueError("max_doublings must be >= 1")
    power = m
    log_scale = 0.0  # log of the product of norms divided out so far
    for j in range(1, max_doublings + 1):
        nrm = _frobenius(power)
        if nrm == 0.0:
            return 0.0
        power = power / nrm
        power = power @ power
        log_scale = 2.0 * (log_scale + np.log(nrm))
        # estimate after j doublings: exp((log ||M^(2^j)||) / 2^j)
    final = _frobenius(power)
    if final == 0.0:
        return 0.0
    return float(np.exp((log_scale + np.log(final)) / 2.0**max_doublings))
