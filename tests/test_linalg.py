import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from riccati import care_residual, dare_residual, lyap_residual, nme_residual, stein_residual
from riccati.dare import DareProblem
from riccati.errors import RiccatiError, SingularMatrix
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem
from riccati.linalg import (
    as_matrix,
    cholesky_factor,
    hermitian_part,
    lu_factor,
    psd_check,
    solve_linear,
    solve_right,
    spectral_radius_estimate,
    symmetrize,
)
from riccati.lyapunov import LyapunovProblem
from riccati.stein import SteinProblem


class TestAsMatrix:
    @pytest.mark.parametrize(
        "data, dtype",
        [
            ([[1, 2], [3, 4]], np.float64),
            ([[True, False], [False, True]], np.float64),
            (np.eye(2, dtype=np.float32), np.float64),
            ([[1.5, 2.0], [3.0, 4.0]], np.float64),
            ([[1 + 2j, 0], [0, 1]], np.complex128),
            (np.eye(2, dtype=np.complex64), np.complex128),
            # the field follows the dtype: no scan for a zero imaginary part
            (np.eye(2, dtype=np.complex128), np.complex128),
        ],
        ids=["int", "bool", "float32", "float", "complex", "complex64", "complex-zero-imag"],
    )
    def test_keeps_the_field(self, data, dtype):
        assert as_matrix(data).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_symmetrize_keeps_the_dtype(self, dtype):
        m = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=dtype)
        assert symmetrize(m).dtype == dtype

    def test_coefficients_store_zero_imaginary_part_as_real(self):
        p = SteinProblem(A=0.5 * np.eye(2, dtype=np.complex128), Q=np.eye(2) + 0j)
        assert p.A.dtype == np.float64 and p.Q.dtype == np.float64
        q = SteinProblem(A=0.5j * np.eye(2), Q=np.eye(2) + 0j)
        assert q.A.dtype == np.complex128 and q.Q.dtype == np.float64

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[1 + 1j * np.inf]]))

    def test_scalar_promoted(self):
        assert as_matrix(3.0).shape == (1, 1)


class TestHermitianPart:
    def test_symmetrizes(self):
        m = hermitian_part([[1.0, 2.0 + 1e-13j], [2.0 - 1e-13j, 3.0]])
        assert np.allclose(m, m.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_part([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            hermitian_part(np.zeros((2, 3)))


NAN = [[np.nan, 0.0], [0.0, 1.0]]
I2 = np.eye(2)


class TestCoefficientsNameTheFailure:
    """A coefficient rejected by `as_matrix` or `hermitian_part` is named."""

    @pytest.mark.parametrize(
        "cls, coefficients, named",
        [
            (DareProblem, {"A": NAN, "G": I2, "Q": I2}, "A: matrix entries must be finite"),
            (DareProblem, {"A": I2, "G": [[1.0, 2.0], [0.0, 1.0]], "Q": I2}, "G: matrix is not Hermitian within tolerance"),
            (DareProblem, {"A": I2, "G": np.ones((2, 3)), "Q": I2}, "G: Hermitian matrices must be square"),
            (DareProblem, {"A": I2, "G": I2, "Q": NAN}, "Q: matrix entries must be finite"),
            (LyapunovProblem, {"A": -I2, "Q": I2, "C": [[np.nan, 0.0]]}, "C: matrix entries must be finite"),
        ],
    )
    def test_message_starts_with_the_name(self, cls, coefficients, named):
        with pytest.raises(ValueError, match=f"^{named}$"):
            cls(**coefficients)


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(np.eye(2), [[1.0], [2.0]])
        assert np.allclose(x, [[1.0], [2.0]])

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), [[2.0], [8.0]])
        assert np.allclose(x, [[1.0], [2.0]])

    def test_rank_deficient(self):
        with pytest.raises(SingularMatrix):
            solve_linear([[1.0, 1.0], [1.0, 1.0]], np.eye(2))

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrix):
            solve_linear(np.zeros((2, 2)), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(SingularMatrix):
            solve_linear(np.eye(2), np.zeros((3, 1)))

    def test_recovers_solution_random(self):
        rng = np.random.default_rng(0)
        for n in (5, 20, 50):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * n * np.eye(n)
            x0 = rng.standard_normal((n, n))
            x = solve_linear(m, m @ x0)
            assert np.linalg.norm(x - x0) <= 1e-10 * np.linalg.norm(x0)

    def test_solve_right(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4)) + 8 * np.eye(4)
        b = rng.standard_normal((4, 4))
        x = solve_right(b, m)
        assert np.allclose(x @ m, b)


class TestPsdCheck:
    def test_identity(self):
        assert psd_check(np.eye(2), 0.0)

    def test_indefinite(self):
        assert not psd_check(np.diag([1.0, -1.0]), 1e-8)

    def test_zero_boundary(self):
        assert psd_check(np.zeros((3, 3)), 0.0)

    def test_both_signs_iff_zero(self):
        m = np.diag([1e-20, -1e-20])
        assert psd_check(m, 1e-15) and psd_check(-m, 1e-15)
        m = np.diag([1.0, 0.0])
        assert psd_check(m, 0.0) and not psd_check(-m, 1e-10)


def _hermitian(rng, spectrum, field):
    """A random Hermitian matrix, real or complex, with the given spectrum."""
    n = len(spectrum)
    z = rng.standard_normal((n, n))
    if field == "complex":
        z = z + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    return symmetrize((u * np.asarray(spectrum)) @ u.conj().T)


def _eigvalsh_predicate(m, tol) -> bool:
    """The definition `psd_check` implements, read off the spectrum."""
    return bool(np.linalg.eigvalsh(m)[0] >= -tol * max(1.0, float(np.linalg.norm(m))))


def _threshold_tol(m, margin) -> float:
    """The tol that puts psd_check's threshold at -margin."""
    return margin / max(1.0, float(np.linalg.norm(m)))


INERTIA_SIZES = (1, 2, 3, 17, 64, 128)
FIELDS = ("real", "complex")


class TestPsdCheckMatchesEigenvalues:
    """`psd_check` counts the negative pivots of an LDL^* factorization; on
    each matrix here it gives the answer of the eigenvalue predicate
    lambda_min(M) >= -tol max(1, ||M||_F).  lambda_min is placed at
    -delta (1 -+ 1e-3) with the threshold at -delta, a margin of 1e-3 delta,
    far above the rounding of either method (about 1e-14 ||M||_F here)."""

    @pytest.mark.parametrize("side", [-1, 1], ids=["inside", "outside"])
    @pytest.mark.parametrize("delta", [1e-8, 1e-3])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", INERTIA_SIZES)
    def test_lambda_min_at_threshold(self, n, field, delta, side):
        rng = np.random.default_rng(n)
        # other eigenvalues in [-delta/2, 10]: some negative, all above lambda_min
        spectrum = rng.uniform(-delta / 2, 10.0, n)
        spectrum[rng.integers(n)] = -delta * (1 + side * 1e-3)
        m = _hermitian(rng, spectrum, field)
        tol = _threshold_tol(m, delta)
        assert _eigvalsh_predicate(m, tol) == (side < 0)
        assert psd_check(m, tol) == (side < 0)

    @pytest.mark.parametrize("side", [-1, 1], ids=["inside", "outside"])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", INERTIA_SIZES)
    def test_singular(self, n, field, side):
        # B B^* of rank about n/2, then one null direction pushed to -delta (1 -+ 1e-3)
        rng = np.random.default_rng(100 + n)
        rank = max(1, n // 2)
        b = rng.standard_normal((n, rank))
        if field == "complex":
            b = b + 1j * rng.standard_normal((n, rank))
        gram = symmetrize(b @ b.conj().T)
        assert _eigvalsh_predicate(gram, 1e-10) and psd_check(gram, 1e-10)
        assert not psd_check(-gram, 1e-10)
        if rank == n:
            return
        spectrum = np.zeros(n)
        spectrum[: rank] = rng.uniform(0.5, 10.0, rank)
        spectrum[-1] = -1e-6 * (1 + side * 1e-3)
        m = _hermitian(rng, spectrum, field)
        tol = _threshold_tol(m, 1e-6)
        assert _eigvalsh_predicate(m, tol) == (side < 0)
        assert psd_check(m, tol) == (side < 0)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", INERTIA_SIZES[1:])
    def test_zero_diagonal(self, n, field):
        # a zero diagonal makes Bunch-Kaufman take 2 x 2 pivots
        rng = np.random.default_rng(200 + n)
        z = rng.standard_normal((n, n))
        if field == "complex":
            z = z + 1j * rng.standard_normal((n, n))
        m = z + z.conj().T
        np.fill_diagonal(m, 0.0)
        trf = scipy.linalg.lapack.get_lapack_funcs("hetrf" if field == "complex" else "sytrf", (m,))
        assert np.any(trf(m, lower=1)[1] < 0)
        assert not _eigvalsh_predicate(m, 0.0) and not psd_check(m, 0.0)
        margin = -float(np.linalg.eigvalsh(m)[0])
        for side in (-1, 1):
            tol = _threshold_tol(m, margin * (1 - side * 1e-3))
            assert _eigvalsh_predicate(m, tol) == psd_check(m, tol) == (side < 0)


class TestSpectralRadiusEstimate:
    def test_normal_matrix(self):
        est = spectral_radius_estimate(np.diag([0.5, -0.25]), 10)
        assert 0.5 - 1e-12 <= est <= 0.5 * 2 ** (1 / 1024)

    def test_nilpotent(self):
        assert spectral_radius_estimate([[0.0, 1.0], [0.0, 0.0]], 3) == 0.0

    def test_two_one(self):
        est = spectral_radius_estimate(np.diag([2.0, 1.0]), 10)
        assert abs(est - 2.0) <= 0.001 * 2.0

    def test_monotone_in_doublings(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 5))
        values = [spectral_radius_estimate(m, j) for j in range(1, 12)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-12

    @given(st.integers(min_value=1, max_value=8))
    def test_never_below_true_radius(self, j):
        m = np.array([[0.9, 5.0], [0.0, 0.3]])
        assert spectral_radius_estimate(m, j) >= 0.9 - 1e-12


def _two_division_estimate(m, max_doublings):
    """The estimate as computed with `(power / nrm) @ (power / nrm)`."""
    power = as_matrix(m)
    log_scale = 0.0
    for _ in range(max_doublings):
        nrm = float(np.linalg.norm(power))
        if nrm == 0.0:
            return 0.0
        power = (power / nrm) @ (power / nrm)
        log_scale = 2.0 * (log_scale + np.log(nrm))
    final = float(np.linalg.norm(power))
    if final == 0.0:
        return 0.0
    return float(np.exp((log_scale + np.log(final)) / 2.0**max_doublings))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 6, 32])
@pytest.mark.parametrize("max_doublings", [1, 20, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_radius_estimate_bits_of_two_divisions(field, n, max_doublings, seed):
    """Dividing once and squaring the quotient gives the float of dividing
    twice, so generated files stay byte-identical."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    if field == "complex":
        m = m + 1j * rng.standard_normal((n, n))
    assert spectral_radius_estimate(m, max_doublings) == _two_division_estimate(m, max_doublings)


class TestMinPivot:
    def test_identity(self):
        assert lu_factor(np.eye(3)).min_pivot == pytest.approx(1.0)

    def test_scaling(self):
        assert lu_factor(np.diag([4.0, 2.0])).min_pivot == pytest.approx(2.0)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            lu_factor([[1.0, 1.0], [1.0, 1.0]]).min_pivot


class TestLuFactor:
    @pytest.mark.parametrize("trans, op", [(0, lambda m: m), (1, lambda m: m.T), (2, lambda m: m.conj().T)])
    def test_solve_modes(self, trans, op):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        x = lu_factor(m).solve(b, trans)
        assert np.linalg.norm(op(m) @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_pivots_are_moduli_of_u(self):
        lu = lu_factor(np.diag([-3.0, 2.0, 1j]))
        assert sorted(lu.pivots) == pytest.approx([1.0, 2.0, 3.0])
        assert lu.min_pivot == pytest.approx(1.0)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            lu_factor(np.diag([1.0, 1e-15]))

    def test_rectangular_raises(self):
        with pytest.raises(SingularMatrix):
            lu_factor(np.ones((2, 3)))

    @pytest.mark.parametrize("trans", [0, 1, 2])
    @pytest.mark.parametrize(
        "m_complex, b_complex", [(False, False), (True, True), (False, True)], ids=["real", "complex", "real-m"]
    )
    def test_solve_matches_scipy_bits(self, trans, m_complex, b_complex):
        # getrf/getrs called directly return what scipy's wrappers return
        rng = np.random.default_rng(3)
        m = rng.standard_normal((7, 7)) + (1j * rng.standard_normal((7, 7)) if m_complex else 0)
        b = rng.standard_normal((7, 4)) + (1j * rng.standard_normal((7, 4)) if b_complex else 0)
        x = lu_factor(m).solve(b, trans)
        reference = scipy.linalg.lu_solve(scipy.linalg.lu_factor(m), b, trans=trans)
        assert x.dtype == reference.dtype
        assert x.tobytes() == reference.tobytes()

    def test_exactly_singular_raises_without_warning(self):
        # getrf meets an exact zero pivot; scipy's wrapper would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix):
                lu_factor([[1.0, 2.0], [2.0, 4.0]])

    def test_solve_dimension_mismatch_raises(self):
        with pytest.raises(SingularMatrix, match="dimension mismatch"):
            lu_factor(np.eye(3)).solve(np.ones((2, 1)))


class TestLuInverse:
    @pytest.mark.parametrize("m_complex", [False, True], ids=["real", "complex"])
    def test_inverts_in_the_field_of_m(self, m_complex):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((9, 9)) + (1j * rng.standard_normal((9, 9)) if m_complex else 0)
        inv = lu_factor(m).inverse()
        assert inv.dtype == m.dtype
        assert np.linalg.norm(m @ inv - np.eye(9)) <= 1e-12 * np.linalg.norm(m) * np.linalg.norm(inv)

    def test_leaves_the_factors_unchanged(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((5, 5))
        lu = lu_factor(m)
        before = lu.solve(np.eye(5))
        lu.inverse()
        assert lu.solve(np.eye(5)).tobytes() == before.tobytes()


class TestNonFiniteInput:
    """The factorizations and residuals do not scan their input for NaN or
    inf; what such an entry gives is a SingularMatrix or a non-finite
    number, never a bare ValueError."""

    @pytest.mark.parametrize("factor", [lu_factor, cholesky_factor])
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf)], ids=["nan", "inf", "-inf", "inf-imag"]
    )
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_factorization_raises(self, factor, bad, where):
        m = np.eye(2, dtype=type(bad))
        m[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="non-finite input"):
                factor(m)

    @pytest.mark.parametrize("factor", [lu_factor, cholesky_factor])
    def test_one_by_one_inf(self, factor):
        # the pivot test alone would pass: inf >= 1e-14 * inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="non-finite input"):
                factor([[np.inf]])

    RESIDUALS = {
        "stein": stein_residual,
        "lyapunov": lyap_residual,
        "dare": dare_residual,
        "care": care_residual,
        "nme": nme_residual,
    }

    @staticmethod
    def _residual_of(kind, bad):
        p = to_problem(gen_problem(GeneratorSpec(kind=kind, n=4, seed=0)))
        x = np.eye(4)
        x[1, 2] = bad
        try:
            res = TestNonFiniteInput.RESIDUALS[kind](x, p)
        except RiccatiError:
            return None
        return res

    @pytest.mark.parametrize("kind", list(RESIDUALS))
    def test_residual_of_nan(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = self._residual_of(kind, np.nan)
        assert res is None or not math.isfinite(res)

    @pytest.mark.parametrize("kind", list(RESIDUALS))
    def test_residual_of_inf(self, kind):
        # IEEE arithmetic turns inf into NaN (inf - inf, 0 * inf), and numpy
        # reports that as an invalid value; the residual does not scan X, so
        # that NaN is what it returns
        with np.errstate(invalid="ignore"):
            res = self._residual_of(kind, np.inf)
        assert res is None or not math.isfinite(res)


class TestCholeskyFactor:
    @pytest.mark.parametrize("m_complex", [False, True], ids=["real-m", "complex-m"])
    @pytest.mark.parametrize("b_complex", [False, True], ids=["real-b", "complex-b"])
    def test_half_solve_gives_b_star_m_inv_b(self, m_complex, b_complex):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((6, 6)) + (1j * rng.standard_normal((6, 6)) if m_complex else 0)
        m = c.conj().T @ c + np.eye(6)
        b = rng.standard_normal((6, 4)) + (1j * rng.standard_normal((6, 4)) if b_complex else 0)
        y = cholesky_factor(m).half_solve(b)
        reference = b.conj().T @ np.linalg.solve(m, b)
        assert np.linalg.norm(y.conj().T @ y - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_pivots_are_squared_diagonal_of_r(self):
        chol = cholesky_factor(np.diag([9.0, 4.0, 1.0]))
        assert chol.pivots == pytest.approx([9.0, 4.0, 1.0])
        assert chol.min_pivot == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "m",
        [np.diag([1.0, -1.0]), np.zeros((2, 2)), np.diag([1.0, 1e-15]), np.ones((2, 3))],
        ids=["indefinite", "zero", "below-threshold", "rectangular"],
    )
    def test_raises(self, m):
        with pytest.raises(SingularMatrix):
            cholesky_factor(m)

    def test_half_solve_dimension_mismatch_raises(self):
        # as LU.solve does, not f2py's bare shape error
        with pytest.raises(SingularMatrix, match="dimension mismatch between M and B"):
            cholesky_factor(np.eye(3)).half_solve(np.ones((2, 1)))


def _signed_zeros():
    # every sign combination of zero real and imaginary parts, which
    # (M + M^*) / 2 rounds through numpy's division by 2 + 0j
    parts = [0.0, -0.0, 1.0, -1.0]
    values = [complex(re, im) for re in parts for im in parts]
    return np.array(values).reshape(4, 4)


def _symmetrize_inputs():
    rng = np.random.default_rng(4)
    real = rng.standard_normal((5, 5))
    cplx = real + 1j * rng.standard_normal((5, 5))
    return {
        "real": real,
        "complex": cplx,
        "f-ordered-real": np.asfortranarray(real),
        "f-ordered-complex": np.asfortranarray(cplx),
        "transposed-view": cplx.T,
        "1x1-complex": np.array([[2.0 - 3.0j]]),
        "1x1-real": np.array([[-0.0]]),
        "signed-zeros": _signed_zeros(),
        "integer": np.arange(9).reshape(3, 3),
    }


SYMMETRIZE_INPUTS = _symmetrize_inputs()


@pytest.mark.parametrize("name, m", list(SYMMETRIZE_INPUTS.items()), ids=list(SYMMETRIZE_INPUTS))
def test_symmetrize_has_the_bits_of_the_two_pass_form(name, m):
    before = m.copy()
    reference = (m + m.conj().T) / 2
    out = symmetrize(m)
    assert out.dtype == reference.dtype
    assert out.dtype == (np.float64 if name == "integer" else m.dtype)
    assert out.tobytes() == reference.tobytes()
    assert not np.shares_memory(out, m)
    assert before.tobytes() == m.tobytes()


def test_symmetrize_unchecked():
    m = symmetrize([[0.0, 2.0], [0.0, 0.0]])
    assert np.allclose(m, [[0.0, 1.0], [1.0, 0.0]])
