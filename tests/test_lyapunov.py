import numpy as np
import pytest

from riccati import (
    LyapunovProblem,
    ShiftSequence,
    SolveOptions,
    adi_solve,
    cayley_to_stein,
    lr_adi_solve,
    lyap_residual,
)
from riccati.errors import SingularShift
from riccati.linalg import psd_check
from riccati.oracle import kron_lyap_solve
from riccati.stein import smith_step


def hermitian_negdef(rng, n, lo=1.0, hi=100.0):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = rng.uniform(lo, hi, n)
    d[0], d[-1] = lo, hi
    return -(q * d) @ q.conj().T


def random_psd(rng, n, p=None):
    c = rng.standard_normal((p or n, n)) + 1j * rng.standard_normal((p or n, n))
    return c.conj().T @ c, c


class TestCayleyToStein:
    def test_scalar_closed_form(self):
        p = LyapunovProblem(A=[[-1.0]], Q=[[2.0]])
        s = cayley_to_stein(p, 1.0)
        assert abs(s.A[0, 0]) <= 1e-15
        assert s.Q[0, 0] == pytest.approx(1.0)

    def test_singular_shift(self):
        p = LyapunovProblem(A=[[1.0]], Q=[[1.0]])
        with pytest.raises(SingularShift):
            cayley_to_stein(p, 1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, complex(1.0, np.inf)])
    def test_non_finite_shift_raises(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            cayley_to_stein(LyapunovProblem(A=[[-1.0]], Q=[[1.0]]), tau)

    def test_left_half_plane_maps_inside_disk(self):
        p = LyapunovProblem(A=[[-1.0]], Q=[[1.0]])
        assert abs(cayley_to_stein(p, 1.0).A[0, 0]) < 1

    def test_solution_set_preserved(self):
        rng = np.random.default_rng(0)
        a = hermitian_negdef(rng, 5, 0.5, 4.0)
        q, _ = random_psd(rng, 5)
        p = LyapunovProblem(A=a, Q=q)
        x = kron_lyap_solve(p)
        s = cayley_to_stein(p, 1.3)
        defect = np.linalg.norm(x - s.A.conj().T @ x @ s.A - s.Q)
        assert defect <= 1e-10 * np.linalg.norm(x)


class TestAdiSolve:
    def test_scalar_optimal_shift_one_step(self):
        p = LyapunovProblem(A=[[-2.0]], Q=[[4.0]])
        report = adi_solve(p, ShiftSequence((2.0,)))
        assert report.converged
        assert report.iterations == 1
        assert report.X[0, 0] == pytest.approx(1.0)

    def test_zero_q_converges_immediately(self):
        p = LyapunovProblem(A=[[-1.0]], Q=[[0.0]])
        report = adi_solve(p, ShiftSequence((1.0,)))
        assert report.converged
        assert report.iterations == 0

    def test_imaginary_axis_not_converged(self):
        p = LyapunovProblem(A=[[1j]], Q=[[1.0]])
        report = adi_solve(p, ShiftSequence((1.0,)), SolveOptions(max_iter=100))
        assert not report.converged

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        a = hermitian_negdef(rng, 6, 1.0, 9.0)
        q, _ = random_psd(rng, 6)
        p = LyapunovProblem(A=a, Q=q)
        # sqrt(ab), the optimal single shift for [a, b] = [1, 9]
        report = adi_solve(p, ShiftSequence((3.0,)))
        x = kron_lyap_solve(p)
        assert np.linalg.norm(report.X - x) <= 1e-7 * np.linalg.norm(x)

    def test_single_shift_equals_smith_on_cayley(self):
        rng = np.random.default_rng(2)
        a = hermitian_negdef(rng, 5, 0.5, 5.0)
        q, _ = random_psd(rng, 5)
        p = LyapunovProblem(A=a, Q=q)
        tau = 1.7
        k = 4
        report = adi_solve(p, ShiftSequence((tau,)), SolveOptions(tol=1e-300, max_iter=k))
        stein_p = cayley_to_stein(p, tau)
        x = np.zeros((5, 5))
        for _ in range(k):
            x = smith_step(x, stein_p)
        assert np.linalg.norm(report.X - x) <= 1e-10 * max(1.0, np.linalg.norm(x))

    def test_error_identity_normal_a(self):
        # error after k shifted steps is r(A)^* X r(A) for the product of
        # the Cayley factors r(z) = prod (z + tau_j) / (z - conj(tau_j))
        rng = np.random.default_rng(3)
        a = hermitian_negdef(rng, 6, 1.0, 20.0)
        q, _ = random_psd(rng, 6)
        p = LyapunovProblem(A=a, Q=q)
        shifts = ShiftSequence((2.0, 5.0 + 1.0j, 9.0))
        x = kron_lyap_solve(p)
        report = adi_solve(p, shifts, SolveOptions(tol=1e-300, max_iter=3))
        eye = np.eye(6)
        r = eye
        for tau in shifts.shifts:
            r = r @ np.linalg.solve(a - np.conj(tau) * eye, a + tau * eye)
        expected = r.conj().T @ x @ r
        assert np.linalg.norm((x - report.X) - expected) <= 1e-9 * np.linalg.norm(x)


class TestLrAdiSolve:
    def test_requires_factor(self):
        p = LyapunovProblem(A=[[-1.0]], Q=[[1.0]])
        with pytest.raises(ValueError):
            lr_adi_solve(p, ShiftSequence((1.0,)), 2)

    def test_scalar_one_step(self):
        p = LyapunovProblem(A=[[-2.0]], Q=[[4.0]], C=[[2.0]])
        z = lr_adi_solve(p, ShiftSequence((2.0,)), 1)
        assert z.Z[0, 0] == pytest.approx(-1.0)
        assert z.gramian()[0, 0] == pytest.approx(1.0)

    def test_shift_at_eigenvalue_is_singular_shift(self):
        # A - conj(tau) I = 0 for A = 1 and tau = 1
        p = LyapunovProblem(A=[[1.0]], Q=[[1.0]], C=[[1.0]])
        with pytest.raises(SingularShift):
            lr_adi_solve(p, ShiftSequence((1.0,)), 2)

    def test_zero_factor(self):
        p = LyapunovProblem(A=[[-1.0]], Q=[[0.0]], C=[[0.0]])
        z = lr_adi_solve(p, ShiftSequence((1.0,)), 3)
        assert np.linalg.norm(z.Z) == 0.0

    def test_gramian_matches_adi_same_shift_set(self):
        rng = np.random.default_rng(4)
        a = hermitian_negdef(rng, 8, 0.5, 8.0) + 0.1 * rng.standard_normal((8, 8))
        q, c = random_psd(rng, 8, p=1)
        p = LyapunovProblem(A=a, Q=q, C=c)
        shifts = ShiftSequence((1.0, 2.0 + 1.0j))
        z = lr_adi_solve(p, shifts, 2)
        report = adi_solve(p, shifts, SolveOptions(tol=1e-300, max_iter=2))
        assert np.linalg.norm(z.gramian() - report.X) <= 1e-10 * max(1.0, np.linalg.norm(report.X))

    def test_geometric_residual_decay(self):
        rng = np.random.default_rng(5)
        a = hermitian_negdef(rng, 8, 1.0, 100.0)
        q, c = random_psd(rng, 8, p=1)
        p = LyapunovProblem(A=a, Q=q, C=c)
        tau = 10.0  # sqrt(ab), the optimal single shift for [a, b] = [1, 100]
        residuals = []
        for k in range(1, 8):
            z = lr_adi_solve(p, ShiftSequence((tau,)), k)
            residuals.append(lyap_residual(z.gramian(), p))
        for nxt, prev in zip(residuals[1:], residuals[:-1]):
            assert nxt <= 0.9 * prev + 1e-15

    def test_gramian_monotone_in_columns(self):
        rng = np.random.default_rng(6)
        a = hermitian_negdef(rng, 5, 1.0, 10.0)
        q, c = random_psd(rng, 5, p=1)
        p = LyapunovProblem(A=a, Q=q, C=c)
        prev = np.zeros((5, 5))
        for k in range(1, 5):
            g = lr_adi_solve(p, ShiftSequence((3.0,)), k).gramian()
            assert psd_check(g - prev, 1e-12)
            prev = g


class TestLyapResidual:
    def test_exact(self):
        p = LyapunovProblem(A=[[-1.0]], Q=[[2.0]])
        assert lyap_residual([[1.0]], p) <= 1e-15

    def test_zero_x(self):
        p = LyapunovProblem(A=[[-1.0]], Q=[[2.0]])
        assert lyap_residual(np.zeros((1, 1)), p) == pytest.approx(1.0)

    def test_hand_value(self):
        p = LyapunovProblem(A=[[-1.0]], Q=[[2.0]])
        assert lyap_residual([[2.0]], p) == pytest.approx(1 / 3)


class TestShiftSequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ShiftSequence(())

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            ShiftSequence((-1.0,))

    @pytest.mark.parametrize("shift", [np.nan, np.inf, complex(1.0, np.inf), complex(np.nan, 1.0)])
    def test_rejects_non_finite(self, shift):
        with pytest.raises(ValueError, match="shifts must be finite"):
            ShiftSequence((1.0, shift))

    def test_cycles(self):
        s = ShiftSequence((1.0, 2.0))
        assert s.at(5) == 2.0


class TestProblemValidation:
    def test_factor_must_match_q(self):
        with pytest.raises(ValueError):
            LyapunovProblem(A=[[-1.0]], Q=[[2.0]], C=[[1.0]])
