import numpy as np
import pytest

from riccati import SolveOptions, SteinProblem, smith_solve, squared_smith_solve, stein_residual
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem
from riccati.linalg import psd_check
from riccati.oracle import kron_stein_solve
from riccati.stein import smith_step


def random_stable(rng, n, radius=0.9):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (radius / max(abs(np.linalg.eigvals(a))))


def random_psd(rng, n):
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return c.conj().T @ c


class TestSmithStep:
    def test_from_zero(self):
        p = SteinProblem(A=[[0.5]], Q=[[0.75]])
        assert np.allclose(smith_step(np.zeros((1, 1)), p), [[0.75]])

    def test_scalar_fixed_point(self):
        p = SteinProblem(A=[[0.5]], Q=[[0.75]])
        assert np.allclose(smith_step([[1.0]], p), [[1.0]])

    def test_a_zero(self):
        q = np.diag([1.0, 2.0])
        p = SteinProblem(A=np.zeros((2, 2)), Q=q)
        assert np.allclose(smith_step(np.ones((2, 2)), p), q)


class TestSmithSolve:
    def test_scalar_closed_form(self):
        report = smith_solve(SteinProblem(A=[[0.5]], Q=[[0.75]]))
        assert report.converged
        assert abs(report.X[0, 0] - 1.0) <= 1e-12

    def test_a_zero_one_iteration(self):
        q = np.diag([2.0, 3.0])
        report = smith_solve(SteinProblem(A=np.zeros((2, 2)), Q=q))
        assert report.converged
        assert report.iterations == 1
        assert np.allclose(report.X, q)

    def test_divergent_not_converged(self):
        report = smith_solve(SteinProblem(A=[[1.0]], Q=[[1.0]]), SolveOptions(max_iter=200))
        assert not report.converged

    def test_monotone_iterates(self):
        rng = np.random.default_rng(3)
        p = SteinProblem(A=random_stable(rng, 4), Q=random_psd(rng, 4))
        x = np.zeros((4, 4))
        for _ in range(20):
            xn = smith_step(x, p)
            assert psd_check(xn - x, 1e-10)
            x = xn


class TestSquaredSmithSolve:
    def test_scalar_closed_form(self):
        report = squared_smith_solve(SteinProblem(A=[[0.5]], Q=[[0.75]]))
        assert report.converged
        assert abs(report.X[0, 0] - 1.0) <= 1e-12
        assert report.iterations <= 6

    def test_a_zero_no_step(self):
        # Q_0 = Q is exact and ||A||_F = 0 < 1: nothing to step
        q = np.diag([1.0, 4.0])
        report = squared_smith_solve(SteinProblem(A=np.zeros((2, 2)), Q=q))
        assert report.converged
        assert report.iterations == 0
        assert np.allclose(report.X, q)

    def test_exact_start_without_certificate(self):
        # A nilpotent with ||A||_F = 2: Q_0 = Q is exact, but without a step
        # the only certificate of rho(A) < 1, ||A_k||_F < 1, is not available
        q = np.diag([0.0, 1.0])
        report = squared_smith_solve(SteinProblem(A=[[0.0, 2.0], [0.0, 0.0]], Q=q))
        assert report.iterations == 0
        assert report.residual_history == [0.0]
        assert not report.converged
        assert np.array_equal(report.X, q)

    def test_overflow_guard_reports_not_converged(self):
        report = squared_smith_solve(SteinProblem(A=[[2.0]], Q=[[1.0]]), SolveOptions(max_iter=60))
        assert not report.converged

    def test_critical_instance_not_converged(self):
        # rho(A) = 1: the Stein operator is singular, yet Q_k reaches a small
        # relative residual while ||X|| grows to ~9e12 and ||A_k||_F ~ 1.6
        p = to_problem(gen_problem(GeneratorSpec(kind="stein", n=16, seed=3, critical=True)))
        report = squared_smith_solve(p)
        assert report.residual_history[-1] <= 1e-12
        assert not report.converged

    def test_state_matches_smith_iterate(self):
        # k doubling steps reproduce the 2^k-th basic iterate
        rng = np.random.default_rng(4)
        p = SteinProblem(A=random_stable(rng, 8), Q=random_psd(rng, 8))
        x16 = np.zeros((8, 8))
        for _ in range(16):
            x16 = smith_step(x16, p)
        loose = SolveOptions(tol=1e-300, max_iter=4)
        q4 = squared_smith_solve(p, loose).X
        assert np.linalg.norm(q4 - x16) <= 1e-10 * np.linalg.norm(x16)


class TestSteinResidual:
    def test_exact_solution(self):
        p = SteinProblem(A=[[0.5]], Q=[[0.75]])
        assert stein_residual([[1.0]], p) <= 1e-15

    def test_zero_iterate(self):
        p = SteinProblem(A=[[0.5]], Q=[[0.75]])
        assert stein_residual(np.zeros((1, 1)), p) == pytest.approx(1.0)

    def test_hand_value(self):
        p = SteinProblem(A=[[0.5]], Q=[[0.75]])
        assert stein_residual([[2.0]], p) == pytest.approx(0.75 / 3.25, abs=1e-4)


class TestProperties:
    def test_error_identity(self):
        # X - X_k equals (A^*)^(k+1) X A^(k+1) along the basic iteration
        rng = np.random.default_rng(5)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            p = SteinProblem(A=random_stable(rng, 6), Q=random_psd(rng, 6))
            x = kron_stein_solve(p)
            xk = np.zeros((6, 6))
            for _ in range(6):
                xk = smith_step(xk, p)
            lhs = x - xk
            rhs = np.linalg.matrix_power(p.A.conj().T, 6) @ x @ np.linalg.matrix_power(p.A, 6)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(x)

    def test_rate_comparison(self):
        # residual of k doubling steps tracks the 2^k-step basic residual
        rng = np.random.default_rng(9)
        p = SteinProblem(A=random_stable(rng, 5, 0.9), Q=random_psd(rng, 5))
        basic = smith_solve(p, SolveOptions(tol=1e-300, max_iter=16))
        doubled = squared_smith_solve(p, SolveOptions(tol=1e-300, max_iter=4))
        ratio = doubled.residual_history[4] / basic.residual_history[16]
        assert 0.1 <= ratio <= 10.0

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smith_rate_estimate_is_rho_squared(self, n, seed):
        # X - X_k = (A^*)^k X A^k, so the updates shrink by rho(A)^2 per step
        p = to_problem(gen_problem(GeneratorSpec(kind="stein", n=n, seed=seed)))
        report = smith_solve(p, SolveOptions(tol=1e-12))
        assert report.converged
        rho = max(abs(np.linalg.eigvals(p.A)))
        assert report.rate_estimate == pytest.approx(rho**2, rel=2e-2)


class TestProblemValidation:
    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError):
            SteinProblem(A=np.eye(2), Q=np.diag([1.0, -1.0]))

    def test_rejects_rectangular_a(self):
        with pytest.raises(ValueError):
            SteinProblem(A=np.zeros((2, 3)), Q=np.eye(2))
