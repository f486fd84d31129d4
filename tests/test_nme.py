import numpy as np
import pytest

from riccati import (
    NmeProblem,
    SolveOptions,
    cyclic_reduction_solve,
    nme_fixed_point_solve,
    nme_residual,
    spectral_factorize,
    uqme_residual,
)
from riccati.cli import main
from riccati.errors import NotConverged, SingularMatrix
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import ProblemFile, save_problem, to_problem
from riccati.linalg import psd_check
from riccati.nme import CrState, SpectralFactorization, cr_step, nme_step


def random_instance(seed, n):
    return to_problem(gen_problem(GeneratorSpec(kind="nme", n=n, seed=seed)))


SCALAR = NmeProblem(A=[[1.0]], Q=[[2.5]])
CRITICAL = NmeProblem(A=[[1.0]], Q=[[2.0]])


class TestNmeStep:
    def test_a_zero(self):
        q = np.diag([1.0, 2.0])
        p = NmeProblem(A=np.zeros((2, 2)), Q=q)
        assert np.allclose(nme_step(np.eye(2), p), q)

    def test_scalar_fixed_point(self):
        assert nme_step([[2.0]], SCALAR)[0, 0] == pytest.approx(2.0)

    def test_critical_fixed_point(self):
        assert nme_step([[1.0]], CRITICAL)[0, 0] == pytest.approx(1.0)


class TestFixedPointSolve:
    def test_scalar(self):
        report = nme_fixed_point_solve(SCALAR, SolveOptions(tol=1e-14))
        assert report.converged
        assert abs(report.X[0, 0] - 2.0) <= 1e-12

    def test_a_zero_one_step(self):
        q = np.diag([1.0, 2.0])
        report = nme_fixed_point_solve(NmeProblem(A=np.zeros((2, 2)), Q=q))
        assert report.iterations == 1
        assert np.allclose(report.X, q)

    def test_critical_sublinear_rate(self):
        report = nme_fixed_point_solve(CRITICAL, SolveOptions(tol=1e-10, max_iter=4000))
        assert abs(report.X[0, 0] - 1.0) <= 1e-3
        assert report.rate_estimate > 0.99

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rate_estimate_is_rho_y_squared(self, n, seed):
        # the error contracts by rho(Y)^2 per step, Y = -X_plus^{-1} A; the
        # run takes 5-8 steps, so the estimate rests on few ratios
        p = random_instance(seed, n)
        report = nme_fixed_point_solve(p, SolveOptions(tol=1e-12))
        assert report.converged
        rho = max(abs(np.linalg.eigvals(-np.linalg.solve(report.X, p.A))))
        assert report.rate_estimate == pytest.approx(rho**2, rel=0.3)

    def test_critical_iterate_closed_form(self):
        # iterating x -> 2 - 1/x from 2 gives x_k = (k+2)/(k+1)
        x = np.array([[2.0]])
        for k in range(1, 30):
            x = nme_step(x, CRITICAL)
            assert x[0, 0] == pytest.approx((k + 2) / (k + 1), abs=1e-12)

    def test_monotone_decreasing(self):
        p = random_instance(0, 5)
        x = p.Q.copy()
        for _ in range(15):
            xn = nme_step(x, p)
            assert psd_check(x - xn, 1e-10)
            x = xn


class TestCyclicReduction:
    def test_scalar(self):
        report = cyclic_reduction_solve(SCALAR, SolveOptions(tol=1e-14))
        assert report.converged
        assert report.iterations <= 7
        assert abs(report.X[0, 0] - 2.0) <= 1e-12

    def test_doubling_equivalence_scalar(self):
        x = SCALAR.Q.copy()
        for _ in range(7):
            x = nme_step(x, SCALAR)  # X_8 from X_1 = Q
        state = CrState(Ak=SCALAR.A, Qk=SCALAR.Q, Uk=SCALAR.Q, k=0)
        for _ in range(3):
            state = cr_step(state)
        assert abs(state.Qk[0, 0] - x[0, 0]) <= 1e-12

    def test_doubling_equivalence_random(self):
        p = random_instance(1, 6)
        x = p.Q.copy()
        for _ in range(15):
            x = nme_step(x, p)  # X_16
        state = CrState(Ak=p.A, Qk=p.Q, Uk=p.Q, k=0)
        for _ in range(4):
            state = cr_step(state)
        assert np.linalg.norm(state.Qk - x) <= 1e-10 * np.linalg.norm(x)

    def test_critical_linear_rate(self):
        # the residual is quadratic in the error at a double root, so a
        # 1e-12 residual corresponds to an error near 1e-6
        report = cyclic_reduction_solve(CRITICAL, SolveOptions(tol=1e-12))
        assert report.converged
        assert abs(report.X[0, 0] - 1.0) <= 1e-5
        assert 0.4 <= report.rate_estimate <= 0.6

    def test_uk_stays_positive(self):
        p = random_instance(2, 4)
        state = CrState(Ak=p.A, Qk=p.Q, Uk=p.Q, k=0)
        for _ in range(6):
            state = cr_step(state)
            assert psd_check(state.Qk, 1e-10)
            assert psd_check(state.Uk, 1e-10)

    def test_singular_uk_named(self):
        state = CrState(Ak=np.eye(2), Qk=np.eye(2), Uk=np.zeros((2, 2)), k=0)
        with pytest.raises(SingularMatrix, match="pivot block U_k is singular"):
            cr_step(state)


class TestSpectralFactorize:
    def test_scalar(self):
        fact = spectral_factorize(SCALAR)
        assert fact.X[0, 0] == pytest.approx(2.0)
        assert fact.Y[0, 0] == pytest.approx(-0.5)

    def test_a_zero(self):
        q = np.diag([1.0, 2.0])
        fact = spectral_factorize(NmeProblem(A=np.zeros((2, 2)), Q=q))
        assert np.allclose(fact.X, q)
        assert np.linalg.norm(fact.Y) == 0.0

    def test_critical_boundary_accepted(self):
        fact = spectral_factorize(CRITICAL, SolveOptions(tol=1e-12))
        assert fact.X[0, 0] == pytest.approx(1.0, abs=1e-5)
        assert fact.Y[0, 0] == pytest.approx(-1.0, abs=1e-5)

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_exhausted_budget_is_typed(self, max_iter):
        p = random_instance(0, 6)
        with pytest.raises(NotConverged, match=f"did not converge in {max_iter} steps"):
            spectral_factorize(p, SolveOptions(max_iter=max_iter))

    def test_failed_identity_is_typed(self):
        # a loose tol converges on an X too far from X_plus to factor P(z)
        with pytest.raises(NotConverged, match="converged in .* but factorization does not match"):
            spectral_factorize(random_instance(0, 6), SolveOptions(tol=1e-3))

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            SpectralFactorization(X=[[1.0]], Y=[[0.5]], A=[[1.0]], Q=[[2.5]])

    def test_uqme_tie_in(self):
        p = random_instance(3, 5)
        fact = spectral_factorize(p, SolveOptions(tol=1e-12))
        assert uqme_residual(fact.Y, p) <= 1e-11


class TestNmeResidual:
    def test_exact(self):
        assert nme_residual([[2.0]], SCALAR) <= 1e-15

    def test_nonzero(self):
        assert nme_residual([[2.5]], SCALAR) > 0.0


class TestFactorizationReason:
    """A non-finite matrix keeps the factorization's reason; only one that
    is not positive definite is reported as such."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_iterate(self, bad):
        p = random_instance(1, 6)
        x = np.eye(6, dtype=complex)
        x[2, 3] = bad
        with pytest.raises(SingularMatrix, match="^non-finite input"):
            nme_residual(x, p)

    def test_indefinite_iterate(self):
        p = random_instance(1, 6)
        with pytest.raises(SingularMatrix, match="^NME iterate X is not positive definite$"):
            nme_residual(-np.eye(6), p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_pivot_block(self, bad):
        uk = np.eye(2)
        uk[0, 1] = bad
        with pytest.raises(SingularMatrix, match="^non-finite input"):
            cr_step(CrState(Ak=np.eye(2), Qk=np.eye(2), Uk=uk, k=0))

    def test_indefinite_pivot_block(self):
        state = CrState(Ak=np.eye(2), Qk=np.eye(2), Uk=-np.eye(2), k=0)
        message = "^cyclic-reduction pivot block U_k is singular or not positive definite$"
        with pytest.raises(SingularMatrix, match=message):
            cr_step(state)


class TestUqmeResidual:
    def test_scalar_solution(self):
        assert uqme_residual([[-0.5]], SCALAR) <= 1e-15

    def test_zero_y(self):
        assert uqme_residual(np.zeros((1, 1)), SCALAR) == pytest.approx(1.0)


class TestProblemValidation:
    def test_rejects_singular_q(self):
        with pytest.raises(ValueError):
            NmeProblem(A=np.eye(2), Q=np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("small, definite", [(1e-13, False), (1e-11, True)])
    def test_definiteness_margin(self, small, definite):
        # the smallest Cholesky pivot of Q must reach 1e-12 ||Q||_F
        q = np.diag([1.0, small])
        if definite:
            assert np.array_equal(NmeProblem(A=np.eye(2), Q=q).Q, q)
        else:
            with pytest.raises(ValueError, match="Q must be positive definite"):
                NmeProblem(A=np.eye(2), Q=q)


# Neither equation has a positive definite solution.  The first has the
# indefinite fixed point diag(1, -1.25), which X_2 reaches exactly; the
# second is scalar with x + 4/x = 1, and its iterates turn negative at once.
NO_DEFINITE_SOLUTION = {
    "nilpotent": ([[0.0, 1.5], [0.0, 0.0]], np.eye(2)),
    "scalar": ([[2.0]], [[1.0]]),
}


class TestNoDefiniteSolution:
    """An indefinite iterate proves that no positive definite solution exists:
    every iterate from Q stays above the maximal one.  The solvers raise a
    typed error there, not converged=True at an indefinite X."""

    @pytest.mark.parametrize(
        "solve", [nme_fixed_point_solve, cyclic_reduction_solve], ids=["fixed-point", "cr"]
    )
    @pytest.mark.parametrize("case", sorted(NO_DEFINITE_SOLUTION))
    def test_solver_raises(self, case, solve):
        a, q = NO_DEFINITE_SOLUTION[case]
        with pytest.raises(SingularMatrix, match="not positive definite"):
            solve(NmeProblem(A=a, Q=q))

    @pytest.mark.parametrize("method", ["fixed-point", "cr"])
    @pytest.mark.parametrize("case", sorted(NO_DEFINITE_SOLUTION))
    def test_cli_exits_1(self, tmp_path, capsys, case, method):
        a, q = NO_DEFINITE_SOLUTION[case]
        path = tmp_path / "nme.json"
        matrices = {"A": np.array(a), "Q": np.array(q)}
        save_problem(path, ProblemFile(kind="nme", n=len(a), matrices=matrices))
        assert main(["solve", "--input", str(path), "--method", method]) == 1
        assert "not positive definite" in capsys.readouterr().err
