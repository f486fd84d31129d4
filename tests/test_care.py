import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg

from riccati import (
    CareProblem,
    SignOptions,
    SolveOptions,
    care_residual,
    care_sda_solve,
    care_to_dare,
    hamiltonian,
    newton_care_solve,
    sign_solve,
)
from riccati.care import sign_extract as extract
from riccati.errors import InnerSolveFailed, RankMismatch, SingularShift, SingularU1, StructureLoss
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem
from riccati.linalg import psd_check
from riccati.lyapunov import default_cayley_tau
from riccati.oracle import invariant_subspace_solve


def random_instance(seed, n):
    return to_problem(gen_problem(GeneratorSpec(kind="care", n=n, seed=seed)))


SCALAR = CareProblem(A=[[0.0]], G=[[1.0]], Q=[[1.0]])


class TestCareToDare:
    def test_scalar_hand_values(self):
        d = care_to_dare(SCALAR, 2.0)
        assert d.A[0, 0] == pytest.approx(-0.6)
        assert d.G[0, 0] == pytest.approx(0.8)
        assert d.Q[0, 0] == pytest.approx(0.8)

    def test_singular_discrete_a(self, monkeypatch):
        # at tau = 1 = -lambda for the stable eigenvalue -1 of H, A_d = 0:
        # SDA stops at once on the exact solution, at the first shift tried
        import riccati.care

        d = care_to_dare(SCALAR, 1.0)
        assert np.array_equal(d.A, [[0.0]])
        assert np.allclose([d.G[0, 0], d.Q[0, 0]], [1.0, 1.0], atol=1e-15)
        reduce = riccati.care.care_to_dare
        taus = []

        def record_tau(problem, tau):
            taus.append(tau)
            return reduce(problem, tau)

        monkeypatch.setattr(riccati.care, "care_to_dare", record_tau)
        sol = care_sda_solve(SCALAR)
        assert taus == [1.0]
        assert sol.report.converged and sol.report.iterations == 0
        assert sol.X_plus[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_shift_at_eigenvalue_is_singular_shift(self):
        # H = diag(2, -2) for A = 2, G = Q = 0, so K at tau = 2 is singular
        with pytest.raises(SingularShift):
            care_to_dare(CareProblem(A=[[2.0]], G=[[0.0]], Q=[[0.0]]), 2.0)

    def test_definiteness_loss_is_structure_loss(self):
        # a tiny tau on a badly scaled instance: the reduced G_d is indefinite
        rng = np.random.default_rng(0)
        a = 1e-6 * rng.standard_normal((10, 10))
        b = rng.standard_normal((10, 1))
        c = rng.standard_normal((1, 10))
        p = CareProblem(A=a, G=b @ b.T, Q=1e-6 * c.T @ c)
        with pytest.raises(StructureLoss):
            care_sda_solve(p, tau=1e-6)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_shift_raises(self, tau):
        with pytest.raises(ValueError, match="tau must be positive"):
            care_to_dare(SCALAR, tau)
        with pytest.raises(ValueError, match="tau must be positive"):
            care_sda_solve(SCALAR, tau=tau)

    def test_output_is_hermitian(self):
        p = random_instance(0, 4)
        d = care_to_dare(p, 3.0)
        assert np.allclose(d.G, d.G.conj().T)
        assert np.allclose(d.Q, d.Q.conj().T)

    def test_solution_set_preserved(self):
        d = care_to_dare(SCALAR, 2.0)
        # x=1 solves both the continuous equation and its discrete image
        x = np.array([[1.0]])
        lhs = d.Q + d.A.conj().T @ x @ np.linalg.inv(np.eye(1) + d.G @ x) @ d.A
        assert lhs[0, 0] == pytest.approx(1.0)


class TestCareSdaSolve:
    def test_scalar(self):
        sol = care_sda_solve(SCALAR, tau=2.0)
        assert sol.report.converged
        assert abs(sol.X_plus[0, 0] - 1.0) <= 1e-12

    def test_zero_q_hurwitz(self):
        p = CareProblem(A=[[-1.0]], G=[[1.0]], Q=[[0.0]])
        sol = care_sda_solve(p)
        assert np.linalg.norm(sol.X_plus) <= 1e-12

    def test_heuristic_tau(self):
        sol = care_sda_solve(SCALAR)
        assert sol.report.converged
        assert abs(sol.X_plus[0, 0] - 1.0) <= 1e-10


class TestSignSolve:
    def test_scalar_involutory(self):
        sol = sign_solve(SCALAR)
        assert sol.report.converged
        assert sol.report.iterations == 1
        assert abs(sol.X_plus[0, 0] - 1.0) <= 1e-12

    def test_plain_sign_limit(self):
        # raw iteration on diag(-2, 3), structure aside: limit diag(-1, 1)
        h = np.diag([-2.0, 3.0]).astype(complex)
        for _ in range(8):
            h = (h + np.linalg.inv(h)) / 2
        assert np.allclose(h, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_determinantal_scaling_step_exact(self):
        # scaling by |det|^(1/2n) makes a diag(-2, 2) iterate involutory
        h = np.diag([-2.0, 2.0]).astype(complex)
        tau = abs(np.linalg.det(h)) ** (1 / h.shape[0])
        assert tau == pytest.approx(2.0)
        hs = h / tau
        hn = (hs + np.linalg.inv(hs)) / 2
        assert np.allclose(hn, np.diag([-1.0, 1.0]), atol=1e-14)

    def test_scaling_modes_agree(self):
        p = random_instance(1, 5)
        x_plain = sign_solve(p).X_plus
        x_scaled = sign_solve(p, SignOptions(scaling="determinantal")).X_plus
        assert np.linalg.norm(x_plain - x_scaled) <= 1e-8 * np.linalg.norm(x_plain)

    def test_scaled_converges_faster(self):
        p = random_instance(2, 6)
        plain = sign_solve(p)
        scaled = sign_solve(p, SignOptions(scaling="determinantal"))
        assert scaled.report.iterations <= plain.report.iterations

    def test_iterates_stay_hamiltonian(self):
        p = random_instance(3, 4)
        h = hamiltonian(p)
        j = np.block([[np.zeros((4, 4)), np.eye(4)], [-np.eye(4), np.zeros((4, 4))]])
        for _ in range(6):
            assert np.linalg.norm(j @ h + h.conj().T @ j) <= 1e-8 * np.linalg.norm(h)
            h = (h + np.linalg.inv(h)) / 2

    @pytest.mark.parametrize("scaling", ["none", "determinantal"])
    def test_history_is_relative_step_norms(self, scaling):
        p = random_instance(4, 5)
        report = sign_solve(p, SignOptions(scaling=scaling)).report
        h = hamiltonian(p)
        steps = []
        for _ in range(report.iterations):
            tau = abs(np.linalg.det(h)) ** (1 / h.shape[0]) if scaling == "determinantal" else 1.0
            h_next = (h / tau + tau * np.linalg.inv(h)) / 2
            steps.append(np.linalg.norm(h_next - h) / np.linalg.norm(h))
            h = h_next
        assert report.converged
        assert len(report.residual_history) == report.iterations
        assert np.allclose(report.residual_history, steps, rtol=1e-8, atol=1e-15)

    def test_stagnation_stops_unreachable_tol(self):
        # step norms settle at rounding level, far above tol, and stop the
        # run on stagnation long before the default budget of 100 steps
        p = random_instance(0, 5)
        sol = sign_solve(p, SignOptions(tol=1e-300))
        assert not sol.report.converged
        assert sol.report.iterations < 20
        assert care_residual(sol.X_plus, p) <= 1e-12

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_exhausted_budget_returns_nan_x(self, max_iter):
        # H_k is no sign matrix yet, so there is no X to extract
        sol = sign_solve(random_instance(1, 8), SignOptions(scaling="determinantal", max_iter=max_iter))
        assert (sol.report.converged, sol.report.iterations) == (False, max_iter)
        assert sol.X_plus.shape == (8, 8) and np.all(np.isnan(sol.X_plus))

    def test_converged_run_still_raises(self):
        # H = diag(1, -1) is its own sign, but its stable subspace is e_2,
        # which has no graph form [I; X]
        with pytest.raises(SingularU1):
            sign_solve(CareProblem(A=[[1.0]], G=[[0.0]], Q=[[0.0]]))

    @pytest.mark.parametrize("scaling", ["none", "determinantal"])
    @pytest.mark.parametrize("n", [16, 32])
    def test_loose_tol_still_extracts(self, n, scaling):
        # a relative step of 1e-3 leaves H_k too far from a sign matrix for
        # the rank test in sign_extract, so the stop never gets that loose
        for seed in range(4):
            p = random_instance(seed, n)
            sol = sign_solve(p, SignOptions(scaling=scaling, tol=1e-3))
            x = care_sda_solve(p).X_plus
            assert sol.report.converged
            assert np.linalg.norm(sol.X_plus - x) <= 1e-8 * np.linalg.norm(x)


def near_critical_instance():
    """A = 1e-6 randn(10, 10), G = bb^T, Q = 1e-6 c^T c from
    default_rng(5): the Hamiltonian eigenvalues nearest the imaginary axis
    have |Re lambda| = 1.4e-7 against max |lambda| = 3.6e-3.  Returns the
    problem and scipy's stabilizing solution."""
    rng = np.random.default_rng(5)
    a = 1e-6 * rng.standard_normal((10, 10))
    b = rng.standard_normal((10, 1))
    c = rng.standard_normal((1, 10))
    q = 1e-6 * c.T @ c
    return CareProblem(A=a, G=b @ b.T, Q=q), scipy.linalg.solve_continuous_are(a, b, q, np.eye(1))


def relative_error(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestNearCriticalCare:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: care_sda_solve reports converged=True on a non-stabilizing X",
    )
    def test_care_sda_flags_or_solves(self):
        p, ref = near_critical_instance()
        sol = care_sda_solve(p)
        assert not sol.report.converged or relative_error(sol.X_plus, ref) <= 1e-6

    def test_sign_matches_scipy(self):
        p, ref = near_critical_instance()
        sol = sign_solve(p, SignOptions(scaling="determinantal"))
        assert sol.report.converged
        assert relative_error(sol.X_plus, ref) <= 1e-6


class TestSignOptions:
    def test_is_solve_options(self):
        opts = SignOptions()
        assert isinstance(opts, SolveOptions)
        assert (opts.tol, opts.max_iter, opts.scaling) == (1e-12, None, "none")
        assert [f.name for f in fields(SignOptions)] == ["tol", "max_iter", "scaling"]

    def test_plain_solve_options_means_no_scaling(self):
        plain = sign_solve(SCALAR, SolveOptions())
        unscaled = sign_solve(SCALAR, SignOptions(scaling="none"))
        assert plain.report.converged
        assert abs(plain.X_plus[0, 0] - 1.0) <= 1e-12
        assert np.array_equal(plain.X_plus, unscaled.X_plus)
        assert plain.report.residual_history == unscaled.report.residual_history

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"scaling": "bogus"}, "scaling must be 'none' or 'determinantal'"),
            ({"tol": 0}, "tol must be positive"),
            ({"max_iter": 0}, "max_iter must be >= 1"),
            ({"tol": float("nan")}, "tol must be positive"),
            ({"tol": float("inf")}, "tol must be positive"),
        ],
    )
    def test_invalid_value_raises(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SignOptions(**kwargs)


class TestSignExtract:
    def test_scalar_kernel(self):
        x = extract(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert x[0, 0] == pytest.approx(1.0)

    def test_decoupled(self):
        x = extract(np.diag([-1.0, 1.0]))
        assert x[0, 0] == pytest.approx(0.0)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            extract(np.eye(2))


class TestNewton:
    def test_scalar_first_step(self):
        sol = newton_care_solve(SCALAR, [[2.0]], SolveOptions(max_iter=1, tol=1e-300))
        assert sol.X_plus[0, 0] == pytest.approx(1.25)

    def test_scalar_converges(self):
        sol = newton_care_solve(SCALAR, [[2.0]])
        assert sol.report.converged
        assert abs(sol.X_plus[0, 0] - 1.0) <= 1e-12

    def test_exact_start_converges_immediately(self):
        sol = newton_care_solve(SCALAR, [[1.0]])
        assert sol.report.iterations <= 1
        assert sol.report.residual_history[0] <= 1e-12

    def test_non_stabilizing_start(self):
        p = CareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])
        with pytest.raises(InnerSolveFailed):
            newton_care_solve(p, np.zeros((1, 1)))

    def test_monotone_from_above(self):
        p = random_instance(4, 4)
        x = np.zeros((4, 4))  # generator A is Hurwitz, so zero is stabilizing
        sol = newton_care_solve(p, x, SolveOptions(tol=1e-300, max_iter=8))
        # after the first step the iterates decrease monotonically
        prev = None
        for k in range(2, 9):
            cur = newton_care_solve(p, x, SolveOptions(tol=1e-300, max_iter=k)).X_plus
            if prev is not None:
                assert psd_check(prev - cur, 1e-8)
            prev = cur


class TestCareResidual:
    def test_exact(self):
        assert care_residual([[1.0]], SCALAR) <= 1e-15

    def test_zero_x(self):
        assert care_residual(np.zeros((1, 1)), SCALAR) == pytest.approx(1.0)

    def test_hand_value(self):
        assert care_residual([[2.0]], SCALAR) == pytest.approx(0.6)


class TestMethodAgreement:
    def test_all_methods_and_oracle(self):
        for seed in (5, 6, 7):
            p = random_instance(seed, 6)
            x_ref = invariant_subspace_solve(hamiltonian(p), "left_half_plane")
            candidates = [
                care_sda_solve(p).X_plus,
                sign_solve(p).X_plus,
                sign_solve(p, SignOptions(scaling="determinantal")).X_plus,
                newton_care_solve(p, np.zeros((6, 6))).X_plus,
            ]
            for x in candidates:
                assert np.linalg.norm(x - x_ref) <= 1e-7 * np.linalg.norm(x_ref)


class TestNewtonKleinman:
    def test_unstable_closed_loop_start(self):
        # the shift tau = 1 is regular, but c(A - G X_0) = c(0.5) = -3
        p = CareProblem(A=[[0.5]], G=[[1.0]], Q=[[1.0]])
        with pytest.raises(InnerSolveFailed):
            newton_care_solve(p, np.zeros((1, 1)))

    def test_imaginary_axis_closed_loop_fails_at_once(self):
        # A has eigenvalues +-i, so c(A) is unitary and ||c(A)^(2^j)||_F = sqrt(2)
        # for every j: the inner doubling stagnates after one step
        p = CareProblem(A=[[0.0, 1.0], [-1.0, 0.0]], G=np.zeros((2, 2)), Q=np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InnerSolveFailed, match=r"after 1 doublings"):
                newton_care_solve(p, np.zeros((2, 2)))

    def test_unstable_closed_loop_with_zero_rhs(self):
        # G = Q = 0: the reduced right-hand side is 0, so ||Q_j|| never grows
        # and only ||c(A)^(2^j)|| overflowing ends the inner doubling
        p = CareProblem(A=[[2.0, 1.0], [0.0, 3.0]], G=np.zeros((2, 2)), Q=np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InnerSolveFailed, match=r"not Hurwitz"):
                newton_care_solve(p, np.eye(2))

    def test_inner_stop_ignores_outer_tol(self):
        # a loose outer tol must not loosen the inner solves: one Newton step
        # from 0 equals the Lyapunov solution of (A, Q) to rounding
        p = random_instance(3, 8)
        x1 = newton_care_solve(p, np.zeros((8, 8)), SolveOptions(tol=1e-2, max_iter=1)).X_plus
        scale = np.linalg.norm(p.Q) + 2 * np.linalg.norm(p.A) * np.linalg.norm(x1)
        assert np.linalg.norm(p.A.conj().T @ x1 + x1 @ p.A + p.Q) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [48, 64, 128])
    def test_matches_scipy_above_oracle_cap(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) / np.sqrt(n)
        # shift so the rightmost eigenvalue sits at -0.1: X_0 = 0 stabilizes
        a = m - (np.max(np.linalg.eigvals(m).real) + 0.1) * np.eye(n)
        b = rng.standard_normal((n, n // 4))
        c = rng.standard_normal((n // 2, n))
        p = CareProblem(A=a, G=b @ b.T, Q=c.T @ c)
        # the closed loop is near critical, so the error is about 1e4 times
        # the residual: solve to 1e-14 to compare at 1e-10
        sol = newton_care_solve(p, np.zeros((n, n)), SolveOptions(tol=1e-14))
        x_ref = scipy.linalg.solve_continuous_are(a, b, c.T @ c, np.eye(n // 4))
        assert sol.report.converged
        assert np.linalg.norm(sol.X_plus - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert np.max(np.linalg.eigvals(a - p.G @ sol.X_plus).real) < 0


class TestCareSdaRetry:
    def test_structure_loss_retries_doubled_tau(self, monkeypatch):
        import riccati.care

        reduce = riccati.care.care_to_dare
        base = default_cayley_tau(SCALAR.norms["A"], SCALAR.n)
        taus = []

        def lose_definiteness_at_base(problem, tau):
            taus.append(tau)
            if tau == base:
                raise StructureLoss("injected")
            return reduce(problem, tau)

        monkeypatch.setattr(riccati.care, "care_to_dare", lose_definiteness_at_base)
        sol = care_sda_solve(SCALAR)
        assert taus == [base, 2 * base]
        assert sol.report.converged
        assert abs(sol.X_plus[0, 0] - 1.0) <= 1e-10
