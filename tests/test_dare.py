import numpy as np
import pytest

from riccati import (
    DareProblem,
    DareSolution,
    SolveOptions,
    build_symplectic,
    dare_fixed_point_solve,
    dare_residual,
    sda_solve,
    wiener_hopf_check,
)
from riccati.dare import DoublingState, dare_step, sda_step
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem
from riccati.linalg import psd_check
from riccati.oracle import invariant_subspace_solve

PHI = (1 + np.sqrt(5)) / 2


def random_instance(seed, n):
    return to_problem(gen_problem(GeneratorSpec(kind="dare", n=n, seed=seed)))


def closed_loop_rho(x, p):
    """rho((I + G X)^{-1} A) from numpy's eigenvalues."""
    k = np.linalg.solve(np.eye(p.n) + p.G @ x, p.A)
    return max(abs(np.linalg.eigvals(k)))


class TestDareStep:
    def test_from_zero(self):
        p = DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])
        assert np.allclose(dare_step(np.zeros((1, 1)), p), [[1.0]])

    def test_golden_ratio_fixed_point(self):
        p = DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])
        assert dare_step([[PHI]], p)[0, 0] == pytest.approx(PHI, abs=1e-14)

    def test_a_zero(self):
        q = np.diag([1.0, 2.0])
        p = DareProblem(A=np.zeros((2, 2)), G=np.eye(2), Q=q)
        assert np.allclose(dare_step(np.ones((2, 2)), p), q)


class TestFixedPointSolve:
    def test_scalar_golden_ratio(self):
        sol = dare_fixed_point_solve(DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]]))
        assert sol.report.converged
        assert abs(sol.X_plus[0, 0] - PHI) <= 1e-10
        assert sol.Y_plus is None

    def test_zero_q_gives_zero(self):
        p = DareProblem(A=[[0.5]], G=[[1.0]], Q=[[0.0]])
        sol = dare_fixed_point_solve(p)
        assert sol.report.converged
        assert np.linalg.norm(sol.X_plus) == 0.0

    def test_a_zero_one_iteration(self):
        q = np.diag([1.0, 3.0])
        sol = dare_fixed_point_solve(DareProblem(A=np.zeros((2, 2)), G=np.eye(2), Q=q))
        assert sol.report.iterations == 1
        assert np.allclose(sol.X_plus, q)

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rate_estimate_is_closed_loop_radius_squared(self, n, seed):
        # the error contracts by rho(K)^2 per step, K = (I + G X_plus)^{-1} A
        p = random_instance(seed, n)
        sol = dare_fixed_point_solve(p, SolveOptions(tol=1e-12))
        assert sol.report.converged
        rho = closed_loop_rho(sol.X_plus, p)
        assert sol.report.rate_estimate == pytest.approx(rho**2, rel=0.15)


class TestSdaSolve:
    def test_scalar_golden_ratio_with_dual(self):
        sol = sda_solve(DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]]))
        assert sol.report.converged
        assert sol.report.iterations <= 10
        assert abs(sol.X_plus[0, 0] - PHI) <= 1e-10
        # this instance is self-dual under the A<->A^*, G<->Q swap
        assert abs(sol.Y_plus[0, 0] - PHI) <= 1e-10

    def test_zero_q(self):
        sol = sda_solve(DareProblem(A=[[0.5]], G=[[1.0]], Q=[[0.0]]))
        assert sol.report.converged
        assert np.linalg.norm(sol.X_plus) == 0.0

    def test_doubling_equivalence(self):
        p = random_instance(11, 6)
        x = np.zeros((6, 6))
        for _ in range(8):
            x = dare_step(x, p)
        state = DoublingState(Ak=p.A, Gk=p.G, Qk=p.Q, k=0)
        for _ in range(3):
            state = sda_step(state)
        assert np.linalg.norm(state.Qk - x) <= 1e-9 * np.linalg.norm(x)

    def test_monotone_chains(self):
        p = random_instance(12, 5)
        state = DoublingState(Ak=p.A, Gk=p.G, Qk=p.Q, k=0)
        for _ in range(6):
            nxt = sda_step(state)
            assert psd_check(nxt.Qk - state.Qk, 1e-10)
            assert psd_check(nxt.Gk - state.Gk, 1e-10)
            assert psd_check(nxt.Qk, 1e-10) and psd_check(nxt.Gk, 1e-10)
            state = nxt

    def test_duality_swap(self):
        p = random_instance(13, 4)
        dual = DareProblem(A=p.A.conj().T, G=p.Q, Q=p.G)
        sol = sda_solve(p)
        dual_sol = sda_solve(dual)
        assert np.linalg.norm(sol.X_plus - dual_sol.Y_plus) <= 1e-10 * np.linalg.norm(sol.X_plus)
        assert np.linalg.norm(sol.Y_plus - dual_sol.X_plus) <= 1e-10 * np.linalg.norm(sol.Y_plus)

    def test_stabilizing(self):
        for seed in (1, 2, 3):
            p = random_instance(seed, 5)
            sol = sda_solve(p)
            assert closed_loop_rho(sol.X_plus, p) < 1.0
            assert psd_check(sol.X_plus, 1e-10) and psd_check(sol.Y_plus, 1e-10)

    def test_critical_instance_touches_boundary(self):
        p = to_problem(gen_problem(GeneratorSpec(kind="dare", n=4, seed=5, critical=True)))
        sol = sda_solve(p, SolveOptions(tol=1e-10))
        assert sol.report.converged
        assert abs(closed_loop_rho(sol.X_plus, p) - 1.0) <= 1e-6

    def test_matches_subspace_oracle(self):
        for seed in (21, 22, 23):
            p = random_instance(seed, 6)
            sol = sda_solve(p)
            x = invariant_subspace_solve(build_symplectic(p.A, p.G, p.Q), "inside_unit_circle")
            assert np.linalg.norm(sol.X_plus - x) <= 1e-8 * np.linalg.norm(x)


class TestDareResidual:
    def test_exact_golden_ratio(self):
        p = DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])
        assert dare_residual([[PHI]], p) <= 1e-12

    def test_zero_x(self):
        p = DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])
        assert dare_residual(np.zeros((1, 1)), p) == pytest.approx(1.0)

    def test_a_zero_x_equals_q(self):
        q = np.diag([1.0, 2.0])
        p = DareProblem(A=np.zeros((2, 2)), G=np.eye(2), Q=q)
        assert dare_residual(q, p) == 0.0


class TestWienerHopf:
    def test_scalar_golden_ratio(self):
        p = DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])
        sol = sda_solve(p)
        assert wiener_hopf_check(sol, p) <= 1e-10

    def test_decoupled_case(self):
        p = DareProblem(A=[[0.5]], G=[[0.0]], Q=[[0.0]])
        sol = DareSolution(X_plus=np.zeros((1, 1)), Y_plus=np.zeros((1, 1)), report=sda_solve(p).report)
        assert wiener_hopf_check(sol, p) <= 1e-12

    def test_random_instance(self):
        p = random_instance(31, 4)
        sol = sda_solve(p)
        assert wiener_hopf_check(sol, p) <= 1e-8

    def test_requires_dual(self):
        p = DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])
        sol = dare_fixed_point_solve(p)
        with pytest.raises(ValueError):
            wiener_hopf_check(sol, p)


class TestProblemValidation:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            DareProblem(A=np.eye(2), G=np.diag([1.0, -1.0]), Q=np.eye(2))
