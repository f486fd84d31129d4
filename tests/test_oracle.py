import numpy as np
import pytest

from riccati import (
    CareProblem,
    DareProblem,
    LyapunovProblem,
    NmeProblem,
    SteinProblem,
    build_symplectic,
    sda_solve,
)
from riccati.dare import DoublingState, sda_step
from riccati.errors import RegionCountMismatch, SingularMatrix
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem
from riccati.nme import CrState, cr_step
from riccati.oracle import (
    SymplecticPair,
    hamiltonian_pairing_defect,
    invariant_subspace_solve,
    kron_lyap_solve,
    kron_stein_solve,
    sda_factorization_check,
    sign_relation_check,
    symplectic_from_dare,
    symplectic_from_nme,
    symplectic_pairing_defect,
    tridiag_schur_oracle,
)

PHI = (1 + np.sqrt(5)) / 2


class TestKronStein:
    def test_scalar(self):
        x = kron_stein_solve(SteinProblem(A=[[0.5]], Q=[[0.75]]))
        assert x[0, 0] == pytest.approx(1.0)

    def test_a_zero(self):
        q = np.diag([1.0, 2.0])
        assert np.allclose(kron_stein_solve(SteinProblem(A=np.zeros((2, 2)), Q=q)), q)

    def test_unit_eigenvalue_singular(self):
        with pytest.raises(SingularMatrix):
            kron_stein_solve(SteinProblem(A=[[1.0]], Q=[[1.0]]))

    def test_cap(self):
        with pytest.raises(ValueError):
            kron_stein_solve(SteinProblem(A=np.zeros((41, 41)), Q=np.eye(41)))


class TestKronLyap:
    def test_scalar(self):
        x = kron_lyap_solve(LyapunovProblem(A=[[-1.0]], Q=[[2.0]]))
        assert x[0, 0] == pytest.approx(1.0)

    def test_zero_q(self):
        p = LyapunovProblem(A=[[-1.0]], Q=[[0.0]])
        assert np.linalg.norm(kron_lyap_solve(p)) == 0.0

    def test_imaginary_eigenvalue_singular(self):
        with pytest.raises(SingularMatrix):
            kron_lyap_solve(LyapunovProblem(A=[[1j]], Q=[[1.0]]))


class TestInvariantSubspace:
    def test_dare_golden_ratio(self):
        p = DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])
        x = invariant_subspace_solve(build_symplectic(p.A, p.G, p.Q), "inside_unit_circle")
        assert abs(x[0, 0] - PHI) <= 1e-10
        assert abs(x[0, 0] - sda_solve(p).X_plus[0, 0]) <= 1e-10

    def test_care_scalar(self):
        h = np.array([[0.0, -1.0], [-1.0, 0.0]])
        x = invariant_subspace_solve(h, "left_half_plane")
        assert x[0, 0] == pytest.approx(1.0)

    def test_unit_circle_mismatch(self):
        # nothing strictly inside the disk when the spectrum sits on it
        a = np.array([[1.0, 3.0], [0.0, 1.0]])
        g = np.ones((2, 2))
        q = np.diag([1.0, -10.0])
        eye, zero = np.eye(2), np.zeros((2, 2))
        s = np.linalg.solve(np.block([[eye, g], [zero, a.T]]), np.block([[a, zero], [-q, eye]]))
        with pytest.raises(RegionCountMismatch):
            invariant_subspace_solve(s, "inside_unit_circle")

    def test_unknown_region(self):
        with pytest.raises(ValueError):
            invariant_subspace_solve(np.eye(2), "everywhere")


class TestSdaFactorizationCheck:
    def golden(self):
        return DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])

    def test_initial_state(self):
        p = self.golden()
        state = DoublingState(Ak=p.A, Gk=p.G, Qk=p.Q, k=0)
        assert sda_factorization_check(state, p) <= 1e-12

    def test_two_steps_scalar(self):
        p = self.golden()
        state = DoublingState(Ak=p.A, Gk=p.G, Qk=p.Q, k=0)
        for _ in range(2):
            state = sda_step(state)
        assert sda_factorization_check(state, p) <= 1e-9

    def test_three_steps_random(self):
        # mild norms keep S^(-8) representable under the overflow guard
        rng = np.random.default_rng(9)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        b = 0.2 * rng.standard_normal((3, 3))
        c = 0.2 * rng.standard_normal((3, 3))
        p = DareProblem(A=0.6 * u, G=b @ b.T, Q=c.T @ c)
        state = DoublingState(Ak=p.A, Gk=p.G, Qk=p.Q, k=0)
        for _ in range(3):
            state = sda_step(state)
        assert sda_factorization_check(state, p) <= 1e-7


class TestSignRelationCheck:
    def test_k_zero(self):
        p = CareProblem(A=[[0.0]], G=[[1.0]], Q=[[1.0]])
        assert sign_relation_check(p, 2.0, 0) <= 1e-12

    def test_scalar_one_step(self):
        p = CareProblem(A=[[0.0]], G=[[1.0]], Q=[[1.0]])
        assert sign_relation_check(p, 2.0, 1) <= 1e-10

    def test_random_two_steps(self):
        p = to_problem(gen_problem(GeneratorSpec(kind="care", n=2, seed=10)))
        assert sign_relation_check(p, 1.0, 2) <= 1e-8


class TestTridiagSchur:
    def test_scalar_hand_values(self):
        state = tridiag_schur_oracle(NmeProblem(A=[[1.0]], Q=[[2.5]]), 4)
        assert state.Ak[0, 0] == pytest.approx(-0.4)
        assert state.Uk[0, 0] == pytest.approx(1.7)
        assert state.Qk[0, 0] == pytest.approx(2.1)

    def test_a_zero(self):
        q = np.diag([1.0, 2.0])
        state = tridiag_schur_oracle(NmeProblem(A=np.zeros((2, 2)), Q=q), 4)
        assert np.linalg.norm(state.Ak) == 0.0
        assert np.allclose(state.Qk, q)

    def test_matches_cr_step(self):
        p = to_problem(gen_problem(GeneratorSpec(kind="nme", n=2, seed=11)))
        schur = tridiag_schur_oracle(p, 8)
        cr = cr_step(CrState(Ak=p.A, Qk=p.Q, Uk=p.Q, k=0))
        for got, want in ((schur.Ak, cr.Ak), (schur.Qk, cr.Qk), (schur.Uk, cr.Uk)):
            assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))

    def test_rejects_bad_m(self):
        p = NmeProblem(A=[[1.0]], Q=[[2.5]])
        for m in (3, 2, 32):
            with pytest.raises(ValueError):
                tridiag_schur_oracle(p, m)


class TestStructure:
    def test_symplectic_pair_validates(self):
        p = to_problem(gen_problem(GeneratorSpec(kind="dare", n=3, seed=12)))
        pair = symplectic_from_dare(p)
        assert symplectic_pairing_defect(pair.S) <= 1e-6

    def test_symplectic_pair_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            SymplecticPair(S=np.diag([2.0, 2.0]), J=np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_nme_symplectic(self):
        p = to_problem(gen_problem(GeneratorSpec(kind="nme", n=2, seed=13)))
        pair = symplectic_from_nme(p)
        assert symplectic_pairing_defect(pair.S) <= 1e-6

    def test_hamiltonian_pairing(self):
        p = to_problem(gen_problem(GeneratorSpec(kind="care", n=4, seed=14)))
        from riccati import hamiltonian

        assert hamiltonian_pairing_defect(hamiltonian(p)) <= 1e-6
