"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import csv
import math
from contextlib import contextmanager

import numpy as np

from riccati import (
    CareProblem,
    DareProblem,
    LyapunovProblem,
    NmeProblem,
    ShiftSequence,
    SignOptions,
    SolveOptions,
    SteinProblem,
    build_symplectic,
    care_sda_solve,
    dare_fixed_point_solve,
    hamiltonian,
    newton_care_solve,
    sda_solve,
    sign_solve,
    smith_solve,
    squared_smith_solve,
    wiener_hopf_check,
)
from riccati.cli import main
from riccati.dare import DoublingState, dare_step, sda_step
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem
from riccati.linalg import psd_check
from riccati.lyapunov import adi_solve
from riccati.nme import CrState, cr_step, nme_fixed_point_solve, nme_step
from riccati.oracle import (
    SymplecticPair,
    hamiltonian_pairing_defect,
    invariant_subspace_solve,
    kron_lyap_solve,
    sda_factorization_check,
    sign_relation_check,
    symplectic_pairing_defect,
    tridiag_schur_oracle,
)
from riccati.stein import smith_step

PHI = (1 + np.sqrt(5)) / 2
NME_CRITICAL = NmeProblem(A=[[1.0]], Q=[[2.0]])


@contextmanager
def criterion(capsys, num: int, desc: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} [FAIL] {desc}")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} [PASS] {desc}")


def rel(x, y):
    return float(np.linalg.norm(np.asarray(x) - np.asarray(y)) / np.linalg.norm(y))


def stein_instance(seed, n):
    return to_problem(gen_problem(GeneratorSpec(kind="stein", n=n, seed=seed, radius=0.9)))


def test_criterion_1_stein_doubling_equivalence(capsys):
    with criterion(capsys, 1, "squared-Smith state equals the 2^k-th Smith iterate"):
        for seed in range(20):
            n = 2 + seed % 9
            p = stein_instance(seed, n)
            x = np.zeros((n, n))
            iterates = {}
            for step in range(1, 17):
                x = smith_step(x, p)
                if step in (2, 4, 8, 16):
                    iterates[step] = x.copy()
            state_a, state_q = p.A.copy(), p.Q.copy()
            for k in range(1, 5):
                state_q = state_q + state_a.conj().T @ state_q @ state_a
                state_a = state_a @ state_a
                ref = iterates[2**k]
                assert np.linalg.norm(state_q - ref) <= 1e-10 * np.linalg.norm(ref)


def test_criterion_2_dare_nme_doubling_equivalence(capsys):
    with criterion(capsys, 2, "SDA and CR states equal the 2^k-th fixed-point iterates"):
        for seed in range(5):
            n = 2 + seed
            p = to_problem(gen_problem(GeneratorSpec(kind="dare", n=n, seed=seed)))
            x = np.zeros((n, n))
            iterates = {}
            for step in range(1, 17):
                x = dare_step(x, p)
                if step in (2, 4, 8, 16):
                    iterates[step] = x.copy()
            state = DoublingState(Ak=p.A, Gk=p.G, Qk=p.Q, k=0)
            for k in range(1, 5):
                state = sda_step(state)
                ref = iterates[2**k]
                assert np.linalg.norm(state.Qk - ref) <= 1e-9 * np.linalg.norm(ref)
        for seed in range(5):
            n = 2 + seed
            p = to_problem(gen_problem(GeneratorSpec(kind="nme", n=n, seed=seed)))
            x = p.Q.copy()
            iterates = {}
            for step in range(2, 17):
                x = nme_step(x, p)
                if step in (2, 4, 8, 16):
                    iterates[step] = x.copy()
            cr = CrState(Ak=p.A, Qk=p.Q, Uk=p.Q, k=0)
            for k in range(1, 5):
                cr = cr_step(cr)
                ref = iterates[2**k]
                assert np.linalg.norm(cr.Qk - ref) <= 1e-9 * np.linalg.norm(ref)


def test_criterion_3_linear_vs_quadratic_counts(capsys, tmp_path):
    with criterion(capsys, 3, "doubling iteration counts are logarithmic in basic counts"):
        p = stein_instance(41, 8)
        basic = smith_solve(p, SolveOptions(tol=1e-12))
        doubled = squared_smith_solve(p, SolveOptions(tol=1e-12))
        assert basic.converged and basic.iterations >= 100
        assert doubled.converged and doubled.iterations <= 10
        out = tmp_path / "bench.csv"
        assert main(["bench", "--kind", "stein", "--sizes", "8", "16", "32",
                     "--seed", "3", "--output", str(out)]) == 0
        cells = {}
        with out.open() as fh:
            for row in csv.DictReader(fh):
                cells.setdefault(row["n"], {})[row["method"]] = int(row["iterations"])
        for n, methods in cells.items():
            assert methods["squared-smith"] <= math.ceil(math.log2(methods["smith"])) + 1


def test_criterion_4_scalar_closed_forms(capsys):
    with criterion(capsys, 4, "scalar closed forms: golden ratio, unit CARE, NME root"):
        dare_p = DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])
        assert abs(dare_fixed_point_solve(dare_p).X_plus[0, 0] - PHI) <= 1e-10
        assert abs(sda_solve(dare_p).X_plus[0, 0] - PHI) <= 1e-10
        care_p = CareProblem(A=[[0.0]], G=[[1.0]], Q=[[1.0]])
        assert abs(care_sda_solve(care_p).X_plus[0, 0] - 1.0) <= 1e-12
        assert abs(sign_solve(care_p).X_plus[0, 0] - 1.0) <= 1e-12
        assert abs(newton_care_solve(care_p, [[2.0]]).X_plus[0, 0] - 1.0) <= 1e-12
        nme_p = NmeProblem(A=[[1.0]], Q=[[2.5]])
        opts = SolveOptions(tol=1e-14)
        assert abs(nme_fixed_point_solve(nme_p, opts).X[0, 0] - 2.0) <= 1e-12
        from riccati import cyclic_reduction_solve

        assert abs(cyclic_reduction_solve(nme_p, opts).X[0, 0] - 2.0) <= 1e-12


def test_criterion_5_unit_circle_example(capsys):
    with criterion(capsys, 5, "unit-circle eigenvalue pair at 0.598 +- 0.801i"):
        a = np.array([[1.0, 3.0], [0.0, 1.0]])
        g = np.ones((2, 2))
        q = np.diag([1.0, -10.0])
        eye, zero = np.eye(2), np.zeros((2, 2))
        s = np.linalg.solve(np.block([[eye, g], [zero, a.T]]), np.block([[a, zero], [-q, eye]]))
        eigs = np.linalg.eigvals(s)
        on_circle = sorted(
            (lam for lam in eigs if abs(abs(lam) - 1.0) <= 1e-8), key=lambda z: z.imag
        )
        assert len(on_circle) == 2
        lo, hi = on_circle
        assert abs(hi - (0.598 + 0.801j)) <= 5e-3
        assert abs(lo - (0.598 - 0.801j)) <= 5e-3


def test_criterion_6_critical_rates(capsys):
    with criterion(capsys, 6, "critical NME: sublinear fixed point, rate-1/2 doubling"):
        x = np.array([[2.0]])
        for k in range(1, 60):
            x = nme_step(x, NME_CRITICAL)
            assert abs((x[0, 0] - 1.0) - 1.0 / (k + 1)) <= 1e-9
        state = CrState(Ak=NME_CRITICAL.A, Qk=NME_CRITICAL.Q, Uk=NME_CRITICAL.Q, k=0)
        errors = []
        for _ in range(9):
            state = cr_step(state)
            errors.append(abs(state.Qk[0, 0] - 1.0))
        ratios = [errors[k] / errors[k - 1] for k in range(3, 9)]
        assert 0.4 <= float(np.mean(ratios)) <= 0.6


def test_criterion_7_care_method_agreement(capsys):
    with criterion(capsys, 7, "CARE methods agree pairwise and with the eigen oracle"):
        for seed in range(10):
            n = 3 + seed
            p = to_problem(gen_problem(GeneratorSpec(kind="care", n=n, seed=seed)))
            x_ref = invariant_subspace_solve(hamiltonian(p), "left_half_plane")
            solutions = [
                care_sda_solve(p).X_plus,
                sign_solve(p).X_plus,
                sign_solve(p, SignOptions(scaling="determinantal")).X_plus,
                newton_care_solve(p, np.zeros((n, n))).X_plus,
            ]
            for x in solutions:
                assert rel(x, x_ref) <= 1e-7
            for i, xi in enumerate(solutions):
                for xj in solutions[i + 1 :]:
                    assert rel(xi, xj) <= 1e-7


def test_criterion_8_structure_preservation(capsys):
    with criterion(capsys, 8, "Hamiltonian/symplectic structure and spectrum pairing"):
        j4 = np.block([[np.zeros((4, 4)), np.eye(4)], [-np.eye(4), np.zeros((4, 4))]])
        for seed in range(3):
            p = to_problem(gen_problem(GeneratorSpec(kind="care", n=4, seed=seed)))
            h = hamiltonian(p)
            for _ in range(8):
                assert np.linalg.norm(j4 @ h + h.conj().T @ j4) <= 1e-8 * np.linalg.norm(h)
                h = (h + np.linalg.inv(h)) / 2
            assert hamiltonian_pairing_defect(hamiltonian(p)) <= 1e-6
        for seed in range(3):
            p = to_problem(gen_problem(GeneratorSpec(kind="dare", n=4, seed=seed)))
            s = build_symplectic(p.A, p.G, p.Q)
            SymplecticPair(S=s, J=j4)  # validates S^*JS = J at 1e-8 relative
            assert symplectic_pairing_defect(s) <= 1e-6


def test_criterion_9_identity_suites(capsys):
    with criterion(capsys, 9, "ADI error, Wiener-Hopf, doubling, sign, Schur identities"):
        # ADI error formula on normal (Hermitian negative definite) A
        rng = np.random.default_rng(51)
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = -(u * rng.uniform(1.0, 10.0, 6)) @ u.T
        c = rng.standard_normal((6, 6))
        lp = LyapunovProblem(A=a, Q=c.T @ c)
        shifts = ShiftSequence((2.0, 4.0, 7.0))
        x = kron_lyap_solve(lp)
        report = adi_solve(lp, shifts, SolveOptions(tol=1e-300, max_iter=3))
        r = np.eye(6)
        for tau in shifts.shifts:
            r = r @ np.linalg.solve(a - np.conj(tau) * np.eye(6), a + tau * np.eye(6))
        assert np.linalg.norm((x - report.X) - r.conj().T @ x @ r) <= 1e-9 * np.linalg.norm(x)
        # Wiener-Hopf reconstruction
        dp = to_problem(gen_problem(GeneratorSpec(kind="dare", n=4, seed=52)))
        assert wiener_hopf_check(sda_solve(dp), dp) <= 1e-8
        # doubling factorization for k <= 3 on a mild-norm instance
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        b = 0.2 * rng.standard_normal((3, 3))
        c = 0.2 * rng.standard_normal((3, 3))
        mild = DareProblem(A=0.6 * u, G=b @ b.T, Q=c.T @ c)
        state = DoublingState(Ak=mild.A, Gk=mild.G, Qk=mild.Q, k=0)
        for _ in range(3):
            state = sda_step(state)
            assert sda_factorization_check(state, mild) <= 1e-7
        # sign/squaring relation for k <= 2
        cp = to_problem(gen_problem(GeneratorSpec(kind="care", n=3, seed=53)))
        for k in (1, 2):
            assert sign_relation_check(cp, 1.0, k) <= 1e-8
        # tridiagonal Schur elimination matches one CR step blockwise
        np_ = to_problem(gen_problem(GeneratorSpec(kind="nme", n=3, seed=54)))
        schur = tridiag_schur_oracle(np_, 8)
        cr = cr_step(CrState(Ak=np_.A, Qk=np_.Q, Uk=np_.Q, k=0))
        for got, want in ((schur.Ak, cr.Ak), (schur.Qk, cr.Qk), (schur.Uk, cr.Uk)):
            assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_criterion_10_monotonicity_suites(capsys):
    with criterion(capsys, 10, "monotone iterate chains in the Loewner order"):
        p = stein_instance(61, 5)
        x = np.zeros((5, 5))
        for _ in range(12):
            xn = smith_step(x, p)
            assert psd_check(xn - x, 1e-10)
            x = xn
        dp = to_problem(gen_problem(GeneratorSpec(kind="dare", n=5, seed=62)))
        state = DoublingState(Ak=dp.A, Gk=dp.G, Qk=dp.Q, k=0)
        for _ in range(6):
            nxt = sda_step(state)
            assert psd_check(nxt.Qk - state.Qk, 1e-10)
            state = nxt
        np_ = to_problem(gen_problem(GeneratorSpec(kind="nme", n=5, seed=63)))
        x = np_.Q.copy()
        for _ in range(12):
            xn = nme_step(x, np_)
            assert psd_check(x - xn, 1e-10)
            x = xn
        cp = to_problem(gen_problem(GeneratorSpec(kind="care", n=4, seed=64)))
        prev = None
        for k in range(2, 8):
            cur = newton_care_solve(
                cp, np.zeros((4, 4)), SolveOptions(tol=1e-300, max_iter=k)
            ).X_plus
            if prev is not None:
                assert psd_check(prev - cur, 1e-10)
            prev = cur
