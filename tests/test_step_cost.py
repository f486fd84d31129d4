"""Each step does its work once: one factorization per matrix, one
evaluation of the fixed-point map per iterate, one Cayley reduction per
ADI shift, one inverse per LR-ADI shift for blocks of n or more columns,
one norm per problem coefficient and per iterate, and no finiteness scan
of an iterate the solver built itself."""

import sys
from collections import Counter

import numpy as np
import pytest

from riccati import (
    DoublingState,
    ShiftSequence,
    SignOptions,
    SolveOptions,
    adi_solve,
    care_sda_solve,
    care_to_dare,
    cayley_to_stein,
    cyclic_reduction_solve,
    dare_fixed_point_solve,
    dare_residual,
    lr_adi_solve,
    newton_care_solve,
    nme_fixed_point_solve,
    nme_residual,
    sda_solve,
    sign_solve,
    smith_solve,
    squared_smith_solve,
    stein_residual,
)
from riccati import cli, dare, linalg, lyapunov, stein
from riccati.dare import dare_step, sda_step
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem
from riccati.lyapunov import cayley_reduce
from riccati.nme import CrState, cr_step, nme_step
from riccati.stein import smith_step


def instance(kind, n=6, seed=1):
    return to_problem(gen_problem(GeneratorSpec(kind=kind, n=n, seed=seed)))


def low_rank_instance(n=6, seed=1, rank=2):
    return to_problem(gen_problem(GeneratorSpec(kind="lyapunov", n=n, seed=seed, rank=rank)))


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counting_everywhere(monkeypatch, name, record=np.shape):
    """Record record(first argument) of each call of linalg.<name>, by
    default its shape, through every riccati module that binds it."""
    calls = []
    original = getattr(linalg, name)

    def wrapper(m, *args):
        calls.append(record(m))
        return original(m, *args)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "riccati" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def lu_calls(monkeypatch):
    """Calls of linalg.lu_factor through every riccati module that binds it."""
    return counting_everywhere(monkeypatch, "lu_factor")


@pytest.fixture
def chol_calls(monkeypatch):
    """Calls of linalg.cholesky_factor through every riccati module that binds it."""
    return counting_everywhere(monkeypatch, "cholesky_factor")


class TestOneFactorizationPerStep:
    def test_sda_step(self, lu_calls):
        p = instance("dare")
        sda_step(DoublingState(Ak=p.A, Gk=p.G, Qk=p.Q, k=0))
        assert lu_calls == [(6, 6)]

    def test_cr_step(self, lu_calls, chol_calls):
        p = instance("nme")
        chol_calls.clear()  # NmeProblem checks the pivots of Q
        cr_step(CrState(Ak=p.A, Qk=p.Q, Uk=p.Q, k=0))
        assert chol_calls == [(6, 6)]
        assert lu_calls == []

    @pytest.mark.parametrize("scaling", ["none", "determinantal"])
    def test_sign_iteration(self, lu_calls, scaling):
        sol = sign_solve(instance("care"), SignOptions(scaling=scaling))
        assert sol.report.converged
        # one factorization of H_k per step; sign_extract factors nothing
        assert lu_calls == [(12, 12)] * sol.report.iterations

    def test_care_to_dare(self, lu_calls):
        # K is factored once; nothing factors or inverts the discrete A
        care_to_dare(instance("care"), 2.0)
        assert lu_calls == [(12, 12)]

    def test_cayley_to_stein(self, lu_calls):
        cayley_to_stein(instance("lyapunov"), 1.5)
        assert lu_calls == [(6, 6)]

    def test_nme_residual(self, lu_calls, chol_calls):
        p = instance("nme")
        chol_calls.clear()
        nme_residual(p.Q, p)
        assert chol_calls == [(6, 6)]
        assert lu_calls == []


class TestWideAppliesUseTheInverse:
    """A step that applies one operator to n or more columns forms the
    inverse from its LU factors (getri) and multiplies: one factorization,
    one inverse and no triangular solve (getrs).  LR-ADI blocks of fewer
    than n columns keep the solve."""

    @pytest.fixture
    def kernels(self, monkeypatch, lu_calls):
        inverse = counting(monkeypatch, linalg.LU, "inverse")
        solve = counting(monkeypatch, linalg.LU, "solve")
        return lambda: (len(lu_calls), len(inverse), len(solve))

    def test_sda_step(self, kernels):
        p = instance("dare")
        sda_step(DoublingState(Ak=p.A, Gk=p.G, Qk=p.Q, k=0))
        assert kernels() == (1, 1, 0)

    def test_cayley_reduce(self, kernels):
        p = instance("lyapunov")
        cayley_reduce(p.A, p.Q, 1.5)
        assert kernels() == (1, 1, 0)

    @pytest.mark.parametrize("shifts", [(1.5,), (1.5, 3.0)])
    def test_lr_adi(self, kernels, shifts):
        # C is n x n: one LU and one inverse per distinct shift; every block,
        # the first one included, is a matrix product
        p = instance("lyapunov")
        factor = lr_adi_solve(p, ShiftSequence(shifts), 50, SolveOptions(tol=1e-12))
        assert factor.block_width == p.n
        assert factor.Z.shape[1] // factor.block_width > 2 * len(shifts)
        assert kernels() == (len(shifts), len(shifts), 0)

    @pytest.mark.parametrize("shifts", [(1.5,), (1.5, 3.0)])
    def test_narrow_lr_adi_blocks_are_solved(self, kernels, shifts):
        # C has 2 < n rows: one LU per distinct shift, no inverse, and one
        # solve per block, the ones past the stopping test included
        p = low_rank_instance()
        k = 200
        factor = lr_adi_solve(p, ShiftSequence(shifts), k, SolveOptions(tol=1e-12))
        blocks = factor.Z.shape[1] // factor.block_width
        assert 2 * len(shifts) < blocks < k
        assert kernels() == (len(shifts), 0, blocks + 1)

    @pytest.mark.parametrize("rank", [None, 2], ids=["wide", "narrow"])
    def test_lr_adi_block_is_the_cayley_transform(self, rank):
        # with one shift, V_j = c(A)^* V_{j-1}, c(A) as `cayley_reduce` forms it
        p = instance("lyapunov") if rank is None else low_rank_instance()
        factor = lr_adi_solve(p, ShiftSequence((1.5,)), 2, SolveOptions(tol=1e-300))
        width = factor.block_width
        v0, v1 = factor.Z[:, :width], factor.Z[:, width : 2 * width]
        c_of_a, _ = cayley_reduce(p.A, p.Q, 1.5)
        expected = c_of_a.conj().T @ v0
        assert np.linalg.norm(v1 - expected) <= 1e-14 * np.linalg.norm(expected)


@pytest.mark.parametrize("kind", ["stein", "lyapunov", "dare", "care", "nme"])
def test_validation_computes_no_eigenvalues(monkeypatch, kind):
    # definiteness is decided by the inertia of an LDL^* factorization
    pf = gen_problem(GeneratorSpec(kind=kind, n=16, seed=0))
    calls = counting(monkeypatch, np.linalg, "eigvalsh")
    to_problem(pf)
    assert calls == []


class TestNewtonBuildsNoProblems:
    def test_no_psd_check(self, monkeypatch):
        # each inner Lyapunov equation is built from a validated problem and
        # is PSD by construction, so no step validates it again
        p = instance("care", n=16, seed=0)
        calls = counting_everywhere(monkeypatch, "psd_check")
        sol = newton_care_solve(p, np.zeros((16, 16)))
        assert sol.report.converged
        assert calls == []


class TestNoUnreadDiagnostics:
    @pytest.mark.parametrize(
        "kind, solve",
        [("dare", sda_solve), ("care", care_sda_solve), ("dare", dare_fixed_point_solve)],
        ids=["sda", "care-sda", "dare-fixed-point"],
    )
    def test_no_spectral_radius_estimate(self, monkeypatch, kind, solve):
        # the closed-loop radius is not computed by any solve: no solve
        # pays the 30 squarings of a spectral-radius estimate
        p = instance(kind)  # the generator scales A by the estimate
        calls = counting_everywhere(monkeypatch, "spectral_radius_estimate")
        assert solve(p).report.converged
        assert calls == []


class TestCoefficientNormsOncePerProblem:
    @pytest.mark.parametrize(
        "kind, solve",
        [
            ("stein", smith_solve),
            ("lyapunov", lambda p: adi_solve(p, ShiftSequence((1.5,)))),
            ("dare", lambda p: dare_fixed_point_solve(p).report),
            ("nme", nme_fixed_point_solve),
            ("care", lambda p: care_sda_solve(p).report),
            ("care", lambda p: newton_care_solve(p, np.zeros((p.n, p.n))).report),
        ],
        ids=["smith", "adi", "dare-fixed-point", "nme-fixed-point", "care-sda", "newton"],
    )
    def test_two_solves(self, monkeypatch, kind, solve):
        # every residual scale reads the norms of the unchanged coefficients,
        # which the problem computes once, not once per iterate; a norm is
        # np.linalg.norm or the package's norm kernel linalg._frobenius
        p = instance(kind, n=16, seed=0)
        stored = [getattr(p, name) for name in ("A", "G", "Q") if hasattr(p, name)]
        counts = [0] * len(stored)
        norm = np.linalg.norm

        def counting_norm(x, *args, **kwargs):
            for i, m in enumerate(stored):
                counts[i] += x is m
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        kernel_calls = counting_everywhere(monkeypatch, "_frobenius", record=lambda x: x)
        reports = [solve(p), solve(p)]
        assert all(r.converged and r.iterations > 1 for r in reports)
        assert kernel_calls
        for i, m in enumerate(stored):
            counts[i] += sum(x is m for x in kernel_calls)
        assert max(counts) <= 1


class TestNoScanPerIterate:
    """Data is checked where it enters (the problem classes); the steps and
    residuals do not scan the iterates a solve builds, so the number of
    np.isfinite calls does not grow with the iteration count."""

    @pytest.mark.parametrize(
        "kind, solve",
        [
            ("stein", smith_solve),
            ("dare", lambda p, o: dare_fixed_point_solve(p, o).report),
            ("nme", nme_fixed_point_solve),
            ("lyapunov", lambda p, o: adi_solve(p, ShiftSequence((1.5,)), o)),
            ("dare", lambda p, o: sda_solve(p, o).report),
            ("nme", cyclic_reduction_solve),
        ],
        ids=["smith", "dare-fixed-point", "nme-fixed-point", "adi", "sda", "cyclic-reduction"],
    )
    def test_isfinite_calls_do_not_grow(self, monkeypatch, kind, solve):
        p = instance(kind)
        calls = counting(monkeypatch, np, "isfinite")
        counts, iterations = [], []
        for budget in (1, 4):
            calls.clear()
            # a tol no iterate meets, so each run spends its budget
            report = solve(p, SolveOptions(tol=1e-300, max_iter=budget))
            counts.append(len(calls))
            iterations.append(report.iterations)
        assert iterations == [1, 4]
        assert counts[0] == counts[1]


class TestOneNormPerIterate:
    """`reporting.iterate` norms each iterate once, and the residual scale, the
    overflow guard and a doubling iteration's floor all read that norm.  A
    norm is np.linalg.norm or the package's norm kernel linalg._frobenius,
    through every riccati module that binds it.

    Sign norms each H_k twice: in `reporting.iterate` and in `lu_factor`'s
    pivot floor.  Left out: cyclic reduction and the NME fixed point,
    because `cholesky_factor`'s pivot floor norms the iterate it factors,
    and Newton, because each inner solution Q_j is normed by the inner
    doubling as its last iterate and by the outer loop as X_{k+1}.  Its
    inner doubling norms A_j once, in its residual.
    """

    @staticmethod
    def most_norms_of_one_array(monkeypatch, run):
        # every normed array is held, so no id is reused
        normed = []
        norm = np.linalg.norm

        def holding_norm(x, *args, **kwargs):
            normed.append(x)
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", holding_norm)
        kernel_calls = counting_everywhere(monkeypatch, "_frobenius", record=lambda x: x)
        report = run()
        assert report.converged and report.iterations > 2
        assert kernel_calls
        return max(Counter(id(x) for x in normed + kernel_calls).values())

    @pytest.mark.parametrize(
        "kind, solve",
        [
            ("stein", smith_solve),
            ("lyapunov", lambda p: adi_solve(p, ShiftSequence((1.5,)))),
            ("dare", lambda p: dare_fixed_point_solve(p).report),
            ("stein", squared_smith_solve),
            ("dare", lambda p: sda_solve(p).report),
            ("care", lambda p: care_sda_solve(p).report),
        ],
        ids=["smith", "adi", "dare-fixed-point", "squared-smith", "sda", "care-sda"],
    )
    def test_no_array_normed_twice(self, monkeypatch, kind, solve):
        p = instance(kind, n=16, seed=0)
        assert self.most_norms_of_one_array(monkeypatch, lambda: solve(p)) == 1

    @pytest.mark.parametrize("scaling", ["none", "determinantal"])
    def test_sign_norms_each_h_k_twice(self, monkeypatch, scaling):
        p = instance("care", n=16, seed=0)
        most = self.most_norms_of_one_array(
            monkeypatch, lambda: sign_solve(p, SignOptions(scaling=scaling)).report
        )
        assert most <= 2


class TestOneReductionPerShift:
    @pytest.mark.parametrize("shifts, reductions", [((1.5,), 1), ((1.5, 3.0), 2)])
    def test_adi(self, monkeypatch, shifts, reductions):
        calls = counting(monkeypatch, lyapunov, "cayley_to_stein")
        report = adi_solve(instance("lyapunov"), ShiftSequence(shifts))
        assert report.converged and report.iterations > 2 * len(shifts)
        assert len(calls) == reductions


class TestOneFinalResidual:
    def test_lr_adi(self, monkeypatch):
        """`solve --method lr-adi` evaluates the residual of its Gramian once,
        for both its converged flag and the printed residual."""
        calls = counting(monkeypatch, cli, "lyap_residual")
        pf = gen_problem(GeneratorSpec(kind="lyapunov", n=32, seed=0))
        report, final = cli._solve_dispatch(pf, "lr-adi", SolveOptions(tol=1e-12), None)
        assert report.converged and final <= 1e-12
        assert len(calls) == 1


class TestOneEvaluationPerIterate:
    """A run that takes k steps evaluates the map k + 1 times: the last
    evaluation gives the residual of the returned iterate."""

    def test_smith(self, monkeypatch):
        calls = counting(monkeypatch, stein, "smith_step")
        report = smith_solve(instance("stein"))
        assert report.converged
        assert len(calls) == report.iterations + 1

    def test_dare_fixed_point(self, monkeypatch):
        calls = counting(monkeypatch, dare, "dare_step")
        sol = dare_fixed_point_solve(instance("dare"))
        assert sol.report.converged
        assert len(calls) == sol.report.iterations + 1

    def test_nme_fixed_point(self, lu_calls, chol_calls):
        p = instance("nme")
        chol_calls.clear()
        report = nme_fixed_point_solve(p)
        assert report.converged
        # X_1 = Q is the first iterate: iterations - 1 steps, plus the
        # factorization that gives the residual of the returned iterate
        assert len(chol_calls) == report.iterations
        assert lu_calls == []


def iterates(step, x, count):
    out = [x]
    for _ in range(count - 1):
        out.append(step(out[-1]))
    return out


def assert_history_matches(history, xs, residual):
    assert len(history) == len(xs)
    for res, x in zip(history, xs):
        assert abs(res - residual(x)) <= 1e-14 * residual(x)


class TestResidualHistory:
    """Each residual_history entry equals the public residual of its iterate."""

    def test_smith(self):
        p = instance("stein")
        report = smith_solve(p)
        xs = iterates(lambda x: smith_step(x, p), np.zeros((6, 6)), report.iterations + 1)
        assert_history_matches(report.residual_history, xs, lambda x: stein_residual(x, p))

    def test_dare_fixed_point(self):
        p = instance("dare")
        report = dare_fixed_point_solve(p).report
        xs = iterates(lambda x: dare_step(x, p), np.zeros((6, 6)), report.iterations + 1)
        assert_history_matches(report.residual_history, xs, lambda x: dare_residual(x, p))

    def test_nme_fixed_point(self):
        p = instance("nme")
        report = nme_fixed_point_solve(p, SolveOptions(tol=1e-14))
        xs = iterates(lambda x: nme_step(x, p), p.Q, report.iterations)
        assert_history_matches(report.residual_history, xs, lambda x: nme_residual(x, p))
