"""The shared iteration driver ends overflowing runs through its own guards,
without numpy's overflow warning reaching the caller, and ends every doubling
method on its structural floor when tol is out of reach."""

import warnings

import numpy as np
import pytest

from riccati import (
    CareProblem,
    SolveOptions,
    SteinProblem,
    cyclic_reduction_solve,
    newton_care_solve,
    sda_solve,
    squared_smith_solve,
)
from riccati.errors import InnerSolveFailed
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem


def squared_smith_diverges():
    # rho(A) = 2: the Stein residual overflows before ||X|| passes 1e150
    report = squared_smith_solve(SteinProblem(A=[[2.0]], Q=[[1.0]]), SolveOptions(max_iter=60))
    assert not report.converged


def newton_inner_solve_diverges():
    # c(A - G X_0) = -3: the update norm of the inner doubling overflows
    p = CareProblem(A=[[0.5]], G=[[1.0]], Q=[[1.0]])
    with pytest.raises(InnerSolveFailed):
        newton_care_solve(p, np.zeros((1, 1)))


@pytest.mark.parametrize("run", [squared_smith_diverges, newton_inner_solve_diverges])
def test_overflow_stops_without_numpy_warning(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run()


@pytest.mark.parametrize(
    "kind, solve",
    [
        ("stein", squared_smith_solve),
        ("dare", lambda p, o: sda_solve(p, o).report),
        ("nme", cyclic_reduction_solve),
    ],
    ids=["squared-smith", "sda", "cyclic-reduction"],
)
def test_doubling_ends_on_structural_floor(kind, solve):
    # tol 1e-300 is out of reach: the run stops once ||A_k||^2 or the update
    # falls below the floor, well inside the budget and at the tol-1e-12 X
    p = to_problem(gen_problem(GeneratorSpec(kind=kind, n=6, seed=0)))
    reference = solve(p, SolveOptions(tol=1e-12)).X
    report = solve(p, SolveOptions(tol=1e-300, max_iter=200))
    assert not report.converged
    assert report.iterations < 200
    assert np.linalg.norm(report.X - reference) <= 1e-10 * np.linalg.norm(reference)
