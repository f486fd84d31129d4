"""The shared iteration driver ends overflowing runs through its own guards,
without numpy's overflow warning reaching the caller."""

import warnings

import numpy as np
import pytest

from riccati import CareProblem, SolveOptions, SteinProblem, newton_care_solve, squared_smith_solve
from riccati.errors import InnerSolveFailed


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
