"""Every check where data enters the library raises on bad input, with its
own message: one case per check that no other test reaches."""

import numpy as np
import pytest

from riccati import DareProblem, LowRankFactor, LyapunovProblem, ProblemFile, ShiftSequence, lr_adi_solve, to_problem
from riccati.care import sign_extract
from riccati.errors import ParseError
from riccati.linalg import as_matrix, psd_check, spectral_radius_estimate
from riccati.nme import SpectralFactorization
from riccati.oracle import invariant_subspace_solve

I2 = np.eye(2)
LOW_RANK = LyapunovProblem(A=-I2, Q=np.ones((2, 2)), C=np.ones((1, 2)))

CASES = {
    "as_matrix-3d": (lambda: as_matrix(np.zeros((2, 2, 2))), ValueError, "ndim 3"),
    "coefficient-shape": (lambda: DareProblem(A=I2, G=np.eye(3), Q=I2), ValueError, "G must match the shape of A"),
    "psd_check-negative-tol": (lambda: psd_check(I2, tol=-1), ValueError, "tol must be nonnegative"),
    "psd_check-nan-tol": (lambda: psd_check(I2, tol=np.nan), ValueError, "tol must be nonnegative and finite"),
    "psd_check-inf-tol": (lambda: psd_check(-I2, tol=np.inf), ValueError, "tol must be nonnegative and finite"),
    "psd_check-non-square": (lambda: psd_check(np.ones((2, 3))), ValueError, "Hermitian matrices must be square"),
    "spectral-radius-non-square": (
        lambda: spectral_radius_estimate(np.ones((2, 3))),
        ValueError,
        "needs a square matrix",
    ),
    "spectral-radius-no-doubling": (
        lambda: spectral_radius_estimate(I2, max_doublings=0),
        ValueError,
        "max_doublings must be >= 1",
    ),
    "lyapunov-c-columns": (
        lambda: LyapunovProblem(A=-I2, Q=I2, C=np.ones((1, 3))),
        ValueError,
        "C must have as many columns as A",
    ),
    "low-rank-block-width": (
        lambda: LowRankFactor(Z=np.ones((2, 3)), block_width=2),
        ValueError,
        "multiple of block_width",
    ),
    "lr-adi-no-step": (lambda: lr_adi_solve(LOW_RANK, ShiftSequence((1.0,)), 0), ValueError, "k must be >= 1"),
    "sign-extract-odd": (lambda: sign_extract(np.eye(3)), ValueError, "2n x 2n"),
    "sign-extract-non-square": (lambda: sign_extract(np.ones((4, 2))), ValueError, "2n x 2n"),
    "sign-extract-empty": (lambda: sign_extract(np.zeros((0, 0))), ValueError, "2n x 2n"),
    "subspace-odd": (
        lambda: invariant_subspace_solve(np.eye(3), "left_half_plane"),
        ValueError,
        "square 2n x 2n",
    ),
    "problem-file-kind": (lambda: to_problem(ProblemFile(kind="bogus", n=1, matrices={})), ParseError, "unknown kind"),
    # x = 1/2 is the minimal solution of x + 1/x = 5/2, so Y = -A/X = -2
    "spectral-factor-unstable": (
        lambda: SpectralFactorization(X=[[0.5]], Y=[[-2.0]], A=[[1.0]], Q=[[2.5]]),
        ValueError,
        "right factor is not stable",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises(case):
    run, error, message = CASES[case]
    with pytest.raises(error, match=message):
        run()


def test_psd_check_of_empty_matrix():
    assert psd_check(np.zeros((0, 0)))
