"""Iteration counts of every CLI (kind, method) cell, pinned.

Each cell runs through the CLI's solver table on a generated instance with
the CLI defaults (tol 1e-12, method-default max_iter).  The expected
(iterations, converged, len(residual_history)) were recorded before the
solvers moved onto the shared iteration driver; lr-adi reports its kept
block count and no residual history.
"""

import pytest

from riccati.cli import SOLVERS, _solve_dispatch
from riccati.generators import GeneratorSpec, gen_problem
from riccati.reporting import SolveOptions

OPTS = SolveOptions(tol=1e-12)

# (kind, method) -> (iterations, converged, len(residual_history)) at n=16, seeds 0-2
COUNTS = {
    ("stein", "smith"): [(110, True, 111), (111, True, 112), (107, True, 108)],
    ("stein", "squared-smith"): [(7, True, 8), (7, True, 8), (7, True, 8)],
    ("lyapunov", "adi"): [(16, True, 17), (16, True, 17), (17, True, 18)],
    ("lyapunov", "lr-adi"): [(35, True, 0), (33, True, 0), (37, True, 0)],
    ("lyapunov", "cayley-smith"): [(5, True, 6), (4, True, 5), (5, True, 6)],
    ("dare", "fixed-point"): [(5, True, 6), (6, True, 7), (8, True, 9)],
    ("dare", "sda"): [(3, True, 4), (3, True, 4), (3, True, 4)],
    ("care", "sda"): [(5, True, 6), (5, True, 6), (5, True, 6)],
    ("care", "sign"): [(6, True, 6), (6, True, 6), (6, True, 6)],
    ("care", "newton"): [(6, True, 7), (6, True, 7), (6, True, 7)],
    ("nme", "fixed-point"): [(6, True, 6), (6, True, 6), (6, True, 6)],
    ("nme", "cr"): [(3, True, 4), (3, True, 4), (3, True, 4)],
}

# critical instances (rho(A) = 1 for Stein, unit-circle roots for the NME) at n=6, seed 0
CRITICAL_COUNTS = {
    ("stein", "smith"): (10000, False, 10001),
    ("stein", "squared-smith"): (38, False, 39),
    ("nme", "fixed-point"): (10000, False, 10000),
    ("nme", "cr"): (19, True, 20),
}


def run(kind, method, n, seed, critical=False):
    pf = gen_problem(GeneratorSpec(kind=kind, n=n, seed=seed, critical=critical))
    report, _ = _solve_dispatch(pf, method, OPTS, None)
    return report


def test_every_cli_cell_is_pinned():
    assert set(COUNTS) == {(kind, method) for kind in SOLVERS for method in SOLVERS[kind]}


@pytest.mark.parametrize("kind, method", sorted(COUNTS))
def test_counts(kind, method):
    for seed, expected in enumerate(COUNTS[kind, method]):
        report = run(kind, method, 16, seed)
        assert (report.iterations, report.converged, len(report.residual_history)) == expected, seed


@pytest.mark.parametrize("kind, method", sorted(CRITICAL_COUNTS))
def test_critical_counts(kind, method):
    report = run(kind, method, 6, 0, critical=True)
    assert (report.iterations, report.converged, len(report.residual_history)) == CRITICAL_COUNTS[
        kind, method
    ]


@pytest.mark.parametrize("kind, method", sorted(COUNTS))
def test_one_time_per_residual(kind, method):
    """Every solver records a time with every residual."""
    report = run(kind, method, 6, 0)
    assert len(report.elapsed_ns) == len(report.residual_history)
