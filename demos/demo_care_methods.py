"""Four routes to the continuous algebraic Riccati equation.

All methods target the stabilizing solution of A*X + XA - XGX + Q = 0:
  - SDA after a Cayley transform to an equivalent discrete equation,
  - the matrix sign iteration (plain and determinantally scaled),
  - Newton-Kleinman, each inner Lyapunov solve a Cayley transform to a
    Stein equation followed by squared Smith.
They are compared against an invariant-subspace computation from the
Hamiltonian matrix, which serves as the independent reference.
"""

import numpy as np

from riccati import (
    SignOptions,
    care_residual,
    care_sda_solve,
    hamiltonian,
    newton_care_solve,
    sign_solve,
)
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem
from riccati.oracle import invariant_subspace_solve


def main():
    problem = to_problem(gen_problem(GeneratorSpec(kind="care", n=8, seed=5)))
    x_ref = invariant_subspace_solve(hamiltonian(problem), "left_half_plane")

    results = {
        "sda (Cayley)": care_sda_solve(problem),
        "sign (plain)": sign_solve(problem),
        "sign (determinantal)": sign_solve(problem, SignOptions(scaling="determinantal")),
        "newton (from 0)": newton_care_solve(problem, np.zeros((8, 8))),
    }

    print("CARE  A*X + XA - XGX + Q = 0,  n = 8")
    print(f"  {'method':22s} {'iters':>5s} {'residual':>11s} {'vs reference':>13s}")
    for name, sol in results.items():
        print(f"  {name:22s} {sol.report.iterations:5d} "
              f"{care_residual(sol.X_plus, problem):11.3e} "
              f"{np.linalg.norm(sol.X_plus - x_ref):13.3e}")


if __name__ == "__main__":
    main()
