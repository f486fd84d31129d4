"""Structured doubling (SDA) for the discrete algebraic Riccati equation.

The scalar instance A = G = Q = 1 has the golden ratio as its stabilizing
solution, which makes convergence easy to see digit by digit.  The demo also
shows the Wiener-Hopf factorization check that ties the primal and dual
solutions back to the symplectic pencil.
"""

import numpy as np

from riccati import (
    DareProblem,
    dare_fixed_point_solve,
    dare_residual,
    sda_solve,
    wiener_hopf_check,
)
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import to_problem

PHI = (1 + np.sqrt(5)) / 2


def main():
    scalar = DareProblem(A=[[1.0]], G=[[1.0]], Q=[[1.0]])
    basic = dare_fixed_point_solve(scalar)
    doubling = sda_solve(scalar)
    print("DARE  X = Q + A* X (I + G X)^(-1) A,  scalar A = G = Q = 1")
    print(f"  fixed point: {basic.X_plus[0, 0]:.12f} in {basic.report.iterations} iterations")
    print(f"  sda:         {doubling.X_plus[0, 0]:.12f} in {doubling.report.iterations} iterations")
    print(f"  golden ratio {PHI:.12f}")

    problem = to_problem(gen_problem(GeneratorSpec(kind="dare", n=6, seed=52)))
    sol = sda_solve(problem)
    print(f"\nrandom n = 6 instance")
    print(f"  sda converged in {sol.report.iterations} iterations, "
          f"residual {dare_residual(sol.X_plus, problem):.3e}")
    closed_loop = np.linalg.solve(np.eye(problem.n) + problem.G @ sol.X_plus, problem.A)
    print(f"  closed-loop spectral radius {max(abs(np.linalg.eigvals(closed_loop))):.6f}")
    print(f"  Wiener-Hopf factorization defect {wiener_hopf_check(sol, problem):.3e}")


if __name__ == "__main__":
    main()
