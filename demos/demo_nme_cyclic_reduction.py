"""Cyclic reduction for the nonlinear matrix equation X + A* X^(-1) A = Q.

The scalar critical instance a = 1, q = 2 has the double root x = 1: the
basic fixed point creeps in with error 1/(k+1) per iterate, while cyclic
reduction still halves the error every step.  The solution also yields the
spectral factorization of the quadratic matrix polynomial
A + Q z + A* z^2 through the companion unilateral equation.
"""

from riccati import (
    NmeProblem,
    SolveOptions,
    cyclic_reduction_solve,
    nme_fixed_point_solve,
    nme_residual,
    spectral_factorize,
    uqme_residual,
)


def main():
    critical = NmeProblem(A=[[1.0]], Q=[[2.0]])
    opts = SolveOptions(tol=1e-10, max_iter=5000)

    basic = nme_fixed_point_solve(critical, opts)
    doubling = cyclic_reduction_solve(critical, SolveOptions(tol=1e-12))

    print("NME  X + A* X^(-1) A = Q,  critical scalar a = 1, q = 2 (double root x = 1)")
    print(f"  fixed point: {basic.iterations:5d} iterations, "
          f"rate estimate {basic.rate_estimate:.4f} (sublinear)")
    print(f"  cyclic red.: {doubling.iterations:5d} iterations, "
          f"rate estimate {doubling.rate_estimate:.4f} (linear, rate 1/2)")
    print(f"  residuals:   fixed point {nme_residual(basic.X, critical):.3e}, "
          f"cyclic reduction {nme_residual(doubling.X, critical):.3e}")

    regular = NmeProblem(A=[[1.0]], Q=[[2.5]])
    fact = spectral_factorize(regular, SolveOptions(tol=1e-14))
    print("\nspectral factorization for a = 1, q = 2.5")
    print(f"  X = {fact.X[0, 0]:.12f}  (maximal solution)")
    print(f"  Y = {fact.Y[0, 0]:.12f}  (minimal unilateral root)")
    print(f"  unilateral residual {uqme_residual(fact.Y, regular):.3e}")


if __name__ == "__main__":
    main()
