"""Command-line harness: gen / solve / verify / bench.

Exit codes: 0 success (or converged), 2 iteration budget exhausted, 64 usage
error, 1 anything else.  Traces and bench tables are CSV with a header row
and LF line endings; wall-clock columns are informational only.
"""

import argparse
import csv
import sys
import time

import numpy as np

from . import oracle
from .care import (
    SignOptions,
    care_residual,
    care_sda_solve,
    default_cayley_tau,
    hamiltonian,
    newton_care_solve,
    sign_solve,
)
from .dare import DoublingState, build_symplectic, dare_fixed_point_solve, sda_solve, sda_step, wiener_hopf_check
from .errors import OverflowGuard, RegionCountMismatch, RiccatiError
from .generators import GeneratorSpec, gen_problem
from .io import load_problem, save_problem, to_problem
from .lyapunov import ShiftSequence, adi_solve, cayley_to_stein, lr_adi_solve, lyap_residual
from .nme import CrState, cr_step, cyclic_reduction_solve, nme_fixed_point_solve, spectral_factorize, uqme_residual
from .reporting import SolveOptions, SolveReport
from .stein import smith_solve, squared_smith_solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 64


def _shifts(problem, given) -> ShiftSequence:
    """The given shifts, else the single shift default_cayley_tau(A)."""
    return ShiftSequence(tuple(given)) if given else ShiftSequence((default_cayley_tau(problem.norms["A"], problem.n),))


def _last(report):
    """(report, the residual its history ends in): the kind's residual of X."""
    return report, report.residual_history[-1]


def _of_x(report, residual, problem):
    """(report, residual(X, problem)), nan for a non-finite X, for a cell
    whose history holds another quantity."""
    return report, residual(report.X, problem) if np.all(np.isfinite(report.X)) else float("nan")


def _lr_adi(problem, opts, shifts):
    """LR-ADI's report: the Gramian ZZ^* and its kept block count.  It records
    no residual history; the one residual of the Gramian it evaluates is both
    the printed value and its convergence test."""
    factor = lr_adi_solve(problem, _shifts(problem, shifts), opts.resolve_max_iter(50), opts)
    x = factor.gramian()
    final = lyap_residual(x, problem)
    blocks = factor.Z.shape[1] // factor.block_width
    return SolveReport(X=x, converged=final <= opts.tol, iterations=blocks), final


# Every (kind, method) of the CLI as solver(problem, opts, shifts) ->
# (SolveReport, final residual), shifts a list of complex shifts or None.  The
# final residual is the one `solve` prints, the kind's residual of X: `_last`
# reads it off the history, `_of_x` evaluates it for a cell whose history
# holds another quantity (which `--trace` writes as it is).  `bench` pairs the
# first (basic) and last (doubling) method of each kind, newton and sda for
# care.  Solvers and residuals are looked up by name at call time, so patched
# module bindings are the ones called.  Only the Lyapunov cells read shifts.
SOLVERS = {
    "stein": {
        "smith": lambda p, o, s: _last(smith_solve(p, o)),
        "squared-smith": lambda p, o, s: _last(squared_smith_solve(p, o)),
    },
    "lyapunov": {
        "adi": lambda p, o, s: _last(adi_solve(p, _shifts(p, s), o)),
        "lr-adi": _lr_adi,
        "cayley-smith": lambda p, o, s: _of_x(
            squared_smith_solve(cayley_to_stein(p, _shifts(p, s).at(0)), o), lyap_residual, p
        ),
    },
    "dare": {
        "fixed-point": lambda p, o, s: _last(dare_fixed_point_solve(p, o).report),
        "sda": lambda p, o, s: _last(sda_solve(p, o).report),
    },
    "care": {
        "newton": lambda p, o, s: _last(newton_care_solve(p, np.zeros((p.n, p.n)), o).report),
        "sign": lambda p, o, s: _of_x(
            sign_solve(p, SignOptions(scaling="determinantal", tol=o.tol, max_iter=o.max_iter)).report, care_residual, p
        ),
        "sda": lambda p, o, s: _last(care_sda_solve(p, opts=o).report),
    },
    "nme": {
        "fixed-point": lambda p, o, s: _last(nme_fixed_point_solve(p, o)),
        "cr": lambda p, o, s: _last(cyclic_reduction_solve(p, o)),
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_trace(path, history, elapsed):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "residual", "elapsed_ns"])
        for i, (res, ns) in enumerate(zip(history, elapsed)):
            writer.writerow([i, repr(float(res)), int(ns)])


def _solve_dispatch(pf, method: str, opts: SolveOptions, shifts):
    """Run one (kind, method) cell with the given shifts, else the file's;
    returns (report, final_residual)."""
    return SOLVERS[pf.kind][method](to_problem(pf), opts, shifts or pf.shifts)


def cmd_gen(args) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        radius=args.radius,
        interval=tuple(args.interval),
        rank=args.rank,
        critical=args.critical,
    )
    pf = gen_problem(spec)
    save_problem(args.output, pf)
    print(f"wrote {args.kind} instance n={args.n} seed={args.seed} to {args.output}")
    return EXIT_OK


def cmd_solve(args) -> int:
    pf = load_problem(args.input)
    if args.method not in SOLVERS[pf.kind]:
        print(
            f"unknown method {args.method!r} for kind {pf.kind!r}; "
            f"choose from {', '.join(SOLVERS[pf.kind])}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.shifts and pf.kind != "lyapunov":
        print(
            f"--shifts is read only by the lyapunov methods ({', '.join(SOLVERS['lyapunov'])}), "
            f"not by {pf.kind} method {args.method!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    report, final_res = _solve_dispatch(pf, args.method, opts, args.shifts)
    if args.trace:
        _write_trace(args.trace, report.residual_history, report.elapsed_ns)
    print(f"iterations: {report.iterations}")
    print(f"final residual: {final_res:.6e}")
    print(f"converged: {report.converged}")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _verify_checks(pf) -> tuple[list, str | None]:
    """Returns (rows, skip): each row is (name, measured, bound), and skip
    says why a problem above its oracle's size cap was not checked."""
    try:
        problem = to_problem(pf)
    except ValueError:
        if pf.kind != "dare":
            raise
        problem = None  # indefinite data: spectral checks only
    eigen = pf.kind in ("dare", "care")  # stein, lyapunov and nme run under KRON_CAP
    cap = oracle.size_cap(oracle.EIG_CAP if eigen else oracle.KRON_CAP)
    if pf.n > cap:
        which = "EIG_CAP, the eigen-based" if eigen else "KRON_CAP, the Kronecker"
        return [], f"n={pf.n} exceeds {cap} (oracle.{which} oracles' size cap; RICCATI_ORACLE_CAP overrides it)"
    rows: list = []
    opts = SolveOptions(tol=1e-13)
    rel = lambda x, y: float(np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300))

    if pf.kind == "stein":
        x_oracle = oracle.kron_stein_solve(problem)
        report = squared_smith_solve(problem, opts)
        rows.append(("kron-vs-squared-smith", rel(report.X, x_oracle), 1e-9))
    elif pf.kind == "lyapunov":
        x_oracle = oracle.kron_lyap_solve(problem)
        report = adi_solve(problem, _shifts(problem, pf.shifts), SolveOptions(tol=1e-12, max_iter=5000))
        rows.append(("kron-vs-adi", rel(report.X, x_oracle), 1e-7))
    elif pf.kind == "dare":
        # S from the raw matrices, so indefinite-Q instances (like the
        # unit-circle example) still get the spectral checks
        s = build_symplectic(*(pf.matrices[k] for k in ("A", "G", "Q")))
        rows.append(("symplectic-structure", oracle.symplectic_structure_defect(s), 1e-12))
        try:
            subspace_x = oracle.invariant_subspace_solve(s, "inside_unit_circle")
        except RegionCountMismatch:
            subspace_x = None
            eigs = oracle.eigenvalues(s)
            defect = float(np.min(np.abs(np.abs(eigs) - 1.0)))
            rows.append(("region-count-mismatch-unit-circle", defect, 1e-8))
        if problem is not None:
            sol = sda_solve(problem, opts)
            if subspace_x is not None:
                rows.append(("subspace-vs-sda", rel(sol.X_plus, subspace_x), 1e-8))
                rows.append(("wiener-hopf", wiener_hopf_check(sol, problem), 1e-8))
            for k in range(min(sol.report.iterations, 3), -1, -1):
                state = DoublingState(Ak=problem.A, Gk=problem.G, Qk=problem.Q, k=0)
                for _ in range(k):
                    state = sda_step(state)
                try:
                    value = oracle.sda_factorization_check(state, problem)
                except OverflowGuard:
                    continue  # S^{-2^k} not representable; retry a smaller k
                rows.append((f"doubling-factorization-k{k}", value, 1e-7))
                break
    elif pf.kind == "care":
        h = hamiltonian(problem)
        rows.append(("hamiltonian-pairing", oracle.hamiltonian_pairing_defect(h), 1e-6))
        rows.append(("sign-squaring-relation", oracle.sign_relation_check(problem, 1.0, 2), 1e-8))
        sol = care_sda_solve(problem, opts=opts)
        x_oracle = oracle.invariant_subspace_solve(h, "left_half_plane")
        rows.append(("subspace-vs-sda", rel(sol.X_plus, x_oracle), 1e-7))
        sol_sign = sign_solve(problem, SignOptions(scaling="determinantal"))
        rows.append(("sign-vs-sda", rel(sol_sign.X_plus, sol.X_plus), 1e-7))
    else:  # nme
        schur_state = oracle.tridiag_schur_oracle(problem, 4)
        cr_state = cr_step(CrState(Ak=problem.A, Qk=problem.Q, Uk=problem.Q, k=0))
        defect = max(
            rel(schur_state.Ak, cr_state.Ak),
            rel(schur_state.Qk, cr_state.Qk),
            rel(schur_state.Uk, cr_state.Uk),
        )
        rows.append(("tridiag-schur-vs-cr", defect, 1e-10))
        fact = spectral_factorize(problem, opts)
        rows.append(("spectral-factor-uqme", uqme_residual(fact.Y, problem), 1e-8))
    return rows, None


def cmd_verify(args) -> int:
    pf = load_problem(args.input)
    rows, skip = _verify_checks(pf)
    if skip:
        print(f"skip: {skip}")
        return EXIT_OK
    all_pass = True
    for name, value, bound in rows:
        ok = value <= bound
        all_pass &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<36} {value:.3e}  (bound {bound:.0e})")
    return EXIT_OK if all_pass else EXIT_ERROR


def cmd_bench(args) -> int:
    if not args.sizes or min(args.sizes) < 1:
        print("bench: --sizes must be a nonempty list of sizes >= 1", file=sys.stderr)
        return EXIT_USAGE
    methods = list(SOLVERS[args.kind])
    out = open(args.output, "w", newline="\n") if args.output else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "method", "n", "iterations", "final_residual", "wall_ns"])
    opts = SolveOptions(tol=args.tol)
    status = EXIT_OK
    try:
        for n in args.sizes:
            spec = GeneratorSpec(kind=args.kind, n=n, seed=args.seed, radius=args.radius)
            pf = gen_problem(spec)
            for method in (methods[0], methods[-1]):
                t0 = time.perf_counter_ns()
                try:
                    report, final_res = _solve_dispatch(pf, method, opts, None)
                    iters, converged = report.iterations, report.converged
                except RiccatiError:
                    iters, final_res, converged = 0, float("nan"), False
                wall = time.perf_counter_ns() - t0
                if not converged:
                    status = max(status, EXIT_NOT_CONVERGED)
                writer.writerow([args.kind, method, n, iters, repr(float(final_res)), wall])
    finally:
        if out is not sys.stdout:
            out.close()
    return status


def _build_parser() -> _Parser:
    parser = _Parser(prog="riccati", description="Dense matrix-equation solver harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random problem file")
    p_gen.add_argument("--kind", required=True, choices=sorted(SOLVERS))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--radius", type=float, default=0.9)
    p_gen.add_argument("--interval", type=float, nargs=2, default=(0.5, 2.0))
    p_gen.add_argument("--rank", type=int, default=None)
    p_gen.add_argument("--critical", action="store_true")
    p_gen.add_argument("--output", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--method", required=True)
    p_solve.add_argument("--tol", type=float, default=1e-12)
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--shifts", type=complex, nargs="+", default=None)
    p_solve.add_argument("--trace", default=None)

    p_verify = sub.add_parser("verify", help="run oracle cross-checks on a problem file")
    p_verify.add_argument("--input", required=True)

    p_bench = sub.add_parser("bench", help="compare basic vs doubling methods")
    p_bench.add_argument("--kind", required=True, choices=sorted(SOLVERS))
    p_bench.add_argument("--sizes", type=int, nargs="*", default=[])
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--tol", type=float, default=1e-12)
    p_bench.add_argument("--radius", type=float, default=0.9)
    p_bench.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"gen": cmd_gen, "solve": cmd_solve, "verify": cmd_verify, "bench": cmd_bench}[
        args.command
    ]
    try:
        return handler(args)
    except (RiccatiError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
