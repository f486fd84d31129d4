"""Workloads of the riccati benchmark: cells, seeded inputs and references.

A cell is one (kind, method) solve on one generated instance.  Library cells
call the package's public solvers; CLI cells run `python -m riccati.cli` as a
child process.  Every output is checked against a reference that shares no
code with the package: scipy's dense Lyapunov and Riccati solvers, or, for
the nonlinear matrix equation, the definition of the maximal solution.

Import this module only after the BLAS thread variables are pinned
(`run.py` does so), because it imports numpy.
"""

import hashlib
import os
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from riccati import care, dare, generators, io, lyapunov, nme, stein
from riccati.reporting import SolveOptions

TOL = 1e-12
OPTS = SolveOptions(tol=TOL)

# Relative Frobenius error allowed against a scipy reference.  The solvers
# stop on a relative residual of TOL; over seeds 0-59 the conditioning of
# these instances turned that into errors of at most 1.4e-10 (Smith) and
# 1.0e-10 (SDA), so 1e-8 leaves room without hiding a wrong solution.
REL_ERR = 1e-8
# The critical NME instance (A = I, Q = 2I, X = I) converges linearly and
# its error is of order sqrt(residual): 1.1e-5 was seen at residual 1e-13.
CRITICAL_REL_ERR = 1e-4
# Bound on rho(X^{-1} A) that certifies the maximal NME solution; the same
# slack as riccati.nme.SpectralFactorization.
NME_RHO_SLACK = 1e-6

LR_ADI_BLOCKS = 50  # the CLI's default block budget for lr-adi


@dataclass
class Outcome:
    X: np.ndarray | None
    iterations: int
    converged: bool


def _shift(problem) -> lyapunov.ShiftSequence:
    # the CLI's default ADI/Cayley shift: max(1, ||A||_F / sqrt(n))
    a = problem.A
    return lyapunov.ShiftSequence((max(1.0, float(np.linalg.norm(a)) / np.sqrt(a.shape[0])),))


def _report(r) -> Outcome:
    return Outcome(r.X, r.iterations, r.converged)


def _solution(sol) -> Outcome:
    return Outcome(sol.X_plus, sol.report.iterations, sol.report.converged)


def _lr_adi(p) -> Outcome:
    # as `riccati solve --method lr-adi` does it: the low-rank factor gives
    # X, and a full dense ADI run follows it
    shifts = _shift(p)
    factor = lyapunov.lr_adi_solve(p, shifts, LR_ADI_BLOCKS, OPTS)
    report = lyapunov.adi_solve(p, shifts, OPTS)
    blocks = factor.Z.shape[1] // factor.block_width
    return Outcome(factor.gramian(), blocks, report.converged)


def _sign_options():
    return care.SignOptions(scaling="determinantal", tol=TOL)


# Solvers are looked up on their modules at call time, so the tracer's
# patched bindings are the ones called.
SOLVERS = {
    "stein.smith": lambda p: _report(stein.smith_solve(p, OPTS)),
    "stein.squared-smith": lambda p: _report(stein.squared_smith_solve(p, OPTS)),
    "lyapunov.adi": lambda p: _report(lyapunov.adi_solve(p, _shift(p), OPTS)),
    "lyapunov.lr-adi": _lr_adi,
    "lyapunov.cayley-smith": lambda p: _report(
        stein.squared_smith_solve(lyapunov.cayley_to_stein(p, _shift(p).at(0)), OPTS)
    ),
    "dare.fixed-point": lambda p: _solution(dare.dare_fixed_point_solve(p, OPTS)),
    "dare.sda": lambda p: _solution(dare.sda_solve(p, OPTS)),
    "care.sda": lambda p: _solution(care.care_sda_solve(p, opts=OPTS)),
    "care.sign": lambda p: _solution(care.sign_solve(p, _sign_options())),
    "care.newton": lambda p: _solution(care.newton_care_solve(p, np.zeros((p.n, p.n)), OPTS)),
    "nme.fixed-point": lambda p: _report(nme.nme_fixed_point_solve(p, OPTS)),
    "nme.cr": lambda p: _report(nme.cyclic_reduction_solve(p, OPTS)),
}


@dataclass(frozen=True)
class CellSpec:
    name: str  # metric prefix, "<kind>.<method>" or "<kind>.<method>-critical"
    kind: str
    method: str
    n: int
    critical: bool = False


def _cell(kind, method, n, critical=False):
    name = f"{kind}.{method}" + ("-critical" if critical else "")
    return CellSpec(name, kind, method, n, critical)


def library_cells(workload: str, small: bool = False) -> list[CellSpec]:
    """Cells of a library workload; `small` shrinks every size for smoke tests."""
    if workload == "doubling-n128":
        n = 6 if small else 128
        cells = [
            _cell("stein", "squared-smith", n),
            _cell("lyapunov", "cayley-smith", n),
            _cell("dare", "sda", n),
            _cell("care", "sda", n),
            _cell("care", "sign", n),
            _cell("nme", "cr", n),
            _cell("nme", "cr", n, critical=True),
        ]
    elif workload == "basic-n32":
        n = 6 if small else 32
        cells = [
            _cell("stein", "smith", n),
            _cell("lyapunov", "adi", n),
            _cell("lyapunov", "lr-adi", n),
            _cell("dare", "fixed-point", n),
            _cell("nme", "fixed-point", n),
            # Newton's inner solve is an O(n^6) Kronecker solve: ~1 s at n=32
            _cell("care", "newton", 4 if small else 16),
        ]
    else:
        raise KeyError(workload)
    return cells


def generate(spec: CellSpec, seed: int):
    """Seeded ProblemFile for one cell (the package's own generator)."""
    return generators.gen_problem(
        generators.GeneratorSpec(kind=spec.kind, n=spec.n, seed=seed, critical=spec.critical)
    )


# ---------------------------------------------------------------- references


def _factor(g: np.ndarray) -> np.ndarray:
    """B with B B^H = G, from an eigendecomposition of the PSD matrix G."""
    w, v = np.linalg.eigh((g + g.conj().T) / 2)
    return v * np.sqrt(np.clip(w, 0.0, None))


def reference(pf) -> np.ndarray | None:
    """Independent solution of the generated instance, or None for the NME,
    whose maximal solution is certified by `check` instead."""
    m = pf.matrices
    a, q = m["A"], m["Q"]
    if pf.kind == "stein":  # X - A^H X A = Q
        return sla.solve_discrete_lyapunov(a.conj().T, q)
    if pf.kind == "lyapunov":  # A^H X + X A + Q = 0
        return sla.solve_continuous_lyapunov(a.conj().T, -q)
    if pf.kind in ("dare", "care"):  # G = B B^H with R = I
        b = _factor(m["G"])
        r = np.eye(b.shape[1])
        solve = sla.solve_discrete_are if pf.kind == "dare" else sla.solve_continuous_are
        return solve(a, b, q, r)
    if pf.metadata.get("critical"):
        return np.eye(pf.n)  # A = I, Q = 2I: the closed form X = I
    return None


def _rel(x, y) -> float:
    return float(np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300))


def check(pf, ref, out: Outcome) -> str | None:
    """None when the outcome is a correct solve, else the reason it is not."""
    if not out.converged:
        return "converged=False"
    x = out.X
    if not np.all(np.isfinite(x)):
        return "non-finite X"
    if ref is not None:
        bound = CRITICAL_REL_ERR if pf.metadata.get("critical") else REL_ERR
        err = _rel(x, ref)
        return None if err <= bound else f"relative error {err:.2e} > {bound:.0e}"
    # NME: X Hermitian positive definite, small residual, rho(X^{-1} A) <= 1
    a, q = pf.matrices["A"], pf.matrices["Q"]
    if _rel(x, x.conj().T) > 1e-10:
        return "X is not Hermitian"
    if np.linalg.eigvalsh((x + x.conj().T) / 2)[0] <= 0:
        return "X is not positive definite"
    y = np.linalg.solve(x, a)
    res = _rel(x + a.conj().T @ y, q)
    if res > 1e-10:
        return f"NME residual {res:.2e} > 1e-10"
    rho = float(np.max(np.abs(np.linalg.eigvals(y))))
    if rho > 1 + NME_RHO_SLACK:
        return f"rho(X^-1 A) = {rho:.8f} > 1 + {NME_RHO_SLACK:.0e}: not the maximal solution"
    return None


# ---------------------------------------------------------------- workloads


@dataclass
class CellResult:
    name: str
    seconds: float
    iterations: int
    error: str | None


@dataclass
class LibraryWorkload:
    """Library calls on generated instances; one pass runs every cell once."""

    cells: list
    seed: int
    problems: list = field(default_factory=list)
    files: list = field(default_factory=list)
    refs: list = field(default_factory=list)

    def setup(self):
        self.files = [generate(c, self.seed) for c in self.cells]
        self.problems = [io.to_problem(pf) for pf in self.files]

    def compute_references(self):
        self.refs = [reference(pf) for pf in self.files]

    def run_pass(self, tracer=None, check_results=True) -> list[CellResult]:
        results = []
        refs = self.refs or [None] * len(self.cells)
        for spec, pf, problem, ref in zip(self.cells, self.files, self.problems, refs):
            solve = SOLVERS[f"{spec.kind}.{spec.method}"]
            if tracer is not None:
                tracer.cell = spec.name
            t0 = time.perf_counter()
            try:
                out = solve(problem)
                error = None
            except Exception as exc:  # a failed cell is counted and listed, not fatal
                out, error = Outcome(None, 0, False), f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            if error is None and check_results:
                error = check(pf, ref, out)
            results.append(CellResult(spec.name, seconds, out.iterations, error))
        if tracer is not None:
            tracer.cell = None
        return results


# CLI workload ---------------------------------------------------------------

CLI_KIND = "dare"
CLI_METHODS = ("sda", "fixed-point")
_OUT_RE = re.compile(r"iterations: (\d+)\nfinal residual: (\S+)\nconverged: (\w+)")


def child_env(root: Path) -> dict:
    """Environment of every child: one BLAS thread and the working tree's src/."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, cwd, stdout_path) -> tuple[int, float, int]:
    """Run one child to completion; returns (exit code, wall seconds, peak RSS in KiB)."""
    with open(stdout_path, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class CliWorkload:
    """`riccati gen` writes a DARE instance, then `riccati solve` reads it once
    per method.  Each call is a fresh interpreter, run one at a time."""

    root: Path
    work: Path
    n: int
    seed: int
    expected: dict = field(default_factory=dict)  # method -> iterations
    file_hash: str | None = None
    peak_rss_kib: int = 0

    @property
    def problem_path(self) -> Path:
        return self.work / f"problem-{self.n}-{self.seed}.json"

    def argv(self, which: str) -> list[str]:
        cli = [sys.executable, "-m", "riccati.cli"]
        if which == "gen":
            return cli + ["gen", "--kind", CLI_KIND, "--n", str(self.n), "--seed", str(self.seed),
                          "--output", str(self.problem_path)]
        return cli + ["solve", "--input", str(self.problem_path), "--method", which, "--tol", repr(TOL)]

    def compute_references(self):
        """Solve the same instance in-process, check it against scipy, and
        keep the iteration counts the CLI has to reproduce."""
        pf = generators.gen_problem(generators.GeneratorSpec(kind=CLI_KIND, n=self.n, seed=self.seed))
        ref = reference(pf)
        problem = io.to_problem(pf)
        for method in CLI_METHODS:
            out = SOLVERS[f"{CLI_KIND}.{method}"](problem)
            error = check(pf, ref, out)
            if error is not None:
                raise RuntimeError(f"in-process dare.{method} at n={self.n} is wrong: {error}")
            self.expected[method] = out.iterations
        return pf

    def check_file(self, pf):
        """The generated file must decode to exactly the in-process instance."""
        loaded = io.load_problem(self.problem_path)
        for name, m in pf.matrices.items():
            if not np.array_equal(loaded.matrices[name], m):
                raise RuntimeError(f"problem file matrix {name} differs from gen_problem")
        self.file_hash = sha256(self.problem_path)

    def _judge(self, which: str, code, text: str, check_results: bool) -> tuple[str | None, int]:
        """(error or None, iterations) of one CLI call from its exit code and output."""
        if code != 0:
            return f"exit code {code}: {text.strip()[-200:]}", 0
        if which == "gen":
            if check_results and self.file_hash is not None and sha256(self.problem_path) != self.file_hash:
                return "problem file is not byte-identical to the first one written", 0
            return None, 0
        match = _OUT_RE.search(text)
        if match is None:
            return f"unparsable output: {text.strip()[-200:]}", 0
        iters, res, conv = int(match[1]), float(match[2]), match[3]
        if conv != "True":
            return "converged=False", iters
        if check_results and (iters != self.expected[which] or not res <= TOL):
            return f"iterations {iters} (expected {self.expected[which]}), residual {res:.2e}", iters
        return None, iters

    @staticmethod
    def cell_name(which: str) -> str:
        return "cli.gen" if which == "gen" else f"{CLI_KIND}.{which}"

    def run_pass(self, check_results=True) -> list[CellResult]:
        """One pass of child processes, as a user runs the CLI."""
        env = child_env(self.root)
        results = []
        for which in ("gen",) + CLI_METHODS:
            log = self.work / f"{which}.out"
            code, seconds, rss = run_child(self.argv(which), env, self.root, log)
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            error, iters = self._judge(which, code, log.read_text(), check_results)
            results.append(CellResult(self.cell_name(which), seconds, iters, error))
        return results

    def run_pass_inprocess(self, tracer=None, check_results=True) -> list[CellResult]:
        """The same pass through `riccati.cli.main` in this process, which the
        tracer can see into."""
        from riccati import cli

        results = []
        for which in ("gen",) + CLI_METHODS:
            name = self.cell_name(which)
            if tracer is not None:
                tracer.cell = name
            buf = StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                code = cli.main(self.argv(which)[3:])
            seconds = time.perf_counter() - t0
            error, iters = self._judge(which, code, buf.getvalue(), check_results)
            results.append(CellResult(name, seconds, iters, error))
        if tracer is not None:
            tracer.cell = None
        return results


class _Probe:
    """Fixed work that shares no code with riccati, timed between passes."""

    samples: list[float]

    def run_once(self) -> float:
        raise NotImplementedError

    def _record(self, seconds: float) -> float:
        self.samples.append(seconds)
        return seconds

    def after_pass(self, pass_seconds: float):
        """Probe at least once, and for at least 5% of the pass's time."""
        spent = self.run_once()
        while spent < 0.05 * pass_seconds:
            spent += self.run_once()


class BlasProbe(_Probe):
    """Fixed BLAS work, timed between the passes of a library workload.

    Other tenants of a shared host slow whole runs down by 10-30% for tens of
    seconds at a time.  Pass time divided by a probe's time in the same run
    keeps a change to riccati and drops most of that drift.  For the library
    workloads the probe is LU, solve and matmul of a complex 128x128 matrix.
    On a 2-vCPU Xeon host, over six runs per workload, it cut the quartile
    spread of the median pass time from 14% to 4% (doubling-n128) and from
    29% to 7% (basic-n32).  An in-process interpreter probe (JSON encoding, a
    Python loop) drifted more than either workload and was dropped.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.m = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.samples: list[float] = []

    def run_once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            lu = sla.lu_factor(self.m)
            sla.lu_solve(lu, self.m)
            self.m @ self.m
        return self._record(time.perf_counter() - t0)


class ImportProbe(_Probe):
    """A fresh interpreter that imports numpy and scipy.linalg, and nothing
    of riccati.

    CLI passes and set-ups are mostly interpreter start-up and imports, which
    the host slows more than BLAS work: between two sets of ten runs, raw
    CLI passes slowed by 25% while the BLAS probe slowed by 12%.  This probe
    does the same kind of work, so it is the yardstick for those.
    """

    def __init__(self, env: dict, cwd: Path, log: Path):
        self.argv = [sys.executable, "-c", "import numpy, scipy.linalg"]
        self.env, self.cwd, self.log = env, cwd, log
        self.samples = []

    def run_once(self) -> float:
        code, seconds, _ = run_child(self.argv, self.env, self.cwd, self.log)
        if code != 0:
            raise RuntimeError(f"import probe failed with code {code}: {self.log.read_text()[-300:]}")
        return self._record(seconds)


def max_rss_self_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
