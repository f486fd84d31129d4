#!/usr/bin/env python3
"""Benchmark of the riccati package, one workload per run.

    python3 perfbench/run.py --workload doubling-n128 --seed 1 --seconds 20 --trace 0

Workloads (README.md says why each exists):

  doubling-n128  the doubling solvers as library calls at n=128
  basic-n32      the basic iterations as library calls at n=32
  cli-dare-n192  `python -m riccati.cli`: gen, then two solves of that file

Load is closed-loop from one process with one BLAS thread; CLI calls run as
child processes one at a time.  `--trace 0` measures the end-to-end metrics
with no tracing; pass times are reported as multiples of a fixed probe timed
in the same run, and set-up time is scaled by one (cells.BlasProbe and
cells.ImportProbe say why).  `--trace 1` wraps the public functions of every riccati
module and reports per-layer metrics.  Every result is checked against an
independent reference.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are
readable details.  The package is imported from the working tree's src/, and
the run exits with code 2 and no result when that tree is missing.
"""

import os

# one BLAS thread, set before numpy is first imported; children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("doubling-n128", "basic-n32", "cli-dare-n192")
CLI_N, CLI_N_SMOKE = 192, 8
SETUP_REPEATS = 3  # fresh-process set-ups per run; setup_s is their median
# setup_s is set-up time in units of the import probe run just before it,
# times this constant, so that it reads as seconds on a host where a fresh
# `import numpy, scipy.linalg` takes 0.5 s.  The result line has to carry
# set-up time as `setup_s` in seconds; the raw seconds are in the record
# (`setup_raw_s.p50`, `setup_s.samples`).
SETUP_REF_S = 0.5
MIN_PASSES = 3

END_TO_END = {
    "pass_rel.p50": "probe",
    "pass_rel.tail": "probe",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LIBRARY_CELLS = (
    "stein.smith",
    "stein.squared-smith",
    "lyapunov.adi",
    "lyapunov.lr-adi",
    "lyapunov.cayley-smith",
    "dare.fixed-point",
    "dare.sda",
    "care.sda",
    "care.sign",
    "care.newton",
    "nme.fixed-point",
    "nme.cr",
    "nme.cr-critical",
)
# Per-layer metrics of the result line, the same on every workload.  Counts
# are listed even where a workload never enters their layer: an exact 0 is
# what was measured.  A time that would read exactly 0 on every run of some
# workload (io.save_s, io.load_s, cli.self_s, per-cell solve_s,
# oracle.kron_lyap_solve.s) is not listed, because the result line must not
# carry a time that reads the same on every run; those are in the readable
# lines and the run record instead.
PER_LAYER = {
    "cli.import_s": "s",
    "generators.gen_problem_s": "s",
    "io.to_problem_s": "s",
    "io.bytes_written": "bytes",
    "solve.step_s": "s",
    "solve.residual_s": "s",
    "solve.post_s": "s",
    "solve.self_s": "s",
    "solve.residual_calls_per_iter": "ratio",
    "linalg.solve_linear.calls": "count",
    "linalg.solve_linear.s": "s",
    "linalg.solve_linear.flops": "flop",
    "linalg.psd_check.calls": "count",
    "linalg.psd_check.s": "s",
    "linalg.spectral_radius_estimate.s": "s",
    "linalg.min_pivot.calls": "count",
    "oracle.kron_lyap_solve.calls": "count",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_ratio": "ratio",
    **{f"{cell}.iterations": "count" for cell in LIBRARY_CELLS},
}
EXACT = {"io.bytes_written", "linalg.solve_linear.calls", "linalg.solve_linear.flops",
         "linalg.psd_check.calls", "linalg.min_pivot.calls", "oracle.kron_lyap_solve.calls"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest sizes and one set-up, for the schema test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Bench:
    def __init__(self, args):
        import cells

        self.cells = cells
        self.args = args
        self.smoke = args.smoke
        self.repeats = 1 if args.smoke else SETUP_REPEATS
        # a smoke run traces two passes, so that exact counts can be compared
        self.min_passes = 1 + args.trace if args.smoke else MIN_PASSES
        self.work = OUT / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = cells.child_env(ROOT)

    # ------------------------------------------------------------ workloads

    @property
    def is_cli(self) -> bool:
        return self.args.workload.startswith("cli-")

    def make_workload(self):
        c, seed = self.cells, self.args.seed % 2**64
        if self.is_cli:
            return c.CliWorkload(ROOT, self.work, CLI_N_SMOKE if self.smoke else CLI_N, seed)
        return c.LibraryWorkload(c.library_cells(self.args.workload, self.smoke), seed)

    def prepare(self, wl, inprocess=False):
        """References (untimed), a checked warm-up pass, and the CLI file check."""
        if self.is_cli:
            pf = wl.compute_references()
            (wl.run_pass_inprocess if inprocess else wl.run_pass)()
            wl.check_file(pf)
        else:
            wl.compute_references()
            wl.run_pass()

    def setup_once(self):
        """What a fresh process pays before its first timed pass: import,
        problem generation and one warm-up pass (unchecked)."""
        wl = self.make_workload()
        if not self.is_cli:
            wl.setup()
        wl.run_pass(check_results=False)

    def child(self, argv, label):
        code, seconds, _ = self.cells.run_child(argv, self.env, ROOT, self.work / f"{label}.out")
        if code != 0:
            text = (self.work / f"{label}.out").read_text()[-500:]
            raise RuntimeError(f"{label} child failed with code {code}: {text}")
        return seconds

    def import_probe(self):
        return self.cells.ImportProbe(self.env, ROOT, self.work / "import-probe.out")

    def measure_setup(self) -> tuple[list[float], list[float]]:
        """Fresh-process set-ups, each right after an import probe."""
        argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--seconds", "0"] + (["--smoke"] if self.smoke else [])
        probe, setups = self.import_probe(), []
        for _ in range(self.repeats):
            probe.run_once()
            setups.append(self.child(argv, "setup"))
        return setups, probe.samples

    def import_child(self) -> float:
        """Seconds of a child that imports riccati.cli; fails unless it is src/'s."""
        code = "import riccati.cli, sys; sys.stdout.write(riccati.cli.__file__)"
        seconds = self.child([sys.executable, "-c", code], "import")
        where = Path((self.work / "import.out").read_text().strip())
        if SRC not in where.resolve().parents:
            raise RuntimeError(f"children import riccati from {where}, not from {SRC}")
        return seconds

    def measure_import(self) -> float:
        """Fresh `import riccati.cli` minus a bare interpreter, medians."""
        bare, full = [], []
        for _ in range(self.repeats):
            bare.append(self.child([sys.executable, "-c", "pass"], "bare"))
            full.append(self.import_child())
        return statistics.median(full) - statistics.median(bare)

    # ------------------------------------------------------------ end to end

    def end_to_end(self):
        setup, setup_probe = self.measure_setup()
        if self.is_cli:
            self.import_child()
        wl = self.make_workload()
        if not self.is_cli:
            wl.setup()
        self.prepare(wl)
        probe = self.import_probe() if self.is_cli else self.cells.BlasProbe()
        passes, outcomes = self._loop(lambda: wl.run_pass(), probe)
        rss_kib = wl.peak_rss_kib if self.is_cli else self.cells.max_rss_self_kib()
        p50, (tail, tail_pct, beyond) = statistics.median(passes), tail_of(passes)
        probe_s = statistics.median(probe.samples)
        metrics = {
            "pass_rel.p50": p50 / probe_s,
            "pass_rel.tail": tail / probe_s,
            "ok_ratio": None,  # filled from outcomes below
            "setup_s": SETUP_REF_S * statistics.median(s / p for s, p in zip(setup, setup_probe)),
            "peak_rss_mb": rss_kib / 1024,
        }
        details = {
            "pass_s.p50": p50,
            "pass_s.tail": tail,
            "probe": type(probe).__name__,
            "probe_s.p50": probe_s,
            "probe_samples": len(probe.samples),
            "setup_raw_s.p50": statistics.median(setup),
            "setup_probe_s.samples": setup_probe,
            "passes": len(passes),
            "pass_s.samples": passes,
            "pass_s.tail.percentile": tail_pct,
            "pass_s.tail.samples_beyond": beyond,
            "setup_s.samples": setup,
            "peak_rss.of": "CLI children (largest)" if self.is_cli else "benchmark process",
            "cell_s.p50": {
                name: statistics.median(r.seconds for r in outcomes if r.name == name)
                for name in dict.fromkeys(r.name for r in outcomes)
            },
            "cell_iterations": {r.name: r.iterations for r in outcomes},
        }
        return metrics, END_TO_END, details, outcomes

    def _loop(self, run_pass, probe=None):
        passes, outcomes = [], []
        deadline = time.perf_counter() + self.args.seconds
        while len(passes) < self.min_passes or time.perf_counter() < deadline:
            results = run_pass()
            passes.append(sum(r.seconds for r in results))
            outcomes.extend(results)
            if probe is not None:
                probe.after_pass(passes[-1])
        return passes, outcomes

    # ------------------------------------------------------------ traced

    def traced(self):
        from tracing import Tracer, analyse

        import_s = self.measure_import()
        tracer = Tracer()
        wl = self.make_workload()
        setup_layers = {"generators.gen_problem_s": [], "io.to_problem_s": []}
        if not self.is_cli:
            for _ in range(self.repeats):
                lo = tracer.mark()
                tracer.install()
                try:
                    wl.setup()
                finally:
                    tracer.remove()
                totals = analyse(tracer, lo, tracer.mark())["totals"]
                setup_layers["generators.gen_problem_s"].append(totals.get("generators.gen_problem", 0.0))
                setup_layers["io.to_problem_s"].append(totals.get("io.to_problem", 0.0))
        self.prepare(wl, inprocess=True)
        run_pass = wl.run_pass_inprocess if self.is_cli else wl.run_pass

        untraced, traced, per_pass = [], [], []

        def one_pair():
            # an untraced and a traced pass, alternating, so both see the same host
            results = run_pass()
            untraced.append(sum(r.seconds for r in results))
            lo = tracer.mark()
            tracer.install()
            try:
                traced_results = run_pass(tracer)
            finally:
                tracer.remove()
            seconds = sum(r.seconds for r in traced_results)
            traced.append(seconds)
            per_pass.append(self._layer_values(analyse(tracer, lo, tracer.mark()), traced_results, seconds, wl))
            return results + traced_results

        _, outcomes = self._loop(one_pair)
        tracer.write(OUT / f"spans-{self.args.workload}-seed{self.args.seed}.csv")

        values, unstable = {}, []
        for key in sorted(set().union(*per_pass)):
            samples = [v.get(key, 0) for v in per_pass]
            values[key] = statistics.median(samples)
            exact = key in EXACT or key.endswith(".iterations")
            if exact and len(set(samples)) > 1:
                unstable.append(key)
        for key, samples in setup_layers.items():
            if samples:
                values[key] = statistics.median(samples)
        values["cli.import_s"] = import_s
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        values["trace.self_sum_ratio"] = statistics.median(v["trace.self_sum_ratio"] for v in per_pass)
        metrics = {key: values.get(key, 0) for key in PER_LAYER}
        details = {
            "traced_passes": len(traced),
            "untraced_pass_s.p50": statistics.median(untraced),
            "traced_pass_s.p50": statistics.median(traced),
            "counts_repeat_exactly": not unstable,
            "counts_that_varied": unstable,
            "all_layer_values": values,
        }
        return metrics, PER_LAYER, details, outcomes

    def _layer_values(self, a, results, seconds, wl) -> dict:
        totals, calls, cat = a["totals"], a["calls"], a["by_category"]
        iterations = sum(r.iterations for r in results)
        v = {
            "solve.step_s": cat.get("step", 0.0),
            "solve.residual_s": cat.get("residual", 0.0),
            "solve.post_s": cat.get("post", 0.0),
            "solve.self_s": cat.get("loop", 0.0),
            "solve.residual_calls_per_iter": a["residual_calls"] / max(iterations, 1),
            "linalg.solve_linear.calls": calls.get("linalg.solve_linear", 0),
            "linalg.solve_linear.s": totals.get("linalg.solve_linear", 0.0),
            "linalg.solve_linear.flops": a["flops"],
            "linalg.psd_check.calls": calls.get("linalg.psd_check", 0),
            "linalg.psd_check.s": totals.get("linalg.psd_check", 0.0),
            "linalg.spectral_radius_estimate.s": totals.get("linalg.spectral_radius_estimate", 0.0),
            "linalg.min_pivot.calls": calls.get("linalg.min_pivot", 0),
            "oracle.kron_lyap_solve.calls": calls.get("oracle.kron_lyap_solve", 0),
            "oracle.kron_lyap_solve.s": totals.get("oracle.kron_lyap_solve", 0.0),
            "trace.self_sum_ratio": a["self_total"] / seconds,
        }
        for layer, self_s in a["by_layer"].items():
            v[f"{layer}.self_s"] = self_s
        if self.is_cli:
            v["generators.gen_problem_s"] = totals.get("generators.gen_problem", 0.0)
            v["io.to_problem_s"] = totals.get("io.to_problem", 0.0)
            v["io.save_s"] = totals.get("io.save_problem", 0.0)
            v["io.load_s"] = totals.get("io.load_problem", 0.0)
            v["io.bytes_written"] = wl.problem_path.stat().st_size
        for r in results:
            v[f"{r.name}.solve_s"] = r.seconds
            if r.name != "cli.gen":
                v[f"{r.name}.iterations"] = r.iterations
        return v


def tail_of(samples):
    """(value, percentile, samples beyond it) of the highest percentile with
    at least ten samples above it.  A run of n < 21 samples leaves
    (n - 1) // 2 above it instead of ten, and says so through `samples
    beyond`: with 6 passes the tail is the 4th sample, p66.7."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(10, (n - 1) // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def environment() -> dict:
    import numpy
    import scipy

    import riccati

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "riccati": str(Path(riccati.__file__).relative_to(ROOT)),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "riccati" / "__init__.py").is_file():
        print(f"error: {SRC / 'riccati'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import riccati

    if SRC not in Path(riccati.__file__).resolve().parents:
        print(f"error: riccati was imported from {riccati.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args)
    if args.setup_only:
        bench.setup_once()
        return 0

    header = environment()
    for key, value in header.items():
        print(f"# {key}: {value}")
    metrics, units, details, outcomes = bench.traced() if args.trace else bench.end_to_end()
    attempted = len(outcomes)
    failures = [r for r in outcomes if r.error is not None]
    if "ok_ratio" in metrics:
        metrics["ok_ratio"] = (attempted - len(failures)) / attempted
    details["fail_ratio"] = f"{len(failures)}/{attempted}"
    details["failing_cells"] = sorted({f"{r.name}: {r.error}" for r in failures})

    for key, value in metrics.items():
        print(f"{key:<40} {value:>14.6g} {units[key]}")
    for key, value in details.items():
        if key not in ("all_layer_values", "pass_s.samples"):
            print(f"# {key}: {value}")
    for key, value in details.get("all_layer_values", {}).items():
        if key not in metrics:
            print(f"  {key:<38} {value:>14.6g}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": header, "metrics": metrics, "details": details}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
