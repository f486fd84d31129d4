import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riccati
from riccati.care import care_residual
from riccati.cli import SOLVERS, _solve_dispatch, main
from riccati.dare import dare_residual
from riccati.errors import InvalidSpec, ParseError, RiccatiError
from riccati.generators import GeneratorSpec, gen_problem
from riccati.io import ProblemFile, load_problem, save_problem, to_problem
from riccati.lyapunov import lyap_residual
from riccati.nme import nme_residual
from riccati.reporting import SolveOptions
from riccati.stein import stein_residual


class TestProblemFileIO:
    def test_round_trip(self, tmp_path):
        pf = gen_problem(GeneratorSpec(kind="dare", n=3, seed=1))
        path = tmp_path / "p.json"
        save_problem(path, pf)
        loaded = load_problem(path)
        assert loaded.kind == pf.kind and loaded.n == pf.n
        for name in pf.matrices:
            assert np.array_equal(loaded.matrices[name], pf.matrices[name])
        # second pass is byte-identical
        path2 = tmp_path / "p2.json"
        save_problem(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "stein", "n": 2,')
        with pytest.raises(ParseError):
            load_problem(path)

    def test_missing_matrix_named(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"kind": "stein", "n": 1, "matrices": {"A": [[[0.5, 0.0]]]}}))
        with pytest.raises(ParseError, match="Q"):
            load_problem(path)

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"shifts": [1.0]}, "shifts"),
            ({"shifts": [[1.0, 0.0, 2.0]]}, "shifts"),
            ({"matrices": []}, "matrices"),
            ({"format": 2}, "matrix 'A' must be an object"),
            ({"matrices": {"A": [[-1.0]], "Q": [[[1.0, 0.0]]]}}, "matrix 'A' is not a nested array"),
        ],
    )
    def test_malformed_field_named(self, tmp_path, fields, named):
        doc = {"kind": "lyapunov", "n": 1, "matrices": {"A": [[[-1.0, 0.0]]], "Q": [[[1.0, 0.0]]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, **fields}))
        with pytest.raises(ParseError, match=named):
            load_problem(path)

    @pytest.mark.parametrize(
        "doc, named",
        [
            ([1, 2], "top level must be an object"),
            ({"kind": "stein", "n": 1}, "missing field 'matrices'"),
        ],
        ids=["not-an-object", "missing-field"],
    )
    def test_malformed_document_named(self, tmp_path, doc, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=named):
            load_problem(path)

    @pytest.mark.parametrize(
        "kind, matrices, named",
        [
            ("stein", {"A": [0.5], "Q": [[1.0]]}, "'A' is not two-dimensional"),
            ("stein", {"A": [[0.5, 0.0]], "Q": [[1.0]]}, r"'A' has shape \(1, 2\)"),
            ("lyapunov", {"A": [[-1.0]], "Q": [[1.0]], "C": [[1.0, 0.0]]}, "'C' must have 1 columns"),
        ],
        ids=["1-d", "wrong-shape", "c-columns"],
    )
    def test_problem_file_rejects_bad_matrix(self, kind, matrices, named):
        with pytest.raises(ParseError, match=named):
            ProblemFile(kind=kind, n=1, matrices=matrices)

    def test_shifts_round_trip(self, tmp_path):
        pf = gen_problem(GeneratorSpec(kind="lyapunov", n=2, seed=2))
        pf.shifts = [1.0 + 2.0j, 3.0]
        path = tmp_path / "s.json"
        save_problem(path, pf)
        assert load_problem(path).shifts == [1.0 + 2.0j, 3.0 + 0.0j]


# `riccati gen --kind stein --n 2 --seed 1` as written by the format-1
# encoder, which stored every entry as an [re, im] pair and had no "format"
V1_STEIN_N2_SEED1 = """\
{
  "kind": "stein",
  "matrices": {
    "A": [
      [
        [
          0.17963136435424973,
          0.470595337665585
        ],
        [
          0.42706926845673165,
          0.23202124196630033
        ]
      ],
      [
        [
          0.1717580381018223,
          -0.2791031663974798
        ],
        [
          -0.6773686900508294,
          0.3020596436545822
        ]
      ]
    ],
    "Q": [
      [
        [
          0.9085245097827438,
          -2.5315193342549124e-18
        ],
        [
          -0.04596822988582506,
          0.43782405008495345
        ]
      ],
      [
        [
          -0.04596822988582506,
          -0.43782405008495345
        ],
        [
          0.7705654528614513,
          1.3464383292435087e-17
        ]
      ]
    ]
  },
  "metadata": {
    "critical": false,
    "generator": "stein-pcg64",
    "interval": [
      0.5,
      2.0
    ],
    "radius": 0.9,
    "rank": 2,
    "seed": 1
  },
  "n": 2
}
"""


class TestCompactFormat:
    def test_gen_load_save_byte_identical(self, tmp_path):
        path = tmp_path / "p.json"
        assert main(["gen", "--kind", "dare", "--n", "5", "--seed", "4", "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["format"] == 2
        assert doc["matrices"]["A"]["shape"] == [5, 5]
        again = tmp_path / "again.json"
        save_problem(again, load_problem(path))
        assert again.read_bytes() == path.read_bytes()

    def test_rectangular_c_and_complex_shifts(self, tmp_path):
        rng = np.random.default_rng(0)
        c = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        pf = ProblemFile(kind="lyapunov", n=3,
                         matrices={"A": -3.0 * np.eye(3) + 0.5j, "Q": c.conj().T @ c, "C": c},
                         shifts=[1.5 - 0.25j, 2.0])
        path = tmp_path / "lyap.json"
        save_problem(path, pf)
        assert json.loads(path.read_text())["matrices"]["C"]["shape"] == [2, 3]
        loaded = load_problem(path)
        assert loaded.shifts == [1.5 - 0.25j, 2.0 + 0.0j]
        for name, m in pf.matrices.items():
            assert np.array_equal(loaded.matrices[name], m), name
            assert loaded.matrices[name].dtype == np.complex128
            assert loaded.matrices[name].flags.writeable

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda doc: doc["matrices"]["Q"].update(data="not base64!"), "'data'"),
            (lambda doc: doc["matrices"]["Q"].update(data="AAAAAAAAAAA="), "'data'"),
            (lambda doc: doc["matrices"]["Q"].pop("shape"), "'shape'"),
            (lambda doc: doc["matrices"]["Q"].update(shape=[1, 1.0]), "'shape'"),
            (lambda doc: doc.update(format=3), "'format'"),
        ],
        ids=["bad-base64", "wrong-byte-length", "missing-shape", "float-shape", "format-3"],
    )
    def test_malformed_field_named(self, tmp_path, edit, named):
        path = tmp_path / "p.json"
        save_problem(path, gen_problem(GeneratorSpec(kind="stein", n=1, seed=0)))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=named) as info:
            load_problem(path)
        if named != "'format'":
            assert "'Q'" in str(info.value)

    def test_v1_file_loads_identically(self, tmp_path, capsys):
        path = tmp_path / "v1.json"
        path.write_text(V1_STEIN_N2_SEED1)
        loaded = load_problem(path)
        expected = gen_problem(GeneratorSpec(kind="stein", n=2, seed=1))
        assert loaded.matrices.keys() == expected.matrices.keys()
        for name, m in expected.matrices.items():
            assert np.array_equal(loaded.matrices[name], m), name
        assert main(["solve", "--input", str(path), "--method", "squared-smith"]) == 0
        assert "converged: True" in capsys.readouterr().out


class TestGenerators:
    def test_determinism(self, tmp_path):
        spec = GeneratorSpec(kind="stein", n=8, seed=1, radius=0.9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_problem(a, gen_problem(spec))
        save_problem(b, gen_problem(spec))
        assert a.read_bytes() == b.read_bytes()

    def test_nme_critical_scalar(self):
        pf = gen_problem(GeneratorSpec(kind="nme", n=1, seed=0, critical=True))
        assert pf.matrices["A"][0, 0] == 1.0
        assert pf.matrices["Q"][0, 0] == 2.0

    def test_dare_self_check(self):
        from riccati import sda_solve
        from riccati.linalg import psd_check

        pf = gen_problem(GeneratorSpec(kind="dare", n=4, seed=7))
        p = to_problem(pf)
        assert psd_check(p.G, 1e-10) and psd_check(p.Q, 1e-10)
        assert sda_solve(p).report.converged

    def test_stein_radius_targeted(self):
        pf = gen_problem(GeneratorSpec(kind="stein", n=6, seed=3, radius=0.7))
        rho = max(abs(np.linalg.eigvals(pf.matrices["A"])))
        assert rho <= 0.7 + 1e-8

    def test_lyapunov_spectrum_interval(self):
        pf = gen_problem(GeneratorSpec(kind="lyapunov", n=5, seed=4, interval=(0.5, 3.0)))
        eigs = np.linalg.eigvalsh(pf.matrices["A"])
        assert np.all(eigs <= -0.5 + 1e-10) and np.all(eigs >= -3.0 - 1e-10)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(kind="stein", n=4, seed=0, radius=2.0)
        with pytest.raises(InvalidSpec):
            GeneratorSpec(kind="lyapunov", n=4, seed=0, interval=(2.0, 1.0))
        with pytest.raises(InvalidSpec):
            GeneratorSpec(kind="stein", n=4, seed=0, rank=5)
        with pytest.raises(InvalidSpec):
            GeneratorSpec(kind="bogus", n=4, seed=0)
        with pytest.raises(InvalidSpec, match="n must be"):
            GeneratorSpec(kind="stein", n=0, seed=0)
        with pytest.raises(InvalidSpec, match="seed"):
            GeneratorSpec(kind="stein", n=4, seed=-1)
        with pytest.raises(InvalidSpec, match="critical"):
            GeneratorSpec(kind="care", n=4, seed=0, critical=True)

    def test_gen_invalid_spec_exit_1(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert main(["gen", "--kind", "stein", "--n", "0", "--output", str(path)]) == 1
        assert "n must be >= 1" in capsys.readouterr().err
        assert not path.exists()


class TestSolveCommand:
    def gen(self, tmp_path, *extra):
        path = tmp_path / "p.json"
        code = main(["gen", "--kind", "stein", "--n", "6", "--seed", "1",
                     "--radius", "0.9", "--output", str(path), *extra])
        assert code == 0
        return path

    def test_converged_with_trace(self, tmp_path, capsys):
        path = self.gen(tmp_path)
        trace = tmp_path / "t.csv"
        code = main(["solve", "--input", str(path), "--method", "squared-smith",
                     "--trace", str(trace)])
        assert code == 0
        with trace.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "residual", "elapsed_ns"]
        assert len(rows) - 1 <= 15
        residuals = [float(r[1]) for r in rows[1:]]
        # doubling trace decreases after the first recorded row
        assert sum(b >= a for a, b in zip(residuals[1:], residuals[2:])) <= 1

    def test_budget_exhausted_exit_2(self, tmp_path):
        path = tmp_path / "crit.json"
        main(["gen", "--kind", "stein", "--n", "6", "--seed", "1", "--critical",
              "--output", str(path)])
        code = main(["solve", "--input", str(path), "--method", "smith", "--max-iter", "50"])
        assert code == 2

    def test_sign_honours_max_iter(self, tmp_path, capsys):
        path = tmp_path / "care.json"
        main(["gen", "--kind", "care", "--n", "8", "--seed", "1", "--output", str(path)])
        capsys.readouterr()
        assert main(["solve", "--input", str(path), "--method", "sign"]) == 0
        default = capsys.readouterr().out
        assert "iterations: 6\n" in default
        # a budget the iteration does not use leaves the output as it is
        assert main(["solve", "--input", str(path), "--method", "sign", "--max-iter", "50"]) == 0
        assert capsys.readouterr().out == default
        # after one step H_1 is no sign matrix yet: an exhausted budget, no X
        assert main(["solve", "--input", str(path), "--method", "sign", "--max-iter", "1"]) == 2
        assert capsys.readouterr().out == "iterations: 1\nfinal residual: nan\nconverged: False\n"

    def test_sign_at_loose_tol(self, tmp_path, capsys):
        path = tmp_path / "care.json"
        main(["gen", "--kind", "care", "--n", "16", "--seed", "0", "--output", str(path)])
        assert main(["solve", "--input", str(path), "--method", "sign", "--tol", "1e-3"]) == 0
        assert "converged: True" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind, flags, message",
        [
            ("stein", ["--method", "smith", "--tol", "nan"], "tol must be positive"),
            ("stein", ["--method", "smith", "--tol", "inf"], "tol must be positive"),
            ("lyapunov", ["--method", "adi", "--shifts", "nan"], "shifts must be finite"),
            ("lyapunov", ["--method", "adi", "--shifts", "inf"], "shifts must be finite"),
        ],
    )
    def test_non_finite_option_exit_1(self, tmp_path, capsys, kind, flags, message):
        path = tmp_path / "p.json"
        assert main(["gen", "--kind", kind, "--n", "6", "--seed", "0", "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", "--input", str(path), *flags]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, method",
        [("dare", "sda"), ("dare", "fixed-point"), ("stein", "smith"), ("care", "sign"), ("nme", "cr")],
    )
    def test_shifts_on_unshifted_method_exit_64(self, tmp_path, capsys, kind, method):
        path = tmp_path / "p.json"
        assert main(["gen", "--kind", kind, "--n", "4", "--seed", "0", "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", "--input", str(path), "--method", method, "--shifts", "1"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "--shifts" in err and "adi, lr-adi, cayley-smith" in err

    @pytest.mark.parametrize("method", ["adi", "lr-adi", "cayley-smith"])
    def test_lyapunov_methods_take_shifts(self, tmp_path, method):
        path = tmp_path / "p.json"
        assert main(["gen", "--kind", "lyapunov", "--n", "4", "--seed", "0", "--output", str(path)]) == 0
        assert main(["solve", "--input", str(path), "--method", method, "--shifts", "1.5"]) == 0

    def test_unknown_method_exit_64(self, tmp_path):
        path = self.gen(tmp_path)
        assert main(["solve", "--input", str(path), "--method", "qr"]) == 64

    def test_usage_error_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--method", "smith"])
        assert exc.value.code == 64

    def test_missing_file_exit_1(self):
        assert main(["solve", "--input", "/nonexistent.json", "--method", "smith"]) == 1

    def test_invalid_coefficient_named_exit_1(self, tmp_path, capsys):
        g = [[1.0, 2.0], [0.0, 1.0]]  # not Hermitian
        path = tmp_path / "bad.json"
        save_problem(path, ProblemFile(kind="dare", n=2, matrices={"A": np.eye(2), "G": g, "Q": np.eye(2)}))
        assert main(["solve", "--input", str(path), "--method", "sda"]) == 1
        assert "G: matrix is not Hermitian within tolerance" in capsys.readouterr().err

    def test_lr_adi_reports_its_own_blocks(self, tmp_path, capsys, monkeypatch):
        import riccati.cli
        from riccati.care import default_cayley_tau
        from riccati.lyapunov import ShiftSequence, lr_adi_solve

        path = tmp_path / "lyap.json"
        main(["gen", "--kind", "lyapunov", "--n", "4", "--seed", "2", "--output", str(path)])
        problem = to_problem(load_problem(path))
        factor = lr_adi_solve(problem, ShiftSequence((default_cayley_tau(problem.norms["A"], problem.n),)), 50)
        blocks = factor.Z.shape[1] // factor.block_width

        def no_dense_adi(*args, **kwargs):
            raise AssertionError("lr-adi must not run the dense ADI iteration")

        monkeypatch.setattr(riccati.cli, "adi_solve", no_dense_adi)
        capsys.readouterr()
        assert main(["solve", "--input", str(path), "--method", "lr-adi"]) == 0
        assert f"iterations: {blocks}\n" in capsys.readouterr().out

    def test_all_kind_method_pairs(self, tmp_path):
        pairs = {
            "stein": ["smith", "squared-smith"],
            "lyapunov": ["adi", "lr-adi", "cayley-smith"],
            "dare": ["fixed-point", "sda"],
            "care": ["sda", "sign", "newton"],
            "nme": ["fixed-point", "cr"],
        }
        for kind, methods in pairs.items():
            path = tmp_path / f"{kind}.json"
            assert main(["gen", "--kind", kind, "--n", "4", "--seed", "2",
                         "--output", str(path)]) == 0
            for method in methods:
                assert main(["solve", "--input", str(path), "--method", method]) == 0, (
                    kind,
                    method,
                )


# the public residual of each kind, which every cell's final residual must be
KIND_RESIDUAL = {
    "stein": stein_residual,
    "lyapunov": lyap_residual,
    "dare": dare_residual,
    "care": care_residual,
    "nme": nme_residual,
}


class TestFinalResidual:
    @pytest.mark.parametrize("kind, method", sorted((k, m) for k in SOLVERS for m in SOLVERS[k]))
    def test_is_the_kinds_residual_of_x(self, kind, method):
        specs = [GeneratorSpec(kind=kind, n=6, seed=seed) for seed in (0, 1)]
        if method in ("squared-smith", "cr"):
            specs.append(GeneratorSpec(kind=kind, n=6, seed=0, critical=True))
        opts = SolveOptions(tol=1e-12)
        for spec in specs:
            pf = gen_problem(spec)
            problem = to_problem(pf)
            report, final = SOLVERS[kind][method](problem, opts, None)
            assert final == KIND_RESIDUAL[kind](report.X, problem), spec
            dispatched, dispatched_final = _solve_dispatch(pf, method, opts, None)
            assert dispatched_final == final, spec
            assert (dispatched.iterations, dispatched.converged) == (report.iterations, report.converged), spec
            assert np.array_equal(dispatched.X, report.X), spec

    def test_lr_adi_direct_call_sets_converged(self):
        problem = to_problem(gen_problem(GeneratorSpec(kind="lyapunov", n=16, seed=0)))
        report, final = SOLVERS["lyapunov"]["lr-adi"](problem, SolveOptions(tol=1e-12), None)
        assert report.converged and final <= 1e-12


class TestVerifyCommand:
    def test_each_kind_passes(self, tmp_path):
        for kind in ("stein", "lyapunov", "dare", "care", "nme"):
            path = tmp_path / f"{kind}.json"
            main(["gen", "--kind", kind, "--n", "4", "--seed", "2", "--output", str(path)])
            assert main(["verify", "--input", str(path)]) == 0, kind

    @pytest.mark.parametrize("n, cap", [(6, None), (12, None), (16, None), (20, None), (24, "30")])
    def test_generated_dare_passes(self, tmp_path, monkeypatch, capsys, n, cap):
        # the symplectic check computes no eigenvalue of the non-normal S:
        # their pairing failed its bound on most of these files from n = 12
        if cap is not None:
            monkeypatch.setenv("RICCATI_ORACLE_CAP", cap)
        path = tmp_path / "dare.json"
        for seed in range(6):
            main(["gen", "--kind", "dare", "--n", str(n), "--seed", str(seed), "--output", str(path)])
            capsys.readouterr()
            status = main(["verify", "--input", str(path)])
            out = capsys.readouterr().out
            assert status == 0 and "symplectic-structure" in out, (seed, out)

    def test_scalar_golden_ratio_file(self, tmp_path):
        pf = ProblemFile(kind="dare", n=1,
                         matrices={"A": [[1.0]], "G": [[1.0]], "Q": [[1.0]]})
        path = tmp_path / "phi.json"
        save_problem(path, pf)
        assert main(["verify", "--input", str(path)]) == 0

    def test_unit_circle_instance_reports_mismatch(self, tmp_path, capsys):
        pf = ProblemFile(kind="dare", n=2,
                         matrices={"A": [[1.0, 3.0], [0.0, 1.0]],
                                   "G": [[1.0, 1.0], [1.0, 1.0]],
                                   "Q": [[1.0, 0.0], [0.0, -10.0]]})
        path = tmp_path / "uc.json"
        save_problem(path, pf)
        assert main(["verify", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "region-count-mismatch-unit-circle" in out
        assert "symplectic-structure" in out

    def test_oracle_cap_skip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RICCATI_ORACLE_CAP", "10")
        path = tmp_path / "big.json"
        main(["gen", "--kind", "stein", "--n", "12", "--seed", "0", "--output", str(path)])
        assert main(["verify", "--input", str(path)]) == 0
        assert "skip" in capsys.readouterr().out

    def test_skip_names_cap_and_override(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        main(["gen", "--kind", "dare", "--n", "21", "--seed", "0", "--output", str(path)])
        capsys.readouterr()
        assert main(["verify", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("skip: n=21 exceeds 20 (oracle.EIG_CAP, the eigen-based oracles' size cap")
        assert "RICCATI_ORACLE_CAP" in out

    def test_oracle_cap_raised(self, tmp_path, capsys, monkeypatch):
        # the override raises the cap as well as lowering it
        monkeypatch.setenv("RICCATI_ORACLE_CAP", "60")
        path = tmp_path / "big.json"
        main(["gen", "--kind", "stein", "--n", "45", "--seed", "0", "--output", str(path)])
        capsys.readouterr()
        assert main(["verify", "--input", str(path)]) == 0
        assert capsys.readouterr().out.startswith("PASS  kron-vs-squared-smith ")

    def test_malformed_oracle_cap_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RICCATI_ORACLE_CAP", "abc")
        path = tmp_path / "p.json"
        main(["gen", "--kind", "stein", "--n", "4", "--seed", "0", "--output", str(path)])
        capsys.readouterr()
        assert main(["verify", "--input", str(path)]) == 1
        assert "RICCATI_ORACLE_CAP" in capsys.readouterr().err

    def test_indefinite_stein_q_exit_1(self, tmp_path, capsys):
        # only a DARE file is checked without a valid problem
        path = tmp_path / "indefinite.json"
        save_problem(path, ProblemFile(kind="stein", n=1, matrices={"A": [[0.5]], "Q": [[-1.0]]}))
        assert main(["verify", "--input", str(path)]) == 1
        assert "Q must be positive semidefinite" in capsys.readouterr().err

    def test_lines_show_bounds(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["gen", "--kind", "stein", "--n", "4", "--seed", "0", "--output", str(path)])
        capsys.readouterr()
        assert main(["verify", "--input", str(path)]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("PASS  kron-vs-squared-smith ")
        assert line.endswith("(bound 1e-09)")


class TestBenchCommand:
    def test_doubling_beats_basic_logarithmically(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--kind", "stein", "--sizes", "8", "16", "--seed", "3",
                     "--output", str(out)])
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        by_n = {}
        for row in rows:
            by_n.setdefault(row["n"], {})[row["method"]] = int(row["iterations"])
        for n, cells in by_n.items():
            basic = cells["smith"]
            doubling = cells["squared-smith"]
            assert doubling <= math.ceil(math.log2(basic)) + 1

    def test_dare_within_doubling_budget(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--kind", "dare", "--sizes", "16", "--seed", "3",
                     "--output", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        sda_rows = [r for r in rows if r["method"] == "sda"]
        assert sda_rows and all(int(r["iterations"]) <= 60 for r in sda_rows)

    def test_care_pairs_newton_with_sda(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--kind", "care", "--sizes", "8", "--output", str(out)]) == 0
        with out.open() as fh:
            assert [row["method"] for row in csv.DictReader(fh)] == ["newton", "sda"]

    def test_failing_cell_writes_nan_exit_2(self, tmp_path, monkeypatch):
        def breaks_down(problem, opts, shifts):
            raise RiccatiError("injected")

        monkeypatch.setitem(SOLVERS["stein"], "squared-smith", breaks_down)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--kind", "stein", "--sizes", "4", "--output", str(out)]) == 2
        with out.open() as fh:
            rows = {row["method"]: row for row in csv.DictReader(fh)}
        assert (rows["squared-smith"]["iterations"], rows["squared-smith"]["final_residual"]) == ("0", "nan")
        assert int(rows["smith"]["iterations"]) > 0

    def test_empty_sizes_exit_64(self):
        assert main(["bench", "--kind", "stein", "--sizes"]) == 64

    @pytest.mark.parametrize("sizes", [["4", "0"], ["0", "4"], ["4", "-2"]])
    def test_invalid_size_exit_64_before_any_output(self, tmp_path, capsys, sizes):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--kind", "stein", "--sizes", *sizes]) == 64
        assert main(["bench", "--kind", "stein", "--sizes", *sizes, "--output", str(out)]) == 64
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestProblemSizeField:
    @pytest.mark.parametrize("n", ["abc", 2.5, True, None, 0])
    def test_bad_n_named(self, tmp_path, n):
        doc = {"kind": "lyapunov", "n": n, "matrices": {"A": [[[-1.0, 0.0]]], "Q": [[[1.0, 0.0]]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="'n'"):
            load_problem(path)


class TestNewtonAboveOracleCap:
    def test_cli_newton_n48_converges(self, tmp_path, capsys):
        path = tmp_path / "care48.json"
        assert main(["gen", "--kind", "care", "--n", "48", "--seed", "0", "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", "--input", str(path), "--method", "newton"]) == 0
        assert "converged: True" in capsys.readouterr().out


def _fresh_interpreter(code: str, cwd) -> str:
    """stdout of `python -c code` in a new interpreter on this riccati."""
    src = str(Path(riccati.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestImportBoundary:
    """Importing the package and generating a problem run on numpy alone:
    scipy loads at the first factorization."""

    def test_import_loads_no_scipy(self, tmp_path):
        out = _fresh_interpreter(f"import sys, riccati, riccati.cli; print({SCIPY_MODULES})", tmp_path)
        assert out == "[]\n"

    def test_gen_loads_no_scipy_and_solve_still_converges(self, tmp_path):
        code = (
            "import sys\n"
            "from riccati import cli\n"
            "code = cli.main(['gen', '--kind', 'dare', '--n', '8', '--seed', '1', '--output', 'p.json'])\n"
            f"print(code, {SCIPY_MODULES})\n"
            "print(cli.main(['solve', '--input', 'p.json', '--method', 'sda']))\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        lines = _fresh_interpreter(code, tmp_path).splitlines()
        assert lines[0] == "wrote dare instance n=8 seed=1 to p.json"
        assert lines[1] == "0 []"
        assert lines[-3:] == ["converged: True", "0", "True"]
