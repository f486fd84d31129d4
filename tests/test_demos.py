"""Run each demo script as a child process and check the counts it prints."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "demo_stein_doubling.py": [r"smith\s+115 iterations", r"squared-smith\s+7 iterations"],
    "demo_lyapunov_adi.py": [r"adi\s+18 sweeps", r"lr-adi\s+factor with 12 columns"],
    "demo_dare_sda.py": [
        r"fixed point: 1\.6180339887\d* in 15 iterations",
        r"sda:\s+1\.618033988750 in 4 iterations",
        r"sda converged in 3 iterations",
    ],
    "demo_care_methods.py": [
        r"sda \(Cayley\)\s+5 ",
        r"sign \(plain\)\s+10 ",
        r"sign \(determinantal\)\s+6 ",
        r"newton \(from 0\)\s+6 ",
    ],
    "demo_nme_cyclic_reduction.py": [
        r"fixed point:\s+5000 iterations",
        r"cyclic red\.:\s+19 iterations, rate estimate 0\.5000",
    ],
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs_and_prints_its_counts(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for pattern in DEMOS[script]:
        assert re.search(pattern, proc.stdout), f"{pattern!r} not in:\n{proc.stdout}"
