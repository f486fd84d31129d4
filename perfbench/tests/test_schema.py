"""Schema smoke test of the benchmark.

Runs one pass of every workload at its smallest sizes, with and without
tracing, and checks that the result line carries exactly the metrics
BENCHMARK.json names, each with its unit.  No timing is asserted, so the
test cannot flake on a slow or busy host.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_has_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))

    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed1-trace{trace}.json").read_text())
    details = record["details"]
    assert {"fail_ratio", "failing_cells", "python", "numpy", "scipy", "blas", "nproc"} <= (
        set(details) | set(record["environment"])
    )
    if trace:
        assert details["traced_passes"] >= 2
        assert details["counts_repeat_exactly"] is True
        if workload.startswith("cli-"):
            assert {"io.save_s", "io.load_s", "cli.self_s"} <= set(details["all_layer_values"])
    else:
        raw = {"pass_s.p50", "pass_s.tail", "pass_s.tail.percentile", "pass_s.tail.samples_beyond", "probe_s.p50"}
        assert raw <= set(details)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
