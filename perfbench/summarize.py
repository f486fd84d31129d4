#!/usr/bin/env python3
"""Summarize the run records in perfbench/out/ into one results file.

    python3 perfbench/summarize.py --label baseline --output perfbench/results/baseline.json

For every workload and trace mode it takes all records present and reports,
per metric, the median over runs, the spread (distance between the first
and third quartile as a share of the median, as the acceptance rule uses
it) and the number of runs.  It also keeps the medians of the raw seconds
and layer times each record holds beside its metrics, the per-cell medians,
the environment header and the seeds of the runs.
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RECORDS = Path(__file__).resolve().parent / "out"


def spread(values) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / med


def summarize(records) -> dict:
    groups = defaultdict(list)
    for r in records:
        groups[(r["workload"], r["trace"])].append(r)
    out = {}
    for (workload, trace), runs in sorted(groups.items()):
        metrics = defaultdict(list)
        extra = defaultdict(list)  # raw seconds and layer times kept beside the metrics
        cells = defaultdict(list)
        for r in runs:
            for key, value in r["metrics"].items():
                metrics[key].append(value)
            numbers = {**r["details"], **r["details"].get("all_layer_values", {})}
            for key, value in numbers.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool) and key not in r["metrics"]:
                    extra[key].append(value)
            for key, value in r["details"].get("cell_s.p50", {}).items():
                cells[key].append(value)
        entry = out.setdefault(workload, {})
        entry["trace" if trace else "end_to_end"] = {
            "runs": len(runs),
            "seeds": sorted(r["seed"] for r in runs),
            "seconds": runs[0]["seconds"],
            "metrics": {
                key: {"median": statistics.median(v), "spread": spread(v),
                      "min": min(v), "max": max(v)}
                for key, v in metrics.items()
            },
            "details": {key: statistics.median(v) for key, v in sorted(extra.items())},
        }
        if cells:
            entry["cell_s.p50"] = {key: statistics.median(v) for key, v in cells.items()}
            entry["cell_iterations_by_seed"] = {
                str(r["seed"]): r["details"].get("cell_iterations", {}) for r in runs
            }
        entry["environment"] = runs[0]["environment"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--output", required=True)
    args = p.parse_args(argv)
    records = [json.loads(f.read_text()) for f in sorted(RECORDS.glob("*-seed*-trace*.json"))]
    result = {"label": args.label, "workloads": summarize(records)}
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    Path(args.output).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for workload, entry in result["workloads"].items():
        for mode in ("end_to_end", "trace"):
            if mode not in entry:
                continue
            print(f"{workload} {mode} ({entry[mode]['runs']} runs)")
            for key, m in entry[mode]["metrics"].items():
                print(f"  {key:<38} {m['median']:>12.6g}  spread {m['spread']:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
