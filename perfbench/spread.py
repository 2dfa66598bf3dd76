#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workloads design_slack,oracle_mc \\
        --seeds 1-10 --seconds 25 --trace 0 --out .perfbench/spread.json

For every workload and metric it reports the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the distance between
the quartiles as a share of the median.  Runs are sequential.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(results: list[dict]) -> dict:
    summary = {"correct": [r["correct"] for r in results],
               "failed": [r["failed"] for r in results],
               "attempted": [r["attempted"] for r in results], "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary["metrics"][name] = {
            "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0, "values": values}
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default=str(ROOT / ".perfbench" / "spread.json"))
    args = ap.parse_args()
    doc = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        doc[workload] = summarize(results)
        print(f"{workload}: correct {doc[workload]['correct']}")
        for name, m in doc[workload]["metrics"].items():
            print(f"  {name:34s} median {m['median']:12.6g} {m['unit']:7s} "
                  f"iqr/median {m['iqr_over_median']:.4f}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
