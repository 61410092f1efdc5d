"""Run one workload over several seeds and print each metric's median and
spread (interquartile range over median), the steadiness measure the
bounds in BENCHMARK.json are set against.

    python3 perfbench/spread.py --workload bench_mc --seeds 1,2,3,4,5 [--seconds 55] [--trace 0]

Runs are sequential, one process each, from the current directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", default="55")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds.split(","):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", seed,
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed} ({time.perf_counter() - t0:.1f} s) correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2:
            print(f"{name:28s} {med:.6g} {units[name]}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:28s} median {med:.6g} {units[name]}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
