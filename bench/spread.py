"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload NAME [--seeds 1,2,3,4,5] [--seconds S]

Runs the benchmark once per seed, untraced, and prints per metric the
median, the interquartile distance as a share of the median (what the
bound in BENCHMARK.json is compared with), and that share over the
bound.  Exits 1 if any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in args.seeds.split(","):
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", seed,
                               "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        share = spread(values[name])
        print(f"{name:24s} median {statistics.median(values[name]):<12.5g} spread {share:.4f}"
              f"  ({share / metric['bound']:.2f} of bound {metric['bound']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
