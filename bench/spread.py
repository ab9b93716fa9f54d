"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload persist_budget --seeds 1-10 [--seconds 30]

Runs bench/run.py once per seed, one process at a time, and prints for
each end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the bound in
BENCHMARK.json.  Use it to show a benchmark change is steady, and to
report each side's median and quartiles when comparing two commits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:14s} median {statistics.median(vals):.5g}  q1 {q1:.5g}  "
              f"q3 {q3:.5g}  spread {(q3 - q1) / statistics.median(vals):.4f}  "
              f"bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
