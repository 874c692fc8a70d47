"""Print every end-to-end metric of every workload, by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per workload listed in BENCHMARK.json, each in
a fresh interpreter, and prints one line per workload and metric, then
the operations that failed.  --trace 1 prints the per-layer metrics
instead.  Exits 1 if any run reports an incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    all_correct = True
    print(f"{'workload':<14} {'metric':<38} {'value':>14}  unit")
    for workload in spec["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}")
            all_correct = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        for metric in wanted:
            m = result["metrics"][metric["name"]]
            print(f"{name:<14} {metric['name']:<38} {m['value']:>14.6g}  "
                  f"{m['unit']}")
        print(f"{name:<14} {'operations failed / attempted':<38} "
              f"{result['failed']:>7} / {result['attempted']:<5} "
              f"correct={result['correct']}")
        for line in done.stderr.splitlines():
            if line.startswith(("FAILED", "MISMATCH")):
                print(f"{'':<14} {line}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
