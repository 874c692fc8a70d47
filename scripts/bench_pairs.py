"""Alternating benchmark runs of two checkouts, with per-pair numbers and medians.

    python3 scripts/bench_pairs.py PARENT CHANGE [--workloads causality,cold_local]
                                   [--pairs 10] [--seed 1]

For each workload, runs `perfbench/run.py` once in each checkout per pair,
pair i on seed SEED + i, alternating which side goes first, and prints
each pair's end-to-end metrics, then each side's median and quartiles
and the number of pairs in which the change's wall_s is lower.  Every
run lasts PARENT's BENCHMARK.json `run_seconds`, and the workloads
default to all of that file's.  Each checkout is
copied, without .git and caches, to a temporary directory and run there,
so nothing is written into either one.  Standard library only.
"""

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb", "ok_frac")
SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """The metrics of one perfbench run, plus its `correct` flag."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: perfbench exited {done.returncode}\n"
                 f"{done.stderr.strip()}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    values = {m: report["metrics"][m]["value"] for m in METRICS}
    values["correct"] = report["correct"]
    return values


def run_text(run):
    """One run's metrics, as text."""
    return (" ".join(f"{m} {run[m]:.4g}" for m in METRICS)
            + ("" if run["correct"] else " INCORRECT"))


def summary(values):
    """Median and quartiles, as text."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return f"median {statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads",
                        help="comma list (default: every workload of PARENT)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed + i")
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = ([w.strip() for w in args.workloads.split(",")] if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    with tempfile.TemporaryDirectory() as scratch:
        checkouts = {}
        for side, path in zip(SIDES, (args.parent, args.change)):
            checkouts[side] = Path(scratch) / side
            shutil.copytree(path, checkouts[side], ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(run_once(checkouts[side], workload,
                                               args.seed + i, spec["run_seconds"]))
                print(f"{workload} pair {i + 1} seed {args.seed + i} "
                      f"({order[0]} first): " + " | ".join(
                          f"{side} {run_text(runs[side][-1])}"
                          for side in SIDES), flush=True)
            for m in METRICS:
                print(f"{workload} {m}: " + "; ".join(
                    f"{side} {summary([r[m] for r in runs[side]])}"
                    for side in SIDES))
            wins = sum(c["wall_s"] < p["wall_s"]
                       for p, c in zip(runs["parent"], runs["change"]))
            print(f"{workload}: change wall_s lower in {wins} of "
                  f"{args.pairs} pairs", flush=True)
    return 0


if __name__ == "__main__":
    # a terminated run still removes its copies and stops its perfbench run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))
    sys.exit(main())
