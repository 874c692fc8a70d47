"""Alternating benchmark runs of two checkouts, with per-pair numbers and medians.

    python3 scripts/bench_pairs.py PARENT CHANGE [--workloads causality,cold_local]
                                   [--pairs 10] [--seed 1]

For each workload, runs `perfbench/run.py` once in each checkout per pair,
pair i on seed SEED + i, alternating which side goes first, and prints
each pair's end-to-end metrics, then each side's median and quartiles
and the number of pairs in which the change's wall_s is lower.  Two
verdict lines follow: whether wall_s meets the claim rule (the change
lower in at least 9 of 10 pairs, and its median below the parent's by
more than the parent's interquartile distance), and whether any
end-to-end metric's change median is worse than the parent's by more
than its BENCHMARK.json bound, relative to the parent's median.  Every
run lasts PARENT's BENCHMARK.json `run_seconds`, and the workloads
default to all of that file's.  Each checkout is
copied, without .git and caches, to a temporary directory and run there
(scripts/result_digest.py's copy_checkouts), so nothing is written into
either one.  Standard library only.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from result_digest import SIDES, copy_checkouts

METRICS = ("wall_s", "setup_s", "peak_rss_mb", "ok_frac")


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


def quartiles(values):
    """(first quartile, median, third quartile)."""
    return (tuple(statistics.quantiles(values, n=4)) if len(values) > 1
            else tuple(values) * 3)


def summary(values):
    """Median and quartiles, as text."""
    q1, median, q3 = quartiles(values)
    return f"median {median:.4g} [{q1:.4g}, {q3:.4g}]"


def claim_verdict(parent, change):
    """Whether the change's wall_s runs meet the claim rule, as text."""
    wins = sum(c < p for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = median - quartiles(change)[1]
    met = 10 * wins >= 9 * len(parent) and gap > q3 - q1
    return (f"claim on wall_s {'met' if met else 'not met'}: change lower "
            f"in {wins} of {len(parent)} pairs (9 of 10 needed), median gap "
            f"{gap:.4g} against the parent's interquartile distance "
            f"{q3 - q1:.4g}")


def bound_verdict(runs, end_to_end):
    """Which end-to-end medians the change makes worse than their bound
    allows, relative to the parent's median, as text."""
    worse = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        parent, change = (statistics.median(r[name] for r in runs[side])
                          for side in SIDES)
        loss = (change - parent if metric["better"] == "lower"
                else parent - change)
        if loss > bound * abs(parent):
            worse.append(f"{name} {parent:.4g} -> {change:.4g} "
                         f"(bound {bound:g})")
    return ("bounds: " + ("worse beyond bound: " + "; ".join(worse) if worse
                         else "no end-to-end median worse than its bound"))


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
        checkouts = copy_checkouts((args.parent, args.change), scratch)
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
                  f"{args.pairs} pairs")
            print(f"{workload} " + claim_verdict(
                [r["wall_s"] for r in runs["parent"]],
                [r["wall_s"] for r in runs["change"]]))
            print(f"{workload} " + bound_verdict(runs, spec["end_to_end"]),
                  flush=True)
    return 0


if __name__ == "__main__":
    # a terminated run still removes its copies and stops its perfbench run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))
    sys.exit(main())
