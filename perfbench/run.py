"""nlcasimir benchmark: one workload, timed in-process, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/.  A
run repeats passes over the workload's fixed list of operations for about
S seconds in this one process, with no added threads, then checks the
outputs of the first pass against references computed outside the timed
region, and the bytes of every later pass against the first.

Pass times are scaled to a reference machine speed: while an untraced
pass runs, a fixed probe that uses none of the program (speed.py) is
sampled from a timer signal, its own time is taken out of the pass, and
the pass is multiplied by REFERENCE_PROBE_S over the mean probe time.
Raw pass and set-up times are printed on stderr.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
interpreters of the time to a first completed `epsilon --points 1`),
wall_s (median untraced pass, scaled), ok_frac (operations that passed over
operations attempted) and peak_rss_mb (high-water resident memory of
this process after the passes, before any reference is computed).

--trace 1 alternates untraced and traced passes and reports per-layer
metrics from the traced ones (see tracing.py); the outputs of both kinds
of pass must be byte-identical.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Failed operations are listed on stderr
with their error type.
"""

from __future__ import annotations

import os

# one thread: numpy's BLAS would otherwise start a pool as wide as the
# machine, here and in the set-up interpreters that inherit this
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Sampler, scaled  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
SETUP_SNIPPET = ("import sys; sys.path.insert(0, 'src'); "
                 "from nlcasimir.cli import run; "
                 "sys.exit(run(['epsilon', '--points', '1']))")


def measure_setup():
    """Median seconds from a fresh interpreter to a first completed CLI call.

    Not scaled: the probe, run in this process, does not track the speed
    of a starting interpreter.
    """
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"setup call exited {done.returncode}")
    print(f"set-up seconds raw {' '.join(f'{t:.3f}' for t in times)}",
          file=sys.stderr)
    return statistics.median(times)


def run_pass(ops, tracer=None):
    """One pass: (raw seconds, probe samples, outcomes).

    Untraced, the speed probe samples the pass and its own time is taken
    out; traced, no probe runs.
    """
    sampler = Sampler()
    seconds = 0.0
    outcomes = []
    with sampler if tracer is None else contextlib.nullcontext():
        for op in ops:
            probe_s = sampler.probe_s
            start = time.perf_counter()
            outcomes.append(op.call(tracer))
            seconds += (time.perf_counter() - start
                        - (sampler.probe_s - probe_s))
    if tracer is None and not sampler.samples:   # shorter than the interval
        sampler.tick()
    return seconds, sampler.samples, outcomes


def timed_passes(ops, seconds, traced):
    """Passes until the next one would overrun `seconds`; at least one.

    Traced, each round is an untraced pass followed by a traced one.
    Returns (untraced scaled walls, untraced raw walls, outcomes per pass,
    traced raw walls, tracers).
    """
    from tracing import Tracer

    walls, raw_walls, outcomes, traced_walls, tracers = [], [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        raw, samples, out = run_pass(ops)
        walls.append(scaled(raw, samples))
        raw_walls.append(raw)
        outcomes.append(out)
        if traced:
            tracer = Tracer()
            with tracer.installed():
                raw, _, out = run_pass(ops, tracer)
            traced_walls.append(raw)
            outcomes.append(out)
            tracers.append(tracer)
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            return walls, raw_walls, outcomes, traced_walls, tracers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nlcasimir" / "__init__.py").is_file():
        print(f"error: no nlcasimir package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, References, check_outcome

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # QUADPACK round-off warnings would go to captured stderr on the first
    # pass only, and change nothing else
    warnings.simplefilter("ignore")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        refs = References()
        ops = WORKLOADS[args.workload](args.seed, workdir, refs)
        setup_s = None if args.trace else measure_setup()
        walls, raw_walls, outcomes, traced_walls, tracers = timed_passes(
            ops, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = True
    failed_ops = 0
    for i, op in enumerate(ops):
        first = outcomes[0][i]
        problems = check_outcome(op, first)
        if problems:
            failed_ops += 1
            # a crash or a wrong exit code is a failure; a wrong output
            # also makes the run incorrect
            if not first.error and first.exit_code == op.expect_exit:
                correct = False
            print(f"FAILED {args.workload}/{op.name}: {problems[0]}"
                  + (f" (+{len(problems) - 1} more)" if len(problems) > 1
                     else ""), file=sys.stderr)
        for later in outcomes[1:]:
            if later[i] != first:
                correct = False
                print(f"MISMATCH {args.workload}/{op.name}: output differs "
                      "between passes", file=sys.stderr)
                break

    attempted = len(ops) * len(outcomes)
    failed = failed_ops * len(outcomes)
    if args.trace:
        signatures = {t.count_signature() for t in tracers}
        if len(signatures) != 1:
            correct = False
            print("MISMATCH trace counts differ between passes",
                  file=sys.stderr)
        from tracing import layer_metrics
        overhead = (statistics.median(traced_walls)
                    / statistics.median(raw_walls) - 1)
        metrics = layer_metrics(tracers, refs.points, overhead)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload}: {len(walls)} untraced passes of "
          f"{len(ops)} operations, {failed_ops} failing; pass seconds at "
          f"reference speed {' '.join(f'{w:.3f}' for w in walls)}; raw "
          f"{' '.join(f'{w:.3f}' for w in raw_walls)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
