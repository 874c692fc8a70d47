"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They check that the reference converges, that a wrong output is counted
as failed, that tracing and the speed probe change no output byte, that trace counts repeat
exactly, and that the benchmark refuses to run without the program.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from reference import reference_pressure  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (MODELS, Op, References, _pressure_table_check,  # noqa: E402
                       causality, check_outcome, cli_call, cold_nonlocal,
                       room_sweep)


@pytest.mark.parametrize("model, a_um, temperature", [
    ("nonlocal", 1.0, 1.0), ("drude", 0.5, 1.0), ("nonlocal", 0.2, 300.0),
    ("plasma", 7.0, 300.0)])
def test_reference_agrees_at_two_rule_orders(model, a_um, temperature):
    coarse = reference_pressure(MODELS[model], a_um, temperature, order=32)
    fine = reference_pressure(MODELS[model], a_um, temperature, order=48)
    assert abs(coarse - fine) <= 1e-13 * abs(fine)


def _small_sweep(refs):
    grid = np.linspace(1.0, 2.0, 2)
    names = ["drude", "nonlocal", "plasma"]
    return Op("sweep", cli_call(["pressure", "--a-min", "1", "--a-max", "2",
                                 "--points", "2"]),
              _pressure_table_check(refs, names, grid, 300.0, [0, 1]))


def _perturb_number(text, line, column, factor):
    lines = text.splitlines(keepends=True)
    cells = lines[line].rstrip("\n").split(",")
    cells[column] = format(float(cells[column]) * factor, ".9g")
    lines[line] = ",".join(cells) + "\n"
    return "".join(lines)


def test_perturbed_outputs_are_counted_as_failed(tmp_path):
    refs = References()
    sweep = _small_sweep(refs)
    good = sweep.call()
    assert check_outcome(sweep, good) == []
    for column in (1, 2, 3):                    # each pressure column
        bad = dataclasses.replace(
            good, output=_perturb_number(good.output, 2, column, 1 + 1e-5))
        assert check_outcome(sweep, bad)
    swapped = _perturb_number(good.output, 3, 4, 1 + 1e-6)   # ratio column
    assert check_outcome(sweep, dataclasses.replace(good, output=swapped))
    assert check_outcome(sweep, dataclasses.replace(good, exit_code=2))

    ops = {op.name: op for op in causality(7, tmp_path, refs)}
    kk = ops["kk-verify-k0.5"]
    outcome = kk.call()
    assert check_outcome(kk, outcome) == []
    reports = json.loads(outcome.output)
    reports[2]["residuals"][0] = reports[2]["max_residual"] = 2e-4
    assert check_outcome(kk, dataclasses.replace(
        outcome, output=json.dumps(reports)))
    assert check_outcome(ops["kk-verify-k0"], dataclasses.replace(
        ops["kk-verify-k0"].call(), exit_code=0))

    imp = ops["impedance-0"]
    outcome = imp.call()
    assert check_outcome(imp, outcome) == []
    z_tm, z_te = json.loads(outcome.output)
    assert check_outcome(imp, dataclasses.replace(
        outcome, output=json.dumps([z_tm * (1 + 1e-5), z_te])))


def test_tracing_changes_no_output_byte(tmp_path):
    refs = References()
    ops = [_small_sweep(refs)]
    ops += [op for op in room_sweep(3, tmp_path, refs)
            if op.name != "pressure-sweep"]
    ops += [op for op in causality(3, tmp_path, refs)
            if op.name in ("kk-verify-k0", "kk-verify-k1", "impedance-0")]
    plain = [op.call() for op in ops]
    tracer = Tracer()
    with tracer.installed():
        traced = [op.call(tracer) for op in ops]
    assert traced == plain
    assert tracer.counts["kk.relations"] == 12
    assert tracer.calls["sphere_plate"] == 100
    # every wrapper is gone again
    assert [op.call() for op in ops[:1]] == plain[:1]
    assert Tracer().count_signature() == ((), (), ())


def test_speed_probe_changes_no_output_byte(tmp_path):
    from run import run_pass
    ops = [op for op in causality(3, tmp_path, References())
           if op.name in ("kk-verify-k1", "impedance-0")]
    raw, samples, probed = run_pass(ops)
    assert raw > 0 and samples
    assert probed == [op.call() for op in ops]


def test_trace_counts_repeat_exactly(tmp_path):
    ops = cold_nonlocal(0, tmp_path, References())
    signatures = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            for op in ops:
                op.call(tracer)
        signatures.append(tracer.count_signature())
        per_call = {a: (r.terms_used, fb)
                    for _, a, _, r, fb in tracer.pressure_calls}
        print("cold_nonlocal (terms_used, fallback_terms) by a_um:", per_call)
    assert signatures[0] == signatures[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
