"""Command-line behavior: emitted data streams and exit codes."""

import ast
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import nlcasimir
from nlcasimir import (RELATIONS, ConvergenceError, Drude, NonlocalAlt,
                       PressureQuery, PressureResult, SpherePlateConfig,
                       WithCore, build_core_table, casimir_pressure,
                       casimir_pressures, eval_imag_axis, eval_real_axis,
                       force_gradient, gold_default, interband_im_eps,
                       parse_optical_table)
from nlcasimir.cli import run

from conftest import OPTICAL_TEXT, run_python

EXPT_TEXT = """\
a_um, Fprime, sigma
0.80, 6.0e-6, 2.0e-7
1.20, 2.0e-6, 1.0e-7
"""


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return lines[0], header, rows


def core_table(params):
    """The interband core the CLI builds from OPTICAL_TEXT."""
    return build_core_table(
        interband_im_eps(parse_optical_table(OPTICAL_TEXT), params.drude))


def test_epsilon_imag_matches_the_library(capsys):
    code, out, err = run_cli(capsys, [
        "epsilon", "--points", "3", "--omega-min", "0.1", "--omega-max", "1.0"])
    assert code == 0 and err == ""
    meta, header, rows = parse_csv(out)
    assert header == ["xi_eV", "eps_L", "eps_T"]
    assert "omega_p_eV=9" in meta
    model = gold_default()
    for xi_grid, row in zip(np.linspace(0.1, 1.0, 3), rows):
        pair = eval_imag_axis(model, float(xi_grid), 0.0)
        assert math.isclose(row[0], xi_grid, rel_tol=1e-8)
        assert math.isclose(row[1], pair.eps_l, rel_tol=1e-8)
        assert math.isclose(row[2], pair.eps_t, rel_tol=1e-8)


def test_identical_invocations_emit_identical_bytes(capsys):
    argv = ["epsilon", "--points", "5", "--kperp", "0.3"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["epsilon", "--points", "1"]
    _, want, _ = run_cli(capsys, argv)
    done = run_python(["-m", "nlcasimir", *argv])
    assert done.returncode == 0
    assert done.stdout == want.encode()


# imports nlcasimir, then runs the CLI commands of argv[1] (a JSON list)
# with every scipy import refused and prints [exit code, stdout] of each
WITHOUT_SCIPY = """\
import contextlib, io, json, sys
import nlcasimir.cli
loaded = "scipy" in sys.modules

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([nlcasimir.cli.run(argv), out.getvalue()])
try:
    import scipy
    blocked = False
except ImportError:
    blocked = True
print(json.dumps({"loaded": loaded, "blocked": blocked, "results": results}))
"""


def test_every_command_runs_without_scipy(capsys, tmp_path):
    # scipy serves only the QUADPACK reference paths, so no command needs it
    expt = tmp_path / "expt.csv"
    expt.write_text(EXPT_TEXT)
    commands = [["epsilon", "--points", "3"],
                ["pressure", "--a-min", "1", "--a-max", "2", "--points", "2"],
                ["pressure", "--a-min", "1", "--a-max", "2", "--points", "2",
                 "--temp", "1"],
                ["gradient", "--model", "drude", "--radius", "50",
                 "--expt", str(expt)],
                ["reflectance", "--theta", "45deg", "--points", "3"],
                ["kk-verify", "--relations", "all"]]
    done = run_python(["-c", WITHOUT_SCIPY, json.dumps(commands)])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["blocked"] and not report["loaded"]
    want = [list(run_cli(capsys, argv)[:2]) for argv in commands]
    assert report["results"] == want
    assert [code for code, _ in want] == [0, 0, 0, 0, 0, 1]


def test_the_package_imports_no_scipy_and_exports_no_reference_path():
    # the QUADPACK and closed-form references live in tests/reference_paths.py
    for path in sorted(Path(nlcasimir.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), path
    moved = {"PVSettings", "pv_integral", "quad", "classical_limit_pressure",
             "APERY", "coeffs_from_impedance", "core_imag_axis"}
    assert not moved & set(nlcasimir.__all__)


def test_gradient_warns_on_every_run_in_one_process(capsys):
    # a fresh interpreter, so that the warnings module's own filters act
    # and not the test runner's warning capture
    argv = ["gradient", "--radius", "5", "--model", "drude", "--points", "2"]
    done = run_python(["-c", f"""\
import contextlib, io, json
from nlcasimir.cli import run
runs = []
for _ in range(2):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append([run({argv!r}), out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""])
    assert done.returncode == 0, done.stderr
    first, second = json.loads(done.stdout)
    assert second == first
    code, out, err = first
    assert [code, out] == list(run_cli(capsys, argv)[:2])
    assert err.splitlines() == [
        f"warning: a/R = {ratio} is outside the proximity-force regime; "
        "the beta correction is only the leading term"
        for ratio in ("0.12", "0.4")]


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_study_scripts_run(tmp_path):
    done = run_python([str(SCRIPTS / "kk_report.py"), "--kperp", "0.2",
                       "--out-dir", str(tmp_path)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    reports = json.loads((tmp_path / "kk_k0p2.json").read_text())
    assert [r["relation"] for r in reports] == list(RELATIONS)

    sweep = tmp_path / "sweep.csv"
    done = run_python([str(SCRIPTS / "pressure_sweep.py"), "--points", "3",
                       "--out", str(sweep)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert len(parse_csv(sweep.read_text())[2]) == 3

    # 1 K: the long Matsubara sums of all three models
    done = run_python([str(SCRIPTS / "pressure_sweep.py"), "--temp", "1",
                       "--points", "3", "--out", str(sweep)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    _, header, rows = parse_csv(sweep.read_text())
    assert len(rows) == 3
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        drude = row[col["P_drude_Pa"]]
        for tag, name in (("nl", "nonlocal"), ("pl", "plasma")):
            assert math.isclose(row[col[f"ratio_{tag}_drude"]],
                                row[col[f"P_{name}_Pa"]] / drude,
                                rel_tol=1e-8)

    done = run_python([str(SCRIPTS / "reflectance_study.py"), "--points", "3",
                       "--out-dir", str(tmp_path)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for angle in ("45deg", "60deg"):
        _, _, rows = parse_csv(
            (tmp_path / f"reflectance_{angle}.csv").read_text())
        assert len(rows) == 3


def test_bench_pairs_alternates_sides_on_copies(tmp_path, monkeypatch, capsys):
    # it copies the checkouts with result_digest.py
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", SCRIPTS / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    runs = []

    def run_once(checkout, workload, seed, seconds):
        # each run sees a copy of its checkout, never the checkout itself
        assert not checkout.is_relative_to(tmp_path)
        assert (checkout / "BENCHMARK.json").is_file()
        assert seconds == 25          # BENCHMARK.json's run_seconds
        runs.append((checkout.name, workload, seed))
        if checkout.name == "parent":
            return {"wall_s": 1.0 + 0.1 * seed, "setup_s": 0.2,
                    "peak_rss_mb": 80.0, "ok_frac": 1.0, "correct": True}
        # w1: faster in every pair; w2: faster in every pair, but by less
        # than the parent's spread, and with 25% more memory
        return {"wall_s": 0.5 if workload == "w1" else 0.99 + 0.1 * seed,
                "setup_s": 0.2,
                "peak_rss_mb": 80.0 if workload == "w1" else 100.0,
                "ok_frac": 1.0, "correct": True}

    monkeypatch.setattr(bench, "run_once", run_once)
    spec_text = json.dumps({
        "run_seconds": 25, "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "ok_frac", "better": "higher", "bound": 0.001},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]})
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(spec_text)
    assert bench.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--pairs", "3", "--seed", "7"]) == 0
    assert runs == [(side, w, seed) for w in ("w1", "w2") for side, seed in (
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
        ("parent", 9), ("change", 9))]
    out = capsys.readouterr().out.splitlines()
    assert ("w1 wall_s: parent median 1.8 [1.7, 1.9]; "
            "change median 0.5 [0.5, 0.5]") in out
    assert "w1: change wall_s lower in 3 of 3 pairs" in out
    assert ("w1 claim on wall_s met: change lower in 3 of 3 pairs (9 of 10 "
            "needed), median gap 1.3 against the parent's interquartile "
            "distance 0.2") in out
    assert "w1 bounds: no end-to-end median worse than its bound" in out
    assert "w2: change wall_s lower in 3 of 3 pairs" in out
    assert ("w2 claim on wall_s not met: change lower in 3 of 3 pairs (9 of "
            "10 needed), median gap 0.01 against the parent's interquartile "
            "distance 0.2") in out
    assert ("w2 bounds: worse beyond bound: peak_rss_mb 80 -> 100 "
            "(bound 0.1)") in out
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "BENCHMARK.json", "BENCHMARK.json", "change", "parent"]


def test_bench_pairs_verdicts_follow_the_claim_rule_and_the_bounds(
        monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # it imports result_digest.py
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", SCRIPTS / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    parent = [1.0 + 0.01 * i for i in range(10)]    # interquartile 0.055
    for change, met in (
            ([p - 0.5 for p in parent[:9]] + [2.0], True),     # 9 of 10
            ([p - 0.5 for p in parent[:8]] + [2.0] * 2, False),
            ([p - 0.01 for p in parent], False)):               # gap 0.01
        assert bench.claim_verdict(parent, change).startswith(
            "claim on wall_s " + ("met:" if met else "not met:"))
    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.25},
                  {"name": "ok_frac", "better": "higher", "bound": 0.001}]
    # each bound is relative to the parent's median
    for wall, ok, worse in ((2.49, 0.9995, ""), (2.51, 0.9995, "wall_s"),
                            (1.0, 0.9985, "ok_frac")):
        runs = {"parent": [{"wall_s": 2.0, "ok_frac": 1.0}] * 3,
                "change": [{"wall_s": wall, "ok_frac": ok}] * 3}
        verdict = bench.bound_verdict(runs, end_to_end)
        assert verdict == ("bounds: worse beyond bound: " + {
            "wall_s": "wall_s 2 -> 2.51 (bound 0.25)",
            "ok_frac": "ok_frac 1 -> 0.9985 (bound 0.001)"}[worse] if worse
            else "bounds: no end-to-end median worse than its bound")


def test_cli_matrix_reports_only_commands_that_differ(tmp_path, monkeypatch,
                                                     capsys):
    # it copies the checkouts with result_digest.py
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(
        "cli_matrix", SCRIPTS / "cli_matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    runs = []

    def run_command(checkout, argv):
        # each command runs in a copy of its checkout, with the data files
        assert not checkout.is_relative_to(tmp_path)
        assert (checkout / "marker").read_text() == checkout.name
        assert (checkout / matrix.EXPT).is_file()
        runs.append((checkout.name, argv))
        moved = checkout.name == "change" and argv[-1] == "7.9"
        return (0, "same\n" + ("new" if moved else "old"), "", None)

    monkeypatch.setattr(matrix, "run_command", run_command)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "marker").write_text(side)
    assert matrix.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    assert runs == [(side, argv) for argv in matrix.MATRIX
                    for side in ("parent", "change")]
    out = capsys.readouterr().out.splitlines()
    assert out == ["nlcasimir kk-verify --kperp 7.9",
                   "  stdout: 'old' | 'new'",
                   f"1 of {len(matrix.MATRIX)} commands differ"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "change", "marker", "marker", "parent"]
    # the matrix names every subcommand, the exit-1 run and a refusal
    commands = {argv[0] for argv in matrix.MATRIX}
    assert commands == {"epsilon", "pressure", "gradient", "reflectance",
                        "kk-verify"}
    assert ["kk-verify", "--kperp", "0"] in matrix.MATRIX
    assert ["kk-verify", "--relations", "eq-31"] in matrix.MATRIX
    # and a cold cored sweep, on the Euler-Maclaurin path
    assert ["pressure", "--models", "drude,nonlocal", "--temp", "1",
            "--optical-data", matrix.OPTICAL, "--a-min", "0.5", "--a-max", "3",
            "--points", "3"] in matrix.MATRIX
    # Drude at gamma = 0 against plasma, and kk-verify refusing a core
    assert ["pressure", "--models", "drude,plasma", "--gamma", "0",
            "--a-min", "1", "--a-max", "3", "--points", "3"] in matrix.MATRIX
    assert ["kk-verify", "--relations", "t-imag-axis", "--format", "csv",
            "--optical-data", matrix.OPTICAL] in matrix.MATRIX


def test_result_digest_reports_only_sets_that_differ(tmp_path, monkeypatch,
                                                    capsys):
    spec = importlib.util.spec_from_file_location(
        "result_digest", SCRIPTS / "result_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    runs = []

    def run_here(script, checkout, moved=None):
        # each side runs the script in a copy of its checkout
        assert Path(script).resolve() == SCRIPTS / "result_digest.py"
        assert not checkout.is_relative_to(tmp_path)
        assert (checkout / "marker").read_text() == checkout.name
        runs.append(checkout.name)
        return {name: "new" if checkout.name == "change" and name == moved
                else "old" for name in digest.SETS}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "marker").write_text(side)
    sides = [str(tmp_path / side) for side in ("parent", "change")]
    monkeypatch.setattr(digest, "run_here", run_here)
    assert digest.main(sides) == 0
    same = capsys.readouterr().out.splitlines()
    moved = "cored-nonlocal T=1 quad_tol=1e-12 term_tol=1e-15"
    monkeypatch.setattr(digest, "run_here",
                        lambda script, checkout: run_here(script, checkout,
                                                          moved))
    assert digest.main(sides) == 1
    out = capsys.readouterr().out.splitlines()
    assert runs == ["parent", "change"] * 2
    assert same[0] == out[0] == f"parent {same[0].split()[1]}"
    assert same[1:] == [f"change {same[0].split()[1]}",
                        "0 of 91 result sets differ"]
    assert out[1] != same[1] and out[2:] == [moved, "1 of 91 result sets differ"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "change", "marker", "marker", "parent"]
    # 5 models x 6 temperatures x 3 tolerance pairs and one set that raises,
    # and every field in hex
    assert len(set(digest.SETS)) == 91 and moved in digest.SETS
    assert digest.SETS[-1] == digest.RAISING
    stalled = digest.set_text(digest.RAISING, {"nonlocal": gold_default()}, [])
    with pytest.raises(ConvergenceError) as err:
        casimir_pressures([PressureQuery(1e-93, 1e30, gold_default())])
    assert stalled == (f"ConvergenceError: {err.value} "
                       f"{err.value.last_estimate!r}")
    assert stalled.startswith("ConvergenceError: wavevector quadrature stalled")
    assert digest.result_text(PressureResult(-1.5, 3, 0.25, (-1.0, -0.5))) == (
        "-0x1.8000000000000p+0 3 0x1.0000000000000p-2 -0x1.0000000000000p+0 "
        "-0x1.0000000000000p-1")


def test_pass_cost_times_each_side_in_a_copy(tmp_path, monkeypatch, capsys):
    # it takes its models, copies and runs from result_digest.py
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(
        "pass_cost", SCRIPTS / "pass_cost.py")
    cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cost)
    runs = []

    def run_here(script, checkout):
        # each side runs in a copy of its checkout; rounds alternate sides
        assert Path(script).resolve() == SCRIPTS / "pass_cost.py"
        assert not checkout.is_relative_to(tmp_path)
        assert (checkout / "marker").read_text() == checkout.name
        runs.append(checkout.name)
        base = 40.0 if checkout.name == "parent" else 30.0
        return {name: base + len(runs) for name in cost.MODELS}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "marker").write_text(side)
    monkeypatch.setattr(cost, "run_here", run_here)
    assert cost.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    assert cost.ROUNDS == 5 and runs == ["parent", "change", "change",
                                         "parent", "parent", "change",
                                         "change", "parent", "parent",
                                         "change"]
    out = capsys.readouterr().out.splitlines()
    # the minimum over the rounds: parent 40 + 1, change 30 + 2
    assert out[1:] == [f"{name:16}     41.0     32.0  0.780"
                       for name in cost.MODELS]
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "change", "marker", "marker", "parent"]
    # one pass of the checkout at hand: a time for every model
    monkeypatch.chdir(SCRIPTS.parent)
    monkeypatch.setattr(sys, "path", sys.path[:])   # it adds tests/
    monkeypatch.setattr(cost, "REPEATS", 1)
    times = cost.pass_here()
    assert sorted(times) == sorted(cost.MODELS)
    assert all(0.0 < ns < math.inf for ns in times.values())


def test_perfbench_tracer_changes_no_output_byte(capsys):
    # perfbench/tracing.py patches names by name in nlcasimir.cli and in
    # nlcasimir.kramers_kronig, whose pv_integral and quad are None
    # placeholders (the QUADPACK reference is tests/reference_paths.py);
    # if one name is gone, installing the tracer raises AttributeError
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", SCRIPTS.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    commands = (["kk-verify", "--kperp", "0.2"],
                ["pressure", "--a-min", "1", "--a-max", "1", "--points", "1"])
    plain = [run_cli(capsys, argv) for argv in commands]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = [run_cli(capsys, argv) for argv in commands]
    assert traced == plain
    assert plain[0][0] == 0 and plain[1][0] == 0
    # the tracer's lifshitz span wraps cli.casimir_pressure, which the CLI
    # no longer calls; the static and block passes of the three models
    # still reach the reflection layer
    assert tracer.calls["reflection.zero_freq"] >= 3
    assert tracer.calls["reflection.block"] >= 3
    assert tracer.counts["response.real_points"] > 0


def test_a_pressure_sweep_makes_one_call_per_model(capsys, monkeypatch):
    calls = []

    def counted(queries):
        calls.append(len(queries))
        return casimir_pressures(queries)

    monkeypatch.setattr(nlcasimir.cli, "casimir_pressures", counted)
    code, _, _ = run_cli(capsys, ["pressure", "--a-min", "1", "--a-max", "2",
                                  "--points", "1"])
    assert code == 0
    assert calls == [1, 1, 1]


def test_repeated_calls_in_one_process_behave_alike(capsys):
    # the argument parser is built once and kept
    commands = (["pressure", "--a-min", "2", "--a-max", "1", "--bogus"],
                ["--help"],
                ["pressure", "--a-min", "1", "--a-max", "1", "--points", "1"])
    first = [run_cli(capsys, argv) for argv in commands]
    assert [run_cli(capsys, argv) for argv in commands] == first
    assert [code for code, _, _ in first] == [2, 0, 0]


def test_json_payload_shape(capsys):
    code, out, _ = run_cli(capsys, [
        "epsilon", "--points", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["xi_eV", "eps_L", "eps_T"]
    assert payload["meta"]["omega_p_eV"] == 9.0
    assert payload["meta"]["temp_K"] == 300.0
    assert len(payload["rows"]) == 3


def test_epsilon_real_axis_columns(capsys):
    code, out, _ = run_cli(capsys, [
        "epsilon", "--axis", "real", "--kperp", "0.5", "--points", "2"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["omega_eV", "re_eps_L", "im_eps_L", "re_eps_T", "im_eps_T"]
    assert all(len(row) == 5 for row in rows)


def test_epsilon_with_interband_core(capsys, tmp_path):
    path = tmp_path / "nk.dat"
    path.write_text(OPTICAL_TEXT)
    code, out, _ = run_cli(capsys, [
        "epsilon", "--points", "2", "--omega-min", "0.5", "--omega-max", "2.0",
        "--optical-data", str(path)])
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert "optical_data=" in meta
    params = gold_default().params
    model = WithCore(NonlocalAlt(params), core_table(params))
    for xi, row in zip(np.linspace(0.5, 2.0, 2), rows):
        pair = eval_imag_axis(model, float(xi), 0.0)
        assert math.isclose(row[1], pair.eps_l, rel_tol=1e-8)
        assert math.isclose(row[2], pair.eps_t, rel_tol=1e-8)


def test_core_on_the_real_axis_is_rejected(capsys, tmp_path):
    path = tmp_path / "nk.dat"
    path.write_text(OPTICAL_TEXT)
    code, out, err = run_cli(capsys, [
        "epsilon", "--axis", "real", "--optical-data", str(path)])
    assert code == 2 and out == ""
    assert "error:" in err


def test_missing_optical_file(capsys):
    code, _, err = run_cli(capsys, [
        "epsilon", "--optical-data", "/no/such/file.dat"])
    assert code == 2
    assert "error:" in err


def test_pressure_sweep_with_ratio_columns(capsys):
    code, out, _ = run_cli(capsys, [
        "pressure", "--a-min", "1.0", "--a-max", "2.0", "--points", "2"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["a_um", "P_drude_Pa", "P_nonlocal_Pa", "P_plasma_Pa",
                      "ratio_nl_drude", "ratio_pl_drude"]
    for row in rows:
        assert math.isclose(row[4], row[2] / row[1], rel_tol=1e-7)
        assert math.isclose(row[5], row[3] / row[1], rel_tol=1e-7)
        assert row[1] < 0.0 and row[2] < 0.0 and row[3] < 0.0


def test_lossless_drude_column_equals_plasma(capsys):
    code, out, _ = run_cli(capsys, [
        "pressure", "--models", "drude,plasma", "--gamma", "0", "--a-min",
        "1", "--a-max", "3", "--points", "3"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[-1] == "ratio_pl_drude"
    assert [row[-1] for row in rows] == [1.0, 1.0, 1.0]


def test_pressure_single_model(capsys):
    code, out, _ = run_cli(capsys, [
        "pressure", "--models", "nonlocal", "--a-min", "1.0", "--a-max", "1.0",
        "--points", "1"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["a_um", "P_nonlocal_Pa"]
    want = casimir_pressure(PressureQuery(1.0, 300.0, gold_default())).pressure
    assert math.isclose(rows[0][1], want, rel_tol=1e-8)


def test_pressure_with_optical_data(capsys, tmp_path, optical_text):
    path = tmp_path / "nk.dat"
    path.write_text(optical_text)
    code, out, err = run_cli(capsys, [
        "pressure", "--models", "drude,nonlocal", "--a-min", "1.0",
        "--a-max", "1.0", "--points", "1", "--optical-data", str(path)])
    assert code == 0 and err == ""
    _, header, rows = parse_csv(out)
    assert header == ["a_um", "P_drude_Pa", "P_nonlocal_Pa", "ratio_nl_drude"]
    params = gold_default().params
    core = core_table(params)
    for col, inner in ((1, Drude(params.drude)), (2, NonlocalAlt(params))):
        want = casimir_pressure(
            PressureQuery(1.0, 300.0, WithCore(inner, core))).pressure
        assert rows[0][col] == float(format(want, ".9g"))


def test_gradient_with_optical_data(capsys, tmp_path, optical_text):
    path = tmp_path / "nk.dat"
    path.write_text(optical_text)
    code, out, err = run_cli(capsys, [
        "gradient", "--radius", "50", "--a-min", "1.0", "--a-max", "1.0",
        "--points", "1", "--optical-data", str(path)])
    assert code == 0 and err == ""
    _, header, rows = parse_csv(out)
    assert header == ["a_um", "Fprime_theor"]
    params = gold_default().params
    model = WithCore(NonlocalAlt(params), core_table(params))

    def pressure(a):
        return casimir_pressure(PressureQuery(a, 300.0, model)).pressure

    want = force_gradient(1.0, SpherePlateConfig(radius=50.0), pressure)
    assert rows[0][1] == float(format(want, ".9g"))


def test_duplicate_models_are_rejected(capsys):
    code, _, err = run_cli(capsys, [
        "pressure", "--models", "drude,drude", "--a-min", "1", "--a-max", "2"])
    assert code == 2
    assert "twice" in err


def test_gradient_against_measured_data(capsys, tmp_path):
    path = tmp_path / "expt.csv"
    path.write_text(EXPT_TEXT)
    code, out, _ = run_cli(capsys, [
        "gradient", "--model", "drude", "--radius", "50", "--expt", str(path)])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["a_um", "Fprime_theor", "Fprime_expt", "diff"]
    model = Drude(gold_default().params.drude)
    sp = SpherePlateConfig(radius=50.0)

    def pressure(a):
        return casimir_pressure(PressureQuery(a, 300.0, model)).pressure

    for (a, fp), row in zip(((0.80, 6.0e-6), (1.20, 2.0e-6)), rows):
        theor = force_gradient(a, sp, pressure)
        assert math.isclose(row[1], theor, rel_tol=1e-8)
        assert row[2] == fp
        assert math.isclose(row[3], fp - theor, rel_tol=1e-7)


def test_gradient_grid_mode(capsys):
    code, out, _ = run_cli(capsys, [
        "gradient", "--radius", "50", "--a-min", "0.8", "--a-max", "1.0",
        "--points", "2"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["a_um", "Fprime_theor"]
    assert len(rows) == 2
    assert all(row[1] > 0.0 for row in rows)


def test_theta_accepts_degrees_and_radians(capsys):
    base = ["reflectance", "--points", "3"]
    _, deg, _ = run_cli(capsys, [*base, "--theta", "60deg"])
    _, rad, _ = run_cli(capsys, [*base, "--theta", repr(math.radians(60.0))])
    assert deg == rad
    _, header, rows = parse_csv(deg)
    assert header == ["omega_eV", "R_TM", "R_TE", "dR_TM", "dR_TE"]
    assert all(0.0 < row[1] < 1.0 and 0.0 < row[2] < 1.0 for row in rows)


def test_theta_with_unknown_unit_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, [
        "reflectance", "--points", "2", "--theta", "60furlongs"])
    assert code == 2
    assert "60furlongs" in err


def test_reflectance_rejects_core_data(capsys, tmp_path):
    path = tmp_path / "nk.dat"
    path.write_text(OPTICAL_TEXT)
    code, _, err = run_cli(capsys, [
        "reflectance", "--theta", "45deg", "--optical-data", str(path)])
    assert code == 2
    assert "error:" in err


@pytest.fixture(scope="module")
def all_reports_at_k02(tmp_path_factory):
    path = tmp_path_factory.mktemp("kk") / "all.json"
    assert run(["kk-verify", "--kperp", "0.2", "--relations", "all",
                "--out", str(path)]) == 0
    return {r["relation"]: r for r in json.loads(path.read_text())}


@pytest.mark.parametrize("relation", list(RELATIONS))
def test_kk_verify_single_relation(capsys, all_reports_at_k02, relation):
    code, out, err = run_cli(capsys, [
        "kk-verify", "--kperp", "0.2", "--relations", relation])
    assert code == 0 and err == ""
    reports = json.loads(out)
    assert [r["relation"] for r in reports] == [relation]
    assert reports[0]["max_residual"] < 1e-4
    assert len(reports[0]["residuals"]) == len(reports[0]["grid_eV"]) == 13
    # one relation run alone reports what it reports inside --relations all
    assert reports[0] == all_reports_at_k02[relation]


def test_kk_verify_evaluates_each_component_in_one_node_pass(capsys,
                                                            monkeypatch):
    # the three relations of a component share their panel edges, so one
    # 2-d pass of eval_real_axis serves them all (it was one per relation),
    # and one 1-d call at the grid and the cutoff gives the real-axis
    # relations their left-hand side too (it was one more per relation)
    import nlcasimir.kramers_kronig as kk

    passes, ends = [], []

    def counted(model, omega, k_hat=0.0):
        (passes if np.ndim(omega) == 2 else ends).append(np.shape(omega))
        return eval_real_axis(model, omega, k_hat)

    monkeypatch.setattr(kk, "eval_real_axis", counted)
    code, _, _ = run_cli(capsys, ["kk-verify", "--relations", "all",
                                  "--kperp", "0.2"])
    assert code == 0
    assert len(passes) == 2
    assert ends == [(14,), (14,)]


def test_kk_verify_evaluates_a_repeated_node_pass_once(monkeypatch):
    # on this grid an eps_L kernel refines, and the next kernel's first
    # pass equals the component's first: its eps come from that pass
    import nlcasimir.kramers_kronig as kk

    params, grid = gold_default().params, [1e-3, 0.01, 30.0]
    alone = [kk.verify_kk([rid], params, 0.2, grid=grid)[0] for rid in RELATIONS]
    passes = []

    def counted(model, omega, k_hat=0.0):
        if np.ndim(omega) == 2:
            passes.append(np.shape(omega))
        return eval_real_axis(model, omega, k_hat)

    monkeypatch.setattr(kk, "eval_real_axis", counted)
    assert kk.verify_kk(list(RELATIONS), params, 0.2, grid=grid) == alone
    assert len(passes) == 3 and passes[1] != passes[2]


def test_kk_verify_flags_the_conducting_limit(capsys):
    # at kperp = 0 the longitudinal response degenerates to the conducting
    # form, so the insulator-form imag-from-real check must fail loudly
    code, out, err = run_cli(capsys, ["kk-verify"])
    assert code == 1
    assert "max_residual" in err
    reports = {r["relation"]: r for r in json.loads(out)}
    assert len(reports) == 6
    assert reports["l-imag-from-real"]["max_residual"] > 0.1
    assert "conducting limit" in reports["l-imag-from-real"]["note"]
    assert reports["t-imag-axis"]["max_residual"] < 1e-4


def test_kk_verify_transverse_relations_pass_at_zero_k(capsys):
    code, _, err = run_cli(capsys, [
        "kk-verify",
        "--relations", "t-real-from-imag,t-imag-from-real,t-imag-axis"])
    assert code == 0 and err == ""


def test_kk_verify_csv_stream(capsys):
    code, out, _ = run_cli(capsys, [
        "kk-verify", "--kperp", "0.2", "--relations", "t-imag-axis",
        "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "relation,grid_eV,residual"
    assert len(lines) == 2 + 13
    assert lines[2].startswith("t-imag-axis,")


def test_unknown_relation_id(capsys):
    code, _, err = run_cli(capsys, ["kk-verify", "--relations", "eq-31"])
    assert code == 2
    assert "unknown relation" in err


def test_out_writes_the_same_stream(capsys, tmp_path):
    argv = ["epsilon", "--points", "2"]
    _, stdout_text, _ = run_cli(capsys, argv)
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, [*argv, "--out", str(path)])
    assert code == 0 and out == ""
    assert path.read_text() == stdout_text


def test_parameter_overrides_reach_the_model(capsys):
    code, out, _ = run_cli(capsys, [
        "epsilon", "--omega-p", "8.0", "--gamma", "0.02", "--vt", "0",
        "--vl", "0", "--kperp", "2.0", "--points", "1",
        "--omega-min", "0.5", "--omega-max", "0.5"])
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert "omega_p_eV=8" in meta and "vt_over_vF=0" in meta
    # with both velocities zeroed the wavevector drops out entirely
    want = 1.0 + 8.0**2 / (0.5 * (0.5 + 0.02))
    assert math.isclose(rows[0][1], want, rel_tol=1e-8)
    assert math.isclose(rows[0][2], want, rel_tol=1e-8)


@pytest.mark.parametrize("argv, bounds", [
    (["pressure", "--a-min", "1", "--a-max", "inf", "--points", "2"],
     "[1.0, inf]"),
    (["epsilon", "--omega-max", "nan"], "[0.1, nan]"),
    (["gradient", "--radius", "50", "--a-max", "inf"], "[0.6, inf]"),
    (["reflectance", "--theta", "0.5", "--omega-max", "nan"], "[0.1, nan]"),
])
def test_non_finite_range_bounds_are_refused_where_they_enter(capsys, argv,
                                                              bounds):
    # one error line: no numpy warning from a grid built on an inf bound
    assert run_cli(capsys, argv) == (
        2, "", f"error: range bounds must be finite, got {bounds}\n")


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run_cli(capsys, ["pressure"])[0] == 2          # missing --a-min
    assert run_cli(capsys, [])[0] == 2                    # missing command
    code, _, err = run_cli(capsys, [
        "pressure", "--a-min", "2", "--a-max", "1"])
    assert code == 2
    assert "error:" in err
    # non-finite numbers are refused where they enter, not where they crash
    for argv in (["pressure", "--temp", "nan", "--a-min", "1", "--a-max", "2"],
                 ["pressure", "--a-min", "nan", "--a-max", "2"],
                 ["gradient", "--radius", "nan"],
                 ["gradient", "--radius", "150", "--delta-s", "nan"],
                 ["epsilon", "--kperp", "nan"],
                 ["epsilon", "--gamma", "nan"],
                 ["epsilon", "--omega-p", "inf"],
                 # an omega_p whose square overflows, in every command
                 *([*argv, "--omega-p", "1e200"] for argv in (
                     ["epsilon"],
                     ["pressure", "--a-min", "1", "--a-max", "2"],
                     ["gradient", "--radius", "150"],
                     ["reflectance", "--theta", "0.3"],
                     ["kk-verify"])),
                 ["gradient", "--radius", "150", "--beta", "nan"],
                 ["gradient", "--radius", "150", "--beta", "inf"],
                 ["kk-verify", "--kperp", "nan"],
                 # empty or unknown lists and empty ranges
                 ["pressure", "--points", "0", "--a-min", "1", "--a-max", "2"],
                 ["pressure", "--a-min", "0", "--a-max", "2"],
                 ["pressure", "--models", ",", "--a-min", "1", "--a-max", "2"],
                 ["pressure", "--models", "foo", "--a-min", "1",
                  "--a-max", "2"],
                 ["kk-verify", "--relations", ","],
                 # so are (a, T) that double arithmetic cannot sum
                 *(["pressure", "--models", "drude", "--points", "1",
                    "--a-min", a, "--a-max", a, "--temp", t]
                   for a, t in (("1e-120", "300"), ("1e200", "300"),
                                ("1", "1e-300"), ("1", "1e300"),
                                ("1e-90", "1e80"), ("1e-100", "1e204"),
                                ("2.83e-103", "1e207"))),
                 # and real-axis pairs that overflow inside [2^-511, 2^512)
                 # eV: the lossless quotient and the nonlocal eps_T
                 ["epsilon", "--axis", "real", "--gamma", "0", "--omega-min",
                  "2e-154", "--omega-max", "2e-154", "--points", "1"],
                 ["reflectance", "--theta", "0.3", "--gamma", "0",
                  "--omega-min", "2e-154", "--omega-max", "2e-154"],
                 ["epsilon", "--axis", "real", "--kperp", "0.3",
                  "--omega-min", "2e-154", "--omega-max", "1e-150"],
                 # options that are gone or that a command does not read
                 ["kk-verify", "--optical-data", "/no/such/file.dat"],
                 ["epsilon", "--preset", "gold-default"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "error:" in err
    # and so are non-finite entries of data files, with their line number
    path = tmp_path / "data"
    for old, new in (("6.0 ", "nan "), ("6.0 ", "inf "), ("1.30", "nan")):
        path.write_text(OPTICAL_TEXT.replace(old, new))
        for argv in (["epsilon"], ["pressure", "--a-min", "1", "--a-max", "1",
                                   "--points", "1"]):
            code, out, err = run_cli(capsys, [*argv, "--optical-data",
                                              str(path)])
            assert code == 2 and out == ""
            assert "error: line 8: non-finite" in err
    # a photon energy of zero has no place on the real axis
    path.write_text(OPTICAL_TEXT.replace("0.5 ", "0.0 "))
    code, out, err = run_cli(capsys, ["epsilon", "--optical-data", str(path)])
    assert code == 2 and out == ""
    assert "error: line 2: energy must be positive" in err
    for old, new in (("6.0e-6", "inf"), ("1.0e-7", "nan")):
        path.write_text(EXPT_TEXT.replace(old, new))
        code, out, err = run_cli(capsys, [
            "gradient", "--model", "drude", "--radius", "50", "--expt",
            str(path)])
        assert code == 2 and out == ""
        assert "non-finite" in err


def test_a_real_frequency_out_of_range_is_refused_before_any_output(capsys):
    # omega^2 is not a normal double there: z (z + gamma) under- or overflows
    for argv in (["epsilon", "--axis", "real", "--gamma", "0", "--omega-min",
                  "1e-300", "--omega-max", "1e-300", "--points", "1"],
                 ["reflectance", "--theta", "0.3", "--gamma", "0",
                  "--omega-min", "1e-200", "--omega-max", "1e-200",
                  "--points", "1"],
                 ["reflectance", "--theta", "0.3", "--omega-min", "1e200",
                  "--omega-max", "1e200", "--points", "1"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        # no NaN row, no overflow warning, no "reflectance vanishes"
        assert err.startswith("error: omega must lie in [2^-511, 2^512) eV")
        assert err.count("\n") == 1


def test_non_convergence_exits_3(capsys, monkeypatch):
    def stalled(queries):
        raise ConvergenceError("wavevector quadrature stalled")

    monkeypatch.setattr(nlcasimir.cli, "casimir_pressures", stalled)
    code, out, err = run_cli(capsys, [
        "pressure", "--models", "drude", "--a-min", "1", "--a-max", "1",
        "--points", "1"])
    assert (code, out) == (3, "")
    assert err == "error: wavevector quadrature stalled\n"
