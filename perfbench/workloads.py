"""The four workloads: their inputs, operations and output checks.

Each workload is a fixed list of operations.  An operation is one
in-process `nlcasimir.cli.run(argv)` call with stdout captured, or one
library call for the impedance oracle, which has no CLI.  Inputs come
from the seed; the program sees only the generated files and argv.

An operation fails on an exception, an unexpected exit code, or an
output check that does not pass.  Checks run outside the timed region
against references the benchmark computes itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import nlcasimir.cli
from nlcasimir import (CONSTANTS, Drude, Plasma, WithCore,
                       build_core_table, eval_imag_axis, gold_default,
                       impedance_closed, impedance_numeric, interband_im_eps,
                       parse_optical_table)
from reference import reference_pressure
from tracing import Tracer

# The default quad_tol/term_tol stop the Matsubara sum with a truncation
# error of up to term_tol times the number of terms per unit of y, about
# 4e-8 relative at 1 K and 0.5 um; 1e-6 leaves room for that and still
# catches any wrong digit from the sixth on.
PRESSURE_RTOL = 1e-6
PRINT_RTOL = 1e-8           # one value against others printed to 9 digits
KK_THRESHOLD = 1e-4
IMPEDANCE_RTOL = 1e-6
SPOT_ROWS = 8               # seeded rows per table checked against the reference

GOLD = gold_default()
MODELS = {"drude": Drude(GOLD.params.drude), "nonlocal": GOLD,
          "plasma": Plasma(GOLD.params.drude.omega_p)}
# energies of the synthetic n,k table in conftest.py; n and k are drawn
# around its values, so low rows clamp to zero interband weight
_NK_ROWS = ((0.5, 1.20, 9.00), (1.0, 0.80, 6.50), (1.5, 0.60, 4.80),
            (2.0, 0.90, 3.90), (3.0, 1.60, 2.60), (4.0, 1.55, 1.90),
            (6.0, 1.30, 1.40))
# the CLI tabulates interband cores on this imaginary-axis grid
_CORE_XI_GRID = np.geomspace(1e-3, 1e2, 121)


@dataclass
class Outcome:
    exit_code: Optional[int]
    output: str                 # captured stdout, or a library result as JSON
    error: str = ""             # exception type and message
    stderr: str = ""


@dataclass
class Op:
    name: str
    call: Callable[[Optional[Tracer]], Outcome]
    check: Callable[[Outcome], List[str]]   # problems; empty means correct
    expect_exit: int = 0


class References:
    """Reference pressures, computed once per process per point."""

    def __init__(self):
        self._cache = {}
        self.points = []            # (model name, a_um, T, P_ref) checked

    def pressure(self, label, a_um, temperature, model=None):
        """Reference for MODELS[label], or for `model` filed under label."""
        key = (label, a_um, temperature)
        if key not in self._cache:
            self._cache[key] = reference_pressure(
                model if model is not None else MODELS[label],
                a_um, temperature)
            self.points.append(key + (self._cache[key],))
        return self._cache[key]


def cli_call(argv):
    def call(tracer=None):
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span("cli") if tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = nlcasimir.cli.run(argv)
        except Exception as exc:     # a crash is a failed operation, not ours
            return Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
        return Outcome(code, out.getvalue(), stderr=err.getvalue())
    return call


def _parse_csv(text):
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError("missing meta or header line")
    header = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged rows")
    return header, np.array(rows).reshape(len(rows), len(header))


def _close(label, got, want, rtol):
    if not abs(got - want) <= rtol * abs(want):
        return [f"{label}: got {got!r}, want {want!r} (rtol {rtol:g})"]
    return []


def _pressure_table_check(refs, names, grid, temperature, spot,
                          core_model=None):
    """Checks for `pressure` output over `grid`, rows `spot` on the reference.

    core_model(name), when given, is the model with the interband core the
    CLI builds from --optical-data.
    """
    def check(outcome):
        header, rows = _parse_csv(outcome.output)
        want = ["a_um"] + [f"P_{n}_Pa" for n in names]
        if "drude" in names:
            want += [f"ratio_{tag}_drude" for tag, n in
                     (("nl", "nonlocal"), ("pl", "plasma")) if n in names]
        if header != want:
            return [f"header {header} != {want}"]
        if len(rows) != len(grid):
            return [f"{len(rows)} rows, want {len(grid)}"]
        problems = []
        col = {h: i for i, h in enumerate(header)}
        for i, a in enumerate(grid):
            row = rows[i]
            problems += _close(f"a[{i}]", row[0], a, PRINT_RTOL)
            for tag, n in (("nl", "nonlocal"), ("pl", "plasma")):
                ratio = f"ratio_{tag}_drude"
                if ratio in col:
                    problems += _close(
                        f"{ratio}[{i}]", row[col[ratio]],
                        row[col[f"P_{n}_Pa"]] / row[col["P_drude_Pa"]],
                        PRINT_RTOL)
            # |P_D| < |P_nl| < |P_pl| holds from 1 um up (acceptance
            # criterion 5); at 300 K and 0.2 um P_nonlocal exceeds P_plasma
            if a >= 1.0 and core_model is None:
                mags = [abs(row[col[f"P_{n}_Pa"]])
                        for n in ("drude", "nonlocal", "plasma") if n in names]
                if any(x >= y for x, y in zip(mags, mags[1:])):
                    problems.append(f"ordering broken at a = {a}: {mags}")
        for i in spot:
            for n in names:
                if core_model is None:
                    ref = refs.pressure(n, float(grid[i]), temperature)
                else:
                    ref = refs.pressure(f"{n}+core", float(grid[i]),
                                        temperature, core_model(n))
                problems += _close(f"P_{n}(a={grid[i]:.9g})",
                                   rows[i][col[f"P_{n}_Pa"]], ref,
                                   PRESSURE_RTOL)
        return problems
    return check


def _stratified(rng, n, lo, hi):
    """n draws from U(lo, hi), one in each of n equal strata, in random order.

    Every seed then covers the whole range, so the work a seed brings
    varies less than with plain uniform draws.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def _spot(rng, n, k=SPOT_ROWS):
    return sorted(rng.choice(n, size=min(k, n), replace=False))


def _write_nk(path, rng):
    lines = ["# photon energy [eV]   n      k"]
    for e, n, k in _NK_ROWS:
        lines.append(f"{e!r} {n * rng.uniform(0.9, 1.1)!r} "
                     f"{k * rng.uniform(0.9, 1.1)!r}")
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    return text


def _write_expt(path, rng, radius_um, rows):
    """Measured-gradient rows near the ideal-metal gradient, with noise."""
    a = np.sort(_stratified(rng, rows, 0.6, 2.0))
    ideal = (2.0 * math.pi * radius_um * 1e-6 * math.pi**2 * CONSTANTS.hbar_c
             / (240.0 * a**4) * CONSTANTS.ev_per_um3_to_pascal)
    fprime = ideal * rng.uniform(0.75, 0.95, rows)
    sigma = 0.01 * fprime
    path.write_text("a_um,Fprime,sigma\n" + "".join(
        f"{x!r},{f!r},{s!r}\n"
        for x, f, s in zip(a.tolist(), fprime.tolist(), sigma.tolist())))
    return a, fprime


def room_sweep(seed, workdir, refs):
    rng = np.random.default_rng([seed, 1])
    ops = []
    names = ["drude", "nonlocal", "plasma"]
    grid = np.linspace(0.2, 7.0, 100)
    ops.append(Op("pressure-sweep", cli_call(
        ["pressure", "--models", ",".join(names), "--a-min", "0.2",
         "--a-max", "7", "--points", "100"]),
        _pressure_table_check(refs, names, grid, 300.0, _spot(rng, 100))))

    radius = 150.0
    expt = workdir / "expt.csv"
    a_expt, f_expt = _write_expt(expt, rng, radius, 100)
    spot = _spot(rng, 100)

    def check_gradient(outcome):
        header, rows = _parse_csv(outcome.output)
        if header != ["a_um", "Fprime_theor", "Fprime_expt", "diff"]:
            return [f"header {header}"]
        if len(rows) != len(a_expt):
            return [f"{len(rows)} rows, want {len(a_expt)}"]
        problems = []
        for i, (a, theor, fexp, diff) in enumerate(rows):
            problems += _close(f"a[{i}]", a, a_expt[i], PRINT_RTOL)
            problems += _close(f"expt[{i}]", fexp, f_expt[i], PRINT_RTOL)
            if not abs(diff - (fexp - theor)) <= PRINT_RTOL * max(fexp, theor):
                problems.append(f"diff[{i}] = {diff!r} != expt - theor")
        for i in spot:
            ref = -2.0 * math.pi * radius * 1e-6 * refs.pressure(
                "nonlocal", float(a_expt[i]), 300.0)
            problems += _close(f"Fprime_theor(a={a_expt[i]:.9g})",
                               rows[i][1], ref, PRESSURE_RTOL)
        return problems

    ops.append(Op("gradient-expt", cli_call(
        ["gradient", "--model", "nonlocal", "--radius", str(radius),
         "--expt", str(expt)]), check_gradient))

    nk = workdir / "gold_nk.dat"
    nk_text = _write_nk(nk, rng)
    a_opt = float(np.round(rng.uniform(1.0, 3.0), 3))
    core = build_core_table(
        interband_im_eps(parse_optical_table(nk_text), GOLD.params.drude),
        _CORE_XI_GRID)

    def with_core(name):
        model = MODELS[name]
        return model if name == "plasma" else WithCore(model, core)

    ops.append(Op("pressure-optical-data", cli_call(
        ["pressure", "--models", ",".join(names), "--a-min", str(a_opt),
         "--a-max", str(a_opt), "--points", "1", "--optical-data", str(nk)]),
        _pressure_table_check(refs, names, np.array([a_opt]), 300.0, [0],
                              core_model=with_core)))
    return ops


def cold_nonlocal(seed, workdir, refs):
    ops = []
    for a in (0.5, 1.0):
        ops.append(Op(f"pressure-1K-a{a}", cli_call(
            ["pressure", "--models", "nonlocal", "--temp", "1",
             "--a-min", str(a), "--a-max", str(a), "--points", "1"]),
            _pressure_table_check(refs, ["nonlocal"], np.array([a]), 1.0,
                                  [0])))
    return ops


def cold_local(seed, workdir, refs):
    rng = np.random.default_rng([seed, 3])
    names = ["drude", "plasma"]
    grid = np.linspace(0.5, 3.0, 30)
    return [Op("pressure-sweep-1K", cli_call(
        ["pressure", "--models", ",".join(names), "--temp", "1",
         "--a-min", "0.5", "--a-max", "3", "--points", "30"]),
        _pressure_table_check(refs, names, grid, 1.0, _spot(rng, 30, 4)))]


KPERPS = ("0", "0.05", "0.1", "0.2", "0.5", "1", "2", "5")
_RELATIONS = ("t-real-from-imag", "t-imag-from-real", "t-imag-axis",
              "l-real-from-imag", "l-imag-from-real", "l-imag-axis")


def _kk_check(kperp):
    # at kperp 0 the longitudinal imag-from-real relation fails by design
    # (conducting limit) and says so in its note; that is the one exit 1
    conducting = float(kperp) == 0.0

    def check(outcome):
        reports = json.loads(outcome.output)
        if [r["relation"] for r in reports] != list(_RELATIONS):
            return ["relations out of order or missing"]
        problems = []
        for r in reports:
            if max(r["residuals"]) != r["max_residual"]:
                problems.append(f"{r['relation']}: max_residual mismatch")
            excused = conducting and r["relation"] == "l-imag-from-real"
            if excused:
                if "conducting limit" not in r.get("note", ""):
                    problems.append("conducting-limit note missing")
            elif not r["max_residual"] < KK_THRESHOLD:
                problems.append(f"{r['relation']} at kperp {kperp}: residual "
                                f"{r['max_residual']:g}")
        return problems
    return check


def causality(seed, workdir, refs):
    rng = np.random.default_rng([seed, 4])
    ops = []
    for k in KPERPS:
        ops.append(Op(f"kk-verify-k{k}", cli_call(
            ["kk-verify", "--relations", "all", "--kperp", k]),
            _kk_check(k), expect_exit=1 if float(k) == 0.0 else 0))

    # xi and k_hat each 10^U(-2, 1) as in acceptance criterion 2, drawn
    # as a Latin hypercube
    points = 10.0 ** np.column_stack([_stratified(rng, 10, -2.0, 1.0),
                                      _stratified(rng, 10, -2.0, 1.0)])
    for i, (xi, k) in enumerate(points):
        ops.append(_impedance_op(i, float(xi), float(k)))
    return ops


def _impedance_op(i, xi, k):
    """impedance_numeric for gold against impedance_closed at one point.

    Traced, the eps_of_k callback counts its evaluations and the call is
    a reflection.impedance span.
    """
    def call(tracer=None):
        def eps_of_k(xi, k_hat, kz):
            if tracer:
                tracer.counts["impedance_evals"] += 1
            return eval_imag_axis(GOLD, xi, k_hat)

        span = (tracer.span("reflection.impedance") if tracer
                else contextlib.nullcontext())
        try:
            with span:
                z = impedance_numeric(eps_of_k, xi, k)
        except Exception as exc:
            return Outcome(None, "", f"{type(exc).__name__}: {exc}")
        return Outcome(0, json.dumps([float(z.z_tm), float(z.z_te)]))

    def check(outcome):
        z_tm, z_te = json.loads(outcome.output)
        closed = impedance_closed(eval_imag_axis(GOLD, xi, k), xi, k)
        return (_close(f"z_tm(xi={xi:.4g}, k={k:.4g})", z_tm, closed.z_tm,
                       IMPEDANCE_RTOL)
                + _close(f"z_te(xi={xi:.4g}, k={k:.4g})", z_te, closed.z_te,
                         IMPEDANCE_RTOL))
    return Op(f"impedance-{i}", call, check)


WORKLOADS = {"room_sweep": room_sweep, "cold_nonlocal": cold_nonlocal,
             "cold_local": cold_local, "causality": causality}


def check_outcome(op, outcome):
    """Problems with one outcome; an empty list means the operation passed."""
    if outcome.error:
        return [outcome.error]
    if outcome.exit_code != op.expect_exit:
        return [f"exit code {outcome.exit_code}, want {op.expect_exit}: "
                f"{outcome.stderr.strip()}"]
    try:
        return op.check(outcome)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
