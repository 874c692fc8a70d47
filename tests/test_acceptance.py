"""Acceptance gate: one test per release criterion, one verdict line each.

Every test computes all of its clauses before asserting anything and
prints a single "ACCEPTANCE n: PASS/FAIL - detail" line.  The lines are
also collected by conftest and echoed in a summary section after the
run, so plain `pytest -v` shows the verdicts for passing criteria too.
"""

import math
import time

import numpy as np
from scipy.special import zeta

from conftest import ACCEPTANCE_LINES
from nlcasimir import (CONSTANTS, RELATIONS, Drude, NonlocalAlt,
                       NonlocalParams, PerfectReflector, Plasma,
                       PressureQuery, casimir_pressure, eval_imag_axis,
                       eval_real_axis, fresnel, gold_default, impedance_closed,
                       impedance_numeric, nonlocal_coeffs,
                       reflectance_deviation, verify_kk, zero_freq_limit)

GOLD = gold_default()
PARAMS = GOLD.params
LOCAL = Drude(PARAMS.drude)
SEED = 20260819


def _announce(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def _pressure(a_um, model, temperature=300.0):
    return casimir_pressure(PressureQuery(a_um, temperature, model)).pressure


def test_criterion_1_reduction_identities():
    rng = np.random.default_rng(SEED)
    xi = 10.0 ** rng.uniform(-3.0, 2.0, 1000)
    k = rng.uniform(0.0, 100.0, 1000)
    frozen = NonlocalAlt(NonlocalParams(PARAMS.drude, 0.0, 0.0))

    start = time.perf_counter()
    nl = nonlocal_coeffs(eval_imag_axis(frozen, xi, k), xi, k)
    fr = fresnel(eval_imag_axis(LOCAL, xi, k).eps_t, xi, k)
    worst = max(
        np.max(np.abs(nl.r_tm - fr.r_tm) / np.maximum(np.abs(fr.r_tm), 1e-300)),
        np.max(np.abs(nl.r_te - fr.r_te) / np.maximum(np.abs(fr.r_te), 1e-300)))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-12 and elapsed < 1.0
    _announce(1, ok, f"v=0 vs Fresnel worst rel diff {worst:.3g} "
                     f"over 1000 points in {elapsed:.3f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


# the numeric route maps k_z = s tan(theta) onto a finite interval and
# integrates once per impedance; its accuracy is checked here against the
# closed form, which holds because this eps_of_k ignores k_z
def test_criterion_2_impedance_oracle():
    rng = np.random.default_rng(SEED)
    pts = 10.0 ** rng.uniform(-2.0, 1.0, (100, 2))

    def eps_of_k(xi, k_hat, kz):
        return eval_imag_axis(GOLD, xi, k_hat)

    start = time.perf_counter()
    worst = 0.0
    for xi, k in pts:
        zc = impedance_closed(eval_imag_axis(GOLD, xi, k), xi, k)
        zn = impedance_numeric(eps_of_k, xi, k)
        worst = max(worst,
                    abs(zn.z_tm - zc.z_tm) / abs(zc.z_tm),
                    abs(zn.z_te - zc.z_te) / abs(zc.z_te))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-6 and elapsed < 10.0
    _announce(2, ok, f"numeric vs closed impedance worst rel diff {worst:.3g} "
                     f"over 100 points in {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_3_ideal_metal_oracle():
    start = time.perf_counter()
    got = _pressure(0.5, PerfectReflector(), temperature=1.0)
    elapsed = time.perf_counter() - start

    rel = abs(got / -2.0804e-2 - 1.0)
    ok = rel <= 2e-3 and elapsed < 1.0
    _announce(3, ok, f"P = {got:.6e} Pa vs -2.0804e-2 "
                     f"(rel {rel:.2e}) in {elapsed:.3f}s")
    assert rel <= 2e-3
    assert elapsed < 1.0


def test_criterion_4_classical_limits():
    drude = _pressure(50.0, LOCAL)
    plasma = _pressure(50.0, Plasma(PARAMS.drude.omega_p))
    ratio = plasma / drude

    # At 50 um and 300 K only the l = 0 term survives.  For a Drude metal
    # it is TM alone with r = 1 and the half weight of the primed sum:
    # F = -zeta(3) k_B T / (16 pi a^2), so P = -dF/da = -zeta(3) k_B T /
    # (8 pi a^3).  Evaluated in SI units, independently of the package.
    k_b, temperature, a = 1.380649e-23, 300.0, 50e-6   # J/K exact, K, m
    target = -zeta(3.0) * k_b * temperature / (8.0 * math.pi * a**3)

    rel_abs = abs(drude / target - 1.0)
    clause_abs = rel_abs <= 1e-2
    clause_ratio = abs(ratio - 2.0) <= 0.06
    _announce(4, clause_abs and clause_ratio,
              f"P_drude = {drude:.6e} Pa vs {target:.6e} (rel {rel_abs:.3g}); "
              f"plasma/drude ratio = {ratio:.6f}")
    assert clause_ratio
    assert clause_abs


def test_criterion_5_pressure_sandwich():
    seps = np.arange(1.0, 8.0)
    plasma = Plasma(PARAMS.drude.omega_p)
    p_d = [_pressure(a, LOCAL) for a in seps]
    p_nl = [_pressure(a, GOLD) for a in seps]
    p_pl = [_pressure(a, plasma) for a in seps]

    sandwiched = all(abs(d) < abs(n) < abs(p)
                     for d, n, p in zip(p_d, p_nl, p_pl))
    r_nl = [n / d for n, d in zip(p_nl, p_d)]
    r_pl = [p / d for p, d in zip(p_pl, p_d)]
    increasing = (all(a < b for a, b in zip(r_nl, r_nl[1:]))
                  and all(a < b for a, b in zip(r_pl, r_pl[1:])))

    ok = sandwiched and increasing
    _announce(5, ok, f"|P_D|<|P_nl|<|P_pl| at a=1..7um: {sandwiched}; "
                     f"ratios rise {r_nl[0]:.3f}->{r_nl[-1]:.3f} (nl) and "
                     f"{r_pl[0]:.3f}->{r_pl[-1]:.3f} (pl): {increasing}")
    assert sandwiched
    assert increasing


def test_criterion_6_longitudinal_velocity_insensitivity():
    vf = CONSTANTS.fermi_velocity_ratio_default
    slow = NonlocalAlt(NonlocalParams(PARAMS.drude, PARAMS.v_t_ratio, 0.0))
    fast = NonlocalAlt(NonlocalParams(PARAMS.drude, PARAMS.v_t_ratio,
                                      10.0 * vf))
    worst = max(abs(_pressure(a, fast) / _pressure(a, slow) - 1.0)
                for a in np.arange(1.0, 8.0))

    ok = worst < 5e-3
    _announce(6, ok, f"max |P(vL=10vF)/P(vL=0) - 1| = {worst:.3g} over a=1..7um")
    assert worst < 5e-3


def test_criterion_7_reflectance_deviation_bounds():
    omegas = np.linspace(0.1, 1.0, 50)
    devs_tm, devs_te = [], []
    for theta in (math.pi / 4.0, math.pi / 3.0):
        for om in omegas:
            dev = reflectance_deviation(GOLD, LOCAL, float(om), theta)
            devs_tm.append(dev.deviation_tm)
            devs_te.append(dev.deviation_te)
    normal = reflectance_deviation(GOLD, LOCAL, 0.5, 0.0)

    worst_mag = max(max(map(abs, devs_tm)), max(map(abs, devs_te)))
    clause_mag = worst_mag < 1e-2
    clause_tm = min(devs_tm) > 0.0
    # on shell k_hat = omega sin(theta), so eps_T^nl - eps_T^D =
    # -v_T sin(theta) omega_p^2 (gamma/omega + i) / (omega^2 + gamma^2):
    # v_T lowers Im eps_T and makes Re eps_T more negative, and for a good
    # conductor both raise the TE reflectance
    clause_te = min(devs_te) > 0.0
    clause_normal = normal.deviation_tm == 0.0 and normal.deviation_te == 0.0
    ok = clause_mag and clause_tm and clause_te and clause_normal
    _announce(7, ok,
              f"max|dR| = {worst_mag:.3g}; dR_TM in "
              f"[{min(devs_tm):.3g}, {max(devs_tm):.3g}]; dR_TE in "
              f"[{min(devs_te):.3g}, {max(devs_te):.3g}]; dR(0) = 0: "
              f"{clause_normal}")
    assert clause_mag
    assert clause_tm
    assert clause_normal
    assert clause_te


def test_criterion_8_kk_suite():
    # At k = 0 two things hold by construction (see the comments on
    # kramers_kronig.RELATIONS and the kk-verify exit-code contract in the
    # README):
    # - v_L k_hat = 0 leaves eps_L in the Drude form with its first-order
    #   pole, so the insulator-form l-imag-from-real omits the static
    #   conductivity and fails; its report carries the conducting-limit
    #   note.  eps_L == eps_T there, and the relation that does hold,
    #   t-imag-from-real with 4 pi sigma_0 / omega, must pass; the flagged
    #   residuals are those of its sigma_0-dropped control.
    # - the controls of t-real-from-imag and t-imag-axis drop a term
    #   omega_p^2 v_T k_hat / gamma that vanishes at k = 0, so there they
    #   equal the full relation and are applied only at k > 0.
    start = time.perf_counter()
    transverse = ("t-real-from-imag", "t-imag-from-real", "t-imag-axis")
    worst_relation = ("", 0.0)
    worst_control = ("", math.inf)
    flagged = {}
    controls_inert_at_zero = True
    for k in (0.0, 0.2, 1.0):
        full = {rep.relation: rep
                for rep in verify_kk(list(RELATIONS), PARAMS, k)}
        for rep in full.values():
            name = f"{rep.relation}@k={k}"
            if "conducting limit" in rep.note:
                flagged[name] = rep
            elif rep.max_residual > worst_relation[1]:
                worst_relation = (name, rep.max_residual)
        for rel, ctrl in zip(transverse, verify_kk(
                transverse, PARAMS, k, include_pole_terms=False)):
            sigma = rel == "t-imag-from-real"
            if k == 0.0 and sigma:
                sigma_control = ctrl.residuals
                t_imag_at_zero = full[rel].max_residual
            if k == 0.0 and not sigma:
                controls_inert_at_zero &= ctrl.residuals == full[rel].residuals
            elif ctrl.residuals[0] < worst_control[1]:
                worst_control = (f"{ctrl.relation}@k={k}", ctrl.residuals[0])
    elapsed = time.perf_counter() - start

    conducting = flagged.get("l-imag-from-real@k=0.0")
    grid = conducting.grid if conducting else ()
    pairs = [eval_real_axis(GOLD, om, 0.0) for om in grid]
    clause_flags = set(flagged) == {"l-imag-from-real@k=0.0"}
    clause_same = all(p.eps_l == p.eps_t for p in pairs)
    clause_sigma = conducting is not None and all(
        math.isclose(a, b, rel_tol=1e-9)
        for a, b in zip(conducting.residuals, sigma_control))
    clause_rel = worst_relation[1] < 1e-4 and t_imag_at_zero < 1e-4
    clause_ctrl = worst_control[1] > 0.1 and controls_inert_at_zero
    clause_time = elapsed < 60.0
    ok = (clause_flags and clause_same and clause_sigma and clause_rel
          and clause_ctrl and clause_time)
    _announce(8, ok,
              f"worst relation residual {worst_relation[1]:.3g} "
              f"({worst_relation[0]}); flagged {sorted(flagged)}; "
              f"t-imag-from-real@k=0.0 {t_imag_at_zero:.3g}; weakest control "
              f"first-point residual {worst_control[1]:.3g} "
              f"({worst_control[0]}); k-controls inert at k=0: "
              f"{controls_inert_at_zero}; {elapsed:.1f}s")
    assert clause_time
    assert clause_flags
    assert clause_same
    assert clause_sigma
    assert clause_ctrl
    assert clause_rel


def test_criterion_9_zero_frequency_continuity():
    xi = 1e-6
    worst = 0.0
    for k in (0.1, 1.0, 9.0):
        limit = zero_freq_limit(GOLD, k)
        coeffs = nonlocal_coeffs(eval_imag_axis(GOLD, xi, k), xi, k)
        worst = max(worst, abs(coeffs.r_tm - limit.r_tm),
                    abs(coeffs.r_te - limit.r_te))
    landmark_tm = zero_freq_limit(GOLD, 1.0).r_tm
    landmark_te = zero_freq_limit(GOLD, 0.1).r_te

    ok = (worst < 1e-4 and abs(landmark_tm - 0.999972) < 1e-6
          and abs(landmark_te + 0.92939) < 1e-5)
    _announce(9, ok, f"max |r(xi=1e-6) - r(0)| = {worst:.3g}; "
                     f"r_TM(k=1) = {landmark_tm:.6f}, "
                     f"r_TE(k=0.1) = {landmark_te:.5f}")
    assert worst < 1e-4
    assert abs(landmark_tm - 0.999972) < 1e-6
    assert abs(landmark_te + 0.92939) < 1e-5
