"""Permittivity models on both frequency axes.

Numeric oracles below were frozen from 40-digit evaluations of the
closed forms at xi = 0.162433 eV (just under the first room-temperature
Matsubara energy) and k_hat = 1 eV.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlcasimir import (CONSTANTS, CoreTable, DomainError, Drude, DrudeParams,
                       NonlocalAlt, NonlocalParams, PerfectReflector, Plasma,
                       PRESETS, UnsupportedOperationError, WithCore,
                       eval_imag_axis, eval_real_axis, gold_default,
                       static_transverse_conductivity)
from nlcasimir import response
from nlcasimir.response import finite_and_positive

XI = 0.162433
GOLD = gold_default()
DRUDE = Drude(GOLD.params.drude)
V0 = NonlocalAlt(NonlocalParams(DrudeParams(9.0, 0.035), 0.0, 0.0))


def test_gold_preset_parameters():
    p = GOLD.params
    assert p.drude.omega_p == 9.0
    assert p.drude.gamma == 0.035
    seven_vf = 7.0 * CONSTANTS.fermi_velocity_ratio_default
    assert p.v_t_ratio == seven_vf
    assert p.v_l_ratio == seven_vf
    assert "gold-default" in PRESETS
    assert PRESETS["gold-default"]() == GOLD


def test_drude_imaginary_axis_oracle():
    pair = eval_imag_axis(DRUDE, XI)
    assert math.isclose(pair.eps_t, 2526.753763354655, rel_tol=1e-14)
    assert pair.eps_l == pair.eps_t


def test_plasma_imaginary_axis_oracle():
    pair = eval_imag_axis(Plasma(9.0), XI)
    assert math.isclose(pair.eps_t, 3070.986657639763, rel_tol=1e-14)
    assert pair.eps_l == pair.eps_t


def test_nonlocal_imaginary_axis_oracle():
    pair = eval_imag_axis(GOLD, XI, 1.0)
    assert math.isclose(pair.eps_t, 3027.794649522278, rel_tol=1e-14)
    assert math.isclose(pair.eps_l, 2108.652752097694, rel_tol=1e-14)


def test_transverse_grows_and_longitudinal_shrinks_with_wavevector():
    base = eval_imag_axis(GOLD, XI, 0.0)
    kicked = eval_imag_axis(GOLD, XI, 2.0)
    assert kicked.eps_t > base.eps_t
    assert kicked.eps_l < base.eps_l


@given(xi=st.floats(1e-3, 1e2), k=st.floats(0.0, 1e2))
@settings(deadline=None)
def test_zero_velocity_collapses_to_drude_bitwise(xi, k):
    a = eval_imag_axis(V0, xi, k)
    b = eval_imag_axis(DRUDE, xi, k)
    assert a.eps_t == b.eps_t
    assert a.eps_l == b.eps_l


@given(xi=st.floats(1e-3, 1e2), k=st.floats(0.0, 1e2))
@settings(deadline=None)
def test_imaginary_axis_values_exceed_unity(xi, k):
    pair = eval_imag_axis(GOLD, xi, k)
    assert pair.eps_t > 1.0
    assert pair.eps_l > 1.0


def test_drude_real_axis_oracle():
    pair = eval_real_axis(DRUDE, 0.5)
    assert math.isclose(pair.eps_t.real, -321.4201413075928, rel_tol=1e-14)
    assert math.isclose(pair.eps_t.imag, 22.569409891531496, rel_tol=1e-14)
    assert pair.passive


def test_plasma_real_axis_is_lossless():
    pair = eval_real_axis(Plasma(9.0), 0.5)
    assert pair.eps_t.imag == 0.0
    assert math.isclose(pair.eps_t.real, 1.0 - 81.0 / 0.25, rel_tol=1e-15)


def test_nonlocal_passivity_flag_flips_at_large_wavevector():
    # Im eps_T changes sign where v_T k_hat crosses gamma
    k_star = GOLD.params.drude.gamma / GOLD.params.v_t_ratio
    assert eval_real_axis(GOLD, 0.5, 0.9 * k_star).passive
    flagged = eval_real_axis(GOLD, 0.5, 1.1 * k_star)
    assert not flagged.passive
    assert flagged.eps_t.imag < 0.0


def test_real_axis_components_differ_only_through_velocities():
    local = eval_real_axis(V0, 0.7, 3.0)
    assert local.eps_t == local.eps_l


def _exact_nonlocal_real_axis(params, omega, k_hat):
    """(eps_l, eps_t) in exact rational arithmetic on the float inputs:
    eps_T = 1 - D (1 + i t), eps_L = 1 - D (1 - i s) / (1 + s^2), with
    D = omega_p^2 (omega - i gamma) / (omega (omega^2 + gamma^2)),
    t = v_T k_hat / omega and s = v_L k_hat / omega."""
    w, k = Fraction(omega), Fraction(k_hat)
    wp2, g = Fraction(params.drude.omega_p) ** 2, Fraction(params.drude.gamma)
    d_re = wp2 / (w * w + g * g)
    d_im = -wp2 * g / (w * (w * w + g * g))
    t = Fraction(params.v_t_ratio) * k / w
    s = Fraction(params.v_l_ratio) * k / w
    eps_t = (1 - (d_re - d_im * t), -(d_re * t + d_im))
    eps_l = (1 - (d_re + d_im * s) / (1 + s * s),
             -(d_im - d_re * s) / (1 + s * s))
    return tuple(complex(float(re), float(im)) for re, im in (eps_l, eps_t))


def test_nonlocal_real_axis_matches_exact_arithmetic():
    # omega brackets gamma and omega_p; k_hat = 5 is past gamma/v_T, where
    # the transverse response is no longer passive.  eps = 1 - D cancels
    # near omega_p, where no double can come closer than the rounding of
    # 1 - D: the bound scales with the larger of |eps| and |D|
    omega = [1e-3, 0.035, 0.5, 8.9, 9.0, 100.0]
    split = NonlocalAlt(NonlocalParams(DrudeParams(7.9, 0.02), 0.01, 0.003))
    for model in (GOLD, split):
        for k_hat in (0.3, 5.0):
            block = eval_real_axis(model, np.array(omega), k_hat)
            for i, w in enumerate(omega):
                exact = _exact_nonlocal_real_axis(model.params, w, k_hat)
                scalar = eval_real_axis(model, w, k_hat)
                for part in (0, 1):
                    want = exact[part]
                    assert abs(scalar[part] - want) <= 1e-14 * max(
                        abs(want), abs(want - 1.0))
                    assert block[part][i] == scalar[part]


def test_real_axis_result_is_shaped_by_what_the_model_depends_on():
    k = np.array([0.1, 0.2])
    assert type(eval_real_axis(DRUDE, 0.5, k).eps_t) is complex
    assert type(eval_real_axis(GOLD, 0.5, 0.3).eps_t) is complex
    assert eval_real_axis(GOLD, 0.5, k).eps_t.shape == (2,)
    assert eval_real_axis(DRUDE, np.array([0.5]), k).eps_t.shape == (1,)


def test_with_core_shifts_both_components():
    core = CoreTable(np.array([0.1, 1.0, 10.0]), np.array([5.0, 3.0, 1.5]))
    model = WithCore(DRUDE, core)
    inner = eval_imag_axis(DRUDE, 0.5, 0.7)
    shifted = eval_imag_axis(model, 0.5, 0.7)
    shift = core.value_at(0.5) - 1.0
    assert shifted.eps_t == inner.eps_t + shift
    assert shifted.eps_l == inner.eps_l + shift


def test_with_core_wraps_the_nonlocal_model_too():
    core = CoreTable(np.array([0.1, 10.0]), np.array([4.0, 1.2]))
    shifted = eval_imag_axis(WithCore(GOLD, core), XI, 1.0)
    plain = eval_imag_axis(GOLD, XI, 1.0)
    shift = core.value_at(XI) - 1.0
    assert shifted.eps_t == plain.eps_t + shift
    assert shifted.eps_l == plain.eps_l + shift


def test_with_core_has_no_real_axis_form():
    core = CoreTable(np.array([0.1, 10.0]), np.array([4.0, 1.2]))
    with pytest.raises(UnsupportedOperationError):
        eval_real_axis(WithCore(DRUDE, core), 0.5)


def test_perfect_reflector_has_no_permittivity():
    with pytest.raises(UnsupportedOperationError):
        eval_imag_axis(PerfectReflector(), 1.0)
    with pytest.raises(UnsupportedOperationError):
        eval_real_axis(PerfectReflector(), 1.0)


def test_axis_domain_validation():
    with pytest.raises(DomainError):
        eval_imag_axis(DRUDE, 0.0)
    with pytest.raises(DomainError):
        eval_imag_axis(DRUDE, -1.0)
    with pytest.raises(DomainError):
        eval_imag_axis(DRUDE, 1.0, -0.1)
    with pytest.raises(DomainError):
        eval_real_axis(DRUDE, 0.0)
    with pytest.raises(DomainError):
        eval_real_axis(DRUDE, 1.0, -0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            eval_imag_axis(DRUDE, bad)
        with pytest.raises(DomainError):
            eval_imag_axis(DRUDE, 1.0, bad)
        with pytest.raises(DomainError):
            eval_imag_axis(DRUDE, np.array([1.0, bad]))
        with pytest.raises(DomainError):
            eval_real_axis(DRUDE, bad)
        with pytest.raises(DomainError):
            eval_real_axis(DRUDE, 1.0, bad)
    # outside [2^-511, 2^512) eV omega^2 is not a normal double, and
    # z (z + gamma) under- or overflows
    for bad in (2.0**-511 * (1.0 - 2.0**-53), 2.0**512):
        for model in (DRUDE, Plasma(9.0), GOLD):
            with pytest.raises(DomainError, match=r"\[2\^-511, 2\^512\)"):
                eval_real_axis(model, bad)
            with pytest.raises(DomainError, match=r"\[2\^-511, 2\^512\)"):
                eval_real_axis(model, np.array([1.0, bad]), 0.3)
    for edge in (2.0**-511, 2.0**512 * (1.0 - 2.0**-53)):
        for model in (DRUDE, GOLD):
            pair = eval_real_axis(model, edge)
            assert all(math.isfinite(abs(e)) for e in pair[:2])


@given(x=st.floats(allow_nan=True, allow_infinity=True),
       allow_zero=st.booleans(), kind=st.sampled_from([float, np.float64]))
def test_the_scalar_check_agrees_with_the_array_check(x, allow_zero, kind):
    # one float takes a pure-Python path; it must accept what numpy accepts
    assert (finite_and_positive(kind(x), allow_zero)
            == finite_and_positive(np.array([x]), allow_zero))


@pytest.mark.parametrize("x, positive, non_negative", [
    (0.0, False, True), (-0.0, False, True), (5e-324, True, True),
    (1.7976931348623157e308, True, True), (-5e-324, False, False),
    (math.inf, False, False), (-math.inf, False, False),
    (math.nan, False, False)])
def test_the_scalar_check_at_its_edges(x, positive, non_negative):
    for value in (x, np.float64(x), np.array([x])):
        assert finite_and_positive(value) == positive
        assert finite_and_positive(value, allow_zero=True) == non_negative


def test_a_bad_point_is_named_in_the_message():
    for kind in (float, np.float64):
        with pytest.raises(DomainError) as xi:
            eval_imag_axis(DRUDE, kind(-1.0))
        assert str(xi.value) == "xi must be finite and positive, got -1.0"
        with pytest.raises(DomainError) as k_hat:
            eval_imag_axis(DRUDE, 1.0, kind(math.nan))
        assert str(k_hat.value) == "k_hat must be finite and >= 0, got nan"
        with pytest.raises(DomainError) as omega:
            eval_real_axis(DRUDE, kind(math.inf))
        assert str(omega.value) == "omega must be finite and positive, got inf"


@pytest.mark.filterwarnings("error")     # refused before numpy warns
def test_a_real_axis_pair_that_overflows_is_refused():
    # inside [2^-511, 2^512) eV the lossless D = -omega_p^2 / omega^2 still
    # overflows below about omega_p / 1.3e154, and the nonlocal eps_T's
    # D v_T k_hat / z a little above that
    for model, k_hat in ((Plasma(9.0), 0.0), (GOLD, 0.3)):
        for omega, top in ((2e-154, 2e-154),
                           (np.array([1.0, 2e-154, 3e-154]), 1.0)):
            with pytest.raises(DomainError, match=re.escape(
                    f"overflows for omega in [2e-154, {top}] eV")):
                eval_real_axis(model, omega, k_hat)
    with pytest.raises(DomainError, match="overflows"):
        eval_real_axis(GOLD, 1e-150, np.array([0.0, 1e10]))
    # an overflow that leaves the pair finite is no reason to refuse it:
    # omega gamma overflows, D rounds to 0 and eps = 1
    assert eval_real_axis(Drude(DrudeParams(9.0, 1e300)), 1e10)[:2] == (1.0, 1.0)
    pair = eval_real_axis(Plasma(9.0), 1e-153)       # -8.1e307: still finite
    assert all(math.isfinite(abs(e)) for e in pair[:2])


@given(omega=st.floats(-511.0, 511.99).map(lambda e: 2.0**e),
       k_hat=st.sampled_from([0.0, 0.3, 5.0]),
       gamma=st.sampled_from([0.0, 0.035, 1e300]))
@settings(deadline=None)
def test_a_real_axis_pair_is_finite_or_refused(omega, k_hat, gamma):
    # refused exactly where the unchecked evaluation is not finite
    drude = DrudeParams(9.0, gamma)
    for model in (Drude(drude), NonlocalAlt(NonlocalParams(drude, 0.01, 0.01))):
        with np.errstate(all="ignore"):
            unchecked = response._eps_at(model, -1j * np.array([omega]), k_hat)
        finite = all(np.isfinite(e).all() for e in unchecked[:2])
        try:
            pair = eval_real_axis(model, omega, k_hat)
        except DomainError:
            assert not finite
            continue
        assert finite and (pair.eps_l, pair.eps_t) == (unchecked[0][0],
                                                         unchecked[1][0])


def test_parameter_validation():
    with pytest.raises(DomainError):
        DrudeParams(0.0, 0.035)
    with pytest.raises(DomainError):
        DrudeParams(9.0, -0.001)
    with pytest.raises(DomainError):
        NonlocalParams(DrudeParams(9.0, 0.035), -0.1, 0.0)
    with pytest.raises(DomainError):
        Plasma(-9.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            DrudeParams(bad, 0.035)
        with pytest.raises(DomainError):
            DrudeParams(9.0, bad)
        with pytest.raises(DomainError):
            NonlocalParams(DrudeParams(9.0, 0.035), bad, 0.0)
        with pytest.raises(DomainError):
            NonlocalParams(DrudeParams(9.0, 0.035), 0.0, bad)
        with pytest.raises(DomainError):
            Plasma(bad)


def test_static_conductivity_oracles():
    p = GOLD.params
    assert math.isclose(static_transverse_conductivity(p, 0.0),
                        184.16500557776460, rel_tol=1e-14)
    assert math.isclose(static_transverse_conductivity(p, 0.2),
                        150.25518551186886, rel_tol=1e-14)


def test_static_conductivity_crosses_zero_with_the_passivity_flag():
    p = GOLD.params
    k_star = p.drude.gamma / p.v_t_ratio
    assert static_transverse_conductivity(p, k_star) == 0.0
    assert static_transverse_conductivity(p, 2.0 * k_star) < 0.0


def test_static_conductivity_needs_dissipation():
    lossless = NonlocalParams(DrudeParams(9.0, 0.0), 0.01, 0.01)
    with pytest.raises(DomainError):
        static_transverse_conductivity(lossless, 0.5)
