"""Reflection amplitudes: Fresnel, nonlocal closed forms, impedances,
static limits, and real-frequency reflectances.

Frozen numbers come from 40-digit evaluations of the closed forms.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from nlcasimir import (ConvergenceError, CoreTable, DomainError, Drude,
                       DrudeParams, EpsPair, NonlocalAlt, NonlocalParams,
                       PerfectReflector, Plasma,
                       WithCore, coeffs_from_impedance, eval_imag_axis,
                       eval_real_axis, fresnel, gold_default, impedance_closed,
                       impedance_numeric, nonlocal_coeffs, real_axis_coeffs,
                       reflectance_deviation, reflection_pair, zero_freq_limit)
from nlcasimir.reflection import q_hat

from conftest import run_python

XI = 0.162433
GOLD = gold_default()
DRUDE = Drude(GOLD.params.drude)
V0 = NonlocalAlt(NonlocalParams(DrudeParams(9.0, 0.035), 0.0, 0.0))


def test_vacuum_decay_wavenumber():
    assert math.isclose(q_hat(XI, 1.0), 1.0131063515194246, rel_tol=1e-15)


def test_fresnel_oracle():
    pair = fresnel(2526.8, XI, 1.0)
    assert math.isclose(pair.r_tm, 0.9935937571121696, rel_tol=1e-13)
    assert math.isclose(pair.r_te, -0.7806934704462916, rel_tol=1e-13)


def test_fresnel_rejects_zero_frequency():
    with pytest.raises(DomainError):
        fresnel(100.0, 0.0, 1.0)
    for bad in (math.nan, math.inf, np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            fresnel(2.0, bad, 1.0)
        with pytest.raises(DomainError):
            nonlocal_coeffs(EpsPair(2.0, 2.0), bad, 1.0)


def test_amplitudes_refuse_a_bad_wavevector():
    for bad in (math.nan, math.inf, -1.0, np.array([0.5, math.nan]),
                np.array([[0.5], [-0.1]])):
        with pytest.raises(DomainError, match="k_hat"):
            fresnel(2.0, 1.0, bad)
        with pytest.raises(DomainError, match="k_hat"):
            nonlocal_coeffs(EpsPair(2.0, 2.0), 1.0, bad)
        with pytest.raises(DomainError, match="k_hat"):
            reflection_pair(GOLD, 1.0, bad)


def test_reflection_pair_scans_its_block_once(monkeypatch):
    # eval_imag_axis has checked xi and k_hat; the reflection layer must
    # not scan the 2-d block again
    import nlcasimir.reflection as reflection

    scanned = []
    monkeypatch.setattr(reflection, "check_point",
                        lambda x, k_hat, name="xi": scanned.append(k_hat))
    xi = np.linspace(0.1, 1.0, 4)[:, None]
    k = np.outer(np.ones(4), np.linspace(0.0, 2.0, 15))
    expected = nonlocal_coeffs(eval_imag_axis(GOLD, xi, k), xi, k)
    scanned.clear()
    r = reflection_pair(GOLD, xi, k)
    assert scanned == []
    assert np.array_equal(r.r_tm, expected.r_tm)
    assert np.array_equal(r.r_te, expected.r_te)


@given(xi=st.floats(1e-3, 1e2), k=st.floats(0.0, 1e2))
@settings(deadline=None)
def test_zero_velocity_amplitudes_equal_fresnel_bitwise(xi, k):
    eps = eval_imag_axis(DRUDE, xi, k)
    direct = fresnel(eps.eps_t, xi, k)
    nl = nonlocal_coeffs(eval_imag_axis(V0, xi, k), xi, k)
    assert nl.r_tm == direct.r_tm
    assert nl.r_te == direct.r_te


def _copied(x):
    """x as a new object of the same type, with the same bits."""
    if isinstance(x, np.ndarray):
        return x.copy()
    return complex(x.real, x.imag) if isinstance(x, complex) else x * 1.0


def _bits(pair):
    return [np.asarray(r).tobytes() for r in pair]


@given(xi=st.floats(1e-3, 1e2), k=st.lists(st.floats(0.0, 1e2), min_size=1,
                                           max_size=8),
       model=st.sampled_from([DRUDE, Plasma(9.0)]))
@settings(deadline=None)
def test_a_local_pair_skips_the_tm_correction_bit_for_bit(xi, k, model):
    # a local model returns EpsPair(e, e); a copied eps_l takes the
    # correction branch, whose term is exactly 0 there
    k = np.array(k)
    pair = eval_imag_axis(model, xi, k)
    assert pair.eps_l is pair.eps_t
    copied = EpsPair(_copied(pair.eps_l), pair.eps_t)
    assert _bits(nonlocal_coeffs(copied, xi, k)) == _bits(
        nonlocal_coeffs(pair, xi, k))


@given(omega=st.floats(1e-3, 20.0), theta=st.floats(0.0, 1.5),
       model=st.sampled_from([DRUDE, Plasma(9.0)]))
@settings(deadline=None)
def test_a_local_pair_skips_the_tm_correction_on_the_real_axis(
        omega, theta, model):
    shared = real_axis_coeffs(model, omega, theta)
    with pytest.MonkeyPatch.context() as patch:
        def copying(*args):
            pair = eval_real_axis(*args)
            return EpsPair(_copied(pair.eps_l), pair.eps_t, pair.passive)

        patch.setattr("nlcasimir.reflection.eval_real_axis", copying)
        assert _bits(real_axis_coeffs(model, omega, theta)) == _bits(shared)


def test_the_real_axis_amplitudes_hold_at_the_plasma_frequency():
    # eps = 0 at omega = omega_p: the TM correction of a local pair, 0/0
    # there, is skipped, and at normal incidence r_TM takes its limit -r_TE
    for theta in (0.0, 0.5):
        pair = real_axis_coeffs(Plasma(9.0), 9.0, theta)
        assert pair.r_tm == -1.0
        assert cmath.isclose(pair.r_te, cmath.exp(-2j * theta), rel_tol=1e-15)


def test_tm_correction_vanishes_for_scalar_pairs():
    pair = EpsPair(100.0, 100.0)
    assert nonlocal_coeffs(pair, 0.5, 2.0) == fresnel(100.0, 0.5, 2.0)


_E23 = np.array([[2.5, 3.5, 4.5], [5.0, 6.0, 7.0]])


@pytest.mark.parametrize("eps, xi, k", [
    (EpsPair(2, 2), 1, np.array([1, 2])),
    (EpsPair(_E23, _E23), np.array([0.5, 1.0, 2.0]), 1.0),
    (EpsPair(np.array([2.0, 3.0]), np.array([2.0, 3.0])), 0.5,
     np.array([1.0, 2.0], np.float32)),
    (EpsPair(np.array([2.0, 3.0, 4.0]), _E23), np.array([0.5, 1.0, 2.0]), 1.0),
    (EpsPair(np.array([2.0, 3.0]), np.array([2.5 + 1j, 3.5])), 0.5,
     np.array([1.0, 2.0])),
], ids=["integers", "eps_t-adds-an-axis", "float32-k", "eps_l-adds-an-axis",
        "complex-eps_l"])
def test_amplitudes_take_the_shape_and_dtype_of_all_operands(eps, xi, k):
    # the chain writes in place only into arrays it made at their full
    # shape and dtype, so any operand may widen either, as in the plain
    # formulas
    q, k_t = (np.sqrt(k * k + e * xi * xi) for e in (1.0, eps.eps_t))
    tq, corr = eps.eps_t * q, k * (eps.eps_t - eps.eps_l) / eps.eps_l
    want = ((tq - k_t - corr) / (tq + k_t + corr), (q - k_t) / (q + k_t))
    for got, plain in zip(nonlocal_coeffs(eps, xi, k), want):
        assert got.dtype == plain.dtype and np.array_equal(got, plain)


def test_singular_longitudinal_component_is_rejected():
    with pytest.raises(DomainError):
        nonlocal_coeffs(EpsPair(0.0, 2.0), 0.5, 1.0)


@given(xi=st.floats(1e-3, 50.0), k=st.floats(0.0, 50.0))
@settings(deadline=None)
def test_amplitudes_stay_inside_the_unit_interval(xi, k):
    r = reflection_pair(GOLD, xi, k)
    assert abs(r.r_tm) < 1.0
    assert abs(r.r_te) < 1.0


def test_reflection_pair_broadcasts_over_wavevector_arrays():
    k = np.array([0.0, 0.5, 2.0, 10.0])
    r = reflection_pair(GOLD, 0.5, k)
    assert r.r_tm.shape == k.shape
    single = reflection_pair(GOLD, 0.5, 2.0)
    assert r.r_tm[2] == single.r_tm
    assert r.r_te[2] == single.r_te


def test_perfect_reflector_amplitudes():
    assert reflection_pair(PerfectReflector(), 1.0, 2.0) == (1.0, -1.0)
    assert zero_freq_limit(PerfectReflector(), 2.0) == (1.0, -1.0)


@given(eps=st.floats(1.5, 1e6), xi=st.floats(1e-2, 50.0),
       k=st.floats(0.0, 50.0))
@settings(deadline=None)
def test_impedance_route_reduces_to_fresnel(eps, xi, k):
    pair = EpsPair(eps, eps)
    via_z = coeffs_from_impedance(impedance_closed(pair, xi, k), xi, k)
    direct = fresnel(eps, xi, k)
    assert math.isclose(via_z.r_tm, direct.r_tm, rel_tol=1e-10, abs_tol=1e-13)
    assert math.isclose(via_z.r_te, direct.r_te, rel_tol=1e-10, abs_tol=1e-13)


def test_numeric_impedance_agrees_with_closed_form():
    def eps_of_k(xi, k_hat, kz):
        return eval_imag_axis(GOLD, xi, k_hat)

    for xi, k in [(0.16, 0.5), (1.0, 3.0), (5.0, 0.1)]:
        zc = impedance_closed(eval_imag_axis(GOLD, xi, k), xi, k)
        zn = impedance_numeric(eps_of_k, xi, k)
        assert math.isclose(zn.z_tm, zc.z_tm, rel_tol=1e-6)
        assert math.isclose(zn.z_te, zc.z_te, rel_tol=1e-6)


LOG_ENERGY = st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e)  # eV


@given(model=st.sampled_from([GOLD, DRUDE, Plasma(GOLD.params.drude.omega_p)]),
       xi=LOG_ENERGY, k=st.just(0.0) | LOG_ENERGY)
@settings(deadline=None)
def test_numeric_impedance_agrees_with_closed_form_over_decades(model, xi, k):
    def eps_of_k(xi, k_hat, kz):
        return eval_imag_axis(model, xi, k_hat)

    zc = impedance_closed(eval_imag_axis(model, xi, k), xi, k)
    zn = impedance_numeric(eps_of_k, xi, k)
    assert math.isclose(zn.z_tm, zc.z_tm, rel_tol=1e-6)
    assert math.isclose(zn.z_te, zc.z_te, rel_tol=1e-6)


def test_numeric_impedance_hands_eps_of_k_arrays_of_k_z():
    # one float call at k_z = 0 sets the scale, then each pass is one call
    # on 2-d nodes; scalars returned (a k_z-blind response) broadcast
    seen = []

    def eps_of_k(xi, k_hat, kz):
        seen.append(kz)
        return eval_imag_axis(GOLD, xi, k_hat)

    zn = impedance_numeric(eps_of_k, 0.3, 0.7)
    zc = impedance_closed(eval_imag_axis(GOLD, 0.3, 0.7), 0.3, 0.7)
    assert math.isclose(zn.z_tm, zc.z_tm, rel_tol=1e-6)
    assert math.isclose(zn.z_te, zc.z_te, rel_tol=1e-6)
    first, *passes = seen
    assert type(first) is float and first == 0.0
    assert passes
    for kz in passes:
        assert isinstance(kz, np.ndarray) and kz.ndim == 2
        assert kz.dtype == np.float64 and np.all(kz >= 0.0)


def test_numeric_impedance_loads_no_scipy():
    done = run_python(["-c", """\
import sys
from nlcasimir import eval_imag_axis, gold_default, impedance_numeric
gold = gold_default()
impedance_numeric(lambda xi, k, kz: eval_imag_axis(gold, xi, k), 1.0, 1.0)
print("scipy" in sys.modules)
"""])
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().split() == ["False"]


def test_numeric_impedance_sees_normal_wavevector_dependence():
    # a response softening with k_z must raise z_te above the closed form
    # evaluated at k_z = 0, which uses the stiffest permittivity everywhere
    def eps_of_k(xi, k_hat, kz):
        e = 1.0 + 100.0 / (1.0 + kz * kz)
        return EpsPair(e, e)

    xi, k = 1.0, 1.0
    zn = impedance_numeric(eps_of_k, xi, k)
    zc = impedance_closed(eps_of_k(xi, k, 0.0), xi, k)
    assert zn.z_te > zc.z_te * (1.0 + 1e-3)

    # reference: the defining integrals on the whole k_z line, unmapped
    def tm(kz):
        pair = eps_of_k(xi, k, kz)
        k_t2 = k * k + pair.eps_t * xi * xi
        return (k * k / (xi * xi * pair.eps_l) + kz * kz / (k_t2 + kz * kz)) \
            / (k * k + kz * kz)

    def te(kz):
        return 1.0 / (k * k + eps_of_k(xi, k, kz).eps_t * xi * xi + kz * kz)

    ref_tm, ref_te = ((xi / math.pi) * quad(f, -math.inf, math.inf, epsabs=0.0,
                                            epsrel=1e-11, limit=200)[0]
                      for f in (tm, te))
    assert math.isclose(zn.z_tm, ref_tm, rel_tol=1e-7)
    assert math.isclose(zn.z_te, ref_te, rel_tol=1e-7)


def test_numeric_impedance_reports_an_unreachable_tolerance():
    # 1e-17 lies below what double precision certifies here: the z_te row
    # stops at _MAX_PANELS panels still missing it (z_tm's meets it); the
    # error carries the estimate, which is still as good as double
    # precision allows
    def eps_of_k(xi, k_hat, kz):
        return eval_imag_axis(GOLD, xi, k_hat)

    with pytest.raises(ConvergenceError) as caught:
        impedance_numeric(eps_of_k, 1.0, 1.0, tol=1e-17)
    closed = impedance_closed(eval_imag_axis(GOLD, 1.0, 1.0), 1.0, 1.0)
    got = caught.value.last_estimate
    assert math.isclose(got.z_tm, closed.z_tm, rel_tol=1e-12)
    assert math.isclose(got.z_te, closed.z_te, rel_tol=1e-12)


def test_numeric_impedance_domain_validation():
    def eps_of_k(xi, k_hat, kz):
        return EpsPair(2.0, 2.0)

    with pytest.raises(DomainError):
        impedance_numeric(eps_of_k, 0.0, 1.0)
    with pytest.raises(DomainError):
        impedance_numeric(eps_of_k, 1.0, 1.0, tol=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            impedance_numeric(eps_of_k, bad, 1.0)
        with pytest.raises(DomainError):
            impedance_numeric(eps_of_k, 1.0, 1.0, tol=bad)
        with pytest.raises(DomainError):
            impedance_closed(EpsPair(2.0, 2.0), bad, 1.0)
    for bad in (math.nan, math.inf, -1.0, np.array([0.0, math.nan])):
        with pytest.raises(DomainError):
            impedance_closed(EpsPair(2.0, 2.0), 1.0, bad)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match="k_hat must be finite and >= 0"):
            impedance_numeric(eps_of_k, 1.0, bad)
    # a NaN estimate reaches no tolerance
    with pytest.raises(ConvergenceError):
        impedance_numeric(lambda xi, k_hat, kz: EpsPair(math.nan, math.nan),
                          1.0, 1.0)


def test_static_limits_of_the_local_models():
    for k in (0.1, 1.0, 9.0):
        assert zero_freq_limit(DRUDE, k) == (1.0, 0.0)
    pl = zero_freq_limit(Plasma(9.0), 9.0)
    assert pl.r_tm == 1.0
    assert math.isclose(pl.r_te, -0.1715728752538099, rel_tol=1e-14)
    # Drude without dissipation is plasma, bare and with a core
    lossless = Drude(DrudeParams(9.0, 0.0))
    core = CoreTable(np.array([3.0, 10.0]), np.array([27.0, 10.0]))
    for model in (lossless, WithCore(lossless, core)):
        assert zero_freq_limit(model, 9.0) == pl


def test_static_limit_of_the_nonlocal_model():
    frozen = {
        0.1: (0.9999972153652706, -0.9293937461848722),
        1.0: (0.9999721543505656, -0.7936696212580772),
        9.0: (0.9997494449700307, -0.5058372881594870),
    }
    for k, (tm, te) in frozen.items():
        pair = zero_freq_limit(GOLD, k)
        assert math.isclose(pair.r_tm, tm, rel_tol=1e-13)
        assert math.isclose(pair.r_te, te, rel_tol=1e-13)


def test_static_limits_need_a_finite_wavevector():
    for model in (PerfectReflector(), DRUDE, Plasma(9.0), GOLD):
        for bad in (math.nan, math.inf, np.array([1.0, math.nan])):
            with pytest.raises(DomainError):
                zero_freq_limit(model, bad)


def test_static_limits_refuse_a_wavevector_whose_square_is_not_normal():
    # k_hat^2 underflows below 2^-511 (Drude's r_TE came out 1, not 0) and
    # overflows from 2^512 on (plasma's and the nonlocal r_TE came out NaN)
    lossy = Drude(DrudeParams(9.0, 0.035))
    for model in (lossy, Plasma(9.0), GOLD):
        for bad in (1e-170, 2.0**-512, 1e200, 2.0**512,
                    np.array([1.0, 1e-170]), np.array([1e200, 1.0])):
            with pytest.raises(DomainError, match=r"\[2\^-511, 2\^512\)"):
                zero_freq_limit(model, bad)
    assert zero_freq_limit(lossy, 2.0**-511) == (1.0, 0.0)
    assert zero_freq_limit(Plasma(9.0), 2.0**-511).r_te == -1.0


def test_static_nonlocal_limit_needs_dissipation():
    lossless = NonlocalAlt(NonlocalParams(DrudeParams(9.0, 0.0), 0.01, 0.01))
    with pytest.raises(DomainError):
        zero_freq_limit(lossless, 1.0)


def test_static_limit_with_interband_core():
    core = CoreTable(np.array([3.0, 10.0]), np.array([27.0, 10.0]))
    p = GOLD.params
    k = 2.0
    cored = zero_freq_limit(WithCore(GOLD, core), k)
    plain = zero_freq_limit(GOLD, k)
    # the exact static core, 1 + sum_j c_j/x_j^2
    c0 = core.value_at(0.0)
    assert c0 == 1.0 + (27.0 / 9.0 + 10.0 / 100.0)
    gvk = p.drude.gamma * p.v_l_ratio * k
    wp2 = p.drude.omega_p**2
    expected_tm = (wp2 + gvk * (c0 - 1.0)) / (wp2 + gvk * (c0 + 1.0))
    assert math.isclose(cored.r_tm, expected_tm, rel_tol=1e-14)
    assert cored.r_te == plain.r_te
    # a bound-electron core stiffens static screening, pushing r_TM up
    assert cored.r_tm > plain.r_tm


def test_normal_incidence_ties_the_polarizations():
    pair = real_axis_coeffs(GOLD, 0.5, 0.0)
    assert np.isclose(pair.r_tm, -pair.r_te, rtol=1e-14, atol=0.0)


def test_real_axis_angle_validation():
    with pytest.raises(DomainError):
        real_axis_coeffs(GOLD, 0.5, math.pi / 2.0)
    with pytest.raises(DomainError):
        real_axis_coeffs(GOLD, 0.5, -0.01)


def test_perfect_reflector_real_axis_amplitudes():
    pair = real_axis_coeffs(PerfectReflector(), 1.0, 0.3)
    assert pair == (1 + 0j, -1 + 0j)
    assert all(type(r) is complex for r in pair)


def test_local_real_axis_amplitudes_match_fresnel_form():
    # scalar pair: the closed form must collapse to the p/s amplitudes
    om, th = 0.8, 0.6
    pair = eval_real_axis(DRUDE, om, om * math.sin(th))
    st_, ct = math.sin(th), math.cos(th)
    root = np.sqrt(complex(pair.eps_t - st_ * st_))
    if root.imag < 0.0:
        root = -root
    r_p = (pair.eps_t * ct - root) / (pair.eps_t * ct + root)
    r_s = (ct - root) / (ct + root)
    got = real_axis_coeffs(DRUDE, om, th)
    assert np.isclose(got.r_tm, r_p, rtol=1e-14)
    assert np.isclose(got.r_te, r_s, rtol=1e-14)


def test_reflectance_deviation_oracles():
    frozen = {
        (0.1, math.pi / 4): (0.0007061780605748836, 0.0003643243010748875),
        (0.5, math.pi / 4): (0.0030278864055569125, 0.0017947027218307894),
        (1.0, math.pi / 3): (0.0075668835869104407, 0.0031103166340113421),
    }
    for (om, th), (d_tm, d_te) in frozen.items():
        dev = reflectance_deviation(GOLD, DRUDE, om, th)
        assert math.isclose(dev.deviation_tm, d_tm, rel_tol=1e-9)
        assert math.isclose(dev.deviation_te, d_te, rel_tol=1e-9)
        assert 0.0 < dev.reflectance_tm < 1.0
        assert 0.0 < dev.reflectance_te < 1.0


def test_reflectance_deviation_refuses_a_vanishing_reference():
    # at omega_p = 1e-200 eV the reference reflectance is exactly 0
    with pytest.raises(DomainError, match="reference reflectance vanishes"):
        reflectance_deviation(GOLD, Drude(DrudeParams(1e-200, 0.035)),
                              1.0, 0.0)


def test_reflectance_deviation_vanishes_at_normal_incidence():
    dev = reflectance_deviation(GOLD, DRUDE, 0.5, 0.0)
    assert dev.deviation_tm == 0.0
    assert dev.deviation_te == 0.0
