"""Pressure summation: analytic anchors, a QUADPACK reference per term
and convergence bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from nlcasimir import (CONSTANTS, ConvergenceError, CoreTable, DomainError,
                       Drude, DrudeParams, NonlocalAlt, NonlocalParams,
                       PerfectReflector, Plasma, PressureQuery, ReflectionPair,
                       WithCore, build_core_table, casimir_pressure,
                       casimir_pressures, classical_limit_pressure,
                       gold_default,
                       ideal_metal_pressure_zero_t, interband_im_eps,
                       matsubara_xi, parse_optical_table, pressure_to_pascal,
                       reflection_pair, zero_freq_limit)
from nlcasimir import lifshitz, quadrature
from nlcasimir.lifshitz import _BLOCK, _checked, _integrate

from conftest import OPTICAL_TEXT

GOLD = gold_default()
DRUDE = Drude(GOLD.params.drude)
PLASMA = Plasma(GOLD.params.drude.omega_p)
CORED = WithCore(GOLD, build_core_table(
    interband_im_eps(parse_optical_table(OPTICAL_TEXT), GOLD.params.drude),
    np.geomspace(1e-3, 1e2, 121)))
UNIT_CORE = CoreTable(np.array([1e-3, 1e2]), np.array([1.0, 1.0]))


def quadpack_term(model, a_um, temperature, l):
    """Matsubara term l of the pressure in Pa, by scipy.integrate.quad.

    Slow reference for one term: the integrand y^2 sum r^2 e^-y / (1 -
    r^2 e^-y) in u = sqrt(y - y_l), dy = 2u du, from the public
    amplitudes, over the same window y_l <= y <= y_l + 50.
    """
    c1 = CONSTANTS.hbar_c / (2.0 * a_um)
    xi = matsubara_xi(l, temperature)
    y_l = 2.0 * a_um * xi / CONSTANTS.hbar_c

    def f(u):
        y = y_l + u * u
        if l == 0:
            pair = zero_freq_limit(model, c1 * u * u)
        else:
            pair = reflection_pair(model, xi,
                                   c1 * u * math.sqrt(2.0 * y_l + u * u))
        total = 0.0
        for r in pair:
            w = r * r * math.exp(-y)
            total += w / (1.0 - w)
        return 2.0 * u * y * y * total

    value, _ = quad(f, 0.0, math.sqrt(50.0), epsabs=0.0, epsrel=1e-12,
                    limit=200)
    weight = 0.5 if l == 0 else 1.0
    prefactor = -CONSTANTS.boltzmann * temperature / (8.0 * math.pi * a_um**3)
    return pressure_to_pascal(prefactor) * weight * value


def integrated_term(query, l):
    """Term l in Pa from the tail integrand of the Euler-Maclaurin path:
    f(y) at y = l dy, the frequency of term l."""
    a, temperature = query.separation, query.temperature
    dy = 2.0 * a * matsubara_xi(1, temperature) / CONSTANTS.hbar_c
    c1 = CONSTANTS.hbar_c / (2.0 * a)
    y = np.array([l * dy])
    (value,), _ = _checked(*_integrate(query.model, query.quad_tol, c1,
                                       c1 * y, y), query.quad_tol)
    prefactor = -CONSTANTS.boltzmann * temperature / (8.0 * math.pi * a**3)
    return pressure_to_pascal(prefactor) * value


def test_ideal_metal_zero_temperature_oracle():
    assert math.isclose(ideal_metal_pressure_zero_t(1.0),
                        -0.0013001260013310095, rel_tol=1e-15)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            ideal_metal_pressure_zero_t(bad)


def test_perfect_mirrors_cold_limit_reproduces_the_quartic_law():
    # at 0.5 um and 1 K the thermal correction sits below 1e-7 relative
    result = casimir_pressure(PressureQuery(0.5, 1.0, PerfectReflector()))
    assert math.isclose(result.pressure, ideal_metal_pressure_zero_t(0.5),
                        rel_tol=1e-6)
    assert result.terms_used > 1000
    assert result.quad_error_estimate < 1e-6 * abs(result.pressure)


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_perfect_mirrors_at_one_kelvin_follow_the_quartic_law(a):
    # P = -pi^2 hbar c/(240 a^4) (1 + (T/T_eff)^4 / 3), T_eff = hbar c/(2 a
    # k_B), up to terms exponentially small in T_eff/T ~ 1e3
    t_eff = CONSTANTS.hbar_c / (2.0 * a * CONSTANTS.boltzmann)
    want = ideal_metal_pressure_zero_t(a) * (1.0 + (1.0 / t_eff)**4 / 3.0)
    result = casimir_pressure(PressureQuery(a, 1.0, PerfectReflector()))
    assert math.isclose(result.pressure, want, rel_tol=1e-10)


def test_classical_limit_oracle():
    assert math.isclose(classical_limit_pressure(50.0, 300.0),
                        -1.5848193953750793e-9, rel_tol=1e-14)
    doubled = classical_limit_pressure(50.0, 300.0, te_zero_weight=1.0)
    assert math.isclose(doubled, 2.0 * classical_limit_pressure(50.0, 300.0),
                        rel_tol=1e-15)


def test_classical_limit_validation():
    with pytest.raises(DomainError):
        classical_limit_pressure(0.0, 300.0)
    with pytest.raises(DomainError):
        classical_limit_pressure(50.0, -1.0)
    with pytest.raises(DomainError):
        classical_limit_pressure(50.0, 300.0, te_zero_weight=1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            classical_limit_pressure(bad, 300.0)
        with pytest.raises(DomainError):
            classical_limit_pressure(50.0, bad)


def test_dissipative_metal_reaches_the_classical_limit():
    # at 50 um every l >= 1 term is cut by e^{-82}; only the static TM
    # mode survives, and its integral is exactly the classical value
    result = casimir_pressure(PressureQuery(50.0, 300.0, DRUDE))
    assert math.isclose(result.pressure, classical_limit_pressure(50.0, 300.0),
                        rel_tol=1e-12)
    assert result.per_term[0] == pytest.approx(result.pressure, rel=1e-9)


def test_per_term_contributions_sum_to_the_pressure():
    result = casimir_pressure(PressureQuery(1.0, 300.0, GOLD))
    assert len(result.per_term) == result.terms_used
    assert math.isclose(math.fsum(result.per_term), result.pressure,
                        rel_tol=1e-12)
    # attraction throughout: every term is negative
    assert all(t < 0.0 for t in result.per_term)


def test_identical_queries_give_identical_bits():
    q = PressureQuery(0.74, 300.0, GOLD)
    assert casimir_pressure(q).pressure == casimir_pressure(q).pressure


def test_vanishing_plasma_frequency_keeps_only_the_static_tm_term():
    # eps - 1 underflows at every xi > 0, but the static TM coefficient
    # is 1 for any omega_p > 0, so the universal half-classical term stays
    ghost = Drude(DrudeParams(1e-200, 0.035))
    result = casimir_pressure(PressureQuery(1.0, 300.0, ghost))
    want = classical_limit_pressure(1.0, 300.0)
    assert math.isclose(result.pressure, want, rel_tol=1e-10)
    assert result.terms_used == 2
    assert result.per_term[1] == 0.0


@given(a=st.floats(0.5, 3.0), factor=st.floats(1.2, 3.0))
@settings(deadline=None, max_examples=10)
def test_attraction_weakens_with_separation(a, factor):
    near = casimir_pressure(PressureQuery(a, 300.0, GOLD)).pressure
    far = casimir_pressure(PressureQuery(a * factor, 300.0, GOLD)).pressure
    assert near < far < 0.0


def test_model_ordering_at_one_micron():
    pressures = [casimir_pressure(PressureQuery(1.0, 300.0, m)).pressure
                 for m in (DRUDE, GOLD, Plasma(9.0))]
    p_d, p_nl, p_pl = pressures
    assert abs(p_d) < abs(p_nl) < abs(p_pl)


def test_query_validation():
    with pytest.raises(DomainError):
        PressureQuery(0.0, 300.0, GOLD)
    with pytest.raises(DomainError):
        PressureQuery(1.0, 0.0, GOLD)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            PressureQuery(bad, 300.0, GOLD)
        with pytest.raises(DomainError):
            PressureQuery(1.0, bad, GOLD)
    with pytest.raises(DomainError):
        PressureQuery(1.0, 300.0, GOLD, quad_tol=0.0)
    with pytest.raises(DomainError):
        PressureQuery(1.0, 300.0, GOLD, term_tol=1.0)
    # a^3, xi_1, dy^3 or (1 - e^{-dy})^3 would leave the normal doubles
    for a, temp in ((1e-120, 300.0), (1e200, 300.0), (1.0, 1e-300),
                    (1.0, 1e300)):
        with pytest.raises(DomainError):
            PressureQuery(a, temp, GOLD)
    # the Pa prefactor k_B T/(8 pi a^3) would overflow, or q_hat^2 on the
    # first rows of the sum would
    for a, temp in ((1e-90, 1e80), (1e-100, 1e204), (2.83e-103, 1e207),
                    (1e-52, 1e157)):
        with pytest.raises(DomainError, match="outside the range"):
            PressureQuery(a, temp, GOLD)


def test_an_overflowing_pressure_is_refused():
    # k_B T/(8 pi a^3) is just finite here, the sum of the terms is above 1
    query = PressureQuery(10**-55.5, 1e147, PerfectReflector())
    with pytest.raises(DomainError, match="overflows"):
        casimir_pressure(query)


def test_envelope_sum_matches_a_brute_force_sum():
    # e^{-x} P(x) underflows to 0 before x = 760
    for dy in (1e-3, 0.05, 0.5, 5.0):
        j = np.arange(1, int(760.0 / dy) + 1)
        for y in (0.0, 0.5, 30.0):
            x = y + j * dy
            want = math.fsum(np.exp(-j * dy) * (x * x + 2.0 * x + 2.0))
            assert math.isclose(lifshitz._envelope_sum(y, dy), want,
                                rel_tol=1e-12)


def test_wavevector_quadrature_reports_stalls(monkeypatch):
    # amplitudes that oscillate much faster than any panel keep the two
    # quadrature orders from ever agreeing
    def jagged(model, xi, k_hat):
        r = 0.5 + 0.4 * np.sin(1e6 * k_hat)
        return ReflectionPair(r, r)

    monkeypatch.setattr("nlcasimir.lifshitz.reflection_pair", jagged)
    with pytest.raises(ConvergenceError) as err:
        casimir_pressure(PressureQuery(1.0, 300.0, DRUDE))
    assert err.value.last_estimate is not None
    assert math.isfinite(err.value.last_estimate)


@pytest.mark.parametrize("static", [False, True], ids=["terms", "static"])
@pytest.mark.parametrize("model", [DRUDE, PLASMA, GOLD,
                                   WithCore(DRUDE, CORED.core), CORED,
                                   PerfectReflector()],
                         ids=["drude", "plasma", "nonlocal", "cored-drude",
                              "cored-nonlocal", "perfect"])
def test_the_pass_integrand_has_the_bits_of_the_plain_chain(monkeypatch,
                                                            model, static):
    # the integrand writes its temporaries in place; it must give the bits
    # of the out-of-place chain and leave every array it is handed as it was
    caught = []
    monkeypatch.setattr(lifshitz, "integrate",
                        lambda f, edges, rel_tol: caught.append(f))
    terms = 12
    c1 = CONSTANTS.hbar_c / (2.0 * np.linspace(0.3, 3.0, terms))
    xi = matsubara_xi(1, 1.0) * np.arange(1.0, terms + 1)
    # y_lo a view of a node array, the way _tail_rows passes it
    nodes = (np.zeros((terms, 2)) if static else
             np.outer(np.linspace(0.5, 2.0, terms), (1.0, 3.0)))
    y_lo = nodes[:, 0]
    _integrate(model, 1e-9, c1, None if static else xi, y_lo)
    # refined, unequal panels: the first and last of _U_EDGES bisected
    edges = np.sqrt((0.0, 1.0, 2.0, 12.0, 31.0, 50.0))
    rows = np.repeat(np.arange(terms), len(edges) - 1)
    half = 0.5 * np.tile(np.diff(edges), terms)
    u = ((np.tile(edges[:-1], terms) + half)[:, None]
         + half[:, None] * quadrature._NODES)
    held = [a.copy() for a in (u, nodes, xi, c1)]
    got = caught[0](rows, u)
    for a, b in zip((u, nodes, xi, c1), held):
        assert np.array_equal(a, b)
    y0 = y_lo[rows][:, None]
    k = c1[rows][:, None] * u
    if static:
        pair = zero_freq_limit(model, k * u)
    else:
        pair = reflection_pair(model, xi[rows][:, None],
                               k * np.sqrt(2.0 * y0 + u * u))
    y = y0 + u * u
    tm, te = (r * r * np.exp(-y) for r in pair)
    want = 2.0 * u * (y * y * (tm / (1.0 - tm) + te / (1.0 - te)))
    assert got.shape == u.shape and np.array_equal(got, want)


@pytest.mark.parametrize("temperature", [1.0, 300.0])
@pytest.mark.parametrize("model", [DRUDE, PLASMA, GOLD, CORED],
                         ids=["drude", "plasma", "nonlocal", "with-core"])
def test_each_term_matches_a_quadpack_reference(model, temperature):
    query = PressureQuery(1.0, temperature, model)
    result = casimir_pressure(query)
    last = result.terms_used - 1
    # on the Euler-Maclaurin path the last per_term entry is the integrated
    # tail; its terms are checked through the tail integrand
    summed = len(result.per_term)
    if summed < result.terms_used:
        summed -= 1
    for l in sorted({0, 1, 2, 10, 100, last}):
        if l <= last:
            want = quadpack_term(model, 1.0, temperature, l)
            got = (result.per_term[l] if l < summed
                   else integrated_term(query, l))
            assert got == pytest.approx(want, rel=query.quad_tol)


@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("model", [DRUDE, PLASMA, GOLD, CORED],
                         ids=["drude", "plasma", "nonlocal", "with-core"])
def test_integrated_tail_matches_the_direct_sum(model, a, monkeypatch):
    query = PressureQuery(a, 1.0, model, quad_tol=1e-12, term_tol=1e-15)
    integrated = casimir_pressure(query)
    monkeypatch.setattr("nlcasimir.lifshitz._DIRECT_MAX", math.inf)
    direct = casimir_pressure(query)
    assert len(integrated.per_term) < len(direct.per_term) == direct.terms_used
    gap = abs(integrated.pressure - direct.pressure)
    if model is CORED:
        # np.interp puts kinks into the core, which the Euler-Maclaurin
        # identity only holds to within the error estimate
        assert gap <= integrated.quad_error_estimate
    else:
        assert gap <= 1e-11 * abs(direct.pressure)


@pytest.mark.parametrize("a, temperature, term_tol",
                         [(0.1, 300.0, 1e-30), (1.0, 300.0, 1e-300),
                          (2.0, 1.0, 1e-15)])
def test_tight_term_tol_costs_no_accuracy(a, temperature, term_tol,
                                          monkeypatch):
    # a tight term_tol lengthens the predicted sum; the Euler-Maclaurin
    # path must still only be taken where it is as accurate as the direct
    # sum (dy = 0.18, 1.65 and 0.011 here)
    query = PressureQuery(a, temperature, DRUDE, term_tol=term_tol)
    result = casimir_pressure(query)
    monkeypatch.setattr("nlcasimir.lifshitz._DIRECT_MAX", math.inf)
    direct = casimir_pressure(query)
    assert abs(result.pressure - direct.pressure) <= min(
        1e-11 * abs(direct.pressure), result.quad_error_estimate)


def test_block_boundaries_change_no_bit(monkeypatch):
    # each row's quadrature is its own, so blocks of any size give the
    # same terms; the sums size their blocks from a prediction
    queries = [PressureQuery(a, t, m) for a, t in ((0.2, 300.0), (1.0, 300.0),
                                                   (1.0, 1.0))
               for m in (DRUDE, GOLD, CORED)]
    sized = [casimir_pressure(q) for q in queries]
    monkeypatch.setattr("nlcasimir.lifshitz._BLOCK", 5)
    assert [casimir_pressure(q) for q in queries] == sized


@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("model", [DRUDE, GOLD], ids=["drude", "nonlocal"])
def test_error_estimate_covers_the_cold_matsubara_tail(model, a):
    # at 1 K the sum stops at a term whose y_l^2 growth the tail bound
    # has to carry; the tight run sums far past it
    result = casimir_pressure(PressureQuery(a, 1.0, model))
    tight = casimir_pressure(PressureQuery(a, 1.0, model, quad_tol=1e-12,
                                           term_tol=1e-15))
    assert abs(result.pressure - tight.pressure) <= result.quad_error_estimate


@given(a=st.floats(math.log(0.05), math.log(10.0)).map(math.exp),
       temperature=st.floats(0.0, math.log(1000.0)).map(math.exp),
       model=st.sampled_from([GOLD, DRUDE, PLASMA, CORED]))
# the thinnest margins of a 200-example sweep: error/estimate 0.956, 0.952
# and 0.947
@example(a=4.0638, temperature=2.9066, model=CORED)
@example(a=2.7664, temperature=3.7369, model=PLASMA)
@example(a=2.173, temperature=5.0, model=GOLD)
@settings(deadline=None, max_examples=30)
def test_the_error_estimate_covers_the_error(a, temperature, model):
    # against a sum far past term_tol with every row far below quad_tol
    result = casimir_pressure(PressureQuery(a, temperature, model))
    tight = casimir_pressure(PressureQuery(a, temperature, model,
                                           quad_tol=1e-13, term_tol=1e-15))
    assert abs(result.pressure - tight.pressure) <= result.quad_error_estimate


@pytest.mark.parametrize("model, a", [
    # a = 1 um keeps the model's name alone as its id
    pytest.param(model, a, id=name if a == 1.0 else f"{name}-{a}")
    for name, model in (("drude", DRUDE), ("plasma", PLASMA),
                        ("nonlocal", GOLD))
    for a in (0.5, 1.0, 3.0)])
def test_cold_error_estimate_tracks_the_errors_reached(model, a):
    # the integrated tail's nodes meet quad_tol with room to spare; the
    # estimate carries their own errors, not quad_tol of the value
    query = PressureQuery(a, 1.0, model)
    result = casimir_pressure(query)
    assert len(result.per_term) < result.terms_used
    assert result.quad_error_estimate < 0.1 * query.quad_tol * abs(
        result.pressure)


@pytest.mark.parametrize("quad_tol", [1e-9, 1e-13])
@pytest.mark.parametrize("model", [DRUDE, PLASMA, GOLD],
                         ids=["drude", "plasma", "nonlocal"])
def test_the_tail_node_error_is_the_weighted_sum_of_the_node_errors(
        monkeypatch, model, quad_tol):
    # a tail row's node error is sum_j w_j half_j err_j over the nodes of
    # its final panels, never more than the largest err/f over its nodes
    # times its value; at 1e-13 the rows refine, so some panels are not
    # final
    passes = []         # per tail pass: rows, y, f(y), err(y)
    last = []           # (integrals, errors) of the last _integrate

    def recording_terms(*args):
        result = terms(*args)
        last[:] = result
        return result

    def recording(f, edges, *args, **kwargs):
        if edges[0, 0] == 0.0:              # a term's u-panels
            return integrate(f, edges, *args, **kwargs)

        def g(rows, y):
            values = f(rows, y)
            passes.append((rows, y, values, last[1].reshape(y.shape)))
            return values
        return integrate(g, edges, *args)

    terms, integrate = lifshitz._integrate, lifshitz.integrate
    monkeypatch.setattr(lifshitz, "_integrate", recording_terms)
    monkeypatch.setattr(lifshitz, "integrate", recording)
    requests = [next(lifshitz._tail_integral(
        model, CONSTANTS.hbar_c / (2.0 * a), 0.5, 0.01, quad_tol))
        for a in (0.5, 1.0, 3.0)]
    tails = list(lifshitz._tail_rows(model, quad_tol, requests))
    assert (len(passes) > 1) == (quad_tol < 1e-12)
    weights = quadrature._WEIGHTS[0]
    for row, (value, _, converged, node_err) in enumerate(tails):
        assert converged
        panels = [(i, y[k], fy[k], err[k])
                  for i, (rows, y, fy, err) in enumerate(passes)
                  for k in np.flatnonzero(rows == row)]
        # a panel is final unless a later pass has a panel inside it
        final = [(y, fy, err) for i, y, fy, err in panels
                 if not any(j > i and y[0] < z[10] < y[-1]
                            for j, z, _, _ in panels)]
        half = [(y[-1] - y[0]) / (2.0 * quadrature._NODES[-1])
                for y, _, _ in final]
        assert math.isclose(value, sum(h * weights @ fy for h, (_, fy, _)
                                       in zip(half, final)), rel_tol=1e-13)
        assert math.isclose(node_err, sum(h * weights @ err for h, (_, _, err)
                                          in zip(half, final)), rel_tol=1e-13)
        ratio = max(np.max(err / fy) for _, _, fy, err in panels)
        assert 0.0 < node_err <= ratio * value


@given(a=st.floats(0.5, 7.0), temp=st.floats(1.0, 300.0),
       inner=st.sampled_from([DRUDE, GOLD]))
@settings(deadline=None, max_examples=10)
def test_a_unit_core_gives_the_inner_pressure(a, temp, inner):
    bare = casimir_pressure(PressureQuery(a, temp, inner))
    cored = casimir_pressure(PressureQuery(a, temp, WithCore(inner, UNIT_CORE)))
    assert cored.pressure == bare.pressure


@given(a=st.floats(0.2, 7.0), temp=st.floats(1.0, 300.0))
@settings(deadline=None, max_examples=10)
def test_lossless_drude_is_plasma_down_to_the_static_term(a, temp):
    # Drude at gamma = 0 keeps the l = 0 TE term that gamma > 0 drops
    lossless = Drude(DrudeParams(PLASMA.omega_p, 0.0))
    assert (casimir_pressure(PressureQuery(a, temp, lossless))
            == casimir_pressure(PressureQuery(a, temp, PLASMA)))


def _scaled_velocities(scale):
    p = GOLD.params
    return NonlocalAlt(NonlocalParams(p.drude, scale * p.v_t_ratio,
                                      scale * p.v_l_ratio))


@given(a=st.floats(0.5, 7.0), temp=st.floats(1.0, 300.0),
       scale=st.floats(1e-9, 1e-3), shrink=st.floats(0.01, 0.9))
@settings(deadline=None, max_examples=10)
def test_nonlocal_pressure_tends_to_drude_as_velocities_vanish(
        a, temp, scale, shrink):
    def pressure(model):
        return casimir_pressure(PressureQuery(a, temp, model)).pressure

    drude = pressure(DRUDE)
    assert pressure(_scaled_velocities(0.0)) == drude
    gap = abs(pressure(_scaled_velocities(scale)) - drude)
    smaller = abs(pressure(_scaled_velocities(shrink * scale)) - drude)
    # the gap closes monotonically, at most linearly in the velocities
    assert smaller <= gap + 1e-14 * abs(drude)
    assert gap <= 200.0 * scale * abs(drude)


@given(a=st.floats(1.0, 7.0), temp=st.floats(1.0, 300.0))
@settings(deadline=None, max_examples=10)
def test_model_ordering_over_separations_and_temperatures(a, temp):
    # from 1 um up only: at 300 K and 0.2 um P_nonlocal exceeds P_plasma
    p_d, p_nl, p_pl = (casimir_pressure(PressureQuery(a, temp, m)).pressure
                       for m in (DRUDE, GOLD, PLASMA))
    assert abs(p_d) <= abs(p_nl) <= abs(p_pl)


# the queries of the room_sweep and cold_local benchmarks: 300 K sums of
# about 12 terms, and 1 K sums on the Euler-Maclaurin path
ROOM_GRID = np.linspace(0.2, 7.0, 100).tolist()
COLD_GRID = np.linspace(0.5, 3.0, 30).tolist()


@pytest.mark.parametrize("model, temperature, grid", [
    (DRUDE, 300.0, ROOM_GRID), (GOLD, 300.0, ROOM_GRID),
    (PLASMA, 300.0, ROOM_GRID),
    # sums longer than one block, so several rounds
    (DRUDE, 300.0, [0.02, 0.05, 0.1]), (GOLD, 300.0, [0.02, 0.05, 0.1]),
    (DRUDE, 1.0, COLD_GRID), (PLASMA, 1.0, COLD_GRID),
    # the 1 K grid reaches the direct path from 10.5 um on
    (CORED, 300.0, [0.1, 0.5, 1.0, 3.0]), (CORED, 1.0, [0.5, 2.0, 11.0]),
    (GOLD, 1.0, [0.5, 1.0]),
    # these sums reach their tail integrals in different rounds
    (DRUDE, 0.1, [0.5, 1.7, 3.0]),
], ids=["room-drude", "room-nonlocal", "room-plasma", "small-a-drude",
        "small-a-nonlocal", "cold-drude", "cold-plasma", "cored-300K",
        "cored-1K", "cold-nonlocal", "deep-cold-drude"])
def test_a_batch_has_the_bits_of_single_queries(model, temperature, grid):
    queries = [PressureQuery(a, temperature, model) for a in grid]
    assert casimir_pressures(queries) == [casimir_pressure(q) for q in queries]


@pytest.mark.parametrize("model", [DRUDE, CORED], ids=["drude", "cored"])
def test_a_batch_that_mixes_paths_and_tolerances_has_the_bits_of_single_queries(
        model):
    # direct sums at 300 K, Euler-Maclaurin heads at 1 and 0.1 K, and
    # three term_tol in one call: the sums read rows of shared rounds
    queries = [PressureQuery(a, temperature, model, term_tol=term_tol)
               for a, temperature in ((0.2, 300.0), (1.0, 300.0), (0.5, 1.0),
                                      (2.0, 1.0), (1.0, 0.1))
               for term_tol in (1e-6, 1e-10, 1e-15)]
    results = casimir_pressures(queries)
    assert results == [casimir_pressure(q) for q in queries]
    # the direct sums give one per_term entry a term
    assert [len(r.per_term) == r.terms_used for r in results] == (
        [True] * 6 + [False] * 9)


def test_no_quadrature_pass_exceeds_a_block(monkeypatch):
    # integrate forms the passes: no integrand call takes more nodes than
    # _BLOCK terms of three u-panels of 21 nodes, however large the round
    points = []

    def recording(f, edges, *args, **kwargs):
        def counted(rows, x):
            points.append(x.size)
            return f(rows, x)
        return integrate(counted, edges, *args, **kwargs)

    integrate = lifshitz.integrate
    monkeypatch.setattr(lifshitz, "integrate", recording)
    for model, temperature, grid in ((GOLD, 300.0, ROOM_GRID),
                                     (PLASMA, 1.0, COLD_GRID),
                                     (CORED, 1.0, [0.5, 1.0]),
                                     # more tails than one pass takes
                                     (DRUDE, 1.0,
                                      np.linspace(0.5, 3.0, _BLOCK + 6))):
        casimir_pressures([PressureQuery(a, temperature, model)
                           for a in grid])
    assert max(points) == _BLOCK * 63


def test_a_round_shares_full_passes_at_every_level(monkeypatch):
    # a round of more than _BLOCK terms is one integrate call: each level
    # of refinement of its panels takes ceil(panels / _PASS) integrand
    # calls, all but the last full; the levels are those of one call per
    # level, which a _PASS above any level gives
    size = quadrature._PASS
    levels_seen = []

    def recording(f, edges, *args, **kwargs):
        if edges[0, 0] > 0.0:       # a tail's y-panels: its f has state
            return integrate(f, edges, *args, **kwargs)
        levels, calls = [], []

        def level(rows, x):
            levels.append(len(rows))
            return f(rows, x)

        def call(rows, x):
            calls.append(len(rows))
            return f(rows, x)

        with monkeypatch.context() as whole:
            whole.setattr(quadrature, "_PASS", 10**9)
            integrate(level, edges, *args, **kwargs)
        result = integrate(call, edges, *args, **kwargs)
        assert calls == [min(size, panels - start) for panels in levels
                         for start in range(0, panels, size)]
        levels_seen.append(levels)
        return result

    integrate = lifshitz.integrate
    monkeypatch.setattr(lifshitz, "integrate", recording)
    casimir_pressures([PressureQuery(a, 1.0, DRUDE)
                       for a in np.linspace(0.5, 3.0, _BLOCK + 6)])
    # the first round holds more than _BLOCK terms, and refines in passes
    # of more than one call
    assert levels_seen[1][0] > 3 * _BLOCK
    assert any(panels > size for levels in levels_seen
               for panels in levels[1:])


def test_follow_up_blocks_give_the_bits_of_one_long_block(monkeypatch):
    # a direct sum that runs past its expected last row asks for 2, 4, 8
    # .. more; its terms keep the bits they have in one block that holds
    # them all
    results = {}
    for predicted in (1.0, 100.0):
        monkeypatch.setattr(lifshitz, "_direct_length",
                            lambda dy, term_tol, p=predicted: p)
        for model in (DRUDE, PLASMA, GOLD, CORED):
            results.setdefault(predicted, []).append(casimir_pressures(
                [PressureQuery(a, 300.0, model) for a in (0.2, 0.5, 1.0)]))
    assert results[1.0] == results[100.0]
    assert all(r.terms_used > 8 for batch in results[1.0] for r in batch)

    blocks = []

    def recording(model, quad_tol, c1, xi, y_lo):
        blocks.append(len(y_lo))
        return _integrate(model, quad_tol, c1, xi, y_lo)

    _integrate = lifshitz._integrate
    monkeypatch.setattr(lifshitz, "_integrate", recording)
    monkeypatch.setattr(lifshitz, "_direct_length", lambda dy, term_tol: 1.0)
    casimir_pressure(PressureQuery(0.5, 300.0, DRUDE))
    # the static term, the expected rows 1 and 2, then 2, 4, 8 .. rows
    assert blocks[:5] == [1, 2, 2, 4, 8]


def test_a_sweep_integrates_its_tails_in_one_call(monkeypatch):
    calls = []

    def recording(f, edges, *args, **kwargs):
        # the y-panels of a tail start above 0, the u-panels of a term at 0
        if edges[0, 0] > 0.0:
            calls.append(edges.shape[0])
        return integrate(f, edges, *args, **kwargs)

    integrate = lifshitz.integrate
    monkeypatch.setattr(lifshitz, "integrate", recording)
    casimir_pressures([PressureQuery(a, 1.0, DRUDE) for a in COLD_GRID])
    assert calls == [len(COLD_GRID)]


def test_a_stalled_tail_node_fails_its_own_query(monkeypatch):
    # every node of the tail integral of the query at 2 um stalls; the
    # terms of both sums lie below y = 1 and converge
    queries = [PressureQuery(1.0, 1.0, DRUDE), PressureQuery(2.0, 1.0, DRUDE)]
    alone = casimir_pressure(queries[0])
    c1 = CONSTANTS.hbar_c / (2.0 * 2.0)

    def stalling(model, quad_tol, c1s, xi, y_lo):
        values, errors, ok = integrate(model, quad_tol, c1s, xi, y_lo)
        return values, errors, ok & ~((np.asarray(c1s) == c1) & (y_lo > 1.0))

    integrate = lifshitz._integrate
    monkeypatch.setattr(lifshitz, "_integrate", stalling)
    with pytest.raises(ConvergenceError) as single:
        casimir_pressure(queries[1])
    with pytest.raises(ConvergenceError) as batch:
        casimir_pressures(queries)
    assert "tail integral stalled" in str(single.value)
    assert str(batch.value) == str(single.value)
    assert batch.value.last_estimate == single.value.last_estimate
    assert casimir_pressure(queries[0]) == alone


def test_a_batch_shares_one_model_and_one_quad_tol():
    with pytest.raises(DomainError):
        casimir_pressures([PressureQuery(1.0, 300.0, DRUDE),
                           PressureQuery(1.0, 300.0, PLASMA)])
    with pytest.raises(DomainError):
        casimir_pressures([PressureQuery(1.0, 300.0, DRUDE),
                           PressureQuery(2.0, 300.0, DRUDE, quad_tol=1e-10)])
    assert casimir_pressures([]) == []


def test_a_batch_raises_the_error_of_its_first_failing_query(monkeypatch):
    # query 2 stalls on its static term in the first pass; query 1, before
    # it, stalls on its first Matsubara term, read from the next pass
    stalled = []

    def stalling(f, edges, *args, **kwargs):
        values, errors, ok = integrate(f, edges, *args, **kwargs)
        if len(stalled) < 2:
            # the static terms of queries 0, 1, 2, then the blocks of
            # queries 0 and 1, alike
            row = edges.shape[0] // 2 if stalled else 2
            ok[row] = False
            stalled.append(float(values[row]))
        return values, errors, ok

    integrate = lifshitz.integrate
    monkeypatch.setattr(lifshitz, "integrate", stalling)
    queries = [PressureQuery(1.0, 300.0, DRUDE),
               PressureQuery(1.0, 300.0, DRUDE),
               PressureQuery(2.0, 300.0, DRUDE)]
    with pytest.raises(ConvergenceError) as err:
        casimir_pressures(queries)
    assert "wavevector quadrature stalled" in str(err.value)
    assert err.value.last_estimate == stalled[1] != stalled[0]


def test_a_read_stalled_row_raises_and_one_past_the_stop_changes_nothing(
        monkeypatch):
    # a row that misses quad_tol has stalled at _MAX_PANELS; the sum raises
    # with its value once it reads it, and never reads its block's rows
    # past the term that stops it
    monkeypatch.setattr(lifshitz, "_direct_length", lambda dy, term_tol: 100.0)
    query = PressureQuery(1.0, 300.0, DRUDE)
    alone = casimir_pressure(query)
    last = alone.terms_used - 1     # the term that stopped the sum
    assert last + 1 < 100           # rows past it share its block
    integrate = lifshitz._integrate
    for l in (last + 1, 1, last):
        values = []

        def stalling(model, quad_tol, c1, xi, y_lo, l=l):
            result = integrate(model, quad_tol, c1, xi, y_lo)
            if xi is not None:      # the one block, rows l = 1, 2, ...
                result[2][l - 1] = False
                values.append(float(result[0][l - 1]))
            return result

        monkeypatch.setattr(lifshitz, "_integrate", stalling)
        if l > last:
            assert casimir_pressure(query) == alone
            continue
        with pytest.raises(ConvergenceError) as err:
            casimir_pressure(query)
        assert "wavevector quadrature stalled" in str(err.value)
        assert [err.value.last_estimate] == values


def test_a_cold_cored_sweep_measures_its_kinks_in_shared_rounds(monkeypatch):
    # the kink stencils are rows of the rounds, so a sweep makes no more
    # _integrate calls than its longest query alone; each result keeps
    # the bits of its query alone
    counts = []

    def counting(*args):
        counts[-1] += 1
        return _integrate(*args)

    for n in (1, 6):
        queries = [PressureQuery(a, 1.0, CORED)
                   for a in np.linspace(0.5, 3.0, n)]
        alone = [casimir_pressure(q) for q in queries]
        monkeypatch.setattr(lifshitz, "_integrate", counting)
        counts.append(0)
        assert casimir_pressures(queries) == alone
        monkeypatch.setattr(lifshitz, "_integrate", _integrate)
    assert counts[0] == counts[1]
