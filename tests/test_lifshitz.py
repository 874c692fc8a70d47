"""Pressure summation: analytic anchors and convergence bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlcasimir import (ConvergenceError, DomainError, Drude, DrudeParams,
                       PerfectReflector, Plasma, PressureQuery,
                       casimir_pressure, classical_limit_pressure,
                       gold_default, ideal_metal_pressure_zero_t)
from nlcasimir.lifshitz import _adaptive_integral

GOLD = gold_default()
DRUDE = Drude(GOLD.params.drude)


def test_ideal_metal_zero_temperature_oracle():
    assert math.isclose(ideal_metal_pressure_zero_t(1.0),
                        -0.0013001260013310095, rel_tol=1e-15)
    with pytest.raises(DomainError):
        ideal_metal_pressure_zero_t(0.0)


def test_perfect_mirrors_cold_limit_reproduces_the_quartic_law():
    # at 0.5 um and 1 K the thermal correction sits below 1e-7 relative
    result = casimir_pressure(PressureQuery(0.5, 1.0, PerfectReflector()))
    assert math.isclose(result.pressure, ideal_metal_pressure_zero_t(0.5),
                        rel_tol=1e-6)
    assert result.terms_used > 1000
    assert result.quad_error_estimate < 1e-6 * abs(result.pressure)


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


def test_wavevector_quadrature_reports_stalls():
    # oscillation much faster than any panel keeps the two quadrature
    # orders from ever agreeing
    def jagged(y):
        return np.abs(np.sin(1e6 * y)) + 1.0

    with pytest.raises(ConvergenceError) as err:
        _adaptive_integral(jagged, 0.0, 1e-12, max_refinements=5)
    assert err.value.last_estimate is not None
    assert math.isfinite(err.value.last_estimate)
