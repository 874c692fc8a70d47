"""Unit conventions and Matsubara frequencies."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from nlcasimir import CONSTANTS, DomainError, matsubara_xi, pressure_to_pascal


def test_constant_values():
    assert CONSTANTS.hbar_c == 0.19732697
    assert CONSTANTS.boltzmann == 8.617333e-5
    assert CONSTANTS.ev_per_um3_to_pascal == 0.1602177
    assert CONSTANTS.fermi_velocity_ratio_default == 1.38e6 / 299_792_458.0


def test_first_matsubara_energy_at_room_temperature():
    # frozen against a 40-digit evaluation of 2 pi k_B T
    assert math.isclose(matsubara_xi(1, 300.0), 0.16243290027802136,
                        rel_tol=1e-15)


def test_zero_mode_energy_is_zero():
    assert matsubara_xi(0, 77.0) == 0.0


def test_exactly_linear_in_index():
    xi_1 = matsubara_xi(1, 300.0)
    assert matsubara_xi(7, 300.0) == 7 * xi_1


@given(l=st.integers(min_value=0, max_value=100_000),
       temp=st.floats(min_value=1e-3, max_value=1e4))
@settings(deadline=None)
def test_linearity_holds_for_any_index_and_temperature(l, temp):
    assert matsubara_xi(l, temp) == l * matsubara_xi(1, temp)


def test_domain_validation():
    with pytest.raises(DomainError):
        matsubara_xi(1, 0.0)
    with pytest.raises(DomainError):
        matsubara_xi(1, -5.0)
    with pytest.raises(DomainError):
        matsubara_xi(-1, 300.0)


def test_pressure_unit_conversion():
    assert pressure_to_pascal(1.0) == 0.1602177
    assert pressure_to_pascal(-2.5) == -2.5 * 0.1602177
    assert pressure_to_pascal(0.0) == 0.0
