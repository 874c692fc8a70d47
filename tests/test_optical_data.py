"""Tabulated n,k ingestion and the interband core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlcasimir import (CoreTable, DomainError, DrudeParams, InterbandImEps,
                       ParseError, build_core_table, drude_im_eps,
                       interband_im_eps, parse_optical_table)

from conftest import OPTICAL_TEXT
from reference_paths import core_imag_axis

GOLD_DRUDE = DrudeParams(9.0, 0.035)
HAND_IB = InterbandImEps(np.array([1.0, 2.0, 4.0]), np.array([0.5, 3.0, 1.0]))


def test_parse_accepts_comments_and_blank_lines(optical_text):
    table = parse_optical_table(optical_text)
    assert table.energy[0] == 0.5
    assert table.energy[-1] == 6.0
    assert len(table.energy) == 7
    assert table.n[3] == 0.9
    assert table.k[3] == 3.9


def test_parse_accepts_iterables_of_lines(optical_text):
    from_str = parse_optical_table(optical_text)
    from_list = parse_optical_table(optical_text.splitlines())
    assert np.array_equal(from_str.energy, from_list.energy)


def test_im_eps_is_twice_n_times_k(optical_text):
    table = parse_optical_table(optical_text)
    assert np.array_equal(table.im_eps(), 2.0 * table.n * table.k)


def test_parse_rejects_wrong_column_count():
    with pytest.raises(ParseError) as err:
        parse_optical_table("1.0 0.5\n2.0 0.6\n")
    assert err.value.line == 1
    assert "line 1" in str(err.value)


def test_parse_rejects_non_numeric_rows():
    with pytest.raises(ParseError) as err:
        parse_optical_table("1.0 0.5 2.0\n2.0 x 1.0\n")
    assert err.value.line == 2


def test_parse_rejects_unsorted_energies():
    with pytest.raises(ParseError) as err:
        parse_optical_table("1.0 0.5 2.0\n0.9 0.6 1.0\n")
    assert err.value.line == 2


def test_parse_rejects_negative_optical_constants():
    with pytest.raises(ParseError):
        parse_optical_table("1.0 -0.5 2.0\n2.0 0.6 1.0\n")
    # NaN passes every comparison, the ordering test included
    for row in ("nan 0.6 1.0", "inf 0.6 1.0", "2.0 nan 1.0", "2.0 inf 1.0",
                "2.0 0.6 nan", "2.0 0.6 inf"):
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_optical_table(f"1.0 0.5 2.0\n{row}\n3.0 0.7 0.9\n")
        assert err.value.line == 2


def test_parse_rejects_nonpositive_energies():
    for first in ("0.0 1.2 9.0", "-0.5 1.2 9.0"):
        with pytest.raises(ParseError, match="energy must be positive") as err:
            parse_optical_table(f"# E n k\n{first}\n1.0 0.8 6.5\n")
        assert err.value.line == 2


def test_parse_needs_two_rows():
    with pytest.raises(ParseError):
        parse_optical_table("# nothing but comments\n1.0 0.5 2.0\n")


def test_drude_im_eps_formula():
    value = drude_im_eps(GOLD_DRUDE, 0.5)
    expected = 81.0 * 0.035 / (0.5 * (0.25 + 0.035**2))
    assert math.isclose(value, expected, rel_tol=1e-15)


def test_interband_subtraction_clamps_at_zero(optical_text):
    table = parse_optical_table(optical_text)
    ib = interband_im_eps(table, GOLD_DRUDE)
    # first row: 2nk = 21.6 sits below the free-electron 22.57
    assert ib.im_eps[0] == 0.0
    assert np.all(ib.im_eps >= 0.0)
    assert ib.im_eps[-1] > 0.0


def test_interband_needs_coverage_of_the_onset():
    table = parse_optical_table("0.5 1.0 5.0\n1.0 1.0 4.0\n1.5 1.0 3.0\n")
    with pytest.raises(DomainError):
        interband_im_eps(table, GOLD_DRUDE)


def test_core_integral_matches_hand_trapezoid():
    ib = InterbandImEps(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
    xi = 0.5
    f1 = 1.0 * 2.0 / (1.0 + xi * xi)
    f3 = 3.0 * 4.0 / (9.0 + xi * xi)
    expected = 1.0 + (2.0 / math.pi) * 0.5 * (f1 + f3) * 2.0
    assert math.isclose(core_imag_axis(ib, xi), expected, rel_tol=1e-15)


def test_core_integral_rejects_nonpositive_xi():
    ib = InterbandImEps(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
    with pytest.raises(DomainError):
        core_imag_axis(ib, 0.0)


@given(x1=st.floats(0.01, 50.0), x2=st.floats(0.01, 50.0))
@settings(deadline=None)
def test_core_never_increases_with_frequency(x1, x2):
    lo, hi = sorted((x1, x2))
    assert core_imag_axis(HAND_IB, lo) >= core_imag_axis(HAND_IB, hi)
    assert core_imag_axis(HAND_IB, hi) >= 1.0


CORE_IB = interband_im_eps(parse_optical_table(OPTICAL_TEXT), GOLD_DRUDE)


@given(ib=st.sampled_from([CORE_IB, HAND_IB]), log_xi=st.floats(-4.0, 3.0))
@settings(deadline=None)
def test_core_lines_are_the_trapezoid_core(ib, log_xi):
    # the Lorentz lines are core_imag_axis's trapezoid sum, rearranged
    xi = 10.0 ** log_xi
    assert math.isclose(build_core_table(ib).value_at(xi),
                        core_imag_axis(ib, xi), rel_tol=1e-15)


def test_core_lines_give_an_array_the_bits_of_its_scalar_calls():
    core = build_core_table(CORE_IB)
    # the rows clamped to zero add no line
    assert core.energy.tolist() == CORE_IB.energy[CORE_IB.im_eps > 0].tolist()
    # a (terms x 1) column, as the pressure path passes it, xi = 0 included
    xi = np.append(0.0, np.geomspace(1e-4, 1e3, 28))[:, None]
    got = core.value_at(xi)
    assert got.shape == (29, 1)
    assert got.ravel().tolist() == [core.value_at(x) for x in xi.ravel().tolist()]
    assert isinstance(core.value_at(1.5), float)


def test_core_table_validation():
    for energy, strength in [([1.0, 2.0], [1.0]), ([0.0], [1.0]),
                             ([-1.0], [1.0]), ([math.inf], [1.0]),
                             ([math.nan], [1.0]), ([1.0], [-1.0]),
                             ([1.0], [math.inf]), ([1.0], [math.nan])]:
        with pytest.raises(DomainError):
            CoreTable(np.array(energy), np.array(strength))
    core = CoreTable(np.array([1.0, 2.0]), np.array([3.0, 5.0]))
    assert core.value_at(0.0) == 1.0 + (3.0 + 5.0 / 4.0)
    for xi in (-1.0, math.nan, np.array([[1.5], [-0.5]]),
               np.array([0.0, math.nan])):
        with pytest.raises(DomainError):
            core.value_at(xi)


def test_build_core_table_evaluates_the_core_on_its_grid(optical_text):
    table = parse_optical_table(optical_text)
    ib = interband_im_eps(table, GOLD_DRUDE)
    grid = [0.1, 1.0, 10.0]
    core = build_core_table(ib, grid)
    # the grid is not read: the lines are those of a core built without one
    assert core.energy.tolist() == build_core_table(ib).energy.tolist()
    assert core.strength.tolist() == build_core_table(ib).strength.tolist()
    for xi in grid:
        assert math.isclose(core.value_at(xi), core_imag_axis(ib, xi),
                            rel_tol=1e-15)
