"""Sphere-plate force gradients and measured-data ingestion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlcasimir import (DomainError, ParseError, SpherePlateConfig,
                       force_gradient, ideal_metal_pressure_zero_t,
                       parse_experiment_csv)


def quartic_pressure(a):
    return ideal_metal_pressure_zero_t(a)


def test_gradient_oracle_for_a_bare_sphere():
    cfg = SpherePlateConfig(radius=50.0)
    got = force_gradient(1.0, cfg, quartic_pressure)
    assert math.isclose(got, 4.0844662945225733e-7, rel_tol=1e-14)
    # attractive pressure maps to a positive measured gradient
    assert got > 0.0


def test_constant_curvature_correction():
    cfg = SpherePlateConfig(radius=50.0, beta=2.0)
    base = force_gradient(1.0, SpherePlateConfig(radius=50.0), lambda a: -1.0)
    got = force_gradient(1.0, cfg, lambda a: -1.0)
    assert math.isclose(got, base * (1.0 + 2.0 * 1.0 / 50.0), rel_tol=1e-15)


def test_callable_curvature_correction_receives_geometry():
    seen = []

    def beta(a, radius):
        seen.append((a, radius))
        return 2.0

    got = force_gradient(1.0, SpherePlateConfig(radius=50.0, beta=beta),
                         lambda a: -1.0)
    fixed = force_gradient(1.0, SpherePlateConfig(radius=50.0, beta=2.0),
                           lambda a: -1.0)
    assert got == fixed
    assert seen == [(1.0, 50.0)]


def test_roughness_scales_quadratically():
    cfg = SpherePlateConfig(radius=50.0, delta_sphere=0.01, delta_plate=0.02)
    base = force_gradient(1.0, SpherePlateConfig(radius=50.0), lambda a: -1.0)
    got = force_gradient(1.0, cfg, lambda a: -1.0)
    rough = 10.0 * (0.01**2 + 0.02**2) / 1.0**2
    assert math.isclose(got, base * (1.0 + rough), rel_tol=1e-15)


def test_warns_when_the_proximity_expansion_degrades():
    with pytest.warns(UserWarning):
        force_gradient(1.0, SpherePlateConfig(radius=5.0), lambda a: -1.0)
    with pytest.warns(UserWarning):
        force_gradient(1.0, SpherePlateConfig(radius=500.0, delta_sphere=0.3),
                       lambda a: -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        force_gradient(1.0, SpherePlateConfig(radius=500.0), lambda a: -1.0)


def test_gradient_domain_validation():
    cfg = SpherePlateConfig(radius=50.0)
    with pytest.raises(DomainError):
        force_gradient(0.0, cfg, lambda a: -1.0)
    with pytest.raises(DomainError):
        SpherePlateConfig(radius=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            SpherePlateConfig(radius=bad)
    with pytest.raises(DomainError):
        SpherePlateConfig(radius=50.0, delta_sphere=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            SpherePlateConfig(radius=50.0, delta_sphere=bad)
        with pytest.raises(DomainError):
            SpherePlateConfig(radius=50.0, delta_plate=bad)


def test_non_finite_separations_are_refused_before_any_pressure():
    def pressure(a):
        raise AssertionError(f"pressure called at a = {a}")

    cfg = SpherePlateConfig(radius=50.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            force_gradient(bad, cfg, pressure)


def test_parse_experiment_rows():
    text = """\
# gradient scan, run 12
a_um, Fprime, sigma
0.60, 1.52e-5, 2.0e-7
0.80  7.1e-6  1.5e-7
1.20, 2.4e-6, 9.0e-8
"""
    a, fprime, sigma = parse_experiment_csv(text)
    assert np.array_equal(a, [0.60, 0.80, 1.20])
    assert np.array_equal(fprime, [1.52e-5, 7.1e-6, 2.4e-6])
    assert np.array_equal(sigma, [2.0e-7, 1.5e-7, 9.0e-8])


def test_parse_rejects_a_second_header():
    with pytest.raises(ParseError) as err:
        parse_experiment_csv("a, F, s\nalso, not, data\n1.0, 2.0, 0.1\n")
    assert err.value.line == 2


def test_parse_rejects_malformed_rows():
    with pytest.raises(ParseError) as err:
        parse_experiment_csv("1.0, 2.0\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_experiment_csv("1.0, 2.0, -0.1\n")        # negative sigma
    with pytest.raises(ParseError):
        parse_experiment_csv("-1.0, 2.0, 0.1\n")        # nonpositive a
    for row in ("nan, 2.0, 0.1", "inf, 2.0, 0.1", "1.0, nan, 0.1",
                "1.0, -inf, 0.1", "1.0, 2.0, nan", "1.0, 2.0, inf"):
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_experiment_csv(f"a, F, s\n0.5, 1.0, 0.1\n{row}\n")
        assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_experiment_csv("# only comments\n")
    assert "no data rows" in str(err.value)


@given(rows=st.lists(
    st.tuples(st.floats(1e-3, 1e3), st.floats(-1e6, 1e6), st.floats(0.0, 1e3)),
    min_size=1, max_size=8))
@settings(deadline=None)
def test_parse_roundtrips_exact_values(rows):
    text = "sep,grad,err\n" + "\n".join(
        f"{a!r},{f!r},{s!r}" for a, f, s in rows)
    a, fprime, sigma = parse_experiment_csv(text)
    assert list(a) == [r[0] for r in rows]
    assert list(fprime) == [r[1] for r in rows]
    assert list(sigma) == [r[2] for r in rows]
