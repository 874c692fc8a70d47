"""Dispersion-relation checks: principal values and causality residuals."""

import math

import numpy as np
import pytest

import nlcasimir.kramers_kronig as kk
from nlcasimir import (RELATIONS, DomainError, Drude, DrudeParams,
                       NonlocalAlt, NonlocalParams, Plasma, PVSettings,
                       eval_imag_axis, eval_real_axis, gold_default,
                       pv_integral, verify_kk)

GOLD = gold_default().params
LOSSLESS = NonlocalParams(drude=DrudeParams(omega_p=9.0, gamma=0.0),
                          v_t_ratio=GOLD.v_t_ratio, v_l_ratio=GOLD.v_l_ratio)
TRANSVERSE = ("t-real-from-imag", "t-imag-from-real", "t-imag-axis")
LONGITUDINAL = ("l-real-from-imag", "l-imag-from-real", "l-imag-axis")


def rational(x):
    # simple pole at 0.7 on top of a Lorentzian envelope; the principal
    # value has a closed form, frozen below from a 40-digit evaluation
    return x / ((x - 0.7) * (x * x + 1.69))


def test_pv_oracle_with_explicit_bounds():
    got = pv_integral(rational, pole=0.7, lo=-1e4, hi=1e4)
    assert math.isclose(got, 1.8732268117745299, rel_tol=1e-8)


def test_pv_oracle_with_truncation_tails():
    got = pv_integral(rational, pole=0.7)
    assert math.isclose(got, 1.8734268117737299, rel_tol=1e-8)
    # the tail estimate makes the cutoff choice immaterial
    wider = pv_integral(rational, pole=0.7,
                        settings=PVSettings(cutoff=2e4, tol=1e-9))
    assert math.isclose(got, wider, rel_tol=1e-7)


def test_pv_settings_validation():
    with pytest.raises(DomainError):
        PVSettings(window=0.0)
    with pytest.raises(DomainError):
        PVSettings(window=1.0, cutoff=0.5)
    with pytest.raises(DomainError):
        PVSettings(tol=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            PVSettings(window=bad)
        with pytest.raises(DomainError):
            PVSettings(cutoff=bad)


def test_pv_domain_errors():
    with pytest.raises(DomainError):
        pv_integral(rational, pole=0.7, lo=0.7, hi=1e4)
    with pytest.raises(DomainError):
        pv_integral(rational, lo=2.0, hi=2.0)


def test_transverse_relations_hold():
    for relation in TRANSVERSE:
        report = verify_kk(relation, GOLD, 0.2)
        assert report.relation == relation
        assert report.k_hat == 0.2
        assert len(report.grid) == 13
        assert report.max_residual < 1e-6
        assert report.note == ""


def test_longitudinal_relations_hold():
    a, b, c = (verify_kk(relation, GOLD, 0.2) for relation in LONGITUDINAL)
    assert (a.relation, b.relation, c.relation) == (
        "l-real-from-imag", "l-imag-from-real", "l-imag-axis")
    for report in (a, b, c):
        assert report.max_residual < 1e-6
        assert report.note == ""


def test_dropping_pole_subtractions_breaks_the_relations():
    for relation in TRANSVERSE:
        report = verify_kk(relation, GOLD, 0.2, include_pole_terms=False)
        assert report.residuals[0] > 0.1
        assert report.max_residual > 0.1
    # the insulator-form relations carry no subtraction to drop
    for relation in LONGITUDINAL:
        with pytest.raises(DomainError):
            verify_kk(relation, GOLD, 0.2, include_pole_terms=False)


def test_pole_subtractions_are_inert_without_spatial_dispersion():
    # the second-order-pole weight carries a factor v_T k_hat, so at
    # k_hat = 0 dropping it changes nothing for these two relations
    for relation in ("t-real-from-imag", "t-imag-axis"):
        with_terms = verify_kk(relation, GOLD, 0.0)
        without = verify_kk(relation, GOLD, 0.0, include_pole_terms=False)
        assert with_terms.residuals == without.residuals
        assert with_terms.max_residual < 1e-6
    # the imag-from-real subtraction is the static conductivity, which
    # survives at k_hat = 0; its control must still fail
    report = verify_kk("t-imag-from-real", GOLD, 0.0,
                       include_pole_terms=False)
    assert report.residuals[0] > 0.1


def test_relations_are_both_components_times_three_kernels():
    # perfbench/workloads.py hard-codes this order
    assert list(RELATIONS) == [
        "t-real-from-imag", "t-imag-from-real", "t-imag-axis",
        "l-real-from-imag", "l-imag-from-real", "l-imag-axis"]
    noted = [rid for rid, rel in RELATIONS.items() if rel.note]
    assert noted == ["l-imag-from-real"]


def test_conducting_limit_is_flagged_not_hidden():
    a, b, c = (verify_kk(relation, GOLD, 0.0) for relation in LONGITUDINAL)
    assert a.max_residual < 1e-6
    assert c.max_residual < 1e-6
    assert b.max_residual > 0.1
    assert "conducting limit" in b.note


def test_lossless_longitudinal_is_also_conducting():
    _, b, _ = (verify_kk(relation, LOSSLESS, 0.2) for relation in LONGITUDINAL)
    assert b.max_residual > 0.1
    assert "conducting limit" in b.note


def test_degenerate_longitudinal_pole_is_rejected():
    for relation in LONGITUDINAL:
        with pytest.raises(DomainError):
            verify_kk(relation, LOSSLESS, 0.0)


def test_transverse_relations_need_dissipation():
    for relation in TRANSVERSE:
        with pytest.raises(DomainError):
            verify_kk(relation, LOSSLESS, 0.2)
        with pytest.raises(DomainError):
            verify_kk(relation, GOLD, -0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                verify_kk(relation, GOLD, bad)
    for relation in LONGITUDINAL:
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                verify_kk(relation, GOLD, bad)


def test_custom_grids_are_respected():
    report = verify_kk("t-real-from-imag", GOLD, 0.2, grid=[0.3, 1.1])
    assert report.grid == (0.3, 1.1)
    assert len(report.residuals) == 2
    a = verify_kk("l-real-from-imag", GOLD, 0.2, grid=[0.5])
    c = verify_kk("l-imag-axis", GOLD, 0.2, grid=[0.9, 2.0])
    assert a.grid == (0.5,)
    assert c.grid == (0.9, 2.0)


def test_grid_validation():
    with pytest.raises(DomainError):
        verify_kk("t-imag-axis", GOLD, 0.2, grid=[])
    with pytest.raises(DomainError):
        verify_kk("t-imag-axis", GOLD, 0.2, grid=[0.0])
    with pytest.raises(DomainError):
        verify_kk("l-real-from-imag", GOLD, 0.2, grid=[-1.0])
    with pytest.raises(DomainError):
        verify_kk("eq-31", GOLD, 0.2)
    for bad in (math.nan, math.inf):
        for relation in RELATIONS:
            with pytest.raises(DomainError, match="grid must be finite"):
                verify_kk(relation, GOLD, 0.2, grid=[0.5, bad])


def _python_complex_eps(model, omega, k_hat):
    """(eps_l, eps_t) on the real axis with Python complex arithmetic."""
    if isinstance(model, Plasma):
        return (complex(1.0 - model.omega_p**2 / (omega * omega), 0.0),) * 2
    p = model.params if isinstance(model, Drude) else model.params.drude
    drude = p.omega_p**2 / (omega * (omega + 1j * p.gamma))
    if isinstance(model, Drude):
        return (1.0 - drude,) * 2
    nl = model.params
    return (1.0 - drude / (1.0 + 1j * nl.v_l_ratio * k_hat / omega),
            1.0 - drude * (1.0 + 1j * nl.v_t_ratio * k_hat / omega))


# each relation's integrand at grid point w from (eps_l, eps_t) at x,
# written out apart from kramers_kronig; weight is the pole weight
REFERENCE_INTEGRANDS = {
    "t-real-from-imag": lambda eps, x, w, weight: (
        x * eps[1].imag / (x * x - w * w)),
    "t-imag-from-real": lambda eps, x, w, weight: (
        (eps[1].real + weight / (x * x)) / (x * x - w * w)),
    "t-imag-axis": lambda eps, x, w, weight: (
        x * eps[1].imag / (x * x + w * w)),
    "l-real-from-imag": lambda eps, x, w, weight: (
        x * eps[0].imag / (x * x - w * w)),
    "l-imag-from-real": lambda eps, x, w, weight: (
        eps[0].real / (x * x - w * w)),
    "l-imag-axis": lambda eps, x, w, weight: (
        x * eps[0].imag / (x * x + w * w)),
}


@pytest.mark.parametrize("k_hat", [0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0])
def test_block_integrals_match_pv_integral(k_hat):
    # pv_integral, one QUADPACK call per piece and a Python call per
    # sample, is the slow reference for the block pass of verify_kk
    model = NonlocalAlt(GOLD)
    grid = np.geomspace(0.05, 5.0, 13)
    settings = PVSettings(tol=1e-9)
    for relation, rel in RELATIONS.items():
        hints, weight, _ = kk._component_terms(rel.part, GOLD, k_hat, True)
        got = kk._integrals(rel.kernel, rel.part, model, k_hat, grid, hints,
                            weight)
        reference = REFERENCE_INTEGRANDS[relation]
        for w, value in zip(grid, got):
            want = pv_integral(
                lambda x: reference(_python_complex_eps(model, x, k_hat), x,
                                    w, weight),
                pole=w if rel.kernel.real_axis else None, settings=settings,
                lo=0.0, points=hints)
            assert abs(value - want) <= 1e-8 * max(abs(value), abs(want), 1.0)


def test_array_real_axis_matches_scalar_calls_bit_for_bit():
    omega = np.concatenate([np.geomspace(1e-6, 1e5, 300), [0.035, 1.0]])
    for model in (Drude(DrudeParams(9.0, 0.035)), Drude(DrudeParams(9.0, 0.0)),
                  Plasma(9.0), gold_default(), NonlocalAlt(LOSSLESS)):
        for k_hat in (0.0, 0.3, 5.0):
            block = eval_real_axis(model, omega, k_hat)
            scalar = [eval_real_axis(model, float(x), k_hat) for x in omega]
            assert all(type(v.eps_t) is complex for v in scalar)
            for part in (0, 1):
                want = np.array([v[part] for v in scalar])
                # int64 views compare bits, signed zeros included
                assert np.array_equal(block[part].view(np.int64),
                                      want.view(np.int64))
                python = [_python_complex_eps(model, float(x), k_hat)[part]
                          for x in omega]
                assert np.allclose(want, python, rtol=1e-14, atol=0.0)
    # k_hat broadcasts against omega as well
    k = np.linspace(0.0, 3.0, 7)
    block = eval_real_axis(gold_default(), 0.7, k)
    assert list(block.eps_t) == [eval_real_axis(gold_default(), 0.7, float(x))
                                 .eps_t for x in k]
    assert list(block.passive) == [bool(x) for x in
                                   GOLD.v_t_ratio * k <= GOLD.drude.gamma]


def test_array_real_axis_refuses_bad_frequencies():
    for bad in ([0.5, math.nan], [0.5, 0.0], [-1.0, 2.0], [1.0, math.inf]):
        with pytest.raises(DomainError):
            eval_real_axis(gold_default(), np.array(bad), 0.2)
    with pytest.raises(DomainError):
        eval_real_axis(gold_default(), np.array([0.5, 1.0]),
                       np.array([0.2, math.nan]))


def test_real_axis_grid_at_the_cutoff_is_rejected():
    for relation in ("t-real-from-imag", "t-imag-from-real",
                     "l-real-from-imag", "l-imag-from-real"):
        for bad in ([1e4], [0.5, 2e4]):
            with pytest.raises(DomainError, match="cutoff"):
                verify_kk(relation, GOLD, 0.2, grid=bad)
    # the imaginary-axis relations have no pole to keep inside the range
    assert verify_kk("t-imag-axis", GOLD, 0.2, grid=[2e4]).max_residual < 1e-6


def test_break_point_next_to_a_grid_point():
    # gamma = 0.5 lies one ulp from the default grid's 0.49999999999999994,
    # and 0.1 and 1.0 from the panel edges 10^(j/4) 1e-3
    params = NonlocalParams(DrudeParams(9.0, 0.5), GOLD.v_t_ratio,
                            GOLD.v_l_ratio)
    for relation in RELATIONS:
        assert verify_kk(relation, params, 0.2).max_residual < 1e-6
        near = [np.nextafter(0.1, 0.0), np.nextafter(1.0, 2.0)]
        assert verify_kk(relation, GOLD, 0.2, grid=near).max_residual < 1e-6


def test_imag_axis_relation_far_above_the_resonances():
    report = verify_kk("t-imag-axis", GOLD, 0.2, grid=[1e3])
    assert report.max_residual < 1e-6
    assert abs(eval_imag_axis(gold_default(), 1e3, 0.2).eps_t - 1.0) < 1e-3


def test_the_default_grid_is_built_once_and_read_only():
    grid = kk._resolve_grid(None, "omega_grid")
    assert grid is kk._resolve_grid(None, "xi_grid")
    assert grid.tobytes() == np.geomspace(0.05, 5.0, 13).tobytes()
    with pytest.raises(ValueError):
        grid[0] = 1.0
    report = kk.verify_kk("t-imag-axis", GOLD, 0.2)
    assert report.grid == tuple(np.geomspace(0.05, 5.0, 13))
