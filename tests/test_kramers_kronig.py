"""Dispersion-relation checks: principal values and causality residuals."""

import math

import pytest

import nlcasimir.kramers_kronig as kk
from nlcasimir import (RELATIONS, DomainError, DrudeParams, NonlocalParams,
                       PVSettings, eval_imag_axis, eval_real_axis,
                       gold_default, pv_integral,
                       verify_kk, verify_kk_L, verify_kk_imag_axis_T,
                       verify_kk_imag_from_real_T, verify_kk_real_from_imag_T)

GOLD = gold_default().params
LOSSLESS = NonlocalParams(drude=DrudeParams(omega_p=9.0, gamma=0.0),
                          v_t_ratio=GOLD.v_t_ratio, v_l_ratio=GOLD.v_l_ratio)


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
    for fn, relation in ((verify_kk_real_from_imag_T, "t-real-from-imag"),
                         (verify_kk_imag_from_real_T, "t-imag-from-real"),
                         (verify_kk_imag_axis_T, "t-imag-axis")):
        report = fn(GOLD, 0.2)
        assert report.relation == relation
        assert report.k_hat == 0.2
        assert len(report.grid) == 13
        assert report.max_residual < 1e-6
        assert report.note == ""


def test_longitudinal_relations_hold():
    a, b, c = verify_kk_L(GOLD, 0.2)
    assert (a.relation, b.relation, c.relation) == (
        "l-real-from-imag", "l-imag-from-real", "l-imag-axis")
    for report in (a, b, c):
        assert report.max_residual < 1e-6
        assert report.note == ""


def test_dropping_pole_subtractions_breaks_the_relations():
    for fn in (verify_kk_real_from_imag_T, verify_kk_imag_from_real_T,
               verify_kk_imag_axis_T):
        report = fn(GOLD, 0.2, include_pole_terms=False)
        assert report.residuals[0] > 0.1
        assert report.max_residual > 0.1
    # the insulator-form relations carry no subtraction to drop
    for relation in RELATIONS:
        if relation.startswith("l-"):
            with pytest.raises(DomainError):
                verify_kk(relation, GOLD, 0.2, include_pole_terms=False)


def test_pole_subtractions_are_inert_without_spatial_dispersion():
    # the second-order-pole weight carries a factor v_T k_hat, so at
    # k_hat = 0 dropping it changes nothing for these two relations
    for fn in (verify_kk_real_from_imag_T, verify_kk_imag_axis_T):
        with_terms = fn(GOLD, 0.0)
        without = fn(GOLD, 0.0, include_pole_terms=False)
        assert with_terms.residuals == without.residuals
        assert with_terms.max_residual < 1e-6
    # the imag-from-real subtraction is the static conductivity, which
    # survives at k_hat = 0; its control must still fail
    report = verify_kk_imag_from_real_T(GOLD, 0.0, include_pole_terms=False)
    assert report.residuals[0] > 0.1


def test_conducting_limit_is_flagged_not_hidden():
    a, b, c = verify_kk_L(GOLD, 0.0)
    assert a.max_residual < 1e-6
    assert c.max_residual < 1e-6
    assert b.max_residual > 0.1
    assert "conducting limit" in b.note


def test_lossless_longitudinal_is_also_conducting():
    _, b, _ = verify_kk_L(LOSSLESS, 0.2)
    assert b.max_residual > 0.1
    assert "conducting limit" in b.note


def test_degenerate_longitudinal_pole_is_rejected():
    with pytest.raises(DomainError):
        verify_kk_L(LOSSLESS, 0.0)


def test_transverse_relations_need_dissipation():
    for fn in (verify_kk_real_from_imag_T, verify_kk_imag_from_real_T,
               verify_kk_imag_axis_T):
        with pytest.raises(DomainError):
            fn(LOSSLESS, 0.2)
        with pytest.raises(DomainError):
            fn(GOLD, -0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                fn(GOLD, bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            verify_kk_L(GOLD, bad)


def test_custom_grids_are_respected():
    report = verify_kk_real_from_imag_T(GOLD, 0.2, omega_grid=[0.3, 1.1])
    assert report.grid == (0.3, 1.1)
    assert len(report.residuals) == 2
    a, b, c = verify_kk_L(GOLD, 0.2, omega_grid=[0.5], xi_grid=[0.9, 2.0])
    assert a.grid == (0.5,)
    assert c.grid == (0.9, 2.0)


def test_grid_validation():
    with pytest.raises(DomainError):
        verify_kk_imag_axis_T(GOLD, 0.2, xi_grid=[])
    with pytest.raises(DomainError):
        verify_kk_imag_axis_T(GOLD, 0.2, xi_grid=[0.0])
    with pytest.raises(DomainError):
        verify_kk_L(GOLD, 0.2, omega_grid=[-1.0])
    with pytest.raises(DomainError):
        verify_kk("eq-31", GOLD, 0.2)
    for bad in (math.nan, math.inf):
        for relation in RELATIONS:
            with pytest.raises(DomainError, match="grid must be finite"):
                verify_kk(relation, GOLD, 0.2, grid=[0.5, bad])


def test_relations_at_one_wavevector_evaluate_each_sample_once(monkeypatch):
    seen = []

    def counted(model, x, k_hat=0.0):
        seen.append(x)
        return eval_real_axis(model, x, k_hat)

    kk._real_axis_samples.cache_clear()
    monkeypatch.setattr(kk, "eval_real_axis", counted)
    for relation in RELATIONS:
        verify_kk(relation, GOLD, 0.2)
    assert len(seen) > 1000
    assert len(set(seen)) == len(seen)


def test_sharing_samples_changes_no_residual_bit(monkeypatch):
    def residuals(order, fresh):
        kk._real_axis_samples.cache_clear()
        reports = {}
        for relation in order:
            if fresh:
                kk._real_axis_samples.cache_clear()
            reports[relation] = verify_kk(relation, GOLD, 0.2).residuals
        return reports

    in_order = residuals(list(RELATIONS), fresh=False)
    assert residuals(list(RELATIONS)[::-1], fresh=False) == in_order
    assert residuals(list(RELATIONS), fresh=True) == in_order

    class Unshared:
        """Every lookup evaluated afresh, as with no table at all."""

        def __init__(self, model, k_hat):
            self.model, self.k_hat = model, k_hat

        def __getitem__(self, x):
            return eval_real_axis(self.model, x, self.k_hat)

    monkeypatch.setattr(kk, "_real_axis_samples", Unshared)
    assert {relation: verify_kk(relation, GOLD, 0.2).residuals
            for relation in RELATIONS} == in_order


def test_imag_axis_relation_far_above_the_resonances():
    report = verify_kk_imag_axis_T(GOLD, 0.2, xi_grid=[1e3])
    assert report.max_residual < 1e-6
    assert abs(eval_imag_axis(gold_default(), 1e3, 0.2).eps_t - 1.0) < 1e-3
