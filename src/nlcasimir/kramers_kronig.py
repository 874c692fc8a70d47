"""Causality checks for the response models.

The real and imaginary parts of a causal permittivity on the real
frequency axis determine each other through Hilbert-transform pairs, and
the same spectral data fixes the imaginary-axis values.  Spatial
dispersion complicates the zero-frequency behaviour of the transverse
component: besides the usual conductor pole (first order, compensated by
a static-conductivity term) it acquires a second-order pole weighted by
omega_p^2 v_T k_hat / gamma, and that piece must be subtracted explicitly
before the dispersion integrals converge.  The longitudinal component at
v_L k_hat > 0 is regular down to zero frequency and satisfies the plain
insulator-form relations with no subtraction at all.

The six relations differ only in their component (eps_T or eps_L), their
kernel (which part of eps is integrated and which value it rebuilds) and
the transverse pole subtraction.  RELATIONS has one row per relation id
and verify_kk runs a row on a grid; the four verify_kk_* functions are
the same checks under their older names, with the formulas written out.

Every relation integrates the same real-axis EpsPair of one model at one
k_hat, and the adaptive pieces of neighbouring grid points and of the
six relations sample many of the same x.  verify_kk therefore reads its
real-axis values, integrand samples and left-hand sides alike, from one
table per (model, k_hat) that evaluates eval_real_axis once per distinct
x and keeps it.  The last table used
stays alive, so consecutive relations at one wavevector share it and a
new wavevector frees it.  A sample is the same value whichever relation
asked first, so sharing cannot change a residual.

All integrals are folded onto (0, cutoff) using the Hermitian symmetry
eps(-x) = conj(eps(x)) that the underlying models obey, so the kernels
below are the folded ones: (x^2 - omega^2) in place of (x - omega).

Reports are KKReport records with residuals normalized by
max(|LHS|, |RHS|, 1), which stays meaningful both where eps is huge and
where it is close to 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad

from .errors import ConvergenceError, DomainError
from .response import (FOUR_PI, NonlocalAlt, NonlocalParams, eval_imag_axis,
                       eval_real_axis, static_transverse_conductivity)

_WINDOW_NODES, _WINDOW_WEIGHTS = np.polynomial.legendre.leggauss(31)


@dataclass(frozen=True)
class PVSettings:
    """Controls for principal-value quadrature.

    window is the half-width of the symmetric excision around the pole,
    cutoff replaces the infinite limits, tol is the relative tolerance
    handed to the adaptive pieces.
    """

    window: float = 1e-3       # eV
    cutoff: float = 1e4        # eV, far above any model scale
    tol: float = 1e-6

    def __post_init__(self):
        # written so that NaN and inf fail too
        if not 0.0 < self.window < math.inf:
            raise DomainError(
                f"window must be finite and positive, got {self.window}")
        if not self.window < self.cutoff < math.inf:
            raise DomainError("cutoff must be finite and exceed the "
                              "excision window")
        if not 0.0 < self.tol <= 1e-2:
            raise DomainError(f"tol must lie in (0, 1e-2], got {self.tol}")


# verify_* needs tighter pieces than the user-facing default: the two
# half-line pieces cancel near the pole, so their absolute errors must be
# small against the difference, not against themselves
_VERIFY_SETTINGS = PVSettings(tol=1e-9)


@dataclass
class KKReport:
    """Pointwise residuals of one dispersion relation on one grid."""

    relation: str
    k_hat: float
    grid: Tuple[float, ...]
    residuals: Tuple[float, ...]
    max_residual: float
    note: str = ""


# model structure lives at the eV scale but the cutoff sits decades above;
# pinning powers of ten stops QUADPACK extrapolating across the whole span
_DECADE_LADDER = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)


def _quad_piece(f, lo, hi, tol, hints):
    pts = sorted(p for p in {*hints, *_DECADE_LADDER} if lo < p < hi)
    result = quad(f, lo, hi, points=pts or None, limit=200,
                  epsabs=1e-12, epsrel=tol, full_output=1)
    value, abserr = result[0], result[1]
    if not math.isfinite(value):
        raise ConvergenceError("quadrature piece diverged",
                               last_estimate=value)
    if abserr > 50.0 * max(tol * abs(value), tol):
        raise ConvergenceError(
            f"quadrature piece stalled: error {abserr:.3e} on value {value:.3e}",
            last_estimate=value)
    return value


def pv_integral(f: Callable[[float], float], pole: Optional[float] = None, *,
                settings: Optional[PVSettings] = None,
                lo: Optional[float] = None, hi: Optional[float] = None,
                points: Sequence[float] = ()) -> float:
    """Integrate f, excising a simple pole symmetrically if one is given.

    Bounds default to (-cutoff, +cutoff).  A side left at its default is
    treated as truncated infinity and gets the tail estimate K*f(+-K),
    exact for kernels that decay like 1/x^2 and O(1/K^3) otherwise; this
    is what makes doubling the cutoff a no-op within tol.  Explicit
    bounds are respected as hard edges with no tail.

    Around a pole the window (pole-w, pole+w) is integrated as the even
    pairing f(pole+t) + f(pole-t) on (0, w): the divergent odd part of f
    cancels analytically and only the smooth even remainder is sampled.
    """
    s = settings if settings is not None else PVSettings()
    lo_eff = -s.cutoff if lo is None else float(lo)
    hi_eff = s.cutoff if hi is None else float(hi)
    if not lo_eff < hi_eff:
        raise DomainError("empty integration range")

    total = 0.0
    if pole is None:
        total += _quad_piece(f, lo_eff, hi_eff, s.tol, points)
    else:
        w = s.window
        if not (lo_eff < pole - w and pole + w < hi_eff):
            raise DomainError(
                "pole window must lie strictly inside the integration range")
        # geometric breakpoints around the excision edge keep QUADPACK's
        # extrapolation from stalling on the 1/(x - pole) boundary layer
        anchors = tuple(pole + sgn * w * m
                        for sgn in (-1.0, 1.0) for m in (10.0, 100.0, 1000.0))
        total += _quad_piece(f, lo_eff, pole - w, s.tol, (*points, *anchors))
        total += _quad_piece(f, pole + w, hi_eff, s.tol, (*points, *anchors))
        half = 0.5 * w
        t = half * (_WINDOW_NODES + 1.0)
        window_vals = [f(pole + ti) + f(pole - ti) for ti in t]
        total += half * float(np.dot(_WINDOW_WEIGHTS, window_vals))

    if lo is None:
        total += s.cutoff * f(-s.cutoff)
    if hi is None:
        total += s.cutoff * f(s.cutoff)
    return total


def _resolve_grid(grid, label):
    if grid is None:
        return np.geomspace(0.05, 5.0, 13)
    g = np.atleast_1d(np.asarray(grid, dtype=float))
    if g.size == 0:
        raise DomainError(f"{label} must not be empty")
    if not (np.all(g > 0.0) and np.all(g < math.inf)):   # NaN fails too
        raise DomainError(f"{label} must be finite and positive")
    return g


def _residual(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


_EPS_L, _EPS_T = 0, 1          # EpsPair fields


class _Samples(dict):
    """eval_real_axis(model, x, k_hat) by x, each evaluated on first use.

    Keys compare by value, so a float and an equal np.float64 share one
    entry, although numpy divides complex numbers with other rounding.
    QUADPACK passes floats, the window rule and the grids np.float64;
    over the eight wavevectors of the causality benchmark no x arrives
    both ways.
    """

    def __init__(self, model, k_hat):
        super().__init__()
        self.model, self.k_hat = model, k_hat

    def __missing__(self, x):
        # through the module-global name, so a patched eval_real_axis
        # sees every evaluation
        pair = self[x] = eval_real_axis(self.model, x, self.k_hat)
        return pair


# one slot: the relations of one wavevector run back to back, and a table
# holds about 10^4 samples; typed, so a numpy k_hat keeps its own arithmetic
@functools.lru_cache(maxsize=1, typed=True)
def _real_axis_samples(model, k_hat):
    return _Samples(model, k_hat)


class Kernel(NamedTuple):
    """What a relation integrates and rebuilds, whatever the component.

    integrand(samples, part, w, pole_weight) is the function of x sampled
    for grid point w, where samples is the real-axis table of the model at
    the relation's k_hat; samples[x][part] is a dict lookup once x has
    been evaluated, so a repeated sample costs no Python call.
    """

    real_axis: bool        # grid of omega, principal value at x = omega
    integrand: Callable
    rebuild: Callable      # (w, integral) -> right-hand side
    target: Callable       # (samples, w, part) -> left-hand side


def _one_plus_spectral(w, integral):
    return 1.0 + (2.0 / math.pi) * integral


_REAL_FROM_IMAG = Kernel(
    True,
    lambda samples, part, om, pole_weight: lambda x: (
        x * samples[x][part].imag / (x * x - om * om)),
    _one_plus_spectral,
    lambda samples, om, part: samples[om][part].real)
# pole_weight / x^2 cancels the second-order pole of Re eps_T at x = 0,
# without which the integral does not exist; eps_L has weight 0
_IMAG_FROM_REAL = Kernel(
    True,
    lambda samples, part, om, pole_weight: lambda x: (
        (samples[x][part].real + pole_weight / (x * x))
        / (x * x - om * om)),
    lambda om, integral: -(2.0 * om / math.pi) * integral,
    lambda samples, om, part: samples[om][part].imag)
_IMAG_AXIS = Kernel(
    False,
    lambda samples, part, xi, pole_weight: lambda x: (
        x * samples[x][part].imag / (x * x + xi * xi)),
    _one_plus_spectral,
    lambda samples, xi, part: eval_imag_axis(samples.model, xi,
                                             samples.k_hat)[part])


class Relation(NamedTuple):
    """One row of RELATIONS."""

    part: int              # _EPS_T or _EPS_L
    kernel: Kernel
    # (w, pole_weight, 4 pi sigma_0) -> pole term added to the right-hand
    # side; transverse only
    subtraction: Optional[Callable] = None
    note: str = ""         # reported while eps_L is in its conducting limit


RELATIONS = {
    "t-real-from-imag": Relation(
        _EPS_T, _REAL_FROM_IMAG, lambda om, weight, sigma: -weight / (om * om)),
    "t-imag-from-real": Relation(
        _EPS_T, _IMAG_FROM_REAL, lambda om, weight, sigma: sigma / om),
    "t-imag-axis": Relation(
        _EPS_T, _IMAG_AXIS, lambda xi, weight, sigma: weight / (xi * xi)),
    "l-real-from-imag": Relation(_EPS_L, _REAL_FROM_IMAG),
    "l-imag-from-real": Relation(
        _EPS_L, _IMAG_FROM_REAL,
        note="conducting limit: insulator-form relation omits the "
             "static-conductivity pole and fails by construction"),
    "l-imag-axis": Relation(_EPS_L, _IMAG_AXIS),
}


def _component_terms(part, params: NonlocalParams, k_hat, include_pole_terms):
    """Check the inputs for one component and return (quadrature break
    points, pole weight omega_p^2 v_T k_hat / gamma, 4 pi sigma_0)."""
    p = params.drude
    transverse = part == _EPS_T
    if transverse and p.gamma <= 0.0:
        raise DomainError("transverse dispersion relations need gamma > 0")
    if not 0.0 <= k_hat < math.inf:                 # NaN fails too
        raise DomainError(f"k_hat must be finite and >= 0, got {k_hat}")
    if transverse:
        return ((p.gamma,), p.omega_p**2 * params.v_t_ratio * k_hat / p.gamma,
                FOUR_PI * static_transverse_conductivity(params, k_hat))
    vlk = params.v_l_ratio * k_hat
    if p.gamma == 0.0 and vlk == 0.0:
        raise DomainError(
            "longitudinal response has an undamped real-axis pole when "
            "gamma = 0 and v_L k_hat = 0")
    if not include_pole_terms:
        raise DomainError("longitudinal relations carry no pole subtraction "
                          "to drop")
    return (p.gamma, vlk), 0.0, None


def verify_kk(relation: str, params: NonlocalParams, k_hat: float, grid=None,
              *, settings: Optional[PVSettings] = None,
              include_pole_terms: bool = True) -> KKReport:
    """Check one relation of RELATIONS pointwise on grid.

    grid holds omega, or xi for the imaginary-axis relations (default: 13
    points geometric in [0.05, 5] eV).  include_pole_terms = False drops
    the transverse pole subtraction as a negative control; longitudinal
    relations have none to drop and raise DomainError.
    """
    rel = RELATIONS.get(relation)
    if rel is None:
        raise DomainError(f"unknown relation id {relation!r}; choose from "
                          f"{', '.join(RELATIONS)}")
    hints, pole_weight, sigma_term = _component_terms(
        rel.part, params, k_hat, include_pole_terms)
    kernel = rel.kernel
    g = _resolve_grid(grid, "omega_grid" if kernel.real_axis else "xi_grid")
    s = settings if settings is not None else _VERIFY_SETTINGS
    samples = _real_axis_samples(NonlocalAlt(params), k_hat)

    residuals = []
    for w in g:
        f = kernel.integrand(samples, rel.part, w, pole_weight)
        integral = pv_integral(f, pole=w if kernel.real_axis else None,
                               settings=s, lo=0.0, points=hints)
        rhs = kernel.rebuild(w, integral)
        if include_pole_terms and rel.subtraction is not None:
            rhs += rel.subtraction(w, pole_weight, sigma_term)
        lhs = kernel.target(samples, w, rel.part)
        residuals.append(_residual(lhs, rhs))
    conducting = params.drude.gamma == 0.0 or params.v_l_ratio * k_hat == 0.0
    return KKReport(relation, float(k_hat), tuple(float(x) for x in g),
                    tuple(residuals), max(residuals),
                    note=rel.note if conducting else "")


def verify_kk_real_from_imag_T(params: NonlocalParams, k_hat: float,
                               omega_grid=None, *,
                               settings: Optional[PVSettings] = None,
                               include_pole_terms: bool = True) -> KKReport:
    """Rebuild Re eps_T from Im eps_T and compare pointwise.

    Folded form: Re eps_T(omega) = 1 + (2/pi) PV int_0^inf x Im eps_T(x)
    / (x^2 - omega^2) dx - (omega_p^2/omega^2)(v_T k_hat / gamma).  The
    last piece is the second-order-pole subtraction; include_pole_terms
    = False drops it and serves as the negative control.
    """
    return verify_kk("t-real-from-imag", params, k_hat, omega_grid,
                     settings=settings, include_pole_terms=include_pole_terms)


def verify_kk_imag_from_real_T(params: NonlocalParams, k_hat: float,
                               omega_grid=None, *,
                               settings: Optional[PVSettings] = None,
                               include_pole_terms: bool = True) -> KKReport:
    """Rebuild Im eps_T from Re eps_T and compare pointwise.

    Folded form: Im eps_T(omega) = -(2 omega/pi) PV int_0^inf [Re eps_T(x)
    + (omega_p^2/x^2)(v_T k_hat/gamma)] / (x^2 - omega^2) dx
    + 4 pi sigma_0 / omega.  The in-integrand term regularizes the
    second-order pole of Re eps_T at x = 0 and is always kept (without it
    the integral does not exist); the conductivity term is the
    first-order-pole piece that include_pole_terms = False drops for the
    negative control.
    """
    return verify_kk("t-imag-from-real", params, k_hat, omega_grid,
                     settings=settings, include_pole_terms=include_pole_terms)


def verify_kk_imag_axis_T(params: NonlocalParams, k_hat: float,
                          xi_grid=None, *,
                          settings: Optional[PVSettings] = None,
                          include_pole_terms: bool = True) -> KKReport:
    """Check eps_T(i xi) against the spectral integral of Im eps_T.

    eps_T(i xi) = 1 + (2/pi) int_0^inf x Im eps_T(x)/(x^2 + xi^2) dx
    + (omega_p^2/xi^2)(v_T k_hat/gamma); no principal value is needed off
    the real axis, but the second-order-pole term survives and is again
    the include_pole_terms piece.
    """
    return verify_kk("t-imag-axis", params, k_hat, xi_grid,
                     settings=settings, include_pole_terms=include_pole_terms)


def verify_kk_L(params: NonlocalParams, k_hat: float,
                omega_grid=None, xi_grid=None, *,
                settings: Optional[PVSettings] = None
                ) -> Tuple[KKReport, KKReport, KKReport]:
    """Run the three insulator-form checks on the longitudinal component.

    Returns reports for real-from-imag, imag-from-real, and the
    imaginary-axis relation, in that order.  eps_L stays finite at zero
    frequency only while both damping scales are positive; if gamma or
    v_L k_hat vanishes the response degenerates to the conducting form
    whose imag-from-real relation needs a static-conductivity term the
    insulator form lacks.  That report is computed anyway and flagged in
    its note, since the failure is structural rather than numerical.
    """
    return (verify_kk("l-real-from-imag", params, k_hat, omega_grid,
                      settings=settings),
            verify_kk("l-imag-from-real", params, k_hat, omega_grid,
                      settings=settings),
            verify_kk("l-imag-axis", params, k_hat, xi_grid,
                      settings=settings))
