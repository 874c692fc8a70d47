"""Reference paths the tests hold the package to.

Each of these is a plain, slow or closed-form statement of something the
package computes another way, and no command calls it:

* pv_integral: scalar QUADPACK principal values, the oracle of
  verify_kk's block integrals (nlcasimir.kramers_kronig);
* classical_limit_pressure: the large-separation limit of the Lifshitz
  pressure, where only the l = 0 term survives;
* coeffs_from_impedance: reflection amplitudes from surface impedances,
  which must reduce to the Fresnel forms for a local response;
* core_imag_axis: the interband core as the trapezoid rule on the
  measured grid, the definition CoreTable's Lorentz lines rearrange.

scipy is a test-only dependency; the package never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from nlcasimir import (CONSTANTS, ConvergenceError, DomainError, ImpedancePair,
                       InterbandImEps, ReflectionPair, pressure_to_pascal)
from nlcasimir.reflection import q_hat

APERY = 1.2020569031595943      # zeta(3)

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


def classical_limit_pressure(a_um, temperature, te_zero_weight=0.0):
    """Large-separation limit where only the l = 0 term survives.

    -zeta(3) k_B T (1 + w) / (8 pi a^3) in Pa; w is the weight of the TE
    zero-frequency amplitude squared (0 for the dissipative local model,
    approaching 1 for the plasma model as k_hat -> 0).
    """
    # written so that NaN and inf fail too
    if not (0.0 < a_um < math.inf and 0.0 < temperature < math.inf):
        raise DomainError("separation and temperature must be finite and "
                          "positive")
    if not 0.0 <= te_zero_weight <= 1.0:
        raise DomainError(f"te_zero_weight must lie in [0, 1], got {te_zero_weight}")
    p = -APERY * CONSTANTS.boltzmann * temperature * (1.0 + te_zero_weight) \
        / (8.0 * math.pi * a_um**3)
    return pressure_to_pascal(p)


def coeffs_from_impedance(z: ImpedancePair, xi, k_hat):
    """Reflection amplitudes from surface impedances.

    The TE denominator uses z_te, as symmetry with the TM line and the
    local limit both require.
    """
    q = q_hat(xi, k_hat)
    r_tm = (q - xi * z.z_tm) / (q + xi * z.z_tm)
    r_te = (q * z.z_te - xi) / (q * z.z_te + xi)
    return ReflectionPair(r_tm, r_te)


def core_imag_axis(ib: InterbandImEps, xi: float) -> float:
    """Interband core at imaginary frequency i*xi, trapezoid on the grid."""
    if xi <= 0.0:
        raise DomainError(f"xi must be positive, got {xi}")
    x = ib.energy
    integrand = x * ib.im_eps / (x * x + xi * xi)
    return 1.0 + (2.0 / math.pi) * float(np.trapezoid(integrand, x))
