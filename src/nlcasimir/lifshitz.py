"""Casimir pressure between parallel plates.

The pressure is a sum over Matsubara frequencies of transverse-wavevector
integrals.  Substituting y = 2*a*q_hat/(hbar c) makes every term an
integral of

    y^2 * sum_alpha r_alpha^2 e^{-y} / (1 - r_alpha^2 e^{-y})

from y_l = 2*a*xi_l/(hbar c) to y_l + SPAN; e^{-50} ~ 2e-22 puts the cut
far beyond double precision.  Every term, l = 0 included, is integrated
in u = sqrt(y - y_l), Jacobian 2u, where k_hat = c1 u sqrt(2 y_l + u^2),
c1 = hbar c/(2a), is free of cancellation and the nonlocal eps_T (linear
in k_hat) has no square-root branch; the static term takes
zero_freq_limit at k_hat = c1 u^2.

A block of terms goes through the reflection chain in one 2-d pass of
the G7/K15 quadrature of nlcasimir.quadrature, on seven u-panels per term
at the start, and rows that miss quad_tol are refined.  Rows with
|I| + err below term_tol times the sum so far are not refined: the stop
test ends the sum there.  A row the sum consumes while still missing is
refined alone, or raises ConvergenceError.  Terms accumulate in ascending
l with compensated summation, so results are bit-identical run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constants import CONSTANTS, matsubara_xi, pressure_to_pascal
from .errors import ConvergenceError, DomainError
from .quadrature import integrate
from .response import ResponseModel
from .reflection import reflection_pair, zero_freq_limit

APERY = 1.2020569031595943      # zeta(3)
SPAN = 50.0                     # width of each term's y-integration window

# panel edges in u; finer near the integrand peak
_U_EDGES = np.sqrt((0.0, 0.5, 2.0, 5.0, 10.0, 18.0, 30.0, SPAN))
_BLOCK = 64                     # Matsubara terms evaluated per vectorized pass


@dataclass(frozen=True)
class PressureQuery:
    separation: float          # um
    temperature: float         # K
    model: ResponseModel
    quad_tol: float = 1e-9
    term_tol: float = 1e-10

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 < self.separation < math.inf:
            raise DomainError(f"separation must be finite and positive, got {self.separation}")
        if not 0.0 < self.temperature < math.inf:
            raise DomainError(f"temperature must be finite and positive, got {self.temperature}")
        for name, tol in (("quad_tol", self.quad_tol), ("term_tol", self.term_tol)):
            if not 0.0 < tol <= 1e-3:
                raise DomainError(f"{name} must lie in (0, 1e-3], got {tol}")


@dataclass(frozen=True)
class PressureResult:
    pressure: float            # Pa, negative = attraction
    terms_used: int
    quad_error_estimate: float  # Pa
    per_term: Optional[Sequence[float]] = None  # Pa contributions, l ascending


def _summand(y, r):
    """y^2 sum_alpha r_alpha^2 e^{-y} / (1 - r_alpha^2 e^{-y}) at nodes y."""
    ey = np.exp(-y)
    total = np.zeros_like(y)
    for amp in (r.r_tm, r.r_te):
        w = amp * amp * ey
        total += w / (1.0 - w)
    return y * y * total


def _integrate(model, c1, xi, y_lo, quad_tol, floor):
    """(integrals, errors, converged flags) of the terms xi, y_lo (xi None:
    the static term, y_lo = 0); rows with |I| + err < floor are not refined."""
    def u_integrand(rows, u):
        y0 = y_lo[rows][:, None]
        if xi is None:
            pair = zero_freq_limit(model, c1 * u * u)
        else:
            pair = reflection_pair(model, xi[rows][:, None],
                                   c1 * u * np.sqrt(2.0 * y0 + u * u))
        return 2.0 * u * _summand(y0 + u * u, pair)

    edges = np.broadcast_to(_U_EDGES, (len(y_lo), len(_U_EDGES)))
    return integrate(u_integrand, edges, quad_tol, floor=floor)


def _refined(model, c1, xi, y_lo, quad_tol):
    """One term to quad_tol; ConvergenceError with its estimate if it stalls."""
    (value,), (err,), (ok,) = _integrate(model, c1, xi, y_lo, quad_tol, 0.0)
    if not ok:
        raise ConvergenceError(
            f"wavevector quadrature stalled above tolerance {quad_tol}",
            last_estimate=float(value))
    return float(value), float(err)


def _matsubara_tail(term, y_last, dy):
    """|term| sum_{j>=1} rho^j P(y_last + j dy) / P(y_last), rho = e^{-dy}.

    Terms fall off like the Gamma(3, y_l) envelope e^{-y_l} P(y_l), P(y) =
    y^2 + 2y + 2; the sum is closed-form from sum_j j^k rho^j, k = 0, 1, 2.
    """
    rho = math.exp(-dy)
    if rho >= 1.0:
        return 0.0
    q = 1.0 - rho
    p = y_last * y_last + 2.0 * y_last + 2.0
    return abs(term) * rho / q * (1.0 + (2.0 * y_last + 2.0) * dy / (q * p)
                                  + dy * dy * (1.0 + rho) / (q * q * p))


def casimir_pressure(query: PressureQuery) -> PressureResult:
    """Evaluate the pressure sum for the query's model.

    The l = 0 term carries weight 1/2 and uses the analytic static
    reflection limits.  Summation stops once a term falls below term_tol
    of the accumulated total; the truncated Matsubara tail is bounded by
    _matsubara_tail and folded into quad_error_estimate.
    """
    a = query.separation
    temp = query.temperature
    model = query.model
    quad_tol = query.quad_tol
    xi_1 = matsubara_xi(1, temp)
    dy = 2.0 * a * xi_1 / CONSTANTS.hbar_c
    l_cap = int(80.0 / dy) + 1000
    c1 = CONSTANTS.hbar_c / (2.0 * a)

    prefactor = -CONSTANTS.boltzmann * temp / (8.0 * math.pi * a**3)

    integral0, err0 = _refined(model, c1, None, np.zeros(1), quad_tol)
    term = 0.5 * integral0
    acc = term
    comp = 0.0          # Kahan compensation
    quad_err = 0.5 * err0
    raw_terms = [term]
    scale = 2.0 * a / CONSTANTS.hbar_c

    l = 0
    while True:
        l += 1
        j = (l - 1) % _BLOCK
        if j == 0:
            xi = xi_1 * np.arange(l, l + _BLOCK)
            y_lo = scale * xi
            integrals, errors, converged = _integrate(
                model, c1, xi, y_lo, quad_tol, query.term_tol * abs(acc))
        term, err = float(integrals[j]), float(errors[j])
        if not converged[j]:
            term, err = _refined(model, c1, xi[j:j + 1], y_lo[j:j + 1], quad_tol)
        quad_err += err
        raw_terms.append(term)

        # compensated accumulation, fixed ascending order
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t

        if acc == 0.0 and term == 0.0:
            # no interaction at all; report the single meaningful term
            return PressureResult(0.0, 1, 0.0, (0.0,))
        if abs(term) < query.term_tol * abs(acc):
            break
        if l >= l_cap:
            raise ConvergenceError(
                f"Matsubara sum still above term_tol at l = {l} "
                f"(a = {a} um, T = {temp} K)",
                last_estimate=pressure_to_pascal(prefactor * acc))

    tail_bound = _matsubara_tail(term, float(y_lo[j]), dy)
    unit = abs(pressure_to_pascal(prefactor))
    return PressureResult(
        pressure=pressure_to_pascal(prefactor * acc),
        terms_used=l + 1,
        quad_error_estimate=unit * (quad_err + tail_bound),
        per_term=tuple(
            (pressure_to_pascal(prefactor) * np.array(raw_terms)).tolist()))


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


def ideal_metal_pressure_zero_t(a_um):
    """Zero-temperature perfect-mirror pressure, -pi^2 hbar c/(240 a^4), in Pa."""
    if not 0.0 < a_um < math.inf:
        raise DomainError(f"separation must be finite and positive, got {a_um}")
    return pressure_to_pascal(-math.pi**2 * CONSTANTS.hbar_c / (240.0 * a_um**4))
