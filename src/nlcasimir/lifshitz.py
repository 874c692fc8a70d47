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
zero_freq_limit at k_hat = c1 u^2.  Seven u-panels carry a G7/K15
Gauss-Kronrod rule: K15 is the value, |K15 - G7| the error estimate.

A block of terms goes through the reflection chain in one 2-d pass.  In a
row that misses quad_tol, every panel whose error exceeds its width's
share of the tolerance is bisected, all rows at once in another 2-d
pass, until the row meets it or holds _MAX_PANELS panels.  Rows with
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
from .response import ResponseModel
from .reflection import reflection_pair, zero_freq_limit

APERY = 1.2020569031595943      # zeta(3)
SPAN = 50.0                     # width of each term's y-integration window

# Kronrod nodes x >= 0 on [-1, 1], their K15 weights and the G7 weights,
# which are 0 on the nodes G7 lacks
_KRONROD_X = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
              0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
              0.207784955007898468, 0.0)
_KRONROD_W = (0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
              0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
              0.204432940075298892, 0.209482141084727828)
_GAUSS_W = (0.0, 0.129484966168869693, 0.0, 0.279705391489276668,
            0.0, 0.381830050505118945, 0.0, 0.417959183673469388)


def _gauss_kronrod():
    """The 15 nodes and a (15, 2) matrix of K15 and G7 weights."""
    x = np.array(_KRONROD_X)
    columns = [np.concatenate([w[:-1], w[::-1]])
               for w in (np.array(_KRONROD_W), np.array(_GAUSS_W))]
    return np.concatenate([-x[:-1], x[::-1]]), np.column_stack(columns)


_NODES, _WEIGHTS = _gauss_kronrod()
# panel edges in u; finer near the integrand peak
_U_EDGES = np.sqrt((0.0, 0.5, 2.0, 5.0, 10.0, 18.0, 30.0, SPAN))
_BLOCK = 64                     # Matsubara terms evaluated per vectorized pass
_MAX_PANELS = 128               # refinement stops once a term has this many


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


def _panels(model, c1, xi, y_lo, rows, lo, hi):
    """K15 values and |K15 - G7| errors on the u-panels [lo, hi] of rows.

    One 2-d pass, one row per panel.  xi None means the static term.
    """
    half = 0.5 * (hi - lo)
    u = (lo + half)[:, None] + half[:, None] * _NODES
    y0 = y_lo[rows][:, None]
    if xi is None:
        pair = zero_freq_limit(model, c1 * u * u)
    else:
        pair = reflection_pair(model, xi[rows][:, None],
                               c1 * u * np.sqrt(2.0 * y0 + u * u))
    kg = (2.0 * u * _summand(y0 + u * u, pair)) @ _WEIGHTS * half[:, None]
    return kg[:, 0], np.abs(kg[:, 0] - kg[:, 1])


def _integrate(model, c1, xi, y_lo, quad_tol, floor):
    """Wavevector integrals of a block of Matsubara terms.

    xi and y_lo hold one entry per term (xi None: the static term at
    y_lo = 0).  Rows that miss quad_tol and have |I| + err >= floor are
    refined by bisecting their missing panels.  Returns (integrals, error
    estimates, converged flags).
    """
    n = len(y_lo)
    new = (np.repeat(np.arange(n), len(_U_EDGES) - 1),
           np.tile(_U_EDGES[:-1], n), np.tile(_U_EDGES[1:], n))
    kept = (np.empty(0, int),) + (np.empty(0),) * 4
    while True:
        rows, lo, hi, val, err = (
            np.concatenate(pair) for pair in
            zip(kept, new + _panels(model, c1, xi, y_lo, *new)))
        total = np.bincount(rows, val, n)
        error = np.bincount(rows, err, n)
        tol = np.maximum(quad_tol * np.abs(total), 5e-324)
        missing = error > tol
        refine = (missing & (np.abs(total) + error >= floor)
                  & (np.bincount(rows, minlength=n) < _MAX_PANELS))
        if not refine.any():
            return total, error, ~missing
        # a panel misses when its error exceeds its width's share of tol
        split = refine[rows] & (err * _U_EDGES[-1] > tol[rows] * (hi - lo))
        mid = 0.5 * (lo[split] + hi[split])
        new = (np.repeat(rows[split], 2),
               np.column_stack([lo[split], mid]).ravel(),
               np.column_stack([mid, hi[split]]).ravel())
        kept = tuple(x[~split] for x in (rows, lo, hi, val, err))


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
