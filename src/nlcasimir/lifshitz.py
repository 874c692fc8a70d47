"""Casimir pressure between parallel plates.

The pressure is a sum over Matsubara frequencies of transverse-wavevector
integrals.  Substituting y = 2*a*q_hat/(hbar c) makes every term an
integral of

    y^2 * sum_alpha r_alpha^2 e^{-y} / (1 - r_alpha^2 e^{-y})

from y_l = 2*a*xi_l/(hbar c) upward, so the exponential decay is explicit
and the same quadrature grid works for every model.  Each term is cut off
SPAN = 50 past its lower limit: the integrand there is below 1e-16 of its
peak (y^2 e^{-y} peaks by y = 2 and e^{-50} ~ 2e-22), so the tail is far
beyond double precision.

Per-term quadrature is adaptive with two nested Gauss-Legendre orders on
a fixed starting panel layout; all panel nodes are evaluated in one
vectorized pass through the reflection chain, which is what keeps
low-temperature runs with ~10^4 Matsubara terms fast.  Terms accumulate
in ascending l with compensated summation, so results are bit-identical
run to run.
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

_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
# starting panel edges, offsets from y_l; finer near the integrand peak
_PANEL_EDGES = (0.0, 2.0, 5.0, 10.0, 18.0, 30.0, SPAN)
_BLOCK = 64                     # Matsubara terms evaluated per vectorized pass


def _panel_offsets():
    edges = np.asarray(_PANEL_EDGES)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    off_hi = (mid[:, None] + half[:, None] * _NODES_HI).ravel()
    off_lo = (mid[:, None] + half[:, None] * _NODES_LO).ravel()
    return off_hi, off_lo, half


_OFF_HI, _OFF_LO, _PANEL_HALF = _panel_offsets()


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


def _eval_panels(f, panels):
    """Integrate f over each (a, b) panel with nested 15/7-point rules.

    Returns (I_hi, |I_hi - I_lo|) per panel.  Both node sets are evaluated
    in a single call to f.
    """
    a = panels[:, 0:1]
    h = 0.5 * (panels[:, 1:2] - a)
    mid = a + h
    pts_hi = mid + h * _NODES_HI
    pts_lo = mid + h * _NODES_LO
    n_hi = pts_hi.size
    vals = f(np.concatenate([pts_hi.ravel(), pts_lo.ravel()]))
    v_hi = vals[:n_hi].reshape(pts_hi.shape)
    v_lo = vals[n_hi:].reshape(pts_lo.shape)
    i_hi = h[:, 0] * (v_hi @ _WEIGHTS_HI)
    i_lo = h[:, 0] * (v_lo @ _WEIGHTS_LO)
    return i_hi, np.abs(i_hi - i_lo)


def _adaptive_integral(f, lo, rel_tol, max_refinements=60):
    """Integrate f over [lo, lo + SPAN] to a relative tolerance.

    Starts from the fixed panel layout and bisects the worst panel until
    the summed two-order error estimate is below rel_tol * |integral|.
    Deterministic: ties go to the leftmost panel.
    """
    edges = lo + np.asarray(_PANEL_EDGES)
    panels = np.column_stack([edges[:-1], edges[1:]])
    values, errors = _eval_panels(f, panels)
    panels = list(map(tuple, panels))
    values = list(values)
    errors = list(errors)
    for _ in range(max_refinements):
        total = math.fsum(values)
        err = math.fsum(errors)
        if err <= max(rel_tol * abs(total), 5e-324):
            return total, err
        worst = int(np.argmax(errors))
        a, b = panels[worst]
        mid = 0.5 * (a + b)
        halves = np.array([[a, mid], [mid, b]])
        new_vals, new_errs = _eval_panels(f, halves)
        panels[worst:worst + 1] = [(a, mid), (mid, b)]
        values[worst:worst + 1] = list(new_vals)
        errors[worst:worst + 1] = list(new_errs)
    total = math.fsum(values)
    raise ConvergenceError(
        f"wavevector quadrature stalled above tolerance {rel_tol}",
        last_estimate=total)


def _summand(y, r):
    """y^2 sum_alpha r_alpha^2 e^{-y} / (1 - r_alpha^2 e^{-y}) at nodes y."""
    ey = np.exp(-y)
    total = np.zeros_like(y)
    for amp in (r.r_tm, r.r_te):
        w = amp * amp * ey
        total += w / (1.0 - w)
    return y * y * total


def _block_integrals(model, xi, y_lo, a_um):
    """Initial-layout quadrature for a block of Matsubara terms at once.

    xi and y_lo are 1-d with one entry per term.  Every node of every
    panel of every term goes through the reflection chain in one shot;
    rows whose two-order error estimate misses the tolerance are redone
    by the adaptive scalar path.  Returns (integrals, error estimates).
    """
    c1 = CONSTANTS.hbar_c / (2.0 * a_um)
    col = y_lo[:, None]
    y = np.concatenate([col + _OFF_HI, col + _OFF_LO], axis=1)
    k_hat = np.sqrt(np.maximum((c1 * y) ** 2 - (xi * xi)[:, None], 0.0))
    vals = _summand(y, reflection_pair(model, xi[:, None], k_hat))
    n_hi = _OFF_HI.size
    shape = (len(y_lo), len(_PANEL_HALF))
    i_hi = vals[:, :n_hi].reshape(*shape, -1) @ _WEIGHTS_HI * _PANEL_HALF
    i_lo = vals[:, n_hi:].reshape(*shape, -1) @ _WEIGHTS_LO * _PANEL_HALF
    return i_hi.sum(axis=1), np.abs(i_hi - i_lo).sum(axis=1)


def _term_integrand(model, xi, a_um, zero_mode):
    c1 = CONSTANTS.hbar_c / (2.0 * a_um)

    def f(y):
        if zero_mode:
            return _summand(y, zero_freq_limit(model, c1 * y))
        k_hat = np.sqrt(np.maximum((c1 * y) ** 2 - xi * xi, 0.0))
        return _summand(y, reflection_pair(model, xi, k_hat))

    return f


def casimir_pressure(query: PressureQuery) -> PressureResult:
    """Evaluate the pressure sum for the query's model.

    The l = 0 term carries weight 1/2 and uses the analytic static
    reflection limits.  Summation stops once a term falls below term_tol
    of the accumulated total; the truncated Matsubara tail is bounded by
    a geometric estimate and folded into quad_error_estimate.
    """
    a = query.separation
    temp = query.temperature
    xi_1 = matsubara_xi(1, temp)
    dy = 2.0 * a * xi_1 / CONSTANTS.hbar_c
    l_cap = int(80.0 / dy) + 1000

    prefactor = -CONSTANTS.boltzmann * temp / (8.0 * math.pi * a**3)

    f0 = _term_integrand(query.model, 0.0, a, zero_mode=True)
    integral0, err0 = _adaptive_integral(f0, 0.0, query.quad_tol)
    term = 0.5 * integral0
    acc = term
    comp = 0.0          # Kahan compensation
    quad_err = 0.5 * err0
    raw_terms = [term]
    scale = 2.0 * a / CONSTANTS.hbar_c

    l = 0
    stopped = False
    block_start = 1
    while not stopped:
        ls = np.arange(block_start, block_start + _BLOCK)
        xi = xi_1 * ls
        y_lo = scale * xi
        integrals, errors = _block_integrals(query.model, xi, y_lo, a)
        for j in range(_BLOCK):
            l = int(ls[j])
            term = float(integrals[j])
            err = float(errors[j])
            if err > max(query.quad_tol * abs(term), 5e-324):
                f = _term_integrand(query.model, float(xi[j]), a, zero_mode=False)
                term, err = _adaptive_integral(f, float(y_lo[j]), query.quad_tol)
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
                stopped = True
                break
            if l >= l_cap:
                raise ConvergenceError(
                    f"Matsubara sum still above term_tol at l = {l} "
                    f"(a = {a} um, T = {temp} K)",
                    last_estimate=pressure_to_pascal(prefactor * acc))
        block_start += _BLOCK

    rho = math.exp(-dy)
    tail_bound = abs(term) * rho / (1.0 - rho) if rho < 1.0 else 0.0
    unit = abs(pressure_to_pascal(prefactor))
    return PressureResult(
        pressure=pressure_to_pascal(prefactor * acc),
        terms_used=l + 1,
        quad_error_estimate=unit * (quad_err + tail_bound),
        per_term=tuple(pressure_to_pascal(prefactor) * t for t in raw_terms))


def classical_limit_pressure(a_um, temperature, te_zero_weight=0.0):
    """Large-separation limit where only the l = 0 term survives.

    -zeta(3) k_B T (1 + w) / (8 pi a^3) in Pa; w is the weight of the TE
    zero-frequency amplitude squared (0 for the dissipative local model,
    approaching 1 for the plasma model as k_hat -> 0).
    """
    if a_um <= 0.0 or temperature <= 0.0:
        raise DomainError("separation and temperature must be positive")
    if not 0.0 <= te_zero_weight <= 1.0:
        raise DomainError(f"te_zero_weight must lie in [0, 1], got {te_zero_weight}")
    p = -APERY * CONSTANTS.boltzmann * temperature * (1.0 + te_zero_weight) \
        / (8.0 * math.pi * a_um**3)
    return pressure_to_pascal(p)


def ideal_metal_pressure_zero_t(a_um):
    """Zero-temperature perfect-mirror pressure, -pi^2 hbar c/(240 a^4), in Pa."""
    if a_um <= 0.0:
        raise DomainError(f"separation must be positive, got {a_um}")
    return pressure_to_pascal(-math.pi**2 * CONSTANTS.hbar_c / (240.0 * a_um**4))
