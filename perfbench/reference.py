"""Independent reference for the Casimir pressure the CLI prints.

The program sums Matsubara terms until one falls below term_tol and
integrates each term adaptively.  The reference shares only the public
reflection amplitudes with it: every term up to y_l = Y_MAX is
integrated with one fixed composite Gauss-Legendre rule after the
substitution y = y_l + u^2, and the l = 0 term goes through
scipy.integrate.quad.  In u the integrand has no square-root branch at
the lower limit, because k_hat = c1 u sqrt(2 xi/c1 + u^2), so a fixed
rule converges: 32 and 48 nodes per panel agree to about 4e-16.

Terms beyond y_l = 40 weigh below 40^2 e^-40 ~ 7e-15 of the sum, and
each term is cut at y_l + 41 where e^-41 ~ 2e-18.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from nlcasimir import CONSTANTS, reflection_pair, zero_freq_limit

Y_MAX = 40.0
# panel edges in u = sqrt(y - y_l); fine near u = 0, where the amplitudes
# of the low Matsubara terms change fastest
U_EDGES = np.array([0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4])
TERMS_PER_CHUNK = 256


def _u_rule(order):
    x, w = np.polynomial.legendre.leggauss(order)
    lo = U_EDGES[:-1, None]
    half = 0.5 * (U_EDGES[1:, None] - lo)
    nodes = (lo + half + half * x).ravel()
    return nodes, (half * w).ravel()


def _integrand(amps, y):
    ey = np.exp(-y)
    total = 0.0
    for amp in (amps.r_tm, amps.r_te):
        w = amp * amp * ey
        total = total + w / (1.0 - w)
    return y * y * total


def reference_pressure(model, a_um, temperature, order=32):
    """Pressure in Pa between plates of `model` at separation a_um."""
    hbar_c = CONSTANTS.hbar_c
    c1 = hbar_c / (2.0 * a_um)
    xi_1 = 2.0 * math.pi * CONSTANTS.boltzmann * temperature
    dy = 2.0 * a_um * xi_1 / hbar_c

    def zero_term(y):
        return float(_integrand(zero_freq_limit(model, c1 * y), y))

    total0, _ = quad(zero_term, 0.0, np.inf, epsabs=0.0, epsrel=1e-13,
                     limit=200)
    u, w = _u_rule(order)
    weights = 2.0 * u * w               # dy = 2 u du
    n_terms = int(Y_MAX / dy) + 1
    terms = []
    for start in range(1, n_terms + 1, TERMS_PER_CHUNK):
        ls = np.arange(start, min(start + TERMS_PER_CHUNK, n_terms + 1))
        xi = (xi_1 * ls)[:, None]
        y = 2.0 * a_um * xi / hbar_c + u * u
        k_hat = c1 * u * np.sqrt(2.0 * xi / c1 + u * u)
        terms.append(_integrand(reflection_pair(model, xi, k_hat), y) @ weights)
    # smallest terms first
    total = 0.5 * total0 + math.fsum(np.concatenate(terms)[::-1])
    prefactor = -CONSTANTS.boltzmann * temperature / (8.0 * math.pi * a_um**3)
    return prefactor * total * CONSTANTS.ev_per_um3_to_pascal
